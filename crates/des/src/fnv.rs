//! FNV-1a, the workspace's content fingerprint.
//!
//! Timeline digests, checkpoint and journal spec hashes, network spec
//! fingerprints and server job ids are all FNV-1a 64-bit folds. They
//! share this one definition, so equal inputs hash equally everywhere.

/// FNV-1a 64-bit initial state: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a 64-bit state `h`. Start a digest from
/// [`FNV_OFFSET`]; folding in pieces equals folding their concatenation.
///
/// ```rust
/// use triosim_des::{fnv1a, FNV_OFFSET};
///
/// let whole = fnv1a(FNV_OFFSET, b"abc");
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"bc"), whole);
/// assert_eq!(whole, 0xe71f_a219_0541_574b);
/// ```
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}
