//! A pinned SipHash-1-3 for deterministic noise.
//!
//! Every trace time and every reference-tier timing draws its
//! per-operator noise from a hash of the operator's identity. Those
//! values feed the golden snapshots, so the hash must never change.
//! `std`'s `DefaultHasher` documents its algorithm as unspecified across
//! Rust releases; this is the algorithm it uses today (SipHash-1-3 with
//! zero keys) written out in the repository, with its input encoding
//! fixed as well: integers as little-endian `u64`, strings as their
//! bytes followed by a `0xff` terminator.

/// Streaming SipHash-1-3 with zero keys.
///
/// ```rust
/// use triosim_trace::NoiseHasher;
///
/// let mut h = NoiseHasher::new();
/// h.write_u64(7);
/// h.write_str("fc");
/// let a = h.finish();
/// let mut h = NoiseHasher::new();
/// h.write_u64(7);
/// h.write_str("fc");
/// assert_eq!(a, h.finish());
/// ```
#[derive(Debug, Clone)]
pub struct NoiseHasher {
    v: [u64; 4],
    /// Bytes written so far (only the low byte enters the digest).
    len: u64,
    /// Pending bytes of the current 8-byte block, little-endian.
    tail: u64,
    ntail: u32,
}

impl Default for NoiseHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl NoiseHasher {
    /// A hasher keyed with `(0, 0)`.
    pub fn new() -> Self {
        NoiseHasher {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            len: 0,
            tail: 0,
            ntail: 0,
        }
    }

    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    fn block(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.v[0] ^= m;
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        // Top up a pending block first.
        if self.ntail != 0 {
            let fill = rest.len().min(8 - self.ntail as usize);
            self.tail |= le_word(&rest[..fill]) << (8 * self.ntail);
            self.ntail += fill as u32;
            rest = &rest[fill..];
            if self.ntail < 8 {
                return;
            }
            self.block(self.tail);
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            self.block(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        self.tail = le_word(words.remainder());
        self.ntail = words.remainder().len() as u32;
    }

    /// Feeds `v` as 8 little-endian bytes (also how a `usize` is fed).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds the bytes of `s`, then a `0xff` terminator.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        let b = ((self.len & 0xff) << 56) | self.tail;
        s.block(b);
        s.v[2] ^= 0xff;
        for _ in 0..3 {
            s.round();
        }
        s.v[0] ^ s.v[1] ^ s.v[2] ^ s.v[3]
    }
}

/// Up to 8 bytes as a little-endian word, zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b))
}

/// Maps a digest to `[-amp, +amp]` on a 10,000-step grid: the noise
/// draw every call site shares.
pub fn signed_unit(digest: u64, amp: f64) -> f64 {
    let unit = (digest % 10_000) as f64 / 10_000.0; // [0, 1)
    (unit * 2.0 - 1.0) * amp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers, computed with `std`'s `DefaultHasher` (Rust 1.95)
    /// over the same inputs fed through its `Hash` impls, for the three
    /// shapes the noise sites hash.
    #[test]
    fn known_answers_match_the_pinned_algorithm() {
        let jitter = |name: &str, flops: f64, spec: &str| {
            let mut h = NoiseHasher::new();
            h.write_str(name);
            h.write_u64(flops.to_bits());
            h.write_str(spec);
            h.finish()
        };
        assert_eq!(jitter("conv1", 1.5e9, "A100"), 0x5c8e_8902_a5c7_2c6a);
        assert_eq!(jitter("fc", 4096.0, "H100"), 0xd1f4_fde8_3b5f_7bc5);
        assert_eq!(jitter("", 0.0, "A40"), 0xcc52_2b21_e169_be64);
        assert_eq!(
            jitter("layer4.1.conv2.bwd_weight", 3.7e11, "A100"),
            0xdcc2_6cd5_7271_f7ae
        );
        let board = |gpu: u64| {
            let mut h = NoiseHasher::new();
            h.write_u64(gpu);
            h.write_u64(0xB0A2D);
            h.finish()
        };
        assert_eq!(board(0), 0xa4bd_0f72_1738_5231);
        assert_eq!(board(1), 0x9f15_0d97_189d_c7e9);
        assert_eq!(board(7), 0x0f77_7321_6ec4_8178);
        assert_eq!(board(15), 0x345b_984c_df2c_67e3);
        let noise = |gpu: u64, name: &str, flops: f64| {
            let mut h = NoiseHasher::new();
            h.write_u64(gpu);
            h.write_str(name);
            h.write_u64(flops.to_bits());
            h.finish()
        };
        assert_eq!(
            noise(0, "fc", 512.0 * 512.0 * 512.0 * 2.0),
            0x9876_91ec_1749_fa2b
        );
        assert_eq!(noise(3, "conv1", 1.5e9), 0x7e38_5b5b_176b_48f4);
        assert_eq!(noise(12, "attn.qkv", 7.25e10), 0xfd64_e4d4_8b1f_cf22);
        assert_eq!(NoiseHasher::new().finish(), 0xd1fb_a762_150c_532c);
    }

    #[test]
    fn split_writes_equal_one_write() {
        let mut a = NoiseHasher::new();
        a.write(b"abcdefghijk");
        let mut b = NoiseHasher::new();
        b.write(b"abc");
        b.write(b"defghij");
        b.write(b"k");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn signed_unit_spans_the_amplitude() {
        assert_eq!(signed_unit(0, 0.5), -0.5);
        assert_eq!(signed_unit(5_000, 0.5), 0.0);
        assert!(signed_unit(9_999, 0.5) < 0.5);
    }
}
