#!/usr/bin/env python3
"""The repository benchmark: four named workloads against the shipped
`triosim-cli` surfaces (`simulate`, `sweep`, `serve`).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds `triosim-cli` and the
benchmark's own probe (`perfbench/probe`) in release mode, makes the
workload's inputs from the seed, and measures for `--seconds` seconds.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
makes a separate traced run: the probe replays the same inputs through
the same public library calls, timing each call into a layer from
outside the library, and reports the per-layer split of the untraced
wall time (`residual_s` is what no layer span covers).

Every run checks its outputs: canonical report bytes repeat across
invocations, the traced replay reproduces the CLI's bytes, and each
served result equals an offline `run_sweep` of the same spec. A human
readable block goes to stdout first; the last stdout line is one JSON
object `{"correct", "attempted", "failed", "metrics"}`. The process
exits non-zero when a correctness check fails. See perfbench/README.md.
"""

import argparse
import http.client
import json
import math
import os
import platform as host_platform
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_MANIFEST = ROOT / "perfbench" / "probe" / "Cargo.toml"
WORKLOADS = ("steady_ddp_long", "design_sweep", "packet_incast", "served_jobs")

# The fixed inputs of the three offline workloads. Only `served_jobs`
# draws its inputs (the job mix) from the seed.
SIMULATE = {
    "steady_ddp_long": {
        "model": "resnet50", "batch": 64, "platform": "p2:8",
        "parallelism": "ddp", "fidelity": "triosim", "iterations": 1000,
    },
    "packet_incast": {
        "model": "resnet18", "batch": 32, "platform": "fat:A100:8:4",
        "parallelism": "ddp", "fidelity": "packet", "iterations": 4,
    },
}
DESIGN_SWEEP = {
    "name": "design_sweep",
    "defaults": {"gpu": "A100", "iterations": 1},
    "grid": {
        "model": ["resnet50", "resnet152", "densenet201", "vgg19",
                  "gpt2", "bert-base", "t5-small", "llama-3.2-1b"],
        "parallelism": ["dp", "ddp", "tp", "pp:2"],
        "platform": ["p2:4", "p2:8", "fat:A100:16:4"],
        "trace_batch": [16, 64],
        "fidelity": ["triosim", "reference"],
    },
}
SWEEP_THREADS = 2
# `serve` runs each job's sweep on one thread per core by default.
JOB_THREADS = len(os.sched_getaffinity(0))
# served_jobs: a closed loop of two clients in rounds of ROUND_JOBS jobs
# per client; the daemon runs with its defaults (one worker, one job
# thread per core). The daemon accepts connections on a 10 ms tick
# (TICK_S), anchored at its last accept. Each client waits a seeded
# random think time of up to one tick before every submit and on top of
# every POLL_S poll sleep, so its requests reach the daemon at a uniform
# phase of the tick. Fixed sleeps instead lock the two clients and the
# tick into one of several phase modes per run, and the run's median
# latency jumps by whole ticks with the mode. The 12 ms poll lands
# after the small models' jobs are done.
CLIENTS = 2
ROUND_JOBS = 8
POLL_S = 0.030
TICK_S = 0.010
JOB_MODELS = ("resnet18", "vgg11")
JOB_AXES = (
    ("parallelism", ["ddp", "tp"]),
    ("fidelity", ["triosim", "reference"]),
    ("parallelism", ["dp", "ddp"]),
)
DIGEST_JOBS = 32
# Set-up is short and its speed differs from process to process, so it
# is repeated in at least SETUP_PROCS fresh processes, one after each CLI
# run, and the pooled median is reported. The service's set-up is a
# fresh daemon each time.
SETUP_PROCS = 5
SETUP_REPS = {"simulate": 20, "sweep": 5, "serve": 15}
# Children run with a fixed environment so the caller's settings (a
# panic backtrace costs time on every isolated scenario panic) cannot
# move the numbers.
CHILD_ENV = dict(os.environ, RUST_BACKTRACE="0", RUST_LIB_BACKTRACE="0")

LAYERS = ("trace", "perfmodel", "extrapolate", "network", "executor",
          "report", "sweep", "journal", "server")


class BenchError(Exception):
    """A failure that makes the run unusable (not a wrong result)."""


def log(msg):
    print(msg, flush=True)


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def percentile(xs, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    return sorted(xs)[max(0, math.ceil(q / 100 * len(xs)) - 1)]


# ---------------------------------------------------------------- build

def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds the CLI and the probe (a no-op when both are fresh)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "triosim",
         "--bin", "triosim-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(PROBE_MANIFEST)],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=840)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n{r.stdout.decode()[-2000:]}")
    rel = target_dir() / "release"
    return rel / "triosim-cli", rel / "triosim-perfprobe"


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except OSError:
        rustc = "unknown"
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        rev = r.stdout.strip() or rev
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": rustc,
        "git_rev": rev,
        "build_profile": "release",
        "python": host_platform.python_version(),
    }


# ------------------------------------------------------------ processes

def run_measured(cmd, cwd):
    """Runs `cmd` in a fresh process; returns (exit code, wall seconds,
    peak RSS in MB from the kernel's wait4 accounting, stdout)."""
    out_path = Path(cwd) / "child.out"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, env=CHILD_ENV, stdout=out,
                             stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes()


def probe(probe_bin, args, cwd):
    r = subprocess.run([str(probe_bin)] + [str(a) for a in args], cwd=cwd,
                       env=CHILD_ENV, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: {r.stderr.decode()[-1500:]}")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


class SetupSampler:
    """Set-up samples, `reps` per fresh probe process. The workload calls
    it between its CLI runs, so set-up is timed on the host as the runs
    see it, not in one burst."""

    def __init__(self, probe_bin, args, reps, cwd):
        self.cmd = (probe_bin, args + ["--reps", reps], cwd)
        self.samples, self.calls = [], 0

    def __call__(self):
        self.samples += probe(*self.cmd)["setup_s"]
        self.calls += 1

    def finish(self):
        while self.calls < SETUP_PROCS:
            self()
        return self.samples


class Daemon:
    """A `triosim-cli serve` subprocess on a fresh data dir and an
    ephemeral port."""

    def __init__(self, cli, work, tag):
        self.dir = Path(work) / f"daemon-{tag}"
        self.dir.mkdir(parents=True)
        self.out = self.dir / "stdout"
        t0 = time.perf_counter()
        with open(self.out, "wb") as out:
            self.proc = subprocess.Popen(
                [str(cli), "serve", "--addr", "127.0.0.1:0",
                 "--data-dir", str(self.dir / "data")],
                cwd=self.dir, env=CHILD_ENV, stdout=out,
                stderr=subprocess.DEVNULL)
        try:
            self.host, self.port = self._address(t0)
            self.setup_s = self._ready(t0)
        except BaseException:
            self.kill()
            raise

    def _address(self, t0):
        while time.perf_counter() - t0 < 20:
            for line in self.out.read_text().splitlines():
                if "listening on" in line:
                    host, port = line.split()[-1].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                raise BenchError("serve exited before listening")
            time.sleep(0.0005)
        raise BenchError("serve did not report its address")

    def _ready(self, t0):
        while time.perf_counter() - t0 < 20:
            try:
                status, _ = self.request("GET", "/readyz")
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            time.sleep(0.0005)
        raise BenchError("serve never became ready")

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.connect()
            # Close with a reset, not a FIN: the thousands of connections
            # a run makes would otherwise leave TIME_WAIT sockets behind
            # that slow later connects, so each run would start slower
            # than the one before.
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.request(method, path, body=body)
            r = conn.getresponse()
            return r.status, r.read()
        finally:
            conn.close()

    def stop(self):
        """SIGTERM (graceful drain), wait, and return peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.time() + 15
        while time.time() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024.0
            time.sleep(0.01)
        self.kill()
        raise BenchError("serve did not drain within 15 s")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ------------------------------------------------------------- workloads

class Run:
    """Collects one run's checks, counts and printed lines."""

    def __init__(self, workload, seed, seconds, traced, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.traced, self.work = traced, Path(work)
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.printed = {}
        self.digests_seen = []
        self.started = time.perf_counter()

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)
            log(f"CHECK FAILED: {what}")

    def op(self, ok, what):
        """Counts one attempted operation and whether it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"operation failed: {what}")


def simulate_inputs(cli, name, work):
    cfg = SIMULATE[name]
    trace = work / "trace.json"
    code, _, _, out = run_measured(
        [str(cli), "trace", "--model", cfg["model"], "--batch", str(cfg["batch"]),
         "--gpu", "A100", "-o", str(trace)], work)
    if code != 0:
        raise BenchError(f"trace generation failed: {out.decode()[-500:]}")
    args = ["--trace", trace, "--platform", cfg["platform"], "--parallelism",
            cfg["parallelism"], "--fidelity", cfg["fidelity"]]
    return [str(a) for a in args], cfg["iterations"]


def cli_runs(run, cmd, out, seconds, first=None, between=None):
    """Runs `cmd`, which writes its canonical output to `out`, back to
    back for `seconds` (at least once), calling `between` after each
    run. Every run's bytes must equal `first`, or the first run's when
    `first` is None. Returns the walls, the RSS peaks and the reference
    bytes."""
    walls, rss = [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        code, wall, peak, _ = run_measured(cmd, run.work)
        run.op(code == 0, f"{cmd[1]} exited {code}")
        if code != 0:
            raise BenchError(f"{cmd[1]} exited {code}")
        walls.append(wall)
        rss.append(peak)
        data = out.read_bytes()
        first = data if first is None else first
        run.check(data == first, f"{cmd[1]} output bytes differ from the first run's")
        for p in out.parent.glob(out.name + "*"):
            p.unlink()
        for p in run.work.glob("journal.jsonl*"):
            p.unlink()
        if between:
            between()
    return walls, rss, first


def rotation(run):
    """Yields until the run's --seconds are used up (at least once)."""
    yield 0
    while time.perf_counter() - run.started < run.seconds:
        yield 0


def traced_rounds(run, cli_cmd, out, first, phases):
    """The traced run: each round makes one untraced CLI run (the wall
    to account for), then each probe phase in a fresh process, so that
    all of them see the host in the same state."""
    res = {"cli_wall_s": [], "traced": [], "untraced": [], "sweep": []}
    for _ in rotation(run):
        walls, _, _ = cli_runs(run, cli_cmd, out, 0, first)
        res["cli_wall_s"] += walls
        for phase in phases:
            phase(res)
    return res


def workload_simulate(run, cli, probe_bin):
    args, iterations = simulate_inputs(cli, run.workload, run.work)
    report = run.work / "report.json"
    cmd = [str(cli), "simulate"] + args + ["--iterations", str(iterations),
                                           "--report", str(report)]
    if not run.traced:
        setup = SetupSampler(probe_bin, ["setup-sim"] + args, SETUP_REPS["simulate"], run.work)
        walls, rss, first = cli_runs(run, cmd, report, run.seconds, between=setup)
        run.printed["digest"] = fnv1a(first)
        return {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup.finish()}
    _, _, first = cli_runs(run, cmd, report, 0)
    run.printed["digest"] = fnv1a(first)
    replay = run.work / "replay-report.json"
    probe_args = ["trace-sim"] + args + ["--iterations", iterations]

    def traced(res):
        got = probe(probe_bin, probe_args + ["--traced", 1, "--report-out", replay], run.work)
        run.check(replay.read_bytes() == first,
                  "traced replay report differs from the CLI's --report")
        res["traced"].append(got["layers"])

    def untraced(res):
        got = probe(probe_bin, probe_args + ["--traced", 0], run.work)
        run.check(got["digest"] == fnv1a(first), "bare replay digest differs from the CLI's")
        res["untraced"].append(got["layers"]["wall_s"])

    return traced_rounds(run, cmd, report, first, (traced, untraced))


def sweep_phases(run, probe_bin, specs, threads, cli_out=None):
    """The probe's traced / untraced / sweep phases over the specs listed
    in `specs`, each a function of the result dict to append to."""
    extra = ["--cli-out", cli_out] if cli_out else []

    def phase(name):
        def go(res):
            got = probe(probe_bin, ["trace-sweep", "--specs", specs, "--threads", threads,
                                    "--work", run.work, "--phase", name] + extra, run.work)
            if name == "untraced":
                res["untraced"] += [r["untraced_wall_s"] for r in got["runs"]]
            else:
                res[name] += got["runs"]
            run.digests_seen += got["digests"]
        return go

    return [phase(n) for n in ("traced", "untraced", "sweep")]


def design_sweep_outcome_stats(aggregate):
    """error_rate and pred_error_pct from the canonical aggregate."""
    results = aggregate["results"]
    errors = sum(1 for r in results if "error" in r)
    pairs = {}
    for r in results:
        s = dict(r["scenario"])
        fidelity = s.pop("fidelity")
        s.pop("label", None)
        key = json.dumps(s, sort_keys=True)
        if "report" in r:
            pairs.setdefault(key, {})[fidelity] = r["report"]["total_time_s"]
    errs = [abs(p["triosim"] - p["reference"]) / p["reference"]
            for p in pairs.values() if "triosim" in p and "reference" in p]
    return errors, len(results), 100.0 * statistics.fmean(errs), len(errs)


def workload_design_sweep(run, cli, probe_bin):
    spec = run.work / "design_sweep.json"
    spec.write_text(json.dumps(DESIGN_SWEEP))
    out = run.work / "aggregate.json"
    cmd = [str(cli), "sweep", "--spec", str(spec), "--threads", str(SWEEP_THREADS),
           "--journal", str(run.work / "journal.jsonl"), "--out", str(out)]
    setup = None if run.traced else SetupSampler(
        probe_bin, ["setup-sweep", "--spec", spec], SETUP_REPS["sweep"], run.work)
    walls, rss, first = cli_runs(run, cmd, out, 0 if run.traced else run.seconds,
                                 between=setup)
    run.printed["digest"] = fnv1a(first)
    errors, total, pred, pairs = design_sweep_outcome_stats(json.loads(first))
    run.printed["error_rate"] = (errors / total, total)
    run.printed["pred_error_pct"] = (pred, pairs)
    if not run.traced:
        return {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup.finish()}
    reference = run.work / "reference.json"
    reference.write_bytes(first)
    specs = run.work / "specs.txt"
    specs.write_text(f"{spec}\n")
    res = traced_rounds(run, cmd, out, first,
                        sweep_phases(run, probe_bin, specs, SWEEP_THREADS, reference))
    run.check(all(d == fnv1a(first) for d in run.digests_seen),
              "in-process run_sweep_with digest differs from the CLI's")
    return res


def job_spec(rng, seed, i):
    axis, values = rng.choice(JOB_AXES)
    spec = {
        "name": f"served-{seed}-{i}",
        "defaults": {
            "model": rng.choice(JOB_MODELS),
            "trace_batch": rng.choice([8, 16, 32]),
            "gpu": "A100",
            "platform": rng.choice(["p2:2", "p2:4"]),
            "parallelism": "ddp",
            "iterations": 1,
        },
        "grid": {axis: values},
    }
    return json.dumps(spec, sort_keys=True).encode()


class JobMix:
    """The seeded job sequence, handed out in order to the clients."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seed = seed
        self.specs = []
        self.lock = threading.Lock()

    def next(self):
        with self.lock:
            i = len(self.specs)
            self.specs.append(job_spec(self.rng, self.seed, i))
            return i, self.specs[i]


def serve_job(daemon, rng, i, spec):
    """Submits one spec after a think time and polls until its result
    arrives; the latency runs from the submit."""
    rec = {"index": i, "polls": [], "ok": False}
    time.sleep(rng.uniform(0.0, TICK_S))
    t0 = time.perf_counter()
    try:
        status, body = daemon.request("POST", "/jobs", spec)
        rec["submit_s"] = time.perf_counter() - t0
        if status != 202:
            raise BenchError(f"submit answered {status}: {body[:200]!r}")
        job = json.loads(body)["id"]
        while True:
            time.sleep(POLL_S + rng.uniform(0.0, TICK_S))
            p0 = time.perf_counter()
            status, body = daemon.request("GET", f"/jobs/{job}/result")
            rec["polls"].append(time.perf_counter() - p0)
            if status == 200:
                rec["latency_s"] = time.perf_counter() - t0
                rec["result"] = body
                rec["ok"] = True
                return rec
            if status != 409:
                raise BenchError(f"poll answered {status}: {body[:200]!r}")
            if json.loads(body).get("state") == "dead":
                raise BenchError(f"job {job} dead-lettered")
    except (BenchError, OSError, ValueError) as e:
        rec["error"] = str(e)
    return rec


class Rounds:
    """Barrier-aligned rounds: every client serves ROUND_JOBS jobs back
    to back, and a round lasts until the slowest client is done."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.starts, self.ends = [], []
        self.stop = False
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(CLIENTS, action=self._next)

    def _next(self):
        now = time.perf_counter()
        self.stop = now >= self.deadline
        if not self.stop:
            self.starts.append(now)
            self.ends.append(now)

    def done(self, k):
        with self.lock:
            self.ends[k] = max(self.ends[k], time.perf_counter())

    def walls(self):
        return [e - s for s, e in zip(self.starts, self.ends)]


def client(daemon, mix, rounds, jobs, index):
    rng = random.Random(f"{mix.seed}/client{index}")
    k = 0
    while True:
        rounds.barrier.wait()
        if rounds.stop:
            return
        for _ in range(ROUND_JOBS):
            rec = serve_job(daemon, rng, *mix.next())
            with rounds.lock:
                jobs.append(rec)
        rounds.done(k)
        k += 1


def serve_round(run, cli, seconds, tag):
    """One daemon and CLIENTS closed-loop clients for `seconds`; returns
    the round walls, the job records (in index order), the job mix, the
    /metrics counters and the daemon's peak RSS."""
    daemon = Daemon(cli, run.work, tag)
    try:
        mix, jobs = JobMix(run.seed), []
        rounds = Rounds(time.perf_counter() + seconds)
        threads = [threading.Thread(target=client, args=(daemon, mix, rounds, jobs, k))
                   for k in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        status, body = daemon.request("GET", "/metrics")
        run.check(status == 200, "/metrics did not answer 200")
        counters = parse_metrics(body.decode())
    except BaseException:
        daemon.kill()
        raise
    rss = daemon.stop()
    jobs.sort(key=lambda r: r["index"])
    for r in jobs:
        run.op(r["ok"], f"job {r['index']}: {r.get('error')}")
    for event in ("shed", "retried", "dead_lettered"):
        run.check(counters.get(event, 0) == 0, f"daemon reports {event} jobs")
    return rounds.walls(), jobs, mix, counters, rss


def parse_metrics(text):
    counters = {}
    for line in text.splitlines():
        if line.startswith("triosim_server_jobs_total{"):
            event = line.split('event="', 1)[1].split('"', 1)[0]
            counters[event] = float(line.rsplit(" ", 1)[1])
    return counters


def check_served(run, probe_bin, jobs, mix):
    """Each served result must equal an offline run_sweep of its spec."""
    done = [r for r in jobs if r["ok"]]
    listing = run.work / "served-specs.txt"
    with open(listing, "w") as f:
        for r in done:
            path = run.work / f"job-{r['index']}.json"
            path.write_bytes(mix.specs[r["index"]])
            f.write(f"{path}\n")
    offline = probe(probe_bin, ["offline", "--specs", listing, "--threads", JOB_THREADS],
                    run.work)["digests"]
    for r, want in zip(done, offline):
        run.check(fnv1a(r["result"]) == want,
                  f"served job {r['index']} differs from offline run_sweep")
    head = [r for r in jobs[:DIGEST_JOBS] if r["ok"]]
    run.check(len(head) == DIGEST_JOBS and [r["index"] for r in head] == list(range(DIGEST_JOBS)),
              f"fewer than {DIGEST_JOBS} jobs completed; raise --seconds")
    run.printed["digest"] = fnv1a(b"".join(r["result"] for r in head))
    return listing


def workload_served_jobs(run, cli, probe_bin):
    setup = []
    for k in range(0 if run.traced else SETUP_REPS["serve"]):
        d = Daemon(cli, run.work, f"setup-{k}")
        setup.append(d.setup_s)
        d.stop()
    budget = run.seconds if not run.traced else run.seconds * 0.5
    walls, jobs, mix, counters, rss = serve_round(run, cli, budget, "main")
    listing = check_served(run, probe_bin, jobs, mix)
    done = [r for r in jobs if r["ok"]]
    lat = [r["latency_s"] for r in done]
    run.printed["job_latency"] = (median(lat), percentile(lat, 90), len(lat))
    run.printed["error_rate"] = ((len(jobs) - len(done)) / max(1, len(jobs)), len(jobs))
    if not run.traced:
        return {"wall_s": walls, "peak_rss_mb": [rss], "setup_s": setup}
    sample = run.work / "traced-specs.txt"
    sample.write_text("".join(listing.read_text().splitlines(True)[:16]))
    res = {"traced": [], "untraced": [], "sweep": [], "jobs": done, "counters": counters}
    for _ in rotation(run):
        for phase in sweep_phases(run, probe_bin, sample, JOB_THREADS):
            phase(res)
    return res


# --------------------------------------------------------------- layers

def per_rep_self(rep):
    """One traced replay's layer self times (wall-clock seconds)."""
    g = rep.get
    self_s = {layer: 0.0 for layer in LAYERS}
    self_s["trace"] = g("trace.load_s", 0.0) + g("trace.build_s", 0.0)
    self_s["perfmodel"] = g("perfmodel.calibration_s", 0.0)
    self_s["extrapolate"] = g("extrapolate.graph_build_s", 0.0) + g("extrapolate.graph_drop_s", 0.0)
    self_s["network"] = g("network.self_s", 0.0)
    self_s["executor"] = g("executor.run_s", 0.0) - g("network.in_run_s", 0.0)
    self_s["report"] = g("report.summary_s", 0.0) + g("report.serialize_s", 0.0) + g("report.drop_s", 0.0)
    self_s["journal"] = g("journal.record_s", 0.0)
    return self_s


def layer_metrics(run, res, kind):
    """Per-layer metrics of a traced run and the wall-time accounting."""
    reps, sweeps = res["traced"], res["sweep"]
    threads = {"simulate": 1, "sweep": SWEEP_THREADS, "served": JOB_THREADS}[kind]

    def med(key, rows=reps):
        return median([r.get(key, 0.0) for r in rows]) if rows else 0.0

    selfs = [per_rep_self(r) for r in reps]
    self_s = {layer: median([s[layer] for s in selfs]) for layer in LAYERS}
    untraced = median(res["untraced"])
    if sweeps:
        # What the real sweep costs beyond the bare mirrored pipeline and
        # its journal: pool hand-off, aggregation, canonical output.
        self_s["sweep"] = med("sweep.run_s", sweeps) - untraced - self_s["journal"]
    server = {"server.polls_per_job": 0.0, "server.shed": 0.0, "server.retried": 0.0}
    if kind == "served":
        jobs = res["jobs"]
        wall = median([r["latency_s"] for r in jobs])
        submit = median([r["submit_s"] for r in jobs])
        self_s["server"] = submit + median([r["polls"][-1] for r in jobs])
        job_run = med("sweep.run_s", sweeps)
        run.printed["server"] = {
            "server.submit_s": submit,
            "server.poll_s": median([p for r in jobs for p in r["polls"]]),
            "server.job_run_s": job_run,
            "server.overhead_s": wall - job_run,
        }
        server["server.polls_per_job"] = statistics.fmean(len(r["polls"]) for r in jobs)
        server["server.shed"] = res["counters"].get("shed", 0.0)
        server["server.retried"] = res["counters"].get("retried", 0.0)
    else:
        wall = median(res["cli_wall_s"])
    m = {}
    covered = sum(self_s.values())
    residual = wall - covered
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = self_s[layer] / wall
    m["residual_frac"] = residual / wall
    m["residual_s"] = residual
    m["trace.self_s"] = self_s["trace"]
    m["perfmodel.calibration_s"] = med("perfmodel.calibration_s")
    m["extrapolate.graph_build_s"] = med("extrapolate.graph_build_s")
    m["network.self_s"] = self_s["network"]
    m["executor.run_s"] = med("executor.run_s")
    m["executor.self_s"] = self_s["executor"]
    m["report.serialize_s"] = med("report.serialize_s")
    m["report.drop_s"] = med("report.drop_s")
    calls, events = med("network.calls"), med("executor.events")
    # Worker-side seconds were divided by the thread count to stay in
    # wall terms; per-call costs use the thread-seconds.
    m["network.ns_per_call"] = 1e9 * med("network.in_run_s") * threads / max(calls, 1)
    m["executor.ns_per_event"] = 1e9 * self_s["executor"] * threads / max(events, 1)
    for key in ("trace.loads", "trace.builds", "perfmodel.calibrations", "extrapolate.tasks",
                "network.calls", "network.reallocations", "network.reschedules",
                "network.packets_sent", "network.ecn_marks", "executor.events",
                "executor.events_cancelled", "executor.timeline_records", "journal.bytes"):
        m[key] = med(key)
    m["sweep.scenarios_failed"] = med("sweep.scenarios_failed", sweeps)
    sent = med("network.packets_sent")
    m["network.retransmit_frac"] = med("network.retransmits") / sent if sent else 0.0
    m["sweep.pool_busy_frac"] = med("sweep.pool_busy_frac", sweeps)
    m.update(server)
    m["bench.trace_overhead_frac"] = med("wall_s") / untraced - 1.0
    run.printed["accounting"] = (wall, self_s, residual)
    run.printed["detail"] = {
        "trace.load_s": med("trace.load_s"),
        "trace.build_s": med("trace.build_s"),
        "report.summary_s": med("report.summary_s"),
        "sweep.run_s": med("sweep.run_s", sweeps),
        "sweep.scenario_p50_s": med("sweep.scenario_p50_s", sweeps),
        "journal.record_s": med("journal.record_s"),
    }
    if kind == "sweep":
        run.check(med("pipeline.scenarios_failed") == med("sweep.scenarios_failed", sweeps),
                  "traced pipeline and run_sweep_with disagree on failed scenarios")
    return m


# ---------------------------------------------------------------- output

def unit_of(name):
    if "ns_per_" in name:
        return "ns"
    if name == "journal.bytes":
        return "bytes"
    for suffix, unit in (("_s", "s"), ("_frac", "frac"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(run, fingerprint, metrics, samples):
    log(f"== {run.workload} | seed {run.seed} | {run.seconds:g} s | trace {int(run.traced)}")
    log("host: " + json.dumps(fingerprint, sort_keys=True))
    for name, value in metrics.items():
        n = samples.get(name)
        count = f"  (median of n={n})" if n else ""
        log(f"  {name:<28} {value:>16.6g} {unit_of(name):<6}{count}")
    p = run.printed
    if "job_latency" in p:
        p50, p90, n = p["job_latency"]
        log(f"  job_latency_p50_s            {p50:>16.6g} s      (n={n})")
        log(f"  job_latency_p90_s            {p90:>16.6g} s      (n={n})")
    rate, n = p.get("error_rate", (run.failed / max(run.attempted, 1), run.attempted))
    log(f"  error_rate                   {rate:>16.6g} frac   (of {n} attempted)")
    if "pred_error_pct" in p:
        pct, pairs = p["pred_error_pct"]
        log(f"  pred_error_pct               {pct:>16.6g} %      (over {pairs} triosim/reference pairs; simulated, deterministic)")
    for k, v in {**p.get("detail", {}), **p.get("server", {})}.items():
        log(f"  {k:<28} {v:>16.6g} s")
    if "accounting" in p:
        wall, self_s, residual = p["accounting"]
        parts = "  ".join(f"{k}={v / wall:.1%}" for k, v in self_s.items() if v)
        log(f"  accounting of {wall:.4f} s: {parts}  residual={residual / wall:.1%}")
    log(f"  canonical digest (FNV-1a 64): {p.get('digest', 'n/a')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "triosim").is_dir():
        print("error: run from a full checkout (no Cargo.toml / crates/triosim at "
              f"{ROOT}); the benchmark builds the simulator from source", file=sys.stderr)
        return 2
    cli, probe_bin = build()
    fingerprint = host_fingerprint()
    work = ROOT / ".bench_work" / f"{a.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(a.workload, a.seed, a.seconds, bool(a.trace), work)
    try:
        kind = {"design_sweep": "sweep", "served_jobs": "served"}.get(a.workload, "simulate")
        res = {"simulate": workload_simulate, "sweep": workload_design_sweep,
               "served": workload_served_jobs}[kind](run, cli, probe_bin)
        if a.trace:
            metrics = layer_metrics(run, res, kind)
            raw, samples = {}, {}
        else:
            raw = {k: res[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
            metrics = {k: median(v) for k, v in raw.items()}
            samples = {k: len(v) for k, v in raw.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(run, fingerprint, metrics, samples)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps({
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "host": fingerprint, "metrics": metrics, "samples": samples, "raw": raw,
        "printed": run.printed, "errors": run.errors,
    }, indent=1, default=str))
    correct = not run.errors
    units = {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3)
