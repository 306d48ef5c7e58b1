#!/usr/bin/env python3
"""End-to-end benchmark of the sega_dcim CLI and its serve daemon.

    python3 perfbench/run.py --workload validate-layout --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run builds the program from the
checkout's sources into .bench_build (or $CARGO_TARGET_DIR). Each workload
is a closed loop driven by this one client process: the next request is
sent only when the previous one has completed and its output has been
checked. --trace 0 measures the end-to-end metrics; --trace 1 measures the
per-layer metrics with the replay tool (trace_replay.cpp) and the
tracing overhead. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
host and build the numbers came from. Workloads, metrics and the
layer -> metric -> workload predictions are described in README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep-grid", "sweep-memo-warm", "validate-layout", "serve-explore")
SETUP_REPEATS = 5  # setup_s is the median of this many full setups

# The paper's section IV grid: the default of `sweep`.
GRID_WSTORES = (4096, 8192, 16384, 32768, 65536, 131072)
GRID_PRECISIONS = ("INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16", "FP32")
MEMO_WSTORES = (16384,)
MEMO_PRECISIONS = ("INT8", "FP16")
MEMO_DSE_SEED = 1
VALIDATE_WSTORES = (2048,)
VALIDATE_PRECISIONS = ("INT2", "INT4", "FP8")
VALIDATE_DSE = ("--population", "4", "--generations", "1", "--seed", "1")
# Every 4th serve request repeats the one 2 before it. The share is an
# assumption: no recorded client traffic exists to take it from.
SERVE_REPEAT_EVERY = 4
SERVE_NO_DAEMON_CHECKS = 24  # distinct serve responses re-run --no-daemon
SERVE_RSS_AFTER = 256  # the daemon's VmHWM is read after this many requests
SERVE_TRACE_REQUESTS = 160  # stream length of the traced serve measurement

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "dse.nsga2_ms": "ms",
    "dse.self_ms": "ms",
    "dse.evaluations": "count",
    "dse.evals_per_s": "1/s",
    "util.pool_speedup": "ratio",
    "cost.analytic_us_per_point": "us",
    "cost.cache_hit_ratio": "ratio",
    "cost.cache_lookups": "count",
    "cost.memo_load_ms": "ms",
    "cost.memo_save_ms": "ms",
    "cost.memo_load_us_per_entry": "us",
    "cost.memo_save_us_per_entry": "us",
    "cost.memo_entries": "count",
    "cost.memo_bytes": "bytes",
    "cost.memo_saves_without_growth": "count",
    "cost.memo_request_share": "ratio",
    "util.json_parse_us_per_line": "us",
    "util.json_dump_us_per_line": "us",
    "util.json_checksum_us_per_line": "us",
    "layout.points": "count",
    "layout.macro_build_ms": "ms",
    "layout.floorplan_ms": "ms",
    "layout.wirelength_ms": "ms",
    "cost.layout_ms_per_point": "ms",
    "layout.request_share": "ratio",
    "rtl.knee_eval_ms": "ms",
    "rtl.elaborate_ms": "ms",
    "rtl.sta_ms": "ms",
    "rtl.sim_ms": "ms",
    "rtl.elaborations": "count",
    "rtl.request_share": "ratio",
    "serve.roundtrip_ms": "ms",
    "serve.inprocess_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.response_cache_hits": "count",
    "serve.coalesced": "count",
    "serve.cost_cache_hit_ratio": "ratio",
    "compiler.cli_startup_ms": "ms",
    "compiler.request_ms": "ms",
    "compiler.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}

DSE_TIME_NOTE = re.compile(rb"[0-9.]+s DSE\)")


class BenchError(Exception):
    """A failure of the benchmark itself (build, daemon start, replay)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# --------------------------------------------------------------------- build


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(targets):
    """Configures once and (re)builds @p targets; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources under {ROOT}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets])
    return bdir


def run_quiet(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"{argv[0]} {argv[1]} failed (exit {r.returncode})")


def host_info(bdir, seed, workload):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    cache = bdir / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                out = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True).stdout
                compiler = out.splitlines()[0] if out else cxx
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    # A checkout without git history is identified by its sources.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": build_type,
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "threads": pinned_threads(),
    }


def pinned_threads():
    """Pool size pinned on every request: 2, kept below the core count."""
    return max(1, min(2, (os.cpu_count() or 1) - 1))


# ------------------------------------------------------------------ requests


class Result:
    def __init__(self, ok, latency_s, rss_kb=0, repeat=False, argv=None):
        self.ok = ok
        self.latency_s = latency_s
        self.rss_kb = rss_kb
        self.repeat = repeat  # answered from the serve response cache
        self.argv = argv


def clean_env():
    env = dict(os.environ)
    for key in ("SEGA_THREADS", "SEGA_SWEEP_FAULT", "SEGA_RTL_SIM"):
        env.pop(key, None)
    return env


def spawn(argv, workdir):
    """Runs one CLI process to completion: (exit code, stdout, seconds, RSS KB)."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=workdir, env=clean_env())
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"exit {proc.returncode}: {' '.join(map(str, argv))}: "
            f"{err_path.read_text(errors='replace')[-500:]}")
    return proc.returncode, out, elapsed, usage.ru_maxrss


def positive_finite(text):
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isfinite(v) and v > 0


def check_sweep_csv(out, cells):
    """Shape check: one row per grid cell, in order, all metrics > 0."""
    lines = out.decode().splitlines()
    if len(lines) != len(cells) + 1 or not lines[0].startswith("wstore,precision,"):
        return False
    for line, (wstore, precision) in zip(lines[1:], cells):
        fields = line.split(",")
        if len(fields) != 14 or fields[0] != str(wstore) or fields[1] != precision:
            return False
        if not all(positive_finite(f) for f in fields[2:]):
            return False
    return True


class Workload:
    """One closed-loop workload: setup(), then request() until time is up."""

    name = ""

    def __init__(self, bin_path, trace_bin, workdir, seed, threads, corrupt):
        self.bin = str(bin_path)
        self.trace_bin = str(trace_bin) if trace_bin else None
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.seed = seed
        self.threads = str(threads)
        self.corrupt = corrupt  # self-test: break the expected output

    def setup(self):
        raise NotImplementedError

    def request(self):
        raise NotImplementedError

    def teardown(self):
        pass

    def peak_rss_mb(self, results):
        return max(r.rss_kb for r in results) / 1024.0

    def expect(self, data):
        """The expected output, corrupted in the self-test."""
        return data + b"corrupted" if self.corrupt else data


class SweepGrid(Workload):
    name = "sweep-grid"
    cells = [(w, p) for w in GRID_WSTORES for p in GRID_PRECISIONS]

    def setup(self):
        return self.request()  # the untimed warm-up

    def request(self):
        argv = [self.bin, "sweep", "--no-daemon", "--threads", self.threads,
                "--seed", str(self.rng.randrange(1, 2**31))]
        rc, out, dt, rss = spawn(argv, self.workdir)
        ok = rc == 0 and check_sweep_csv(self.expect(out), self.cells)
        return Result(ok, dt, rss)


class SweepMemoWarm(Workload):
    """Warm `sweep --cache-file` against a memo the setup filled cold."""

    name = "sweep-memo-warm"

    def setup(self):
        wstores, precisions = list(MEMO_WSTORES), list(MEMO_PRECISIONS)
        self.rng.shuffle(wstores)
        self.rng.shuffle(precisions)
        self.cells = [(w, p) for w in wstores for p in precisions]
        self.memo = self.workdir / "cost.memo"
        if self.memo.exists():
            self.memo.unlink()
        base = [self.bin, "sweep", "--no-daemon", "--threads", self.threads,
                "--seed", str(MEMO_DSE_SEED),
                "--wstores", ",".join(map(str, wstores)),
                "--precisions", ",".join(precisions)]
        self.warm_argv = base + ["--cache-file", str(self.memo)]
        rc, reference, _, _ = spawn(base, self.workdir)
        if rc != 0 or not check_sweep_csv(reference, self.cells):
            raise BenchError("sweep-memo-warm: no-memo reference sweep failed")
        self.reference = self.expect(reference)
        rc, cold, _, _ = spawn(self.warm_argv, self.workdir)  # cold fill
        if rc != 0 or cold != reference:
            raise BenchError("sweep-memo-warm: cold fill differs from no-memo")
        self.memo_digest = hashlib.sha256(self.memo.read_bytes()).digest()
        return self.request()  # the untimed warm-up

    def request(self):
        rc, out, dt, rss = spawn(self.warm_argv, self.workdir)
        same_memo = (hashlib.sha256(self.memo.read_bytes()).digest()
                     == self.memo_digest)
        return Result(rc == 0 and out == self.reference and same_memo, dt, rss)


def validate_rows(out):
    """Validate stdout with its table rows sorted (row order = argv order)."""
    lines = out.decode().splitlines()
    head = [l for l in lines if " @ Wstore=" not in l]
    rows = sorted(l for l in lines if " @ Wstore=" in l)
    return head, rows


class ValidateLayout(Workload):
    """`validate --layout` on a fixed knee set; the seed permutes argv order."""

    name = "validate-layout"

    def argv(self, precisions, threads=None):
        return [self.bin, "validate", "--no-daemon", "--layout", "--threads",
                threads or self.threads,
                "--wstores", ",".join(map(str, VALIDATE_WSTORES)),
                "--precisions", ",".join(precisions), *VALIDATE_DSE]

    def setup(self):
        # Reference at one thread in canonical order: thread count and
        # argv order never change the knees or their measurements.
        rc, out, _, _ = spawn(self.argv(VALIDATE_PRECISIONS, "1"), self.workdir)
        head, rows = validate_rows(out)
        if rc != 0 or len(rows) != len(VALIDATE_WSTORES) * len(VALIDATE_PRECISIONS):
            raise BenchError("validate-layout reference run failed")
        self.reference = (head, rows if not self.corrupt else rows[1:])
        return self.request()  # the untimed warm-up

    def request(self):
        precisions = list(VALIDATE_PRECISIONS)
        self.rng.shuffle(precisions)
        rc, out, dt, rss = spawn(self.argv(precisions), self.workdir)
        return Result(rc == 0 and validate_rows(out) == self.reference, dt, rss)


def normalize_explore(out):
    return DSE_TIME_NOTE.sub(b"Xs DSE)", out)


class ServeExplore(Workload):
    """`explore` requests to a private serve daemon, one connection each."""

    name = "serve-explore"
    daemon = None

    def start_daemon(self):
        self.stop_daemon()
        self.sock = self.workdir / "serve.sock"
        if self.sock.exists():
            self.sock.unlink()
        # The daemon runs in the work dir and binds a relative path, which
        # keeps the socket path short however deep the checkout is.
        self.log_file = open(self.workdir / "serve.log", "wb")
        self.daemon = subprocess.Popen(
            [self.bin, "serve", "--socket", "serve.sock"], cwd=self.workdir,
            stdout=self.log_file, stderr=subprocess.STDOUT, env=clean_env())
        self.sock_rel = os.path.relpath(self.sock)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise BenchError("serve daemon exited during start-up")
            try:
                if self.call({"id": 0, "cmd": "ping"})["type"] == "pong":
                    return
            except OSError:
                time.sleep(0.01)
        raise BenchError("serve daemon did not answer within 30 s")

    def stop_daemon(self):
        if self.daemon is None:
            return
        try:
            self.call({"id": 0, "cmd": "shutdown"})
            self.daemon.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired, BenchError):
            self.daemon.kill()
            self.daemon.wait()
        self.log_file.close()
        self.daemon = None

    def call(self, request):
        """One connection, one request line, its terminal response line."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(120)
            s.connect(self.sock_rel)
            s.sendall(json.dumps(request).encode() + b"\n")
            f = s.makefile("rb")
            while True:
                line = f.readline()
                if not line:
                    raise BenchError("serve daemon closed the connection")
                msg = json.loads(line)
                if msg.get("type") != "progress":
                    return msg

    def stream(self):
        """Endless request argvs: every cell once per block, seed-permuted."""
        cells = [(w, p) for w in GRID_WSTORES for p in GRID_PRECISIONS]
        history = []
        while True:
            self.rng.shuffle(cells)
            for wstore, precision in cells:
                if len(history) % SERVE_REPEAT_EVERY == SERVE_REPEAT_EVERY - 1:
                    history.append(history[-2])  # an exact repeat
                    yield history[-1], True
                argv = ["explore", "--wstore", str(wstore), "--precision",
                        precision, "--seed", str(self.rng.randrange(1, 2**31)),
                        "--threads", self.threads]
                history.append(argv)
                yield argv, False

    def setup(self):
        self.start_daemon()
        self.first_out = {}  # argv -> normalized stdout of its first answer
        self.distinct = []
        self.executed = []  # argvs the daemon ran, not repeats, in order
        self.i = 0  # request id
        self.sent, self.hwm_mb = 0, None
        # Warm the daemon's per-config cost cache on every cell (a seed the
        # stream never draws), then send the stream's first request.
        self.requests = iter(
            (["explore", "--wstore", str(w), "--precision", p, "--seed", "0",
              "--threads", self.threads], False)
            for w in GRID_WSTORES for p in GRID_PRECISIONS)
        warmups = [self.request() for _ in range(len(GRID_WSTORES) *
                                                 len(GRID_PRECISIONS))]
        self.requests = self.stream()
        last = self.request()
        self.sent, self.hwm_mb = 0, None  # counted from the end of setup
        return Result(last.ok and all(r.ok for r in warmups), last.latency_s)

    def request(self):
        argv, repeat = next(self.requests)
        self.i += 1
        start = time.perf_counter()
        msg = self.call({"id": self.i, "cmd": "run", "argv": argv})
        dt = time.perf_counter() - start
        out = msg.get("out", "").encode()
        ok = (msg.get("type") == "result" and msg.get("exit") == 0 and
              out.startswith(b"SEGA-DCIM compilation: Wstore=" +
                             argv[2].encode() + b" precision=" +
                             argv[4].encode()))
        key = tuple(argv)
        if key in self.first_out:
            ok = ok and normalize_explore(out) == self.first_out[key]
        else:
            self.first_out[key] = self.expect(normalize_explore(out))
            if not repeat:
                self.distinct.append(key)
        if not repeat:
            self.executed.append(argv)
        self.sent += 1
        if self.sent == SERVE_RSS_AFTER:
            self.hwm_mb = self.vm_hwm_mb()
        return Result(ok, dt, repeat=repeat, argv=argv)

    def verify_against_no_daemon(self, distinct):
        """Evenly spaced distinct requests, re-run in-process, must match."""
        step = max(1, len(distinct) // SERVE_NO_DAEMON_CHECKS)
        failures = 0
        for key in distinct[::step][:SERVE_NO_DAEMON_CHECKS]:
            rc, out, _, _ = spawn([self.bin, "--no-daemon", *key], self.workdir)
            if rc != 0 or normalize_explore(out) != self.first_out[key]:
                failures += 1
        return failures

    def status(self):
        return self.call({"id": 0, "cmd": "status"})["status"]

    def vm_hwm_mb(self):
        for line in Path(f"/proc/{self.daemon.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the serve daemon")

    def peak_rss_mb(self, results):
        # Read after a fixed request count, so that a faster daemon, which
        # completes more requests and caches more points, reads the same.
        end = self.vm_hwm_mb()
        log(f"serve daemon VmHWM {self.hwm_mb} MB after {SERVE_RSS_AFTER} "
            f"requests, {end:.1f} MB after {len(results)}")
        return self.hwm_mb if self.hwm_mb is not None else end

    def teardown(self):
        self.stop_daemon()


WORKLOAD_CLASSES = {c.name: c for c in (SweepGrid, SweepMemoWarm,
                                        ValidateLayout, ServeExplore)}


# ---------------------------------------------------------------- measuring


def fresh_workdir(bdir, name):
    d = bdir / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def timed_loop(wl, seconds):
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        results.append(wl.request())
    return results, time.perf_counter() - start


def setup_median(make, repeats):
    """Runs the full setup @p repeats times; keeps the last workload and
    its warm-up result."""
    times, wl = [], None
    for _ in range(repeats):
        if wl is not None:
            wl.teardown()
        wl = make()
        start = time.perf_counter()
        try:
            warmup = wl.setup()
        except BaseException:
            wl.teardown()  # a half-set-up daemon must not outlive the run
            raise
        times.append(time.perf_counter() - start)
    return wl, warmup, median(times)


def measure_end_to_end(args, bdir):
    bin_path = bdir / "sega_dcim" / "sega_dcim"
    workdir = fresh_workdir(bdir, args.workload)
    cls = WORKLOAD_CLASSES[args.workload]
    make = lambda: cls(bin_path, None, workdir, args.seed, pinned_threads(),
                       args.corrupt_expected)
    wl = None
    try:
        wl, warmup, setup_s = setup_median(make, SETUP_REPEATS)
        results, wall = timed_loop(wl, args.seconds)
        failed = sum(not r.ok for r in results) + (not warmup.ok)
        if isinstance(wl, ServeExplore):
            failed += wl.verify_against_no_daemon(wl.distinct)
        peak = wl.peak_rss_mb(results)
    finally:
        if wl is not None:
            wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    # Latency is over the requests the program executed: serve answers a
    # repeat from its response cache, and the share of repeats is assumed.
    lat = [r.latency_s * 1000.0 for r in results if not r.repeat]
    repeats = [r.latency_s * 1000.0 for r in results if r.repeat]
    log(f"{args.workload}: {len(results)} requests in {wall:.2f}s, "
        f"p50 {median(lat):.2f} ms, p90 {percentile(lat, 90):.2f} ms "
        f"(n={len(lat)}), setup {setup_s:.3f}s, failed {failed}" +
        (f"; {len(repeats)} repeats, p50 {median(repeats):.3f} ms"
         if repeats else ""))
    attempted = len(results) + 1  # the kept setup's warm-up counts too
    metrics = {
        "requests_per_s": len(results) / wall,
        "latency_p50_ms": median(lat),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "ok_ratio": 1.0 - min(failed, attempted) / attempted,
    }
    return attempted, failed, metrics


# -------------------------------------------------------------- traced run


def replay(wl, args_list, spans_path=None):
    argv = [wl.trace_bin, "replay", *args_list]
    if spans_path:
        argv += ["--spans", str(spans_path)]
    r = subprocess.run(argv, capture_output=True, cwd=wl.workdir)
    if r.returncode != 0:
        raise BenchError(f"replay failed: {r.stderr.decode()[-500:]}")
    return json.loads(r.stdout.decode().splitlines()[0])


def cli_ms(wl, argv, repeats):
    """Median wall ms of @p repeats runs of @p argv, and the last stdout."""
    times = []
    for _ in range(repeats):
        rc, out, dt, _ = spawn(argv, wl.workdir)
        if rc != 0:
            raise BenchError(f"traced CLI request failed: {argv}")
        times.append(dt * 1000.0)
    return median(times), out


def csv_evaluations(out):
    """Total of the sweep CSV's evaluations column."""
    return sum(int(line.split(",")[3]) for line in out.decode().splitlines()[1:])


def grid_args(wstores, precisions):
    return ["--wstores", ",".join(map(str, wstores)),
            "--precisions", ",".join(precisions)]


# Each layer group is measured on the inputs of the workload that exercises
# it (its home). A traced run measures every group; where the traced
# workload's own replay also measures another group's layer (DSE and cost on
# the memo and validate grids), its own inputs win.
HOME_LAYERS = {
    "sweep-grid": ("dse.", "util.pool_speedup", "cost.analytic_",
                   "cost.cache_"),
    "sweep-memo-warm": ("cost.memo_", "util.json_"),
    "validate-layout": ("layout.", "cost.layout_", "rtl."),
    "serve-explore": ("serve.",),
}


def layers_dse(wl, own):
    """sweep-grid's layers: NSGA-II, the analytic stages, the pool."""
    seed = str(wl.rng.randrange(1, 2**31))
    request = [*grid_args(GRID_WSTORES, GRID_PRECISIONS), "--seed", seed]
    m = replay(wl, [*request, "--pool-threads", wl.threads],
               wl.workdir / "spans-dse.json" if own else None)
    argv = [wl.bin, "sweep", "--no-daemon", "--threads", "1", "--seed", seed]
    request_ms, out = cli_ms(wl, argv, 3 if own else 1)
    # The replay must have done the program's work: same evaluation count.
    return m, request_ms, int(csv_evaluations(out) != m["dse.evaluations"]), request


def layers_memo(wl, own):
    """sweep-memo-warm's layers: memo load/save and the JSON lines."""
    memo = wl.workdir / "replay.memo"
    argv = [wl.bin, "sweep", "--no-daemon", "--threads", "1", "--seed",
            str(MEMO_DSE_SEED), *grid_args(MEMO_WSTORES, MEMO_PRECISIONS),
            "--cache-file", str(memo)]
    if memo.exists():
        memo.unlink()
    cli_ms(wl, argv, 1)  # cold fill
    request_ms, out = cli_ms(wl, argv, 3 if own else 1)
    request = [*grid_args(MEMO_WSTORES, MEMO_PRECISIONS), "--seed",
               str(MEMO_DSE_SEED), "--cache-file", str(memo)]
    m = replay(wl, request, wl.workdir / "spans-memo.json" if own else None)
    m["cost.memo_request_share"] = (
        (m["cost.memo_load_ms"] + m["cost.memo_save_ms"]) / m["replay.layers_ms"])
    return m, request_ms, int(csv_evaluations(out) != m["dse.evaluations"]), request


def layers_validate(wl, own):
    """validate-layout's layers: the layout stage and the RTL knees."""
    request = [*grid_args(VALIDATE_WSTORES, VALIDATE_PRECISIONS),
               *VALIDATE_DSE, "--layout", "--rtl-knees"]
    m = replay(wl, request, wl.workdir / "spans-validate.json" if own else None)
    argv = [wl.bin, "validate", "--no-daemon", "--layout", "--threads", "1",
            *grid_args(VALIDATE_WSTORES, VALIDATE_PRECISIONS), *VALIDATE_DSE]
    # The knees' own floorplan + wirelength run inside the RTL model;
    # they count as layout, not RTL.
    knee_layout_ms = m.pop("rtl.knee_layout_ms")
    layout_ms = (m["layout.macro_build_ms"] + m["layout.floorplan_ms"] +
                 m["layout.wirelength_ms"] + knee_layout_ms)
    m["layout.request_share"] = layout_ms / m["replay.layers_ms"]
    m["rtl.request_share"] = ((m["rtl.knee_eval_ms"] - knee_layout_ms) /
                              m["replay.layers_ms"])
    return m, cli_ms(wl, argv, 3 if own else 1)[0], 0, request


def serve_counters(status):
    hits = sum(c["hits"] for c in status["caches"])
    misses = sum(c["misses"] for c in status["caches"])
    return (status["broker"]["response_hits"], status["broker"]["coalesced"],
            hits, misses)


class InProcessServe:
    """`perfbench_trace serve-inprocess`: runs requests one at a time in
    one process, with caches built the way the serve daemon builds them."""

    def __init__(self, wl):
        self.proc = subprocess.Popen([wl.trace_bin, "serve-inprocess"],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=wl.workdir)

    def run(self, argv):
        """Returns (wall ms, stdout) of one request."""
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("in-process serve run failed")
        msg = json.loads(line)
        return msg["ms"], msg["out"].encode()

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def layers_serve(wl, own):
    """serve's layers over a stream of SERVE_TRACE_REQUESTS requests: each
    request's round trip to the daemon, and right after it the same request
    in-process, where the caches have seen the same requests as the
    daemon's; plus the daemon's counters."""
    home = wl if own else ServeExplore(wl.bin, wl.trace_bin, wl.workdir,
                                       wl.seed, wl.threads, False)
    inproc = InProcessServe(wl)
    try:
        if not own:
            home.setup()
        for argv in home.executed:  # what the daemon ran during setup
            inproc.run(argv)
        before = home.status()
        stream, pairs = [], []
        for _ in range(SERVE_TRACE_REQUESTS):
            r = home.request()
            stream.append(r)
            if not r.repeat:  # a repeat never reaches the daemon's caches
                pairs.append((r, *inproc.run(r.argv)))
        after = home.status()
    finally:
        inproc.close()
        if not own:
            home.teardown()
    mismatches = sum(normalize_explore(out) != home.first_out[tuple(r.argv)]
                     for r, _, out in pairs)
    rt = [r.latency_s * 1000.0 for r, _, _ in pairs]
    ip = [ms for _, ms, _ in pairs]
    b, a = serve_counters(before), serve_counters(after)
    hits, misses = a[2] - b[2], a[3] - b[3]
    first = pairs[0][0].argv
    return {
        "serve.roundtrip_ms": median(rt),
        "serve.inprocess_ms": median(ip),
        "serve.overhead_ms": median(x - y for x, y in zip(rt, ip)),
        "serve.response_cache_hits": a[0] - b[0],
        "serve.coalesced": a[1] - b[1],
        "serve.cost_cache_hit_ratio": hits / max(1, hits + misses),
    }, median(rt), mismatches + sum(not r.ok for r in stream), \
        ["--wstores", first[2], "--precisions", first[4], "--seed", first[6]]


def tracing_overhead(wl, request, seconds):
    """Replays one request with spans on and with a no-op tracer, alternated
    for @p seconds (at least two of each). Returns the difference of the
    two medians in ms, the number of replays and the spans of one replay."""
    times = {True: [], False: []}
    start = time.perf_counter()
    while len(times[False]) < 2 or time.perf_counter() - start < seconds:
        order = (True, False) if len(times[True]) % 2 == 0 else (False, True)
        for spans in order:
            r = replay(wl, [*request, "--request-only",
                            *([] if spans else ["--no-spans"])],
                       wl.workdir / "spans-request.json" if spans else None)
            times[spans].append(r["replay.request_ms"])
            if spans:
                m = r
    return (median(times[True]) - median(times[False]),
            len(times[True]) + len(times[False]), m["trace.spans"])


def measure_layers(args, bdir):
    bin_path = bdir / "sega_dcim" / "sega_dcim"
    trace_bin = bdir / "perfbench_trace"
    workdir = fresh_workdir(bdir, args.workload + "-trace")
    cls = WORKLOAD_CLASSES[args.workload]
    wl = cls(bin_path, trace_bin, workdir, args.seed, pinned_threads(), False)
    metrics = {}
    spans_out = bdir / "traces"
    groups = {
        "sweep-grid": layers_dse,
        "sweep-memo-warm": layers_memo,
        "validate-layout": layers_validate,
        "serve-explore": layers_serve,
    }
    try:
        warmup = wl.setup()
        attempted, failed = 1, int(not warmup.ok)
        for name in [n for n in WORKLOADS if n != wl.name] + [wl.name]:
            m, request_ms, mismatches, request = groups[name](wl, name == wl.name)
            failed += mismatches
            if name != wl.name:
                m = {k: v for k, v in m.items() if k.startswith(HOME_LAYERS[name])}
            metrics.update(m)
            if name == wl.name:
                own_request_ms, own, own_request = request_ms, m, request
        if isinstance(wl, ServeExplore):
            attempted += SERVE_TRACE_REQUESTS
        # What the CLI request spends outside every timed layer call:
        # process start, argument parsing, output formatting.
        attributed = own.get("serve.inprocess_ms", own.get("replay.layers_ms"))
        metrics["compiler.request_ms"] = own_request_ms
        metrics["compiler.unattributed_ms"] = own_request_ms - attributed
        metrics["compiler.cli_startup_ms"] = cli_ms(wl, [wl.bin, "precisions"], 9)[0]
        overhead, replays, spans = tracing_overhead(wl, own_request, args.seconds)
        attempted += replays
        metrics["trace.overhead_ms"] = overhead
        metrics["trace.spans"] = spans
    finally:
        wl.teardown()
        spans_out.mkdir(exist_ok=True)
        for f in workdir.glob("spans-*.json"):
            shutil.copy(f, spans_out / f"{wl.name}-{args.seed}-{f.name}")
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [k for k in PER_LAYER if k not in metrics]
    if missing:
        raise BenchError(f"traced run is missing {missing}")
    log(f"{wl.name} traced: request {metrics['compiler.request_ms']:.1f} ms, "
        f"unattributed {metrics['compiler.unattributed_ms']:.1f} ms, "
        f"trace overhead {overhead:.3f} ms over {replays} replays; "
        f"spans in {spans_out}")
    return attempted, failed, {k: metrics[k] for k in PER_LAYER}


# ---------------------------------------------------------------------- main


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-expected", action="store_true",
                   help="self-test: corrupt the expected outputs so that "
                        "every output check fails")
    args = p.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    try:
        targets = ["sega_dcim"] + (["perfbench_trace"] if args.trace else [])
        bdir = build(targets)
        if args.trace:
            attempted, failed, values = measure_layers(args, bdir)
            units = PER_LAYER
        else:
            attempted, failed, values = measure_end_to_end(args, bdir)
            units = END_TO_END
        info = host_info(bdir, args.seed, args.workload)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    print(json.dumps({"host": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
