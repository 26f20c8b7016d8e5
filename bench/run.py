"""Benchmark of gutzmerlab: three seeded workloads, end-to-end or traced.

    python3 bench/run.py --workload analysis|gutzmer_orbital|cli_chain \
        --seed N --seconds S --trace 0|1

--trace 0 sets up, then runs ops (a closed loop, one client) for S seconds
and prints the end-to-end metrics.  --trace 1 sets up once, then runs a fixed
number of ops three times each (untraced, traced, traced under tracemalloc),
checks that all three give the same checksums, and prints the per-layer
metrics.  The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}; the line before it holds the run's report
(all metrics, checksums, metadata).  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TRACE_OPS = {"analysis": 2, "gutzmer_orbital": 1, "cli_chain": 2}
SETUPS = 3                        # set-ups per run; setup_s is their median
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "cpu_per_op_s": "s", "peak_rss_mb": "MB"}
# reported with the others but not bounded: both are 0 on some workloads
REPORT_ONLY_UNITS = {"output_bytes_per_op": "B", "fail_ratio": "ratio"}


def process_age() -> float:
    """Seconds since this process started (falls back to since this module loaded)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_info() -> dict:
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    except (KeyError, TypeError, ValueError):
        info = {"name": None, "version": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(args, workload, inherited_threads) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quadrature_specs": {k: dataclasses.asdict(v) for k, v in workload.specs().items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "GUTZMERLAB_THREADS": inherited_threads,
        "git_commit": git_commit(),
    }


class Tally:
    """Attempted and failed ops; an exception or a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises is a failed op; keep going
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        failed = sorted(name for name, ok in result.checks.items() if not ok)
        if failed:
            self.failed += 1
            self.errors.append("failed checks: " + ", ".join(failed))
        return result

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child mode: one cold set-up; prints the seconds from process start to ready."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(args.setup_probe)
    print(json.dumps({"ready_s": process_age()}))
    return 0


def setup_samples(args, workload) -> list:
    """Set up SETUPS times: fresh processes first, then this process, whose
    sample is its import time plus its own set-up (the probes' time excluded),
    so that the measured ops follow its warm-up op directly."""
    from workloads import child_env

    if args.workload == "cli_chain":
        return [workload.setup_probe() for _ in range(SETUPS)]
    import_s = process_age()
    samples = []
    for k in range(1, SETUPS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(k)]
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {out.returncode}: {out.stderr[-400:]}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["ready_s"])
    t0 = time.perf_counter()
    workload.setup(0)
    return samples + [import_s + time.perf_counter() - t0]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(args, workload, tally) -> tuple:
    from measure import tail

    samples = setup_samples(args, workload)
    usage0 = cpu_seconds()
    walls, checksums, written = [], [], 0
    t0 = time.perf_counter()
    index = 0
    # cli_chain alternates its two bands, so it measures whole pairs of chains
    while index == 0 or time.perf_counter() - t0 < args.seconds or (
            args.workload == "cli_chain" and index % 2):
        s = time.perf_counter()
        result = tally.run(workload.op, index)
        walls.append(time.perf_counter() - s)
        if result is not None:
            checksums.append(result.checksum)
            written += result.bytes_written
        index += 1
    elapsed = time.perf_counter() - t0
    cpu = cpu_seconds() - usage0
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_chain" else resource.RUSAGE_SELF
    tail_s, tail_p, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": (tally.attempted - tally.failed) / elapsed,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "cpu_per_op_s": cpu / tally.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
        "output_bytes_per_op": written / tally.attempted,
        "fail_ratio": tally.fail_ratio,
    }
    extra = {"setup_samples_s": samples, "op_walls_s": walls, "op_tail_percentile": tail_p,
             "op_tail_beyond": beyond, "ops": len(walls), "checksums": checksums}
    units = {**E2E_UNITS, **REPORT_ONLY_UNITS}
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}, extra


def traced_pass(workload, tally, index, tracer, memory, span_root) -> tuple:
    """One op under the tracer: (result, wall, cli steps as (wall, exit code, spans)).

    In-process ops record into `tracer`; cli_chain steps each run under the
    tracing launcher in their own process and write their spans to a file.
    """
    from tracer import Span

    if span_root is None:
        if memory:
            tracemalloc.start()
        s = time.perf_counter()
        with tracer.installed():
            result = tally.run(workload.op, index)
        wall = time.perf_counter() - s
        tracemalloc.stop()
        return result, wall, []
    s = time.perf_counter()
    result = tally.run(lambda i: workload.op(i, span_root, memory), index)
    wall = time.perf_counter() - s
    steps = []
    for _, step_wall, rc, path in (result.steps if result is not None else ()):
        spans = [Span.load(r) for r in json.loads(path.read_text())] if path.exists() else []
        steps.append((step_wall, rc, spans))
    return result, wall, steps


def run_traced(args, workload, tally) -> tuple:
    """Each op three times: untraced, traced for the spans, and traced under
    tracemalloc for the span peaks (tracemalloc slows every allocation, so it
    gets a pass of its own and the self times come from the second pass)."""
    from measure import layer_metrics
    from tracer import TARGETS, Tracer, attribute_snapshot, same_attributes

    span_root = None
    if args.workload == "cli_chain":
        span_root = workload.workdir / "spans"
        span_root.mkdir(parents=True, exist_ok=True)
    else:
        workload.setup(0)
    before = attribute_snapshot(TARGETS)
    timing, memory = Tracer(), Tracer()
    cli_steps, memory_steps, checksums = [], [], []
    walls = {"untraced": 0.0, "traced": 0.0, "memory": 0.0}
    n_ops = TRACE_OPS[args.workload]
    for index in range(n_ops):
        s = time.perf_counter()
        plain = tally.run(workload.op, index)
        walls["untraced"] += time.perf_counter() - s
        traced, wall, steps = traced_pass(workload, tally, index, timing, False, span_root)
        walls["traced"] += wall
        cli_steps += steps
        mem, wall, steps = traced_pass(workload, tally, index, memory, True, span_root)
        walls["memory"] += wall
        memory_steps += steps
        sums = [r.checksum if r is not None else None for r in (plain, traced, mem)]
        same = sums[0] == sums[1] == sums[2]
        checksums.append({"untraced": sums[0], "traced": sums[1], "memory": sums[2],
                          "equal": same})
        if None not in sums and not same:   # an op that raised is already a failure
            tally.failed += 1
            tally.errors.append(f"op {index}: traced checksums differ from untraced")
    restored = same_attributes(before, attribute_snapshot(TARGETS))
    if not restored:
        tally.failed += 1
        tally.errors.append("tracer left a patched attribute behind")
    if span_root is None:
        spans, memory_spans = [timing.spans], [memory.spans]
    else:
        spans = [sp for _, _, sp in cli_steps]
        memory_spans = [sp for _, _, sp in memory_steps]
    metrics = layer_metrics(spans, memory_spans, n_ops, walls["traced"], walls["untraced"],
                            cli_steps)
    extra = {"checksums": checksums, "attributes_restored": restored, "trace_ops": n_ops,
             "pass_walls_s": walls}
    return metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=("analysis", "gutzmer_orbital", "cli_chain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    inherited_threads = os.environ.pop("GUTZMERLAB_THREADS", None)
    try:
        import gutzmerlab
        import workloads
    except ImportError as exc:
        print(f"cannot import gutzmerlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(gutzmerlab.__file__).resolve().parent != ROOT / "src" / "gutzmerlab":
        print(f"gutzmerlab imported from {gutzmerlab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(args)

    workdir = workloads.WORK / f"{args.workload}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, workdir) if args.workload == "cli_chain" else cls(args.seed)
    tally = Tally()
    try:
        runner = run_traced if args.trace else run_untraced
        shown, extra = runner(args, workload, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workloads.WORK.rmdir()
        except OSError:
            pass
    for name, m in shown.items():
        print(f"{args.workload:16s} {name:48s} {m['value']:.6g} {m['unit']}")
    report = {"metrics": shown, "attempted": tally.attempted, "failed": tally.failed,
              "fail_ratio": tally.fail_ratio, "errors": tally.errors[:20],
              "metadata": metadata(args, workload, inherited_threads), **extra}
    print(json.dumps({"report": report}))
    metrics = {k: m for k, m in shown.items() if k not in REPORT_ONLY_UNITS}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
