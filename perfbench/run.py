"""Benchmark of the medc library: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload train3_small --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run sets up the workload several times, runs one
warm-up operation, then runs operations back to back (closed loop) for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it runs
a fixed number of operations untraced and then the same operations again
with every layer wrapped by ``spans.Tracer``, and reports per-layer metrics.
Every operation's outputs are checked; a failed check makes the run exit 1.

Earlier output lines name each metric with its unit and give the machine
facts; the last line is the JSON result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(min(current, nproc) if current > 0 else nproc)
    return nproc


def import_medc():
    """Import medc from this checkout's src/, never from anywhere else."""
    if not (SRC / "medc" / "__init__.py").is_file():
        raise SystemExit(f"error: no medc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import medc
    import medc.verify  # noqa: F401  (verify is a layer but not imported by medc)
    if Path(medc.__file__).resolve().parent != SRC / "medc":
        raise SystemExit(f"error: imported medc from {medc.__file__}, not {SRC}")


def fresh_import_seconds():
    """Wall seconds for a new interpreter to import every medc layer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import medc, medc.verify"], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - t0


def machine_facts(nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "cpu_pinning": "none", "frequency_control": "none"}


class Checks:
    """Counts checked operations and compares repeated outputs per input key."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    def add(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what} {detail}", file=sys.stderr)

    def record(self, key, result, label):
        for what, ok, detail in result.checks:
            self.add(what, ok, detail)
        if key in self.reference:
            self.add(f"{label} output for input {key} equals the first one",
                     result.output == self.reference[key])
        else:
            self.reference[key] = result.output


def setup(wl, tracer):
    """Set the workload up SETUP_REPS times; returns the median seconds."""
    times = []
    if tracer:
        tracer.install("setup")
    try:
        for _ in range(SETUP_REPS):
            gc.collect()
            import_s = fresh_import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            times.append(import_s + time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()
    return median(times)


def run_op(wl, i, checks, label):
    gc.collect()
    result = wl.op(i)
    checks.record(wl.key(i), result, label)
    return result


def measure(wl, seconds, checks):
    """Closed loop of operations until the next one would overrun `seconds`."""
    ops, walls = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops.append(run_op(wl, len(ops), checks, "untraced"))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + median(walls) > seconds:
            return ops


def traced(wl, tracer, checks):
    """The same trace_ops operations untraced, then traced."""
    plain = [run_op(wl, i, checks, "untraced") for i in range(wl.trace_ops)]
    tracer.install("measure")
    try:
        with_spans = [run_op(wl, i, checks, "traced") for i in range(wl.trace_ops)]
    finally:
        tracer.uninstall()
    return plain, with_spans


def print_metric(name, value, unit, note=""):
    print(f"{name} = {value!r} {unit}{'  (' + note + ')' if note else ''}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    import_medc()
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    facts = machine_facts(nproc)
    print("machine:", json.dumps(facts, sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    checks = Checks()
    tracer = spans.Tracer() if args.trace else None
    try:
        setup_s = setup(wl, tracer)
        gc.collect()
        warm = wl.warmup()
        if warm is not None:
            checks.record(wl.key(0), warm, "warm-up")
        if tracer:
            plain, ops = traced(wl, tracer, checks)
        else:
            ops = measure(wl, args.seconds, checks)
    except Exception:
        traceback.print_exc()
        checks.add("workload raised", False)
        ops = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not ops:
        metrics = {}
    elif tracer:
        overhead = median([b.seconds - a.seconds for a, b in zip(plain, ops)])
        metrics = spans.layer_metrics(tracer, wl, SETUP_REPS, ops, overhead)
        tracer.dump(OUT / f"trace-{args.workload}.npz", facts)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print("op seconds:", " ".join(f"{o.seconds:.4f}" for o in ops))
        for name, value, unit, note in wl.report(ops):
            print_metric(name, value, unit, note)
        print_metric("failed_ratio", checks.failed / max(checks.attempted, 1), "ratio",
                     f"{checks.failed} of {checks.attempted} checked operations")
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (median([o.items / o.seconds for o in ops]), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, f"{wl.item}s per second, median of {len(ops)} ops"
                     if name == "items_per_s" else "")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
