"""ptdistill benchmark: one command, two workloads, checked outputs.

    python3 bench/run.py --workload {desk_seed,wide_c} --seed N \\
        --seconds S --trace {0,1} [--scale {tiny,standard,baseline}]

Run from anywhere; it imports ptdistill from the ``src`` directory next to
``bench``.  One process runs one workload as a closed loop: set-up (done
``SETUP_REPS`` times), then the timed operation again and again while one
more still fits in ``--seconds``, checking each operation's outputs outside
the timed region.  BLAS is pinned to one thread for every run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the operations of the run).  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, and the last
line carries the per-layer metrics; the spans are written to
``.bench_run/traces/`` when the run ends.  The line before the result is
the environment the numbers were measured in.
"""
import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-ups per run; setup_s is the median of their times.
SETUP_REPS = 5
# What a fresh process imports before a workload can start.
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import ptdistill.cli, ptdistill.distill, ptdistill.selection")

# (name, unit, better); the benchmark's BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["desk_seed", "wide_c"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", default="standard",
                   choices=["tiny", "standard", "baseline"])
    return p.parse_args(argv)


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None if not found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD's commit read from .git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": _git_commit(),
    }


def _setup_time(wl) -> float:
    """One set-up: a fresh interpreter's imports, then the workload's own."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True)
    imports = time.perf_counter() - t
    t = time.perf_counter()
    wl.setup()
    return imports + time.perf_counter() - t


def _measure(wl, probe, seconds, tracer, tally):
    """Runs the timed operation while one more, of the median time so far,
    still ends within `seconds` (always at least once); returns its times."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + median(times) <= seconds:
        probe.bad_proxy_calls = 0
        t = time.perf_counter()
        output = wl.run(tracer)
        times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.enabled = False
        tally["attempted"] += wl.ops_per_rep
        tally["failed"] += wl.check(output, probe.bad_proxy_calls)
        if tracer is not None:
            tracer.enabled = True
    print(f"{'traced' if tracer else 'untraced'} operation times (s): "
          + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    return times


def _write_trace(path, env, args, spans, metrics):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"environment": env, "workload": args.workload, "seed": args.seed,
           "scale": args.scale, "metrics": metrics,
           "spans": [{"name": s[0], "start": s[1], "end": s[2],
                      "parent": s[3], "attrs": s[4]} for s in spans]}
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import probes
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import ptdistill
    if SRC.resolve() not in Path(ptdistill.__file__).resolve().parents:
        print(f"error: ptdistill was imported from {ptdistill.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    scale = workloads.SCALES[args.scale]
    work_dir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, scale, work_dir)
    probe = probes.Probe()
    tally = {"attempted": 0, "failed": 0}
    try:
        setup_times = [_setup_time(wl) for _ in range(SETUP_REPS)]
        print("set-up times (s): " + " ".join(f"{t:.3f}" for t in setup_times),
              file=sys.stderr)
        probe.install_checks()
        if args.trace:
            plain = _measure(wl, probe, args.seconds / 2, None, tally)
            tracer = probes.Tracer()
            probe.install_spans(tracer)
            traced = _measure(wl, probe, args.seconds / 2, tracer, tally)
            metrics = probes.layer_metrics(tracer.spans, len(traced))
            metrics["distill.student_acc"] = wl.student_acc
            metrics["selection.search_score"] = wl.search_score
            metrics["trace.overhead_s"] = median(traced) - median(plain)
            units = {name: unit for name, unit, _ in probes.LAYER_METRICS}
            trace_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}-{args.scale}.json"
            _write_trace(trace_path, env, args, tracer.spans, metrics)
            print(json.dumps({"trace_file": str(trace_path)}), flush=True)
        else:
            times = _measure(wl, probe, args.seconds, None, tally)
            metrics = {
                "setup_s": median(setup_times),
                "wall_s": median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
            }
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        probe.remove()
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
