#!/usr/bin/env python3
"""pooltrial benchmark: coverage-cell throughput, the simulate-then-estimate
pipeline and the n = 100,000 oracle run, with per-stage spans in a separate
traced run.

Run from the repository root (the package is imported from ``src/``):

    python3 benchmarks/run.py --workload cell_n50_T50 --seed 1 --seconds 17 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 17 --trace 1
    python3 benchmarks/run.py --record    # re-record benchmarks/references.json

One workload runs in this process; ``--workload all`` runs each workload in a
fresh process of its own.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.
The line before it records the machine and library versions.  A traced run
also writes its spans to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import os

# Fixed before numpy loads, the same on every run and never above nproc: one
# BLAS thread, because every benchmarked call runs in one process with jobs=1.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import InterpreterKernel  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cell_n50_T50", "cell_n50_T200", "pipeline_mirror_n500", "oracle_n100k")
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 3
# Calibration calls timed around a probe, about 60 ms each: here right before
# the probe starts, and in the probe right after its set-up (not before it,
# because the kernel needs numpy and numpy's import is set-up work).
SETUP_KERNEL_CALLS = 400
CHILD_TIMEOUT_S = 170


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": int(BLAS_THREADS),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def import_package() -> float:
    """Import the package from this checkout's src/; returns the import time."""
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import pooltrial.cli  # noqa: F401

    elapsed = time.perf_counter() - started
    import pooltrial

    if Path(pooltrial.__file__).resolve().parent != SRC / "pooltrial":
        raise SystemExit(f"imported pooltrial from {pooltrial.__file__}, not {SRC}")
    return elapsed


def set_up(name: str, seed: int, workdir: Path):
    """Import, config, input generation and warm-up: everything before timing."""
    import_s = import_package()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload, import_s


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to the point its timing would
    start, raw and at the calibration kernel's reference speed."""
    kernel = InterpreterKernel()
    before_ms = kernel.time_ms(SETUP_KERNEL_CALLS)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"setup probe for {name} exited {proc.returncode}")
    # CLOCK_MONOTONIC is system-wide, so the child's readings compare to ours.
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = probe["ready"] - started
    return raw, raw * kernel.reference_ms / ((before_ms + probe["kernel_ms"]) / 2)


def with_units(values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark did not produce {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def self_time_table(tracer) -> list:
    """Median self time of every span name under each root, per operation."""
    rows = []
    roots = sorted({tracer.root_name(i) for i in range(len(tracer.spans))})
    for root in roots:
        for name, samples in sorted(tracer.stage_ms((root,)).items()):
            rows.append({"root": root, "span": name, "ops": len(samples),
                         "self_ms_p50": statistics.median(samples)})
    return rows


def run_workload(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, import_s = set_up(args.workload, args.seed, workdir)
        if args.trace:
            import workloads

            tracer = workloads.Tracer()
            counts = workload.trace(args.seconds, tracer)
            metrics = with_units(workload.layer_metrics(tracer, import_s), spec()["per_layer"])
            table = self_time_table(tracer)
            for row in table:
                print(f"span {row['root']:>16} {row['span']:<28} "
                      f"{row['self_ms_p50']:10.3f} ms self (p50 of {row['ops']})")
            report = {"workload": args.workload, "seed": args.seed, "env": environment(),
                      "metrics": metrics, "self_times": table, "spans": tracer.to_json()}
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))
        else:
            counts = workload.measure(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            values = {
                "reps_per_s": counts["reps_per_s"],
                "trial_ms_p50": counts["trial_ms_p50"],
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(scaled for _, scaled in probes),
            }
            metrics = with_units(values, spec()["end_to_end"])
            print("raw " + json.dumps({
                "reps_per_s": counts["raw_reps_per_s"],
                "trial_ms_p50": counts["raw_trial_ms_p50"],
                "setup_s": statistics.median(raw for raw, _ in probes),
                "kernel": type(workload.kernel).__name__,
                "kernel_ms_p50": counts["kernel_ms_p50"],
            }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": not workload.failures,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


def run_probe(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        set_up(args.workload, args.seed, workdir)
        ready = time.monotonic()
        kernel_ms = InterpreterKernel().time_ms(SETUP_KERNEL_CALLS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "kernel_ms": kernel_ms}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric with its unit."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        print(f"== {name}: correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
        for metric, m in results[name]["metrics"].items():
            print(f"   {metric:<44} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print("== T-scaling of each stage, cell_n50_T200 over cell_n50_T50 (4.0 = linear)")
        short = results["cell_n50_T50"]["metrics"]
        long = results["cell_n50_T200"]["metrics"]
        for metric, m in short.items():
            if m["unit"] == "ms" and m["value"] > 0:
                print(f"   {metric:<44} {m['value']:>10.3f} ms -> "
                      f"{long[metric]['value']:>10.3f} ms  x{long[metric]['value'] / m['value']:.2f}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


def run_record(args) -> int:
    import_package()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.record_references(range(20), range(20), 12, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="re-record benchmarks/references.json")
    args = parser.parse_args(argv)
    if not (SRC / "pooltrial" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pooltrial'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**58:
        parser.error("--seed must be in [0, 2**58)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record:
        return run_record(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return run_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
