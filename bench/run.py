"""Benchmark of the satstab CLI on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 it reports the end-to-end metrics: set-up time of a fresh
interpreter, the median in-process iteration of the workload, peak resident
memory of the benchmark process (which runs nothing but the workload's
calls), and the share of CLI calls that succeed and pass their output checks.
The two times are scaled to a reference host speed that bench/reference.py
reads while they are measured; the raw times are in the report.  Stage
times are printed for the stages a workload runs.  With --trace 1 it
alternates untraced and traced iterations and reports per-layer metrics,
in raw times, from spans wrapped around satstab's public functions; traced
outputs must match untraced ones byte for byte.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the full report
is written to bench/.work/<workload>/report.json.  See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 7
SETUP_READINGS = 4  # kernel readings on each side of a set-up child
MIN_ITERATIONS = 2  # so output bytes can be compared across repeats
CHILD_TIMEOUT_S = 150
STAGES = ("spectrum", "synth", "simulate", "basin", "verify")
SETUP_CODE = "import sys; from satstab import cli, config; config.load_config(sys.argv[1])"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="satstab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def summary(values):
    """Minimum, median, quartiles and count of a list of measurements."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": values[0], "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def setup_seconds(config_path, sampler):
    """Wall time of a fresh interpreter that imports satstab.cli and parses the config.

    Returns the raw time and the time scaled by the mean of SETUP_READINGS
    kernel readings just before and as many just after the child.  The
    sampler's timer stays off: its handler would compete with the child
    for the CPU.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    readings = [sampler.read() for _ in range(SETUP_READINGS)]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    readings += [sampler.read() for _ in range(SETUP_READINGS)]
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return seconds, reference.scaled(seconds, statistics.fmean(readings))


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args, nproc, runs):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    tree = hashlib.sha256()
    for path in files:
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:  # the ceiling keeps git from reporting a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "nproc": nproc,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }


def measure(workload, seconds, tracer=None, sampler=None):
    """Repeat the workload for `seconds`, at least MIN_ITERATIONS times.

    A further iteration starts only if one as long as the last would end
    within `seconds`.  Returns the untraced and the traced iterations.  With
    a tracer they alternate, starting untraced, so drift in host speed hits
    both alike.  With a sampler, each iteration runs with it active and
    records the mean of the kernel readings taken during it and one right
    after it.  Each iteration starts from an empty output directory.  Every
    call's outputs are checked, and their digest must equal the first
    iteration's.
    """
    untraced, traced = [], []
    expected = None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while (len(untraced) + len(traced) < MIN_ITERATIONS
           or time.perf_counter() + last < deadline):
        started = time.perf_counter()
        shutil.rmtree(workload.out_dir)
        workload.out_dir.mkdir()
        gc.collect()
        reference_s = None
        if tracer is not None and len(traced) < len(untraced):
            with tracer.installed():
                results = workloads.execute(workload)
            phase = traced
        elif sampler is not None:
            first = len(sampler.readings)
            with sampler.active():
                results = workloads.execute(workload, lambda: sampler.paused_s)
            sampler.read()
            reference_s = statistics.fmean(sampler.readings[first:])
            phase = untraced
        else:
            results = workloads.execute(workload)
            phase = untraced
        digests = [workloads.digest(workload, r.call) for r in results]
        if expected is None:
            expected = digests
        failures = []
        for result, got, want in zip(results, digests, expected):
            reason, defect = workloads.check(workload, result)
            if reason is None and got != want:
                reason, defect = "output bytes differ from the first run of this config", True
            failures.append((reason, defect))
        csv_bytes = sum(p.stat().st_size for p in workload.out_dir.glob("*_trajectory.csv"))
        phase.append({"results": results, "failures": failures, "reference_s": reference_s,
                      "wall_s": sum(r.seconds for r in results), "csv_bytes": csv_bytes})
        last = time.perf_counter() - started
    return untraced, traced


def seconds_of(iteration, results):
    """Summed time of `results`, at the reference speed when the iteration was sampled."""
    seconds = sum(r.seconds for r in results)
    if iteration["reference_s"] is None:
        return seconds
    return reference.scaled(seconds, iteration["reference_s"])


def stage_times(iterations):
    out = {}
    for stage in STAGES:
        values = [seconds_of(it, [r for r in it["results"] if r.call.stage == stage])
                  for it in iterations if any(r.call.stage == stage for r in it["results"])]
        if values:
            out[f"{stage}_s"] = summary(values)
    return out


def failure_counts(iterations):
    counts = {}
    for it in iterations:
        for result, (reason, defect) in zip(it["results"], it["failures"]):
            if reason is not None:
                key = f"{result.call.stage} {result.call.prefix}: {reason}"
                counts[key] = counts.get(key, 0) + 1
    return counts


def unit_of(metric):
    stat = metric.rsplit(".", 1)[-1]
    if stat in ("s", "self_s", "overhead_s"):
        return "s"
    if stat.startswith("us_"):
        return "us"
    return "bytes" if stat == "csv_bytes" else "count"


def print_report(report):
    prov = report["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"runs {prov['runs']}")
    for name, value in report["end_to_end"].items():
        if isinstance(value, dict):
            print(f"  {name:<12} median {value['median']:.4f} s, min {value['min']:.4f} s  "
                  f"(q1 {value['q1']:.4f}, q3 {value['q3']:.4f}, n {value['n']})")
        elif name == "peak_rss_mb":
            print(f"  {name:<12} {value:.1f} MB")
        else:
            print(f"  {name:<12} {value:.4f} ok/attempted")
    for name, value in report.get("raw", {}).items():
        print(f"  raw {name:<12} median {value['median']:.4f} s  (unscaled, n {value['n']})")
    print(f"  {'fail_ratio':<12} {report['fail_ratio']} failed/attempted")
    for reason, count in report["failures"].items():
        print(f"    {count} x {reason}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<44} {value:.6g} {unit_of(name)}")
    print("provenance " + json.dumps(prov))
    print(f"correct: {report['correct']}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "satstab" / "__init__.py").is_file():
        print(f"error: no satstab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread: on these matrix sizes a second OpenBLAS thread only
    # spins (CPU/wall 1.76 on clamped_spectral, no speed-up), which ties the
    # timings to load on the other core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # One CPU for this process and its set-up children, so the reference
    # kernel reads the speed of the CPU the measured work runs on; the host
    # speed of the two vCPUs differs from moment to moment.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.pop("SATSTAB_SEED", None)  # the config seed must be the benchmark's
    sys.path.insert(0, str(SRC))
    import spans  # imports numpy, so only after the BLAS setting

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.prepare(args.workload, args.seed, work)

    import satstab.cli  # noqa: F401  (imported, and its bytecode cached, before any timing)

    if args.trace:
        # Span times would take in the sampler's handlers, so a traced run
        # reports raw times only.
        tracer, sampler = spans.Tracer(), None
    else:
        tracer, sampler = None, reference.Sampler()
        sampler.read()  # warm-up: the kernel's first run pays one-off costs
        raw_setup, setup = map(summary, zip(*(setup_seconds(workload.config, sampler)
                                              for _ in range(SETUP_SAMPLES))))
    untraced, traced = measure(workload, args.seconds, tracer, sampler)
    everything = untraced + traced
    attempted = sum(len(it["results"]) for it in everything)
    failed = sum(reason is not None for it in everything for reason, _ in it["failures"])
    correct = not any(defect for it in everything for _, defect in it["failures"])

    wall = summary([seconds_of(it, it["results"]) for it in untraced])
    ok_ratio = (attempted - failed) / attempted
    report = {
        "provenance": provenance(args, nproc, {"setup_samples": 0 if tracer else SETUP_SAMPLES,
                                        "untraced_iterations": len(untraced),
                                        "traced_iterations": len(traced),
                                        "calls_per_iteration": len(workload.calls)}),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": f"{failed}/{attempted}",
        "failures": failure_counts(everything),
        "end_to_end": {"wall_s": wall, **stage_times(untraced), "ok_ratio": ok_ratio},
    }
    if tracer is None:
        # Peak memory of this process, which ran nothing but the workload's calls.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["end_to_end"].update(setup_s=setup, peak_rss_mb=peak_rss_mb)
        report["raw"] = {"setup_s": raw_setup,
                         "wall_s": summary([it["wall_s"] for it in untraced]),
                         "iteration_reference_s": summary([it["reference_s"] for it in untraced]),
                         "reference_s": summary(sampler.readings)}
        metrics = {
            "setup_s": {"value": setup["median"], "unit": "s"},
            "wall_s": {"value": wall["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_ratio": {"value": ok_ratio, "unit": "ok/attempted"},
        }
    else:
        layers = tracer.layer_metrics(len(workload.calls))
        layers["cli.csv_bytes"] = statistics.median(it["csv_bytes"] for it in traced)
        layers["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                      - wall["median"])
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
        report["per_layer"] = layers
        report["traced_stage_times"] = stage_times(traced)
        tracer.save(work / "spans.npz")

    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
