"""The benchmark's workloads: seeded configs, CLI call sequences, output checks.

Each workload is a closed loop with one caller: the next `satstab` call starts
when the previous one returns.  The seed sets the config `seed` (the RNG of
`verify`'s fuzzed suites) and draws the initial amplitude from a fixed band
around the committed value; nothing else depends on it, so J, the step
counts and the number of CLI and `run()` calls are the same for every seed.
"""

import hashlib
import io
import json
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("nonlinear_single", "trajectory_sweep", "clamped_spectral")
AMPLITUDE_BAND = 0.10
BASIN_CAP = 256.0  # `simulate --basin` searches amplitudes in [a, 256 a]

# clamped_spectral runs `spectrum` over this grid before its boundary
# pipeline.  The J = 16 solves fail at the seed (ConvergenceFailure, exit 3)
# and stay in on purpose: the clamped-spectrum fix should show as fewer
# failed calls.
SPECTRUM_GRID = tuple(
    (lam, length, J)
    for lam in (20.0, 45.0, 60.0, 100.0)
    for length in (1.0, 1.5)
    for J in (8, 10, 16)
)


@dataclass(frozen=True)
class Call:
    stage: str  # spectrum | synth | simulate | basin | verify
    argv: tuple
    config: Path
    prefix: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    amplitude: float
    config: Path  # the workload's own config; spectrum grid configs sit beside it
    out_dir: Path
    calls: tuple


@dataclass(frozen=True)
class CallResult:
    call: Call
    seconds: float
    code: int | None  # None when the call raised instead of returning
    error: str  # stderr, or the traceback of a raised exception


def prepare(name, seed, work_dir):
    """Write the seeded configs of one workload under `work_dir`."""
    work_dir = Path(work_dir)
    out_dir = work_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads((HERE / "configs" / f"{name}.json").read_text())
    amplitude = doc["initial"]["amplitude"] * (
        1.0 + AMPLITUDE_BAND * random.Random(seed).uniform(-1.0, 1.0)
    )
    doc["initial"]["amplitude"] = amplitude
    doc["seed"] = seed
    doc["output"] = {"directory": str(out_dir), "prefix": name}

    def write(prefix, document):
        path = work_dir / f"{prefix}.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path

    def call(stage, command, config, prefix, *extra):
        return Call(stage, (command, "-c", str(config)) + extra, config, prefix)

    calls = []
    if name == "clamped_spectral":
        for lam, length, J in SPECTRUM_GRID:
            prefix = f"spectrum_lam{lam:g}_L{length:g}_J{J}"
            grid_doc = dict(doc, **{"lambda": lam, "length": length, "J": J})
            grid_doc["output"] = {"directory": str(out_dir), "prefix": prefix}
            calls.append(call("spectrum", "spectrum", write(prefix, grid_doc), prefix))
    config = write(name, doc)
    certificate = str(out_dir / f"{name}_certificate.json")
    calls.append(call("synth", "synth", config, name))
    if name == "trajectory_sweep":
        calls.append(call("basin", "simulate", config, name, "--certificate", certificate, "--basin"))
        calls.append(call("verify", "verify", config, name, "--certificate", certificate))
    else:
        calls.append(call("simulate", "simulate", config, name, "--certificate", certificate))
    return Workload(name, seed, amplitude, config, out_dir, tuple(calls))


def execute(workload, paused=lambda: 0.0):
    """Run the workload's CLI calls in order, in this process.

    `paused()` gives the seconds so far in which the process did other work
    than the calls (the reference sampler's signal handlers); they are taken
    out of each call's time.  `satstab.cli.main` is looked up at every call,
    so span wrappers installed on the module are the ones that run.
    """
    from satstab import cli

    results = []
    for call in workload.calls:
        out, err = io.StringIO(), io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            paused_before = paused()
            start = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except Exception:  # a raising call is a failed op, recorded with its traceback
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start - (paused() - paused_before)
        results.append(CallResult(call, seconds, code, err.getvalue()))
    return results


# Files each stage writes, as suffixes after the call's output prefix.
OUTPUTS = {
    "spectrum": ("spectrum.csv", "spectrum.json"),
    "synth": ("certificate.json", "synth_report.txt"),
    "simulate": ("trajectory.csv", "summary.json"),
    "basin": ("trajectory.csv", "summary.json"),
    "verify": (),
}


def digest(workload, call):
    """sha256 over the output files of one call, or None if one is missing."""
    h = hashlib.sha256()
    for suffix in OUTPUTS[call.stage]:
        path = workload.out_dir / f"{call.prefix}_{suffix}"
        if not path.is_file():
            return None
        h.update(suffix.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _check_spectrum(workload, call):
    cfg = _read_json(call.config)
    summary = _read_json(workload.out_dir / f"{call.prefix}_spectrum.json")
    lines = (workload.out_dir / f"{call.prefix}_spectrum.csv").read_bytes().split(b"\r\n")
    if summary["count"] != cfg["J"] or len(lines) != cfg["J"] + 2:
        return f"spectrum table holds {summary['count']} modes, config asks for {cfg['J']}"
    return None


def _check_synth(workload, call):
    from satstab import config as cfgmod
    from satstab.cli import load_certificate
    from satstab.synthesis import check_certificate

    _, gain, cert, _ = load_certificate(str(workload.out_dir / f"{call.prefix}_certificate.json"))
    if cert is None:
        return "certificate file holds no certificate"
    cfg = cfgmod.load_config(str(call.config))
    ms, _ = cfgmod.build_modal(cfg, cfgmod.build_eigen(cfg))
    check = check_certificate(cert, ms, gain)
    if not check.ok:
        return (f"loaded certificate fails its check: lambda_max(M1) = {check.lambda_max_m1:.3e}, "
                f"lambda_min(M2) = {check.lambda_min_m2:.3e}")
    return None


def _check_simulate(workload, call):
    summary = _read_json(workload.out_dir / f"{call.prefix}_summary.json")
    if summary["exit_reason"] != "horizon":
        return f"trajectory ended by {summary['exit_reason']!r}, not the horizon"
    boundary = not _read_json(call.config)["actuators"]
    for channel in ("l2", "h2") + (("u_plus_w",) if boundary else ()):
        fit = summary["rates"].get(channel)
        if fit is None or not fit["rate"] > 0.0:
            return f"fitted {channel} decay rate is {fit and fit['rate']!r}, not positive"
    if call.stage == "basin":
        cap = BASIN_CAP * workload.amplitude
        if not summary["basin_estimate"] < cap:
            return f"basin estimate {summary['basin_estimate']!r} did not bracket an edge below {cap!r}"
    return None


_CHECKS = {
    "spectrum": _check_spectrum,
    "synth": _check_synth,
    "simulate": _check_simulate,
    "basin": _check_simulate,
}


def check(workload, result):
    """(reason, defect) for one call; reason is None when the call succeeded.

    A call fails when it exits non-zero, raises, or writes output that fails
    its check.  `defect` marks wrong output or an exception that no exit
    code classifies, as opposed to a documented non-zero exit.
    """
    if result.code is None:
        return "raised: " + result.error.strip().splitlines()[-1], True
    if result.code != 0:
        lines = result.error.strip().splitlines()
        return f"exit {result.code}: {lines[-1] if lines else ''}", False
    checker = _CHECKS.get(result.call.stage)
    try:
        reason = checker(workload, result.call) if checker else None
    except (OSError, KeyError, TypeError, ValueError) as exc:  # output missing or malformed
        reason = f"unreadable output: {exc!r}"
    return (reason, reason is not None)
