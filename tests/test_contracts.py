"""What files outside the package rely on: the benchmark harness and the README."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satstab
from satstab import cli, simulate
from satstab.modal import ModeCombination, assemble_internal
from satstab.saturation import SaturationLevel
from satstab.spectral import BoundaryCondition, OperatorParams, eigen_closed_form
from satstab.synthesis import build_certificate, design_gain, select_h2_constants

ROOT = Path(__file__).resolve().parents[1]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(satstab.__file__)))


def bench_spans():
    """bench/spans.py, loaded from its file: the bench directory is no package."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_is_a_package_function():
    # the tracer wraps each name with getattr; a missing one breaks `--trace 1`
    names = bench_spans().SPAN_NAMES
    assert names
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"satstab.{module_name}")
        assert callable(getattr(module, attr, None)), name


# (module, function) -> parameter names, for every package function the
# workloads call directly
WORKLOAD_CALLS = {
    ("config", "load_config"): ["path"],
    ("config", "build_eigen"): ["cfg"],
    ("config", "build_modal"): ["cfg", "es"],
    ("cli", "load_certificate"): ["path"],
    ("cli", "main"): ["argv"],
    ("synthesis", "check_certificate"): ["cert", "ms", "gain"],
}


@pytest.mark.parametrize("module_name, name", list(WORKLOAD_CALLS), ids="{0[0]}.{0[1]}".format)
def test_workload_calls_keep_their_signatures(module_name, name):
    fn = getattr(importlib.import_module(f"satstab.{module_name}"), name)
    params = list(inspect.signature(fn).parameters)
    assert params == WORKLOAD_CALLS[module_name, name]


def test_workload_calls_are_pinned():
    # the package functions the workloads import or call through a module
    source = (ROOT / "bench" / "workloads.py").read_text()
    used = set()
    for module, names in re.findall(r"from satstab\.(\w+) import ([\w, ]+)", source):
        used.update((module, name.strip()) for name in names.split(","))
    used.update(("config", name) for name in re.findall(r"\bcfgmod\.(\w+)\(", source))
    used.update(("cli", name) for name in re.findall(r"\bcli\.(\w+)\(", source))
    assert used == set(WORKLOAD_CALLS)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split()[0] == "horizon"
    assert float(out.stdout.split()[1]) > 0.0  # the fitted l2 decay rate


def test_tracer_sees_no_forcing_call_and_the_kernel_every_step(monkeypatch):
    # a nonlinear run forces each step inside its step kernel and the
    # monitors take the forcing peak from their one read-back of the stored
    # states, so the tracer's wrapper of `nonlinear_forcing` sees no call;
    # the kernel takes one step per sample after the first
    es = eigen_closed_form(OperatorParams(2.0, math.pi), BoundaryCondition.HINGED, 8)
    ms = assemble_internal(es, [ModeCombination([1.0])], 1)
    level = SaturationLevel(1.0)
    gain = design_gain(ms, poles=[-4.0])
    cert = build_certificate(ms, gain, level)
    consts = select_h2_constants(cert, ms, gain)
    config = simulate.SimConfig(dt=1e-3, T=0.2, delta=1.0, nu=1.0, initial=("smooth", 0.01))
    steps = []
    stepper = simulate.StepPlan.stepper

    def counting(plan, rows):
        step = stepper(plan, rows)

        def counted(*args):
            steps.append(len(args[0]))
            return step(*args)

        return counted

    monkeypatch.setattr(simulate.StepPlan, "stepper", counting)
    tracer = bench_spans().Tracer()
    with tracer.installed():
        traj = simulate.run(config, ms, gain, cert, consts, level=level)
    assert traj.exit_reason == simulate.EXIT_HORIZON and traj.times.size == 201
    assert steps == [1] * 200
    metrics = tracer.layer_metrics(1)
    assert metrics["simulate.run.calls"] == 1
    assert metrics["simulate.nonlinear_forcing.calls"] == 0


def test_tracer_counts_one_residual_call_per_eigen_system(tmp_path):
    # `eigen_residual` covers every mode of a system in one call, so
    # `spectral.eigen_residual.calls` counts eigen systems, not modes
    doc = {
        "bc": "clamped", "lambda": 45.0, "length": 1.0, "delta": 0.0, "nu": 0.0, "ell": 1.0,
        "actuators": [], "poles": None, "J": 10, "dt": 0.001, "T": 1.0,
        "initial": {"preset": "first_mode", "amplitude": 0.05}, "seed": 1,
        "output": {"directory": str(tmp_path), "prefix": "exp"},
    }
    path = tmp_path / "clamped.json"
    path.write_text(json.dumps(doc))
    tracer = bench_spans().Tracer()
    with tracer.installed():
        assert cli.main(["spectrum", "-c", str(path)]) == 0
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["spectral.eigen_clamped.calls"] == 1
    assert metrics["spectral.eigen_residual.calls"] == 1
