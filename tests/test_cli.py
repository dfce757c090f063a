import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satstab
from satstab import cli, simulate, synthesis
from satstab import config as cfgmod
from satstab.cli import main
from satstab.config import load_config, parse_config, serialize_config
from satstab.errors import SatStabError
from satstab.modal import ModalSystem
from satstab.simulate import Trajectory, gronwall_bound, run
from satstab.spectral import ClampedFamily

ROOT = Path(__file__).resolve().parents[1]


def all_subclasses(cls):
    """`cls` and every class derived from it, depth first."""
    return [cls] + [sub for direct in cls.__subclasses__() for sub in all_subclasses(direct)]


# the exit classes README documents; every other library error is a numerical failure
EXIT_CLASSES = {
    "ConfigError": (2, "config error"),
    "Infeasible": (4, "infeasible"),
    "NotStabilizable": (4, "infeasible"),
    "CriticalLength": (4, "infeasible"),
}


def test_exit_classes_cover_the_library_errors():
    names = {error.__name__ for error in all_subclasses(SatStabError)}
    assert set(EXIT_CLASSES) | {"BlowUp", "ConvergenceFailure", "BoundExpired"} <= names


def base_config(**overrides):
    doc = {
        "bc": "hinged",
        "lambda": 2.0,
        "length": math.pi,
        "delta": 0.0,
        "nu": 0.0,
        "ell": 1.0,
        "actuators": [{"kind": "indicator", "a": 0.0, "b": math.pi}],
        "poles": [-4.0],
        "J": 8,
        "dt": 0.001,
        "T": 2.0,
        "initial": {"preset": "first_mode", "amplitude": 0.05},
        "seed": 1234,
        "output": {"directory": ".", "prefix": "exp"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        doc = base_config()
        path = write_config(tmp_path, doc)
        cfg = load_config(path)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(color="red"))
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 2

    def test_missing_key_rejected(self, tmp_path):
        doc = base_config()
        del doc["length"]
        path = write_config(tmp_path, doc)
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 2

    def test_nonpositive_lambda_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(**{"lambda": -1.0}))
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 2

    def test_ell_inf_parse(self, tmp_path):
        path = write_config(tmp_path, base_config(ell="inf"))
        cfg = load_config(path)
        assert math.isinf(cfg.ell)
        assert serialize_config(cfg)["ell"] == "inf"

    def test_boundary_requires_clamped(self, tmp_path):
        path = write_config(tmp_path, base_config(actuators=[]))
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 2


NON_FINITE = [math.nan, math.inf, -math.inf]


def _set_top(key):
    return lambda doc, value: doc.update({key: value})


CONFIG_NUMBERS = {
    "lambda": _set_top("lambda"),
    "length": _set_top("length"),
    "delta": _set_top("delta"),
    "nu": _set_top("nu"),
    "ell": _set_top("ell"),
    "dt": _set_top("dt"),
    "T": _set_top("T"),
    "poles": lambda doc, value: doc.update(poles=[value]),
    "initial.modal": lambda doc, value: doc.update(initial={"modal": [value] + [0.0] * 7}),
    "initial.amplitude": lambda doc, value: doc.update(
        initial={"preset": "first_mode", "amplitude": value}
    ),
    "actuators[0].a": lambda doc, value: doc.update(
        actuators=[{"kind": "indicator", "a": value, "b": 1.0}]
    ),
    "actuators[0].b": lambda doc, value: doc.update(
        actuators=[{"kind": "indicator", "a": 0.0, "b": value}]
    ),
    "actuators[0].coefficients": lambda doc, value: doc.update(
        actuators=[{"kind": "modes", "coefficients": [1.0, value]}]
    ),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", sorted(CONFIG_NUMBERS))
def test_non_finite_config_number_exits_2(tmp_path, capsys, key, value):
    # json reads NaN and Infinity; "inf" (a string) is the only unsaturated ell
    doc = base_config(J=8)
    CONFIG_NUMBERS[key](doc, value)
    path = write_config(tmp_path, doc)
    assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must ")
    assert not (tmp_path / "exp_spectrum.csv").exists()


@pytest.mark.parametrize("value", NON_FINITE, ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["v0", "p", "b", "k", "T"])
def test_non_finite_gronwall_number_exits_2(tmp_path, capsys, key, value):
    doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 10.0, key: value}
    path = tmp_path / "gron.json"
    path.write_text(json.dumps(doc))
    assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: gronwall {key} must be finite")
    assert not (tmp_path / "gronwall.csv").exists()


def test_infinite_gronwall_samples_exits_2(tmp_path, capsys):
    doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 10.0, "samples": math.inf}
    path = tmp_path / "gron.json"
    path.write_text(json.dumps(doc))
    assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: gronwall config is malformed")


@pytest.mark.parametrize("samples", ["5", 2.5, True, 2, 10**17])
def test_gronwall_samples_other_than_an_integer_from_3_exit_2(tmp_path, capsys, samples):
    # 10**17 samples take 711 PiB a column, more than any address space
    doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 10.0, "samples": samples}
    path = tmp_path / "gron.json"
    path.write_text(json.dumps(doc))
    assert main(["gronwall", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if samples == 10**17:
        assert err.startswith(f"config error: gronwall samples = {samples} take 8e+17 bytes")
    else:
        head = "config error: gronwall config is malformed: samples must be an integer >= 3, got"
        assert err == f"{head} {samples!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "output", ["x", {"directory": "o", "prefx": "q"}], ids=["string", "misspelled-key"]
)
@pytest.mark.parametrize("command", ["spectrum", "gronwall"])
def test_bad_output_block_exits_2(tmp_path, capsys, command, output):
    if command == "gronwall":
        doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 10.0, "output": output}
    else:
        doc = base_config(J=8, output=output)
    path = write_config(tmp_path, doc)
    assert main([command, "-c", path, "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: output must be an object with 'directory' and 'prefix'\n"
    assert not any(tmp_path.glob("*.csv"))


_IMPORT_PROBE = """
import json, sys
import satstab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

clamped, hinged, cert, gron, out = sys.argv[1:]
stages = {"import": scipy_modules()}
orjson = {"import": "orjson" in sys.modules}
codes = []
for name, argv in [
    ("spectrum", ["spectrum", "-c", clamped]),
    ("modal", ["modal", "-c", clamped]),
    ("synth", ["synth", "-c", hinged]),
    ("simulate", ["simulate", "-c", hinged, "--certificate", cert]),
    ("simulate --basin", ["simulate", "-c", hinged, "--certificate", cert, "--basin"]),
    ("verify", ["verify", "-c", hinged]),
    ("verify --certificate", ["verify", "-c", hinged, "--certificate", cert]),
    ("gronwall", ["gronwall", "-c", gron]),
]:
    codes.append(cli.main(argv + ["-o", out]))
    stages[name] = scipy_modules()
    orjson.setdefault(name, "orjson" in sys.modules)
print(json.dumps({"codes": codes, "stages": stages, "orjson": orjson}))
"""


def test_no_scipy_module_after_any_subcommand(tmp_path):
    # every CLI call pays its imports: no subcommand, synth and the
    # certificate checks included, loads any scipy module
    clamped_doc = base_config(bc="clamped", **{"lambda": 45.0}, length=1.0, J=16)
    clamped_doc.update(actuators=[], poles=None)
    clamped = write_config(tmp_path, clamped_doc, "clamped.json")
    hinged_doc = base_config(J=8, T=0.5, poles=[-2.0])
    hinged_doc["actuators"] = [{"kind": "modes", "coefficients": [1.0]}]
    hinged_doc["initial"] = {"preset": "first_mode", "amplitude": 0.2}
    hinged = write_config(tmp_path, hinged_doc, "hinged.json")
    gron = tmp_path / "gron.json"
    gron.write_text(json.dumps({"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 1.0}))
    argv = [clamped, hinged, str(tmp_path / "exp_certificate.json"), str(gron), str(tmp_path)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(satstab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * 8
    assert report["stages"] == dict.fromkeys(report["stages"], [])
    assert len(report["stages"]) == 9
    # the CSV writer imports orjson on first use, not `import satstab.cli`
    assert report["orjson"]["import"] is False
    assert report["orjson"]["spectrum"] is True


def test_parser_built_once_and_reused(tmp_path, capsys):
    # main builds its parser on the first call; a rejected argv (simulate
    # without --certificate) leaves it as a fresh parser would be
    path = write_config(tmp_path, base_config(J=8, T=0.5))
    cert = str(tmp_path / "exp_certificate.json")
    calls = [
        ["simulate", "-c", path],
        ["synth", "-c", path, "-o", str(tmp_path)],
        ["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)],
        ["verify", "-c", path, "--certificate", cert],
    ]

    def run_all(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            seen.append((main(argv), capsys.readouterr().err))
        return seen + [(tmp_path / "exp_trajectory.csv").read_bytes()]

    cli._parser.cache_clear()
    shared = run_all(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _ in shared[:4]] == [2, 0, 0, 0]
    assert "the following arguments are required: --certificate" in shared[0][1]
    assert shared == run_all(fresh=True)
    for argv in calls[1:]:
        reused = cli._parser().parse_args(argv)
        assert vars(reused) == vars(cli._parser.__wrapped__().parse_args(argv))


class TestSpectrumCommand:
    def test_hinged_values(self, tmp_path):
        doc = base_config(J=4)
        path = write_config(tmp_path, doc)
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "exp_spectrum.csv").read_text().strip().splitlines()
        assert lines[0].strip() == "index,sigma,bc_residual,norm_error"
        sigma = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(sigma, [1.0, -8.0, -63.0, -224.0], rtol=1e-12)
        summary = json.loads((tmp_path / "exp_spectrum.json").read_text())
        assert summary["n"] == 1
        assert summary["eta"] == pytest.approx(4.0)

    def test_unbracketed_clamped_roots_exit_3(self, tmp_path, monkeypatch, capsys):
        from satstab import spectral

        monkeypatch.setattr(spectral, "_secular", lambda q, lam, half, odd: 1.0)
        doc = base_config(bc="clamped", **{"lambda": 45.0}, length=1.0, J=8)
        path = write_config(tmp_path, doc)
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 3
        assert "bracketed 0 of 8" in capsys.readouterr().err

    def test_clamped_beam_value(self, tmp_path):
        doc = base_config(bc="clamped", **{"lambda": 1e-9}, length=1.0, J=2)
        doc["actuators"] = [{"kind": "indicator", "a": 0.1, "b": 0.9}]
        path = write_config(tmp_path, doc)
        code = main(["spectrum", "-c", path, "-o", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "exp_spectrum.csv").read_text().strip().splitlines()
        sigma_1 = float(lines[1].split(",")[1])
        assert sigma_1 == pytest.approx(-500.5639, rel=1e-4)


class TestModalCommand:
    def test_outputs(self, tmp_path):
        path = write_config(tmp_path, base_config(J=6))
        assert main(["modal", "-c", path, "-o", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "exp_modal.json").read_text())
        assert summary["mode"] == "internal"
        assert summary["n"] == 1
        a_csv = (tmp_path / "exp_A.csv").read_text().strip().splitlines()
        assert float(a_csv[1]) == pytest.approx(1.0)
        b_tail = (tmp_path / "exp_b_tail.csv").read_text().strip().splitlines()
        assert len(b_tail) == 1 + 5


class TestSynthCommand:
    def test_scalar_certificate(self, tmp_path):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "exp_certificate.json").read_text())
        assert doc["alpha"] > 0
        assert doc["constants"]["M"] > 0
        assert (tmp_path / "exp_synth_report.txt").exists()

    @pytest.mark.parametrize(
        "name, rho",
        [
            ("nonlinear_single", 0.998),
            ("trajectory_sweep", 0.998),
            ("clamped_spectral", 0.99892),
            ("fast_poles", 2.85),  # gap-scaled poles at -1946.5 and -3892.9: |p| dt = 1.95
        ],
    )
    def test_report_gives_the_stepped_head_map_radius(self, tmp_path, name, rho):
        if name == "fast_poles":
            doc = base_config(**{"lambda": 45.0}, length=1.0, J=12, dt=5e-4, poles=None)
            doc["actuators"] = [{"kind": "indicator", "a": 0.05, "b": 0.65}]
        else:
            doc = json.loads((ROOT / "bench" / "configs" / f"{name}.json").read_text())
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        report = (tmp_path / f"{doc['output']['prefix']}_synth_report.txt").read_text()
        lines = re.findall(r"^stepped head map: spectral radius (\S+) at dt = (\S+)$", report, re.M)
        assert len(lines) == 1
        assert float(lines[0][0]) == pytest.approx(rho, abs=5e-3 if rho > 1.0 else 5e-6)
        assert (float(lines[0][0]) < 1.0) == (rho < 1.0)
        assert float(lines[0][1]) == doc["dt"]

    def test_uncontrollable_exits_4(self, tmp_path):
        # antisymmetric window kills the second unstable mode at L = 2*pi
        doc = base_config(
            **{"lambda": 2.0},
            length=2 * math.pi,
            actuators=[{"kind": "indicator", "a": math.pi / 2, "b": 3 * math.pi / 2}],
            poles=[-1.0, -2.0],
            J=8,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 4

    def test_already_stable_emits_null_certificate(self, tmp_path):
        doc = base_config(**{"lambda": 0.5}, length=1.0, J=6, poles=None, T=1.0)
        doc["actuators"] = [{"kind": "indicator", "a": 0.0, "b": 0.5}]
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert_doc = json.loads((tmp_path / "exp_certificate.json").read_text())
        assert cert_doc["n"] == 0
        assert cert_doc["alpha"] is None
        cert = str(tmp_path / "exp_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        assert summary["exit_reason"] == "horizon"
        assert summary["rates"]["l2"]["rate"] > 0

    def test_riccati_failure_exits_4(self, tmp_path, capsys):
        # lam = 150: the Hamiltonian's stable subspace is no graph over the
        # state to working precision, so no stabilizing solution is found
        doc = base_config(
            bc="neumann_ch",
            **{"lambda": 150.0},
            length=2.0,
            actuators=[{"kind": "indicator", "a": 1.2, "b": 1.9}],
            poles=None,
            J=12,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "Riccati solve (solve_riccati) failed" in err
        assert "the stable eigenvectors' state block U1 has rank 7 of 8" in err

    # lam = 150: unstable sigma up to about 5e3 for one indicator, and
    # sigma_1 = 5447.7, sigma_2 = 5433.8 barely separated by one input.  On
    # the hinged heads U1 has full rank (cond(U1) about 4e14 and 1e14 with 80
    # digits), but no X the solve reaches meets the residual gate: a
    # numerical failure.  The Neumann head's U1 is rank deficient at working
    # precision (cond(U1) about 3e16 with 80 digits): no stabilizing X.
    @pytest.mark.parametrize(
        "bc, window, code, pattern",
        [
            ("hinged", (0.1, 1.3), 3,
             r"numerical failure: Riccati solve \(solve_riccati\) failed: "
             r"normalized residual (\S+) exceeds 1e-08"),
            ("hinged", (0.3, 0.9), 3,
             r"numerical failure: Riccati solve \(solve_riccati\) failed: "
             r"normalized residual (\S+) exceeds 1e-08"),
            ("neumann_ch", (0.1, 1.3), 4,
             r"infeasible: Riccati solve \(solve_riccati\) failed: the stable eigenvectors' "
             r"state block U1 has rank 7 of 8 \(condition number \S+\); "
             r"normalized residual (\S+)"),
        ],
        ids=["hinged-wide", "hinged-narrow", "neumann"],
    )
    def test_solver_failure_names_margin(self, tmp_path, capsys, bc, window, code, pattern):
        doc = base_config(
            bc=bc,
            **{"lambda": 150.0},
            length=2.0,
            actuators=[{"kind": "indicator", "a": window[0], "b": window[1]}],
            poles=None,
            J=12,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == code
        err = capsys.readouterr().err.strip()
        residual = float(re.fullmatch(pattern, err).group(1))
        assert residual > 1e-8  # the failed inequality asks for at most 1e-8

    @pytest.mark.parametrize("window", [(0.1, 1.3), (0.3, 0.9)], ids=["wide", "narrow"])
    def test_refined_riccati_certifies_ill_conditioned_head(self, tmp_path, window):
        # lam = 110: six unstable modes, sigma up to 2980; the eigenvector
        # start leaves a Riccati residual of 2e-2 / 3e-4 (U1 condition 6e11 /
        # 4e10), and the Newton-Kleinman steps bring it under the gate
        doc = base_config(
            **{"lambda": 110.0},
            length=2.0,
            actuators=[{"kind": "indicator", "a": window[0], "b": window[1]}],
            poles=None,
            J=12,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert_doc = json.loads((tmp_path / "exp_certificate.json").read_text())
        assert cert_doc["n"] == 6
        assert max(cert_doc["closed_loop_spectrum_real"]) < 0.0
        assert cert_doc["alpha"] > 0.0

    @pytest.mark.parametrize("window", [(0.1, 1.3), (1.2, 1.9)], ids=["wide", "right"])
    def test_lyapunov_block_at_rounding_exits_3(self, tmp_path, capsys, window):
        # Neumann lam = 110, L = 2: the scaled P fails the Lyapunov inequality to
        # working precision, so no deadzone weight exists; the message says so
        doc = base_config(
            bc="neumann_ch",
            **{"lambda": 110.0},
            length=2.0,
            actuators=[{"kind": "indicator", "a": window[0], "b": window[1]}],
            poles=None,
            J=12,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip()
        match = re.fullmatch(
            r"numerical failure: the Lyapunov block \(A\+BK\)\^T P \+ P \(A\+BK\) has "
            r"lambda_max = (\S+) \(needs < 0\): no deadzone weight can make M1 negative definite",
            err,
        )
        assert match, err
        assert float(match.group(1)) >= 0.0
        assert not (tmp_path / "exp_certificate.json").exists()

    def test_non_definite_lyapunov_names_margin(self, tmp_path, capsys, monkeypatch):
        # a solve that returns -P0: the message carries lambda_min(-P0) and the residual
        from satstab import synthesis

        solve = synthesis.solve_lyapunov

        def negated(a, q):
            x, residual = solve(a, q)
            return -x, residual

        monkeypatch.setattr(synthesis, "solve_lyapunov", negated)
        path = write_config(tmp_path, base_config(J=8, poles=[-4.0]))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip()
        match = re.fullmatch(
            r"numerical failure: Lyapunov solve \(solve_lyapunov\) returned a non-definite "
            r"matrix: lambda_min\(P0\) = (\S+) \(needs > 0\), normalized residual (\S+)",
            err,
        )
        # the gain places sigma_1 = 1 at -4, so P0 = 1/8 and the solve returned -1/8
        assert float(match.group(1)) == pytest.approx(-0.125, rel=1e-3)
        assert 0.0 <= float(match.group(2)) <= 1e-14

    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
    def test_lyapunov_failure_exits_3(self, tmp_path, capsys, monkeypatch, error):
        from satstab import synthesis

        def failing(a, q):
            raise error("singular matrix")

        monkeypatch.setattr(synthesis, "solve_lyapunov", failing)
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Lyapunov solve (solve_lyapunov) failed: singular matrix" in err
        assert "config error" not in err

    @pytest.mark.parametrize(
        "error, code, message",
        [
            (np.linalg.LinAlgError, 3, "numerical failure: LinAlgError: Eigenvalues did not converge"),
            (ValueError, 2, "config error: Eigenvalues did not converge"),
        ],
    )
    def test_escaped_solver_error_exit_class(self, tmp_path, capsys, monkeypatch, error, code,
                                             message):
        # LinAlgError subclasses ValueError, yet it is a numerical failure, not a config error
        def failing(A, B):
            raise error("Eigenvalues did not converge")

        monkeypatch.setattr(synthesis, "diagnose_pair", failing)
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == code
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize(
        "error", all_subclasses(SatStabError), ids=lambda error: error.__name__
    )
    def test_library_error_exit_class(self, tmp_path, capsys, monkeypatch, error):
        # every library error gets its class's code and label, BlowUp and future types included
        code, label = EXIT_CLASSES.get(error.__name__, (3, "numerical failure"))

        def failing(A, B):
            raise error("the cause, with its margin 1.5e-03")

        monkeypatch.setattr(synthesis, "diagnose_pair", failing)
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"{label}: the cause, with its margin 1.5e-03\n"

    @pytest.mark.parametrize(
        "system",
        [{}, {"lambda": 0.5, "length": 1.0, "poles": None,
              "actuators": [{"kind": "indicator", "a": 0.0, "b": 0.5}]}],
        ids=["unstable", "n0"],
    )
    def test_one_controllability_diagnosis_per_synth(self, tmp_path, monkeypatch, system):
        pairs = []
        original = synthesis.diagnose_pair

        def counting(A, B):
            pairs.append(A)
            return original(A, B)

        # at every module attribute that could bind it, as the benchmark's tracer wraps it
        monkeypatch.setattr(synthesis, "diagnose_pair", counting)
        monkeypatch.setattr(cli, "diagnose_pair", counting, raising=False)
        path = write_config(tmp_path, base_config(J=8, **system))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        assert len(pairs) == 1
        doc = json.loads((tmp_path / "exp_certificate.json").read_text())
        assert doc["diagnostics"]["dim"] == len(pairs[0])  # the report still reaches the file

    @pytest.mark.parametrize("lam", [301.0, 450.0])
    def test_long_head_reports_one_line(self, tmp_path, capsys, lam):
        # 17 and 21 unstable modes: the determinant product overflows (and at
        # lam = 450 turns NaN) and is recorded as null, without a numpy warning
        doc = base_config(
            **{"lambda": lam},
            actuators=[{"kind": "indicator", "a": 0.05, "b": 2.0}],
            poles=None,
            ell="inf",
            J=40,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and err.count("\n") == 1, err

    def test_critical_length_exits_4(self, tmp_path):
        doc = base_config(
            bc="clamped",
            **{"lambda": 10 * math.pi**2},
            length=1.0,
            actuators=[],
            poles=None,
            J=6,
            initial={"preset": "first_mode", "amplitude": 0.01},
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 4

    def test_critical_length_scales_with_length(self, tmp_path, capsys):
        # lam L^2 / pi^2 = 10 = 1 + 9 at L = 2: the double eigenvalue is
        # reported as CriticalLength, not as a pole-count or rank failure
        doc = base_config(
            bc="clamped",
            **{"lambda": 10 * math.pi**2 / 4},
            length=2.0,
            actuators=[],
            poles=[-1.0, -2.0],
            J=8,
            initial={"preset": "first_mode", "amplitude": 0.01},
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 4
        assert "critical set" in capsys.readouterr().err


class TestSimulateCommand:
    def synth_then_simulate(self, tmp_path, doc):
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / f"{doc['output']['prefix']}_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        return path

    def test_baseline_linear(self, tmp_path):
        doc = base_config(J=8, T=3.0)
        doc["initial"] = {"preset": "first_mode", "amplitude": 0.05}
        self.synth_then_simulate(tmp_path, doc)
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        assert summary["exit_reason"] == "horizon"
        assert summary["rates"]["l2"]["rate"] > 0
        csv_lines = (tmp_path / "exp_trajectory.csv").read_text().splitlines()
        header = csv_lines[0].strip()
        assert header.startswith("t,y_1")
        assert header.endswith("l2,h1,h2,v1,v2")

    def test_deterministic_output(self, tmp_path):
        doc = base_config(J=6, T=1.0)
        path = self.synth_then_simulate(tmp_path, doc)
        first = (tmp_path / "exp_trajectory.csv").read_bytes()
        cert = str(tmp_path / "exp_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        second = (tmp_path / "exp_trajectory.csv").read_bytes()
        assert first == second

    def test_nonlinear_run(self, tmp_path):
        doc = base_config(J=12, T=2.0, delta=1.0)
        doc["initial"] = {"preset": "smooth", "amplitude": 0.01}
        self.synth_then_simulate(tmp_path, doc)
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        assert summary["exit_reason"] == "horizon"
        assert summary["rates"]["h2"]["rate"] > 0
        assert summary["nl_ratio_max"] is not None

    def test_basin_flag(self, tmp_path):
        doc = base_config(J=8, T=3.0, ell=1.0, poles=[-2.0])
        doc["actuators"] = [{"kind": "modes", "coefficients": [1.0]}]
        doc["initial"] = {"preset": "first_mode", "amplitude": 0.2}
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        code = main(
            ["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path), "--basin"]
        )
        assert code == 0
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        # ell = 1, K = -3: the saturated scalar loop loses its basin at z = 1
        assert summary["basin_estimate"] == pytest.approx(1.0, abs=0.1)

    def basin_summary(self, tmp_path, amplitude):
        doc = base_config(J=8, T=3.0, ell=1.0, poles=[-2.0])
        doc["actuators"] = [{"kind": "modes", "coefficients": [1.0]}]
        doc["initial"] = {"preset": "first_mode", "amplitude": amplitude}
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        code = main(
            ["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path), "--basin"]
        )
        if code != 0:
            return code
        return json.loads((tmp_path / "exp_summary.json").read_text())

    def test_basin_zero_amplitude_rejected(self, tmp_path, capsys):
        assert self.basin_summary(tmp_path, 0.0) == 2
        assert "initial.amplitude" in capsys.readouterr().err

    def test_basin_negative_amplitude_mirrored(self, tmp_path):
        # sat is odd, so the search from -a mirrors the one from a bit for bit
        up = self.basin_summary(tmp_path, 0.2)
        down = self.basin_summary(tmp_path, -0.2)
        assert down["basin_bracketed"] and up["basin_bracketed"]
        assert down["basin_estimate"] == -up["basin_estimate"]

    def sweep_basin(self, tmp_path, horizon):
        # the trajectory_sweep benchmark system at J = 8 and dt = 1e-3
        doc = base_config(J=8, dt=0.001, T=horizon)
        doc["actuators"] = [{"kind": "indicator", "a": 0.3, "b": 2.8}]
        doc["initial"] = {"preset": "first_mode", "amplitude": 0.01}
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        return main(
            ["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path), "--basin"]
        )

    def test_basin_fit_window_of_one_sample_exits_2(self, tmp_path, capsys):
        # T = dt: the window t >= T/4 holds one sample, so no run can be judged
        assert self.sweep_basin(tmp_path, 0.001) == 2
        err = capsys.readouterr().err
        assert "T = 0.001 and dt = 0.001" in err
        assert "t = 0.00025" in err
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    @pytest.mark.parametrize(
        "horizon, dt, samples", [(1e300, 1e-300, "inf"), (1e9, 1e-6, "1e+15")], ids=["inf", "1e15"]
    )
    @pytest.mark.parametrize("basin", [False, True], ids=["run", "basin"])
    def test_oversized_horizon_exits_2(self, tmp_path, capsys, horizon, dt, samples, basin):
        # the trajectory_sweep benchmark config; T / dt overflows to inf, or its
        # sample times alone would take 8e15 bytes, which fails to allocate at once
        bench = os.path.join(os.path.dirname(__file__), "..", "bench", "configs")
        with open(os.path.join(bench, "trajectory_sweep.json")) as f:
            doc = json.load(f)
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "trajectory_sweep_certificate.json")
        path = write_config(tmp_path, dict(doc, T=horizon, dt=dt))
        argv = ["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]
        capsys.readouterr()
        assert main(argv + (["--basin"] if basin else [])) == 2
        err = capsys.readouterr().err
        head = f"config error: T = {horizon:g} and dt = {dt:g} take {samples} samples"
        assert err.startswith(head)
        assert "bytes" in err and "Traceback" not in err
        assert not (tmp_path / "trajectory_sweep_trajectory.csv").exists()

    @pytest.mark.parametrize("basin", [False, True], ids=["run", "basin"])
    def test_unallocatable_stored_states_exit_2(self, tmp_path, basin):
        # the sample times take 16 MB, the stored states 16 GB: a process
        # whose address space is capped at 2 GiB cannot allocate them,
        # whatever the overcommit policy, and never touches their pages
        doc = base_config(J=1000, dt=5e-7, T=1.0)
        doc["actuators"] = [{"kind": "indicator", "a": 0.3, "b": 2.8}]
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        argv = ["simulate", "-c", path, "--certificate", str(tmp_path / "exp_certificate.json"),
                "-o", str(tmp_path)] + (["--basin"] if basin else [])
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from satstab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(satstab.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", probe, *argv],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("config error: T = 1 and dt = 5e-07 take 2e+06 samples")
        # a basin pass also holds the H2 norms of its 17 rows on the fit window
        norms, per_sample, total = (17, 8144, "1.63e+10") if basin else (0, 8008, "1.6e+10")
        assert f"1 stored row(s) 1000 values wide and {norms} fit norm(s)" in out.stderr
        assert f"{per_sample} bytes a sample and {total} bytes in all" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    def test_basin_fit_window_of_two_samples_brackets(self, tmp_path):
        assert self.sweep_basin(tmp_path, 0.0015) == 0
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        assert summary["samples"] == 3
        assert summary["basin_bracketed"] is True
        assert summary["basin_estimate"] == 1.5069421386718749

    @pytest.mark.parametrize("kind", ["internal", "boundary"])
    def test_basin_writes_the_plain_run(self, tmp_path, kind):
        # the search's first pass steps the configured run and keeps it
        if kind == "internal":
            doc = base_config(J=8, T=2.0, delta=1.0, nu=0.5)
            doc["initial"] = {"preset": "smooth", "amplitude": 0.05}
        else:
            doc = base_config(
                bc="clamped", **{"lambda": 45.0}, length=1.0, actuators=[],
                poles=[-2.0, -4.0], ell=20.0, J=8, T=2.0, dt=0.0005,
            )
            doc["initial"] = {"preset": "smooth", "amplitude": 0.02}
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        outputs = {}
        for name, extra in (("plain", []), ("basin", ["--basin"])):
            out = tmp_path / name
            argv = ["simulate", "-c", path, "--certificate", cert, "-o", str(out)]
            assert main(argv + extra) == 0
            summary = json.loads((out / "exp_summary.json").read_text())
            outputs[name] = (out / "exp_trajectory.csv").read_bytes(), summary
        (plain_csv, plain), (basin_csv, basin) = outputs["plain"], outputs["basin"]
        assert basin_csv == plain_csv
        assert basin.pop("basin_bracketed") in (True, False)
        assert basin.pop("basin_estimate") >= doc["initial"]["amplitude"]
        assert basin == plain

    def test_rejected_basin_search_writes_nothing(self, tmp_path, capsys):
        # amplitude 1.5 lies past the scalar loop's edge at 1: the low end fails
        assert self.basin_summary(tmp_path, 1.5) == 2
        assert "lower amplitude already fails" in capsys.readouterr().err
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    def test_mismatched_certificate_rejected(self, tmp_path):
        doc = base_config(J=8)
        path = self.synth_then_simulate(tmp_path, doc)
        other = base_config(J=6, output={"directory": ".", "prefix": "other"})
        other_path = write_config(tmp_path, other, name="other.json")
        assert main(["synth", "-c", other_path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "other_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 2

    def test_missing_certificate_block_exits_2(self, tmp_path, capsys):
        # the trajectory_sweep system at J = 8, its file stripped of the certificate block
        path = write_config(tmp_path, base_config(J=8, actuators=ONE_INPUT))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = tmp_path / "exp_certificate.json"
        doc = json.loads(cert.read_text())
        for key in ("P", "D", "C", "alpha", "beta_min", "beta_max", "constants"):
            doc[key] = None
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["simulate", "-c", path, "--certificate", str(cert), "-o", str(tmp_path)])
        assert code == 2
        assert "P = null" in capsys.readouterr().err
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()
        assert main(["verify", "-c", path, "--certificate", str(cert)]) == 2
        out, err = capsys.readouterr()
        assert "has P = null, but 1 mode(s) are unstable" in err
        assert out == ""  # no suite ran


TWO_INPUTS = [{"kind": "indicator", "a": 0.3, "b": 1.4}, {"kind": "indicator", "a": 1.6, "b": 2.9}]
ONE_INPUT = [{"kind": "indicator", "a": 0.3, "b": 2.8}]


class TestMismatchedCertificate:
    """A certificate synthesized for another system exits 2 before any run or suite."""

    @pytest.mark.parametrize(
        "command, synth, config, message",
        [
            ("verify", {"lambda": 6.0, "poles": None, "actuators": ONE_INPUT},
             {"actuators": ONE_INPUT}, "n: file 2, config 1"),
            ("simulate", {}, {"actuators": TWO_INPUTS, "poles": None}, "m: file 1, config 2"),
            ("verify", {}, {"actuators": TWO_INPUTS, "poles": None}, "m: file 1, config 2"),
            ("simulate", {"ell": 1.0}, {"ell": 0.01}, "ell: file 1.0, config 0.01"),
            ("verify", {"ell": 1.0}, {"ell": 0.01}, "ell: file 1.0, config 0.01"),
        ],
        ids=["n-verify", "m-simulate", "m-verify", "ell-simulate", "ell-verify"],
    )
    def test_field_named(self, tmp_path, capsys, command, synth, config, message):
        other = base_config(output={"directory": ".", "prefix": "other"}, **synth)
        other_path = write_config(tmp_path, other, name="other.json")
        assert main(["synth", "-c", other_path, "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        path = write_config(tmp_path, base_config(**config))
        cert = str(tmp_path / "other_certificate.json")
        assert main([command, "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "matmul" not in err
        assert out == ""  # no suite ran
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    def test_every_field_named(self, tmp_path, capsys):
        other = base_config(J=6, ell="inf", output={"directory": ".", "prefix": "other"})
        other_path = write_config(tmp_path, other, name="other.json")
        assert main(["synth", "-c", other_path, "-o", str(tmp_path)]) == 0
        path = write_config(tmp_path, base_config(J=8, ell=0.5))
        cert = str(tmp_path / "other_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "J: file 6, config 8; ell: file 'inf', config 0.5" in err


class TestCertificateShapes:
    """A certificate array of the wrong shape, or a malformed P or D, exits 2 up front."""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("K", [[1.0, 2.0]], "K has shape (1, 2), the head asks for (1, 1)"),
            ("P", [[1.0, 0.0], [0.0, 1.0]], "P has shape (2, 2), the head asks for (1, 1)"),
            ("P", [[-1.0]], "P must be symmetric positive definite: lambda_min = -1.000e+00"),
            ("D", [[-2.0]], "D must be diagonal positive definite: smallest diagonal -2.000e+00"),
        ],
        ids=["K", "P", "P-indefinite", "D-negative"],
    )
    def test_edited_array_rejected(self, tmp_path, capsys, command, field, value, message):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        cert = tmp_path / "exp_certificate.json"
        doc = json.loads(cert.read_text())
        doc[field] = value
        cert.write_text(json.dumps(doc))
        assert main([command, "-c", path, "--certificate", str(cert), "-o", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: certificate {cert} is malformed: ")
        assert message in err
        assert "matmul" not in err
        assert out == ""  # no suite ran
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    def test_boundary_head_counts_the_integrator(self, tmp_path):
        doc = base_config(
            bc="clamped", **{"lambda": 45.0}, length=1.0, actuators=[], poles=None, J=8,
            initial={"preset": "first_mode", "amplitude": 0.01},
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        _, gain, cert, _ = cli.load_certificate(str(tmp_path / "exp_certificate.json"))
        h = json.loads((tmp_path / "exp_certificate.json").read_text())["n"] + 1
        assert (gain.K.shape, cert.P.shape, cert.C.shape, cert.D.shape) == (
            (1, h), (h, h), (1, h), (1, 1)
        )


class TestBoundarySimulate:
    def test_boundary_round_trip(self, tmp_path):
        doc = base_config(
            bc="clamped",
            **{"lambda": 45.0},
            length=1.0,
            actuators=[],
            poles=[-2.0, -4.0],
            ell=20.0,
            J=8,
            T=2.0,
            dt=0.0005,
        )
        doc["initial"] = {"preset": "smooth", "amplitude": 0.02}
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        assert summary["exit_reason"] == "horizon"
        assert summary["rates"]["u_plus_w"]["rate"] > 0
        header = (tmp_path / "exp_trajectory.csv").read_text().splitlines()[0].strip()
        assert header.count("y_") == 8


def oracle_csv(J, ms, traj):
    """The trajectory CSV formatted one cell at a time with repr(float(x))."""
    fields = traj.states
    if ms.mode == "boundary":
        d_coeffs = -np.concatenate([ms.B[1:, 0], ms.b_tail[:, 0]])
        fields = fields[:, 1:] + fields[:, :1] * d_coeffs
    m = traj.control.shape[1]
    header = (
        ["t"] + [f"y_{j+1}" for j in range(J)] + [f"u_{k+1}" for k in range(m)]
        + [f"sat_active_{k+1}" for k in range(m)] + ["l2", "h1", "h2", "v1", "v2"]
    )
    lines = [",".join(header)]
    for k in range(traj.times.size):
        cells = [repr(float(traj.times[k]))]
        cells += [repr(float(v)) for v in fields[k, :J]]
        cells += [repr(float(v)) for v in traj.control[k]]
        cells += ["1" if flag else "0" for flag in traj.sat_active[k]]
        cells += [repr(float(getattr(traj, name)[k])) for name in ("l2", "h1", "h2", "v1", "v2")]
        lines.append(",".join(cells))
    return "".join(line + "\r\n" for line in lines).encode()


class TestTrajectoryCsv:
    """The chunked writer gives the same bytes as formatting each cell."""

    def written(self, tmp_path, cfg, ms, traj):
        path = tmp_path / "written.csv"
        cli._write_csv(str(path), *cli._trajectory_rows(cfg, ms, traj))
        return path.read_bytes()

    def rerun(self, path, tmp_path, prefix):
        cfg = load_config(path)
        es = cfgmod.build_eigen(cfg)
        ms, _ = cfgmod.build_modal(cfg, es)
        _, gain, cert, consts = cli.load_certificate(str(tmp_path / f"{prefix}_certificate.json"))
        return cfg, ms, run(cfg.sim_config(), ms, gain, cert, consts, level=cfg.level())

    # ids False and True are the internal and the boundary-actuated linear runs;
    # "nonlinear" is the nonlinear_single benchmark config: 71% of its cells have an exponent
    @pytest.mark.parametrize(
        "kind", ["internal", "boundary", "nonlinear"], ids=["False", "True", "nonlinear"]
    )
    def test_cli_output_matches_per_cell_oracle(self, tmp_path, kind):
        doc = base_config(J=6, T=2.4, dt=0.002)  # 1201 rows: a full chunk and a partial one
        if kind == "boundary":
            doc.update(bc="clamped", length=1.0, actuators=[], poles=[-2.0, -4.0], ell=20.0)
            doc["lambda"] = 45.0
            doc["initial"] = {"preset": "smooth", "amplitude": 0.02}
        if kind == "nonlinear":
            doc = json.loads((ROOT / "bench" / "configs" / "nonlinear_single.json").read_text())
            doc.update(T=0.6, output={"directory": ".", "prefix": "exp"})  # 1201 rows
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        cfg, ms, traj = self.rerun(path, tmp_path, "exp")
        assert traj.times.size == 1201
        expected = oracle_csv(cfg.J, ms, traj)
        assert (tmp_path / "exp_trajectory.csv").read_bytes() == expected

    # row counts: literals, and "block" plus an offset for the writer's block
    # size; the RNG is seeded from the name, so neither names nor data move
    # with the block size
    @pytest.mark.parametrize(
        "size", ["1", "63", "64", "65", "511", "512", "513", "block-1", "block", "block+1"]
    )
    @pytest.mark.parametrize("boundary", [False, True])
    def test_special_values_match_per_cell_oracle(self, tmp_path, size, boundary):
        specials = np.array([
            np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22,
            1.0, 2.0, -3.0, 1e15, 123456789012345678.0, 0.1, 1.0 / 3.0, 1e-7, 2.5e-300,
        ])
        block = size.startswith("block")
        rows = cli._CSV_CHUNK + int(size[5:] or 0) if block else int(size)
        rng = np.random.default_rng(int.from_bytes(size.encode(), "big"))
        J, m = 3, 2

        def column(*shape, values=specials):
            picked = rng.choice(values, size=shape)
            noise = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
            return np.where(rng.random(shape) < 0.5, picked, noise)

        if boundary:  # the field reconstruction mixes columns: keep it finite
            states = column(rows, J + 1, values=specials[np.isfinite(specials)])
        else:
            states = column(rows, J)
        traj = Trajectory(
            times=column(rows), states=states, control=column(rows, m),
            sat_active=rng.random((rows, m)) < 0.5, l2=column(rows), h1=column(rows),
            h2=column(rows), v1=np.full(rows, np.nan), v2=column(rows),
            exit_reason="horizon", left_region=False,
        )
        if rows > 2:
            traj.v2[1] = np.nan
        # a system with no eigen system behind it: the writer reads only the lift
        ms = ModalSystem(
            es=None, n=0, A=np.zeros((0, 0)), B=np.zeros((0, m)), b_tail=np.zeros((J, m)),
            mode="internal", shape_norms_sq=np.zeros(m),
        )
        if boundary:
            ms = ModalSystem(
                es=None, n=1, A=np.zeros((2, 2)), B=np.array([[0.0], [0.5]]),
                b_tail=np.array([[-0.25], [1e-3]]), mode="boundary", shape_norms_sq=np.zeros(1),
            )
        cfg = SimpleNamespace(J=J)
        assert self.written(tmp_path, cfg, ms, traj) == oracle_csv(J, ms, traj)


def oracle_lines(rows):
    """CRLF lines of cells formatted one at a time: repr(float(x)), or str for ints."""
    return "".join(
        ",".join(cell if isinstance(cell, str) else repr(float(cell)) for cell in row) + "\r\n"
        for row in rows
    ).encode()


def table_oracle(table, int_columns=()):
    return oracle_lines(
        [[str(int(x)) if k in int_columns else x for k, x in enumerate(row)] for row in table]
    )


@st.composite
def csv_tables(draw):
    """Float64 rows of widths 1-40 with some integer (flag or index) columns."""
    width = draw(st.integers(1, 40))
    cells = st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        min_size=width, max_size=width,
    )
    table = np.array(draw(st.lists(cells, min_size=1, max_size=6)), dtype=np.float64)
    int_columns = sorted(draw(st.sets(st.integers(0, width - 1), max_size=3)))
    for k in int_columns:
        high = draw(st.sampled_from([1, 10**6]))  # sat flags, or indices
        table[:, k] = draw(st.lists(st.integers(0, high), min_size=len(table), max_size=len(table)))
    return table, int_columns


EDGE_ROW = [
    1e-5, np.nextafter(1e-4, 0.0), 1e-4, 10.00001, 1234567890123456.0, 1e16, 1e22,
    5e-324, -0.0, np.nan, -np.inf,
]
# fl(10^k) and both its neighbours at each decade where a spelling changes
# (orjson's or repr's notation, the exponent's digit count), then 1e23, whose
# double lies below 10^23, and the two smallest subnormals
DECADE_ROW = [
    np.nextafter(float(f"1e{k}"), to)
    for k in (-10, -9, -6, -5, -4, 15, 16, 22, 99, 100, 308)
    for to in (0.0, float(f"1e{k}"), np.inf)
] + [1e23, 5e-324, 1e-323]
CSV_EDGES = EDGE_ROW + DECADE_ROW


class TestCsvBlock:
    """The block formatter writes each cell as repr(float(x)) (ints as ints)."""

    @settings(max_examples=250, deadline=None, database=None, print_blob=True)
    @given(csv_tables())
    def test_matches_repr(self, drawn):
        table, int_columns = drawn
        assert cli._csv_block(table, int_columns) == table_oracle(table, int_columns)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edges(self, sign):
        row = sign * np.array(CSV_EDGES)
        # one row, one column, the row and its reverse, and every rotation of
        # the row, in which each edge value is the first cell of one row and
        # the last of another
        rotations = np.array([np.roll(row, k) for k in range(len(row))])
        for table in (row[None, :], row[:, None], np.array([row, row[::-1]]), rotations):
            assert cli._csv_block(table) == table_oracle(table)

    def test_edge_bytes(self):
        assert cli._csv_block(np.array([EDGE_ROW + [np.inf]])) == (
            b"1e-05,9.999999999999999e-05,0.0001,10.00001,1234567890123456.0,1e+16,1e+22,"
            b"5e-324,-0.0,nan,-inf,inf\r\n"
        )

    def test_decade_bytes(self):
        assert cli._csv_block(np.array([DECADE_ROW])) == (
            b"9.999999999999999e-11,1e-10,1.0000000000000002e-10,"
            b"9.999999999999999e-10,1e-09,1.0000000000000003e-09,"
            b"9.999999999999997e-07,1e-06,1.0000000000000002e-06,"
            b"9.999999999999999e-06,1e-05,1.0000000000000003e-05,"
            b"9.999999999999999e-05,0.0001,0.00010000000000000002,"
            b"999999999999999.9,1000000000000000.0,1000000000000000.1,"
            b"9999999999999998.0,1e+16,1.0000000000000002e+16,"
            b"9.999999999999998e+21,1e+22,1.0000000000000002e+22,"
            b"9.999999999999998e+98,1e+99,1.0000000000000001e+99,"
            b"9.999999999999998e+99,1e+100,1.0000000000000002e+100,"
            b"9.999999999999998e+307,1e+308,1.0000000000000002e+308,"
            b"1e+23,5e-324,1e-323\r\n"
        )

    def test_orjson_spelling(self):
        # the spelling `_csv_block` rewrites: a change in orjson's float format
        # fails here first, with its cause in view
        import orjson

        values = np.array([1e-5, 1.5e-5, 9.99e-6, 1e-9, 1e-10, 1e15, 1e16, 1e100, -0.0, np.nan])
        text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
        assert text == (
            b"[0.00001,0.000015,9.99e-6,1e-9,1e-10,1000000000000000.0,1e16,1e100,-0.0,null]"
        )
        # the writer dumps its table flat: a bracket, then cells and commas
        table = np.array([CSV_EDGES, np.negative(CSV_EDGES)])
        flat = orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        assert flat.startswith(b"[") and flat.endswith(b"]")
        assert flat.count(b",") == table.size - 1 and b"[" not in flat[1:] and b"]" not in flat[:-1]
        assert flat[1:-1].split(b",") == [orjson.dumps(float(x)) for x in table.ravel()]
        # the writer's drop byte and markers lie below 0x20
        for text in (text, orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY), flat):
            assert min(text) >= 0x20


class TestCsvOracles:
    """The spectrum, modal and gronwall CSVs against per-cell formatting."""

    CLAMPED = {"bc": "clamped", "lambda": 45.0, "length": 1.0, "actuators": [], "poles": None}

    @pytest.mark.parametrize("doc", [{}, CLAMPED], ids=["hinged", "clamped"])
    def test_spectrum(self, tmp_path, doc):
        path = write_config(tmp_path, base_config(J=10, **doc))
        assert main(["spectrum", "-c", path, "-o", str(tmp_path)]) == 0
        es = cfgmod.build_eigen(load_config(path))
        bc_residual, norm_error = es.bc_residual(), es.norm_error()
        rows = [["index", "sigma", "bc_residual", "norm_error"]] + [
            [str(j + 1), es.values[j], bc_residual[j], norm_error[j]]
            for j in range(es.count)
        ]
        assert (tmp_path / "exp_spectrum.csv").read_bytes() == oracle_lines(rows)

    STABLE = {"lambda": 0.5, "length": 1.0, "poles": None,
              "actuators": [{"kind": "indicator", "a": 0.0, "b": 0.5}]}

    @pytest.mark.parametrize("doc", [{}, CLAMPED, STABLE], ids=["internal", "boundary", "n0"])
    def test_modal(self, tmp_path, doc):
        path = write_config(tmp_path, base_config(J=10, **doc))
        assert main(["modal", "-c", path, "-o", str(tmp_path)]) == 0
        cfg = load_config(path)
        ms, _ = cfgmod.build_modal(cfg, cfgmod.build_eigen(cfg))
        for name, mat in (("A", ms.A), ("B", ms.B), ("b_tail", ms.b_tail)):
            mat = np.atleast_2d(mat)
            header = [f"c{k+1}" for k in range(mat.shape[1] if len(mat) else 0)]
            expected = oracle_lines([header] + mat.tolist())
            assert (tmp_path / f"exp_{name}.csv").read_bytes() == expected, name

    def test_gronwall(self, tmp_path):
        # 2001 rows: 31 full blocks and a partial one; the bound falls to 4e-18
        doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 40.0, "samples": 2001}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 0
        out = gronwall_bound(0.5, -1.0, 1.0, 2.0, np.linspace(0.0, 40.0, 2001))
        rows = [["t", "bound", "w"]] + list(zip(out.times, out.values, out.w))
        assert (tmp_path / "gronwall.csv").read_bytes() == oracle_lines(rows)


BOUNDARY = {"bc": "clamped", "lambda": 45.0, "length": 1.0, "actuators": [], "poles": None}
CLAMPED_WINDOW = {
    "bc": "clamped", "lambda": 45.0, "length": 1.0, "ell": 20.0, "poles": None, "J": 10,
    "dt": 5e-4, "T": 1.0, "actuators": [{"kind": "indicator", "a": 0.1, "b": 0.6}],
}


def spy(monkeypatch, module, name):
    """The list of argument tuples `module.name` is called with while the test runs."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestPresets:
    def test_unknown_preset_rejected_by_every_command(self, tmp_path, capsys):
        doc = base_config(**CLAMPED_WINDOW, initial={"preset": "wavelet", "amplitude": 0.05})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        cert = str(tmp_path / "certificate.json")
        for argv in (
            ["synth", "-c", path, "-o", str(out)],
            ["simulate", "-c", path, "--certificate", cert, "-o", str(out)],
            ["verify", "-c", path, "-o", str(out)],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "config error: unknown preset 'wavelet'; "
                "use one of ('first_mode', 'smooth', 'bump')\n"
            )
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    @pytest.mark.parametrize("preset", ["smooth", "bump"])
    def test_clamped_window_pipeline(self, tmp_path, capsys, monkeypatch, preset):
        # a clamped window takes the clamped family's integral; the bump its own projection
        integral = spy(monkeypatch, ClampedFamily, "integral")
        bump = spy(monkeypatch, simulate, "_bump_coefficients")
        doc = base_config(**CLAMPED_WINDOW, initial={"preset": preset, "amplitude": 0.02})
        path = write_config(tmp_path, doc)
        cert = str(tmp_path / "exp_certificate.json")
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "-c", path, "--certificate", cert]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert integral and bool(bump) == (preset == "bump")
        summary = json.loads((tmp_path / "exp_summary.json").read_text())
        assert summary["exit_reason"] == "horizon"

    def test_bump_on_odd_modes_stops_at_the_mode_count(self, tmp_path, capsys):
        # lam = 100, L = 1: the first clamped mode is odd about L/2, and at J = 1 it is
        # the only one.  A mode outranks a lower frequency only while its sigma is
        # positive, so that mode is unstable and no tail is retained: each command
        # exits 3 on the mode count before the bump is projected.
        doc = base_config(**dict(CLAMPED_WINDOW, J=1, **{"lambda": 100.0}),
                          initial={"preset": "bump", "amplitude": 0.1})
        path = write_config(tmp_path, doc)
        cert = str(tmp_path / "exp_certificate.json")
        for argv in (
            ["synth", "-c", path, "-o", str(tmp_path)],
            ["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)],
        ):
            assert main(argv) == 3
            assert "all 1 computed eigenvalues are non-negative" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json"]


class TestVerifyCommand:
    def test_default_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["verify", "-c", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all invariants passed" in out

    def test_boolean_checks_print_margins(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["verify", "-c", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        sci = r"(-?\d\.\d\de[+-]\d\d)"
        formats = {
            "spectral.values_sorted": (rf"largest increase {sci}", lambda v: v < 0.0),
            "modal.bessel_inequality": (rf"smallest slack {sci}", lambda v: v >= -1e-10),
            "synthesis.sector_inclusion": (
                r"largest \|\(K - C\)z\|/ell (\d\.\d+)", lambda v: 0.0 < v <= 1.0 + 1e-9
            ),
            "simulate.region_invariance": (r"largest v1 (\d\.\d+)", lambda v: 0.0 < v <= 1.0),
            # relative to |z|^2, so late samples of a decayed run do not pin it to ~0
            # the allowance is small against alpha here, so the check has teeth
            "simulate.v1_dissipation": (
                rf"smallest slack/\|z\|\^2 {sci}, allowance/alpha {sci}",
                lambda v, allowance: v > 1.0 and 0.0 < allowance < 0.05,
            ),
            "simulate.unsaturated_equivalence": (
                rf"max difference {sci}", lambda v: 0.0 <= v <= 1e-14
            ),
            "simulate.parseval": (rf"worst relative error {sci}", lambda v: 0.0 <= v <= 1e-12),
        }
        for name, (pattern, holds) in formats.items():
            [line] = [line for line in lines if line.split()[1] == name]
            match = re.fullmatch(rf"PASS {re.escape(name)} \({pattern}\)", line)
            assert match, line
            assert holds(*map(float, match.groups())), line

    def test_infeasible_design_exits_4(self, tmp_path, capsys):
        # the window (0.3, 2.8) is nearly symmetric on (0, pi): both unstable
        # modes fail the rank test, so no design exists and synth exits 4 too
        doc = base_config(
            **{"lambda": 5.0},
            actuators=[{"kind": "indicator", "a": 0.3, "b": 2.8}],
            poles=None,
            J=12,
        )
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 4
        capsys.readouterr()
        assert main(["verify", "-c", path]) == 4
        out = capsys.readouterr().out
        assert "FAIL synthesis.certificate (unstable eigenvalues fail the rank test" in out
        assert "1 invariant(s) failed" in out

    def test_seed_change_still_passes(self, tmp_path):
        path = write_config(tmp_path, base_config(J=8, seed=999))
        assert main(["verify", "-c", path]) == 0

    def test_corrupted_certificate_fails_named(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert_path = tmp_path / "exp_certificate.json"
        doc = json.loads(cert_path.read_text())
        doc["P"] = [[-1.0]]
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-c", path, "--certificate", str(cert_path)]) == 2
        out, err = capsys.readouterr()
        assert f"certificate {cert_path} is malformed" in err
        assert "P must be symmetric positive definite: lambda_min = -1.000e+00" in err
        assert out == ""  # no suite ran

    @pytest.mark.parametrize(
        "system, names",
        [
            ({}, [
                "spectral.orthonormality", "spectral.eigen_residual", "spectral.values_sorted",
                "modal.bessel_inequality", "synthesis.certificate",
                "synthesis.sector_inclusion", "synthesis.sector_condition",
                "simulate.region_invariance", "simulate.v1_dissipation",
                "simulate.unsaturated_equivalence", "simulate.parseval",
            ]),
            (BOUNDARY, [
                "spectral.orthonormality", "spectral.eigen_residual", "spectral.values_sorted",
                "modal.lifting_identities", "synthesis.certificate",
                "synthesis.sector_inclusion", "synthesis.sector_condition",
            ]),
        ],
        ids=["internal", "boundary"],
    )
    def test_check_names(self, tmp_path, capsys, system, names):
        path = write_config(tmp_path, base_config(J=8, **system))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        cert_path = str(tmp_path / "exp_certificate.json")
        assert main(["verify", "-c", path, "--certificate", cert_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == names
        # C = 0, and the ellipsoid is clamp-free: the deadzone is zero on its surface
        assert "PASS synthesis.sector_condition (worst 0.00e+00)" in lines
        # the block matrices are the file's, under the file's gain
        cfg = load_config(path)
        ms, _ = cfgmod.build_modal(cfg, cfgmod.build_eigen(cfg))
        _, gain, cert, _ = cli.load_certificate(cert_path)
        check = synthesis.check_certificate(cert, ms, gain)
        assert (
            f"PASS synthesis.certificate (M1 {check.lambda_max_m1:.2e}, "
            f"M2 {check.lambda_min_m2:.2e})"
        ) in lines
        if system:
            (line,) = [line for line in lines if "modal.lifting_identities" in line]
            match = re.fullmatch(r"PASS modal\.lifting_identities \(largest residual (\S+)\)", line)
            assert match, line
            assert 0.0 <= float(match.group(1)) < 1e-12

    def test_off_diagonal_deadzone_weight_fails_with_its_size(self, tmp_path, capsys):
        doc = base_config(J=8)
        doc["actuators"] = [
            {"kind": "indicator", "a": 0.0, "b": 1.0}, {"kind": "indicator", "a": 1.5, "b": 3.0}
        ]
        doc["poles"] = None
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert_path = tmp_path / "exp_certificate.json"
        cert_doc = json.loads(cert_path.read_text())
        cert_doc["D"][0][1] = cert_doc["D"][1][0] = 0.25
        cert_path.write_text(json.dumps(cert_doc))
        capsys.readouterr()
        smallest = min(cert_doc["D"][0][0], cert_doc["D"][1][1])
        for command in ("simulate", "verify"):
            argv = [command, "-c", path, "--certificate", str(cert_path), "-o", str(tmp_path)]
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert (
                f"D must be diagonal positive definite: smallest diagonal {smallest:.3e}, "
                "largest off-diagonal 2.50e-01"
            ) in err
            assert out == ""
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    def test_file_triple_is_checked_without_a_design(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        capsys.readouterr()

        def failing(*args):
            raise AssertionError("verify --certificate designed a gain")

        monkeypatch.setattr(cli, "_design", failing)
        cert_path = str(tmp_path / "exp_certificate.json")
        assert main(["verify", "-c", path, "--certificate", cert_path]) == 0
        assert capsys.readouterr().out.endswith("all invariants passed\n")

    def inclusion(self, lines):
        (line,) = [line for line in lines if " synthesis.sector_inclusion " in line]
        match = re.fullmatch(
            r"(PASS|FAIL) synthesis\.sector_inclusion \(largest \|\(K - C\)z\|/ell (\S+)\)", line
        )
        assert match, line
        return match.group(1), float(match.group(2))

    def test_shrunk_p_fails_on_the_files_ellipsoid(self, tmp_path, capsys):
        # P/4 doubles every semi-axis, so |(K - C)z| doubles on the same surface draws
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert_path = tmp_path / "exp_certificate.json"
        capsys.readouterr()
        assert main(["verify", "-c", path, "--certificate", str(cert_path)]) == 0
        status, valid = self.inclusion(capsys.readouterr().out.splitlines())
        assert status == "PASS" and 0.0 < valid <= 1.0
        doc = json.loads(cert_path.read_text())
        doc["P"] = (np.array(doc["P"]) / 4.0).tolist()
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", "-c", path, "--certificate", str(cert_path)]) == 3
        lines = capsys.readouterr().out.splitlines()
        status, shrunk = self.inclusion(lines)
        assert status == "FAIL"
        assert shrunk == pytest.approx(2.0 * valid, rel=1e-3)
        assert any(line.startswith("FAIL synthesis.certificate (") for line in lines)

    def test_shrunk_p_is_refused_by_simulate(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert_path = tmp_path / "exp_certificate.json"
        doc = json.loads(cert_path.read_text())
        doc["P"] = (np.array(doc["P"]) / 4.0).tolist()
        cert_path.write_text(json.dumps(doc))
        cfg = load_config(path)
        ms, _ = cfgmod.build_modal(cfg, cfgmod.build_eigen(cfg))
        _, gain, cert, _ = cli.load_certificate(str(cert_path))
        check = synthesis.check_certificate(cert, ms, gain)
        assert not check.ok
        capsys.readouterr()
        argv = ["simulate", "-c", path, "--certificate", str(cert_path), "-o", str(tmp_path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == (
            f"config error: certificate {cert_path} does not certify this system: "
            f"lambda_max(M1) = {check.lambda_max_m1:.3e}, "
            f"lambda_min(M2) = {check.lambda_min_m2:.3e}\n"
        )
        assert out == ""
        assert not (tmp_path / "exp_trajectory.csv").exists()
        assert not (tmp_path / "exp_summary.json").exists()

    def test_one_certificate_check_per_verify(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        calls = []
        original = cli.check_certificate

        def counting(cert, ms, gain):
            calls.append(cert)
            return original(cert, ms, gain)

        monkeypatch.setattr(cli, "check_certificate", counting)
        cert_path = str(tmp_path / "exp_certificate.json")
        assert main(["verify", "-c", path, "--certificate", cert_path]) == 0
        assert len(calls) == 1

    def test_one_certificate_check_per_designed_verify(self, tmp_path, capsys, monkeypatch):
        # without a file, verify reports the check that gated build_certificate
        path = write_config(tmp_path, base_config(J=8))
        checks = []
        original = synthesis.check_certificate

        def counting(cert, ms, gain):
            checks.append(original(cert, ms, gain))
            return checks[-1]

        for module in (synthesis, cli):  # every module attribute bound to it
            monkeypatch.setattr(module, "check_certificate", counting)
        assert main(["verify", "-c", path]) == 0
        assert len(checks) == 1
        (check,) = checks
        lines = capsys.readouterr().out.splitlines()
        assert (
            f"PASS synthesis.certificate (M1 {check.lambda_max_m1:.2e}, "
            f"M2 {check.lambda_min_m2:.2e})"
        ) in lines

    def stable(self, tmp_path):
        """A synthesized config with no unstable mode (lam = 0.5, L = 1) and its file."""
        doc = base_config(**{"lambda": 0.5}, length=1.0, J=6, poles=None, T=1.0)
        doc["actuators"] = [{"kind": "indicator", "a": 0.0, "b": 0.5}]
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        return path, tmp_path / "exp_certificate.json"

    def test_no_unstable_mode_checks_the_file(self, tmp_path, capsys):
        path, cert_path = self.stable(tmp_path)
        capsys.readouterr()
        assert main(["verify", "-c", path, "--certificate", str(cert_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if " certificate." in line] == ["PASS certificate.absent"]

    def test_no_unstable_mode_rejects_a_certificate_block(self, tmp_path, capsys):
        path, cert_path = self.stable(tmp_path)
        doc = json.loads(cert_path.read_text())
        doc["alpha"] = 0.5  # P stays null, so the reader loads no certificate
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-c", path, "--certificate", str(cert_path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL certificate.absent (no mode is unstable, yet the file holds alpha)" in out


class TestGronwallCommand:
    def test_logistic_outputs(self, tmp_path):
        doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 10.0, "samples": 2001}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "gronwall.csv").read_text().strip().splitlines()
        assert lines[0].strip() == "t,bound,w"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0 / (1.0 + math.exp(10.0)), rel=1e-13)

    def test_long_horizon_bound_is_finite(self, tmp_path):
        # w overflows past t = 709 here; the bound tends to 1
        doc = {"v0": 2.0, "p": 0.0, "b": -1.0, "k": 1.0, "T": 800.0, "samples": 2001}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "gronwall.json").read_text())
        assert math.isfinite(summary["final_bound"])
        assert summary["final_bound"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_positive_horizon_exits_2(self, tmp_path, capsys, horizon):
        # rejected by name before the time grid or any output directory is made
        doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": horizon}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gronwall", "-c", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: gronwall T must be positive, got {horizon}\n"
        assert not out.exists()

    def test_expired_bound_exits_3(self, tmp_path):
        doc = {"v0": 2.0, "p": 2.0, "b": 1.0, "k": 1.0, "T": 2.0}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 3
