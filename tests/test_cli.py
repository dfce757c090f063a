import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import satstab
from satstab import cli
from satstab import config as cfgmod
from satstab.cli import main
from satstab.config import load_config, parse_config, serialize_config
from satstab.simulate import Trajectory, run


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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, base_config())
        monkeypatch.setenv("SATSTAB_SEED", "777")
        cfg = load_config(path)
        assert cfg.seed == 777

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


_IMPORT_PROBE = """
import json, sys
import satstab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

clamped, hinged, cert, gron, out = sys.argv[1:]
stages = {"import": scipy_modules()}
codes = [
    cli.main(["spectrum", "-c", clamped, "-o", out]),
    cli.main(["modal", "-c", clamped, "-o", out]),
    cli.main(["simulate", "-c", hinged, "--certificate", cert, "-o", out]),
    cli.main(["gronwall", "-c", gron, "-o", out]),
]
stages["numpy_only"] = scipy_modules()
codes.append(cli.main(["synth", "-c", hinged, "-o", out]))
stages["synth"] = scipy_modules()
print(json.dumps({"codes": codes, "stages": stages}))
"""


def test_scipy_loaded_only_by_synthesis(tmp_path):
    # every CLI call pays its imports: spectrum, modal, simulate and gronwall
    # run on numpy alone, and synth loads scipy.linalg and nothing else
    clamped_doc = base_config(bc="clamped", **{"lambda": 45.0}, length=1.0, J=16)
    clamped_doc.update(actuators=[], poles=None)
    clamped = write_config(tmp_path, clamped_doc, "clamped.json")
    hinged = write_config(tmp_path, base_config(J=8, T=0.5), "hinged.json")
    assert main(["synth", "-c", hinged, "-o", str(tmp_path)]) == 0
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
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["stages"]["import"] == []
    assert report["stages"]["numpy_only"] == []
    synth = report["stages"]["synth"]
    assert "scipy.linalg" in synth
    subpackages = {name.split(".")[1] for name in synth if "." in name}
    assert not subpackages & {"optimize", "integrate", "sparse", "signal"}
    # scipy's own package modules (version, private helpers) and linalg only
    assert all(sub in ("linalg", "version") or sub.startswith("_") for sub in subpackages)


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

    def test_mismatched_certificate_rejected(self, tmp_path):
        doc = base_config(J=8)
        path = self.synth_then_simulate(tmp_path, doc)
        other = base_config(J=6, output={"directory": ".", "prefix": "other"})
        other_path = write_config(tmp_path, other, name="other.json")
        assert main(["synth", "-c", other_path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "other_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 2


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

    @pytest.mark.parametrize("boundary", [False, True])
    def test_cli_output_matches_per_cell_oracle(self, tmp_path, boundary):
        doc = base_config(J=6, T=1.2, dt=0.002)  # 601 rows: several chunks, one partial
        if boundary:
            doc.update(bc="clamped", length=1.0, actuators=[], poles=[-2.0, -4.0], ell=20.0)
            doc["lambda"] = 45.0
            doc["initial"] = {"preset": "smooth", "amplitude": 0.02}
        path = write_config(tmp_path, doc)
        assert main(["synth", "-c", path, "-o", str(tmp_path)]) == 0
        cert = str(tmp_path / "exp_certificate.json")
        assert main(["simulate", "-c", path, "--certificate", cert, "-o", str(tmp_path)]) == 0
        cfg, ms, traj = self.rerun(path, tmp_path, "exp")
        assert traj.times.size == 601
        expected = oracle_csv(cfg.J, ms, traj)
        assert (tmp_path / "exp_trajectory.csv").read_bytes() == expected

    @pytest.mark.parametrize(
        "rows", [1, cli._CSV_CHUNK - 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 1, 511, 512, 513]
    )
    @pytest.mark.parametrize("boundary", [False, True])
    def test_special_values_match_per_cell_oracle(self, tmp_path, rows, boundary):
        specials = np.array([
            np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22,
            1.0, 2.0, -3.0, 1e15, 123456789012345678.0, 0.1, 1.0 / 3.0, 1e-7, 2.5e-300,
        ])
        rng = np.random.default_rng(rows)
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
        ms = SimpleNamespace(mode="internal")
        if boundary:
            ms = SimpleNamespace(
                mode="boundary", B=np.array([[0.0], [0.5]]), b_tail=np.array([[-0.25], [1e-3]])
            )
        cfg = SimpleNamespace(J=J)
        assert self.written(tmp_path, cfg, ms, traj) == oracle_csv(J, ms, traj)


class TestVerifyCommand:
    def test_default_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(J=8))
        assert main(["verify", "-c", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all invariants passed" in out

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
        assert main(["verify", "-c", path, "--certificate", str(cert_path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL certificate.P_positive_definite" in out


class TestGronwallCommand:
    def test_logistic_outputs(self, tmp_path):
        doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": 10.0, "samples": 2001}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "gronwall.csv").read_text().strip().splitlines()
        assert lines[0].strip() == "t,bound,w"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0 / (1.0 + math.exp(10.0)), rel=1e-6)

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_increasing_grid_exits_2(self, tmp_path, capsys, horizon):
        doc = {"v0": 0.5, "p": 2.0, "b": -1.0, "k": 1.0, "T": horizon}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 2
        assert "strictly increase" in capsys.readouterr().err
        assert not (tmp_path / "gronwall.csv").exists()

    def test_expired_bound_exits_3(self, tmp_path):
        doc = {"v0": 2.0, "p": 2.0, "b": 1.0, "k": 1.0, "T": 2.0}
        path = tmp_path / "gron.json"
        path.write_text(json.dumps(doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path)]) == 3
