"""Config-driven experiment runner.

Subcommands: spectrum, modal, synth, simulate, verify, gronwall.  All inputs
come from a JSON config (flags only pick the subcommand and file paths), so
experiment definitions stay archivable.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 control-theoretic infeasibility.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from .errors import (
    AllModesUnstable,
    BoundExpired,
    CertificateFailure,
    ConfigError,
    ConvergenceFailure,
    CriticalLength,
    GapTooSmall,
    NonPositiveChannel,
    NotStabilizable,
    SatStabError,
)
from .modal import Lifting
from .saturation import SaturationLevel, sat, sector_holds
from .simulate import (
    SimConfig,
    estimate_basin,
    fit_decay_rate,
    gronwall_bound,
    run,
    run_batch,
)
from .spectral import eigen_residual, unstable_count
from .synthesis import (
    Certificate,
    Gain,
    H2Constants,
    build_certificate,
    check_certificate,
    design_gain,
    diagnose_pair,
    kalman_matrix,
    sample_ellipsoid,
    select_h2_constants,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_INFEASIBLE = 4

_NUMERIC_ERRORS = (
    ConvergenceFailure,
    AllModesUnstable,
    CertificateFailure,
    GapTooSmall,
    NonPositiveChannel,
    BoundExpired,
)
_INFEASIBLE_ERRORS = (NotStabilizable, CriticalLength)


def _fmt(x):
    """Shortest round-trip decimal for CSV cells."""
    return repr(float(x))


def _write_csv(path, header, lines):
    """Write CRLF-terminated lines of joined cells; `lines` may be a generator."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for line in lines:
            handle.write(line + "\r\n")


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _out_path(cfg, out_dir, suffix):
    directory = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{cfg.output_prefix}_{suffix}")


# ---------------------------------------------------------------------------
# spectrum


def _orthonormality_error(es):
    gram = (es.basis * es.quadrature.weights) @ es.basis.T
    return float(np.max(np.abs(gram - np.eye(es.count))))


def cmd_spectrum(cfg, out_dir=None):
    es = cfgmod.build_eigen(cfg)
    split = unstable_count(es)
    bc_residuals = [es.bc_residual(j) for j in range(es.count)]
    rows = []
    for j in range(es.count):
        rows.append(
            [
                str(j + 1),
                _fmt(es.values[j]),
                _fmt(bc_residuals[j]),
                _fmt(es.norm_error(j)),
            ]
        )
    csv_path = _out_path(cfg, out_dir, "spectrum.csv")
    _write_csv(csv_path, ["index", "sigma", "bc_residual", "norm_error"], map(",".join, rows))
    summary = {
        "bc": cfg.bc.value,
        "lambda": cfg.lam,
        "length": cfg.length,
        "count": es.count,
        "n": split.n,
        "eta": split.eta,
        "solver": es.solver,
        "worst_eigen_residual": max(eigen_residual(es, j) for j in range(es.count)),
        "worst_bc_residual": max(bc_residuals),
        "worst_orthonormality_error": _orthonormality_error(es),
    }
    _write_json(_out_path(cfg, out_dir, "spectrum.json"), summary)
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# modal


def _matrix_rows(mat):
    mat = np.atleast_2d(mat)
    return [[_fmt(x) for x in row] for row in mat]


def cmd_modal(cfg, out_dir=None):
    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    for name, mat in (("A", ms.A), ("B", ms.B), ("b_tail", ms.b_tail)):
        path = _out_path(cfg, out_dir, f"{name}.csv")
        rows = _matrix_rows(mat)
        header = [f"c{k+1}" for k in range(len(rows[0]) if rows else 0)]
        _write_csv(path, header, map(",".join, rows))
    summary = {
        "mode": ms.mode,
        "n": ms.n,
        "eta": split.eta,
        "m": ms.m,
        "J": es.count,
        "dim": ms.dim,
        "shape_norms_sq": [float(x) for x in ms.shape_norms_sq],
    }
    path = _out_path(cfg, out_dir, "modal.json")
    _write_json(path, summary)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def _certificate_payload(cfg, ms, split, gain, cert, consts, report):
    payload = {
        "mode": ms.mode,
        "n": ms.n,
        "m": ms.m,
        "J": cfg.J,
        "eta": split.eta,
        "ell": "inf" if math.isinf(cfg.ell) else cfg.ell,
        "K": gain.K.tolist(),
        "closed_loop_spectrum_real": gain.closed_loop_spectrum.real.tolist(),
        "closed_loop_spectrum_imag": gain.closed_loop_spectrum.imag.tolist(),
        "diagnostics": {
            "rank": report.rank,
            "dim": report.dim,
            "controllable": report.controllable,
            "stabilizable": report.stabilizable,
            "vandermonde": report.vandermonde_value,
            "pbh_failures_real": [f.real for f in report.pbh_failures],
        },
    }
    if cert is None:
        payload.update({"P": None, "D": None, "C": None, "alpha": None,
                        "beta_min": None, "beta_max": None, "constants": None})
        return payload
    payload.update(
        {
            "P": cert.P.tolist(),
            "D": cert.D.tolist(),
            "C": cert.C.tolist(),
            "alpha": cert.alpha,
            "beta_min": cert.beta_min,
            "beta_max": cert.beta_max,
        }
    )
    payload["constants"] = None if consts is None else {
        "M": consts.M,
        "C1": consts.C1,
        "C2": consts.C2,
        "C3": consts.C3,
        "C4": consts.C4,
        "a": consts.a,
    }
    return payload


def _synth_report_text(payload):
    lines = [
        f"mode: {payload['mode']}  (n = {payload['n']}, m = {payload['m']}, J = {payload['J']})",
        f"tail gap eta = {payload['eta']:.6g}",
        f"kalman rank {payload['diagnostics']['rank']} of {payload['diagnostics']['dim']}"
        f" (controllable: {payload['diagnostics']['controllable']})",
    ]
    if payload["alpha"] is None:
        lines.append("no unstable modes: zero gain, no certificate needed")
    else:
        lines.append(f"gain K = {payload['K']}")
        lines.append(
            f"certificate: alpha = {payload['alpha']:.6g}, "
            f"beta range [{payload['beta_min']:.6g}, {payload['beta_max']:.6g}]"
        )
        c = payload["constants"]
        if c is not None:
            lines.append(
                f"energy constants: M = {c['M']:.6g}, C1 = {c['C1']:.6g}, "
                f"C2 = {c['C2']:.6g}, C3 = {c['C3']:.6g}, C4 = {c['C4']:.6g}, "
                f"a = {c['a']:.6g}"
            )
    return "\n".join(lines) + "\n"


def cmd_synth(cfg, out_dir=None):
    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    report = diagnose_pair(ms.A, ms.B)
    gain = design_gain(ms, poles=list(cfg.poles) if cfg.poles else None)
    if ms.dim == 0:
        cert = None
        consts = None
    else:
        cert = build_certificate(ms, gain, cfg.level())
        consts = select_h2_constants(cert, ms, gain, es)
    payload = _certificate_payload(cfg, ms, split, gain, cert, consts, report)
    path = _out_path(cfg, out_dir, "certificate.json")
    _write_json(path, payload)
    with open(_out_path(cfg, out_dir, "synth_report.txt"), "w") as handle:
        handle.write(_synth_report_text(payload))
    print(f"wrote {path}")
    return EXIT_OK


def load_certificate(path):
    """Gain, certificate, and constants from a synth JSON file."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read certificate {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"certificate {path} is not valid JSON: {exc}")
    try:
        spectrum = np.array(doc["closed_loop_spectrum_real"], dtype=float) + 1j * np.array(
            doc["closed_loop_spectrum_imag"], dtype=float
        )
        gain = Gain(K=np.array(doc["K"], dtype=float), closed_loop_spectrum=spectrum)
        if doc.get("P") is None:
            return doc, gain, None, None
        ell = math.inf if doc["ell"] == "inf" else float(doc["ell"])
        cert = Certificate(
            P=np.array(doc["P"], dtype=float),
            D=np.array(doc["D"], dtype=float),
            C=np.array(doc["C"], dtype=float),
            alpha=float(doc["alpha"]),
            beta_min=float(doc["beta_min"]),
            beta_max=float(doc["beta_max"]),
            ell=ell,
        )
        consts = None
        if doc.get("constants"):
            c = doc["constants"]
            consts = H2Constants(
                M=float(c["M"]), C1=float(c["C1"]), C2=float(c["C2"]),
                C3=float(c["C3"]), C4=float(c["C4"]), a=float(c["a"]),
            )
        return doc, gain, cert, consts
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"certificate {path} is malformed: {exc}")


# ---------------------------------------------------------------------------
# simulate


_CSV_CHUNK = 64  # trajectory rows per conversion to Python floats; more only costs memory


def _trajectory_lines(ms, traj):
    """One CSV line per sample, converted to Python numbers a chunk at a time.

    repr of a list of Python floats writes each cell as `_fmt` does; the
    saturation flags go in as the ints 1/0.
    """
    d_coeffs = None
    if ms.mode == "boundary":
        d_coeffs = -np.concatenate([ms.B[1:, 0], ms.b_tail[:, 0]])  # <d, e_j>
    for lo in range(0, traj.times.size, _CSV_CHUNK):
        rows = slice(lo, lo + _CSV_CHUNK)
        fields = traj.states[rows]
        if d_coeffs is not None:
            fields = fields[:, 1:] + fields[:, :1] * d_coeffs
        head = np.column_stack([traj.times[rows], fields, traj.control[rows]]).tolist()
        flags = traj.sat_active[rows].astype(np.int8).tolist()
        monitors = np.column_stack(
            [traj.l2[rows], traj.h1[rows], traj.h2[rows], traj.v1[rows], traj.v2[rows]]
        ).tolist()
        for head_row, flag_row, monitor_row in zip(head, flags, monitors):
            yield repr(head_row + flag_row + monitor_row)[1:-1].replace(", ", ",")


def _trajectory_rows(cfg, ms, traj):
    """CSV header and a generator of formatted lines, one per sample."""
    J = cfg.J
    m = traj.control.shape[1]
    header = (
        ["t"]
        + [f"y_{j+1}" for j in range(J)]
        + [f"u_{k+1}" for k in range(m)]
        + [f"sat_active_{k+1}" for k in range(m)]
        + ["l2", "h1", "h2", "v1", "v2"]
    )
    return header, _trajectory_lines(ms, traj)


def _fit_or_none(traj, channel, t_start):
    try:
        fit = fit_decay_rate(traj, channel, t_start)
    except NonPositiveChannel:
        return None
    return {"rate": fit.rate, "prefactor": fit.prefactor, "r_squared": fit.r_squared}


def cmd_simulate(cfg, certificate_path, out_dir=None, basin=False):
    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    doc, gain, cert, consts = load_certificate(certificate_path)
    if doc["mode"] != ms.mode or doc["n"] != ms.n or doc["J"] != cfg.J:
        raise ConfigError(
            "certificate was synthesized for a different system "
            f"(mode {doc['mode']}, n {doc['n']}, J {doc['J']})"
        )
    sim = cfg.sim_config()
    traj = run(sim, ms, gain, cert, consts, level=cfg.level())

    csv_path = _out_path(cfg, out_dir, "trajectory.csv")
    _write_csv(csv_path, *_trajectory_rows(cfg, ms, traj))

    t_start = cfg.T / 4.0
    channels = ["l2", "h2"] + (["u_plus_w"] if ms.mode == "boundary" else [])
    summary = {
        "exit_reason": traj.exit_reason,
        "left_region": traj.left_region,
        "samples": int(traj.times.size),
        "sat_duty": [float(x) for x in traj.sat_duty],
        "final": {
            "t": float(traj.times[-1]),
            "l2": float(traj.l2[-1]),
            "h2": float(traj.h2[-1]),
        },
        "rates": {name: _fit_or_none(traj, name, t_start) for name in channels},
        "nl_ratio_max": None if math.isnan(traj.nl_ratio_max) else traj.nl_ratio_max,
    }
    if basin:
        if isinstance(cfg.initial[0], str):
            preset = cfg.initial
        else:
            raise ConfigError("basin estimation needs a preset initial state")

        def make_config(amplitude):
            return SimConfig(
                J=cfg.J, dt=cfg.dt, T=cfg.T, delta=cfg.delta, nu=cfg.nu,
                initial=(preset[0], amplitude),
            )

        summary["basin_estimate"], summary["basin_bracketed"] = estimate_basin(
            make_config, ms, gain, cert, consts,
            low=preset[1], high=preset[1] * 256.0, level=cfg.level(),
        )
    _write_json(_out_path(cfg, out_dir, "summary.json"), summary)
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gronwall

_GRONWALL_KEYS = {"v0", "p", "b", "k", "T", "samples", "output"}


def cmd_gronwall(path, out_dir=None):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read gronwall config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"gronwall config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or set(doc) - _GRONWALL_KEYS:
        raise ConfigError(f"gronwall config keys must be within {sorted(_GRONWALL_KEYS)}")
    try:
        v0 = float(doc["v0"])
        p = float(doc["p"])
        b = float(doc["b"])
        k = float(doc["k"])
        horizon = float(doc["T"])
        samples = int(doc.get("samples", 2001))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"gronwall config is malformed: {exc}")
    for key, value in (("v0", v0), ("p", p), ("b", b), ("k", k), ("T", horizon)):
        if not math.isfinite(value):
            raise ConfigError(f"gronwall {key} must be finite, got {value}")
    output = doc.get("output", {"directory": ".", "prefix": "gronwall"})
    directory = out_dir if out_dir is not None else output.get("directory", ".")
    prefix = output.get("prefix", "gronwall")
    os.makedirs(directory, exist_ok=True)

    t = np.linspace(0.0, horizon, samples)
    out = gronwall_bound(v0, b, k, p, t)
    rows = [[_fmt(ti), _fmt(vi), _fmt(wi)] for ti, vi, wi in zip(out.times, out.values, out.w)]
    csv_path = os.path.join(directory, f"{prefix}.csv")
    _write_csv(csv_path, ["t", "bound", "w"], map(",".join, rows))
    _write_json(
        os.path.join(directory, f"{prefix}.json"),
        {"v0": v0, "p": p, "b": b, "k": k, "T": horizon, "samples": samples,
         "final_bound": float(out.values[-1]), "w_positive": True},
    )
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


class _Report:
    def __init__(self):
        self.failures = []

    def check(self, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status} {name}{suffix}")
        if not ok:
            self.failures.append(name)


def _verify_certificate_file(report, path, ms, gain):
    doc, file_gain, cert, consts = load_certificate(path)
    if cert is None:
        report.check("certificate.present", False, "file holds no certificate block")
        return
    p_sym = np.allclose(cert.P, cert.P.T)
    p_eigs = np.linalg.eigvalsh(0.5 * (cert.P + cert.P.T))
    report.check("certificate.P_positive_definite", p_sym and np.all(p_eigs > 0.0),
                 f"eigenvalues {p_eigs.tolist()}")
    d_ok = np.allclose(cert.D, np.diag(np.diag(cert.D))) and np.all(np.diag(cert.D) > 0)
    report.check("certificate.D_diagonal_positive", bool(d_ok))
    if not (p_sym and np.all(p_eigs > 0.0) and d_ok):
        return
    check = check_certificate(cert, ms, file_gain)
    report.check("certificate.M1_negative_definite", check.lambda_max_m1 < 0.0,
                 f"lambda_max = {check.lambda_max_m1:.3e}")
    report.check("certificate.M2_positive_semidefinite",
                 math.isinf(cert.ell) or check.lambda_min_m2 >= -1e-9,
                 f"lambda_min = {check.lambda_min_m2:.3e}")


def cmd_verify(cfg, certificate_path=None):
    rng = np.random.default_rng(cfg.seed)
    report = _Report()

    es = cfgmod.build_eigen(cfg)
    ortho = _orthonormality_error(es)
    report.check("spectral.orthonormality", ortho <= 1e-10, f"worst {ortho:.2e}")
    residuals = [eigen_residual(es, j) for j in range(es.count)]
    report.check("spectral.eigen_residual", max(residuals) <= 1e-6, f"worst {max(residuals):.2e}")
    report.check(
        "spectral.values_sorted", bool(np.all(np.diff(es.values) <= 1e-12))
    )

    ms, split = cfgmod.build_modal(cfg, es)
    if ms.mode == "internal":
        partial = np.sum(np.vstack([ms.B, ms.b_tail]) ** 2, axis=0)
        report.check(
            "modal.bessel_inequality",
            bool(np.all(partial <= ms.shape_norms_sq + 1e-10)),
        )
    lift = Lifting(cfg.length)
    lift_ok = (
        lift.d(0.0) == 0.0
        and abs(lift.d(cfg.length)) < 1e-12
        and lift.d1(0.0) == 1.0
        and abs(lift.d1(cfg.length)) < 1e-12
    )
    report.check("modal.lifting_identities", lift_ok)

    level = cfg.level() if not math.isinf(cfg.ell) else SaturationLevel(1.0)
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        K = rng.normal(size=(m, n))
        C = rng.normal(size=(m, n))
        D = np.diag(rng.uniform(0.1, 4.0, m))
        z = rng.normal(size=n)
        gap = np.abs((K - C) @ z)
        if gap.max() > 0:
            z *= min(1.0, level.ell / gap.max()) * rng.uniform(0.0, 1.0)
        result = sector_holds(z, K, C, D, level)
        worst = max(worst, result.weighted_value)
        if not (result.hypothesis_ok and result.holds):
            break
    report.check("saturation.sector_condition", worst <= 1e-12, f"worst {worst:.2e}")
    a = rng.uniform(-5, 5, 500)
    b = rng.uniform(-5, 5, 500)
    lip = np.max(np.abs(sat(a, level) - sat(b, level)) - np.abs(a - b))
    report.check("saturation.lipschitz", lip <= 1e-14)

    gain = None
    cert = None
    consts = None
    if ms.dim > 0:
        try:
            gain = design_gain(ms, poles=list(cfg.poles) if cfg.poles else None)
            cert = build_certificate(ms, gain, cfg.level())
            consts = select_h2_constants(cert, ms, gain, es)
        except SatStabError as exc:
            report.check("synthesis.certificate", False, str(exc))
        if cert is not None:
            check = check_certificate(cert, ms, gain)
            report.check("synthesis.certificate", check.ok,
                         f"M1 {check.lambda_max_m1:.2e}, M2 {check.lambda_min_m2:.2e}")
            boundary_pts = sample_ellipsoid(cert, rng, 2000, surface=True)
            margin = cfg.ell * (1.0 + 1e-9)
            inclusion = all(
                np.all(np.abs((gain.K - cert.C) @ z) <= margin) for z in boundary_pts
            )
            report.check("synthesis.sector_inclusion", inclusion)
            vdm_ok = True
            for _ in range(100):
                size = int(rng.integers(2, 5))
                sigma = np.sort(rng.uniform(-4, 4, size))[::-1]
                if np.min(-np.diff(sigma)) < 0.25:
                    continue
                bvec = rng.uniform(0.4, 2.0, size) * rng.choice([-1.0, 1.0], size)
                rep = diagnose_pair(np.diag(sigma), bvec[:, None])
                det = float(np.linalg.det(kalman_matrix(np.diag(sigma), bvec[:, None])))
                if abs(det - rep.vandermonde_value) > 1e-8 * max(1.0, abs(det)):
                    vdm_ok = False
            report.check("synthesis.vandermonde_product", vdm_ok)

    if certificate_path is not None and gain is not None:
        _verify_certificate_file(report, certificate_path, ms, gain)

    if gain is not None and ms.mode == "internal" and cert is not None:
        sim = SimConfig(J=cfg.J, dt=min(cfg.dt, 1e-3), T=min(cfg.T, 2.0))
        starts = np.zeros((10, cfg.J))
        starts[:, : ms.n] = sample_ellipsoid(cert, rng, 10)
        trajs = run_batch(sim, ms, gain, starts, cert, consts, level=cfg.level())
        slack = _dissipation_slack(ms, gain, cert, sim.dt)
        invariant_ok = not any(traj.left_region for traj in trajs)
        dissipation_ok = True
        for traj in trajs:
            dv = np.diff(traj.v1) / sim.dt
            znorm_sq = np.sum(traj.states[:-1, : ms.n] ** 2, axis=1)
            if not np.all(dv <= -cert.alpha * znorm_sq + slack * znorm_sq + 1e-12):
                dissipation_ok = False
        report.check("simulate.region_invariance", invariant_ok)
        report.check("simulate.v1_dissipation", dissipation_ok)

        y0 = np.zeros(cfg.J)
        y0[0] = 0.5 / math.sqrt(cert.P[0, 0]) if ms.n else 0.01
        eq_sim = SimConfig(J=cfg.J, dt=1e-3, T=0.5, initial=tuple(y0.tolist()))
        t_inf = run(eq_sim, ms, gain)
        t_fin = run(eq_sim, ms, gain, level=SaturationLevel(1e9))
        report.check(
            "simulate.unsaturated_equivalence",
            bool(np.max(np.abs(t_inf.states - t_fin.states)) <= 1e-14),
        )
        parseval_ok = True
        for k in (0, t_inf.times.size - 1):
            y = es.synthesize(t_inf.states[k])
            quad_sq = es.quadrature.integrate(y**2)
            modal_sq = float(np.sum(t_inf.states[k] ** 2))
            if abs(quad_sq - modal_sq) > 1e-12 * max(modal_sq, 1e-30):
                parseval_ok = False
        report.check("simulate.parseval", parseval_ok)

    t = np.linspace(0.0, 10.0, 2001)
    out = gronwall_bound(0.5, -1.0, 1.0, 2.0, t)
    exact = 1.0 / (1.0 + np.exp(t))
    report.check(
        "gronwall.logistic_oracle", float(np.max(np.abs(out.values - exact))) <= 1e-8
    )

    if report.failures:
        print(f"{len(report.failures)} invariant(s) failed")
        return EXIT_NUMERICS
    print("all invariants passed")
    return EXIT_OK


def _dissipation_slack(ms, gain, cert, dt):
    acl = ms.A + ms.B @ gain.K
    scale = np.linalg.norm(acl, 2) + np.linalg.norm(ms.B @ gain.K, 2)
    return 4.0 * dt * float(np.linalg.norm(cert.P, 2)) * scale**2


# ---------------------------------------------------------------------------
# entry


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="satstab",
        description="saturated-feedback stabilization toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, cert=False, basin=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True, help="experiment config JSON")
        p.add_argument("-o", "--out", default=None, help="output directory override")
        if cert:
            p.add_argument(
                "--certificate",
                required=(name == "simulate"),
                default=None,
                help="certificate JSON from the synth subcommand",
            )
        if basin:
            p.add_argument(
                "--basin",
                action="store_true",
                help="bisect the initial amplitude for the empirical basin edge",
            )
        return p

    add("spectrum", "eigenvalue table for the configured operator")
    add("modal", "truncated system matrices")
    add("synth", "gain, certificate, and energy constants")
    add("simulate", "closed-loop trajectory", cert=True, basin=True)
    add("verify", "run the invariant suites", cert=True)

    g = sub.add_parser("gronwall", help="comparison bound for v' <= b v + k v^p")
    g.add_argument("-c", "--config", required=True, help="gronwall config JSON")
    g.add_argument("-o", "--out", default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "gronwall":
            return cmd_gronwall(args.config, args.out)
        cfg = cfgmod.load_config(args.config)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "modal":
            return cmd_modal(cfg, args.out)
        if args.command == "synth":
            return cmd_synth(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.certificate, args.out, basin=args.basin)
        if args.command == "verify":
            return cmd_verify(cfg, args.certificate)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _INFEASIBLE_ERRORS as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
