"""Config-driven experiment runner.

Subcommands: spectrum, modal, synth, simulate, verify, gronwall.  All inputs
come from a JSON config (flags only pick the subcommand and file paths), so
experiment definitions stay archivable.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 control-theoretic infeasibility.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import config as cfgmod
from .errors import (
    CertificateFailure,
    ConfigError,
    Infeasible,
    NonPositiveChannel,
    NotStabilizable,
    SatStabError,
)
from .saturation import SaturationLevel, sector_holds
from .simulate import (
    SimConfig,
    estimate_basin,
    fit_decay_rate,
    gronwall_bound,
    run,
    run_batch,
    step_plan,
)
from .spectral import eigen_residual, unstable_count
from .synthesis import (
    build_certificate,
    certificate_document,
    certificate_fields_held,
    certificate_head,
    check_certificate,
    design_gain,
    read_certificate,
    sample_ellipsoid,
    select_h2_constants,
)

EXIT_OK = 0


# Rows per `_csv_block` call on a long table.  Benchmark medians of 3
# alternated runs at 512 / 1024 / 2048 / 4096 rows (2-vCPU x86 host, 6 s runs):
# wall_s 0.0898 / 0.0900 / 0.0933 / 0.1018 s on nonlinear_single, 0.318 /
# 0.320 / 0.323 / 0.332 s on trajectory_sweep, 0.120 / 0.121 / 0.125 / 0.125 s
# on clamped_spectral; peak RSS on nonlinear_single 51.5 / 50.2 / 50.2 / 56.1 MB.
# 512 rows saves under 1% and costs 1.3 MB there, so 1024 stays.
_CSV_CHUNK = 1024
_NONFINITE = np.frombuffer(b"nan\0inf\0-inf", np.uint8).reshape(3, 4)
# the one-byte markers `_csv_block` writes, and what each expands to
_SPELLED = (
    (b"\1", b"-0"), (b"\2", b"e+"), (b"\3", b"e-05,"), (b"\4", b"e-05\r\n"), (b"\5", b"\r\n")
)


def _csv_block(table, int_columns=()):
    """CRLF CSV lines of a non-empty 2-D table, each cell as repr(float(x)) writes it.

    The columns in `int_columns` hold integers below 1e16 (flags, indices)
    and are written as ints: "1", not "1.0".  orjson writes the shortest
    round-trip digits, the digits repr writes; its syntax differs from repr's
    in three ways, mended by one-byte writes into a copy of its bytes:
      - exponents get a sign and two digits: 1e16 -> 1e+16, 1e-7 -> 1e-07;
      - 1e-5 <= |x| < 1e-4, written 0.0000123, takes scientific form: 1.23e-05;
      - null becomes nan, inf or -inf, read off the table.
    orjson dumps the table flat, "[c,c,...,c]": one scan for "," finds every
    cell's end, once the final "]" is made a "," too.  A byte to drop (the
    opening bracket, an int's ".0", a band cell's "0.000", the 4th byte of
    nan/inf) becomes 0x00; a byte that must grow becomes a marker of
    `_SPELLED`: the "-" of a one-digit exponent (0x01 -> "-0"), the "e" of a
    positive one (0x02 -> "e+"), the end of a band cell (0x03 -> "e-05,",
    0x04 -> "e-05" CRLF at a row's end) and the end of any other row's last
    cell (0x05 -> CRLF).  Only the closing bytes.replace calls change the
    length; orjson writes no byte below 0x20, so none of its bytes is taken
    for a marker.
    Which cells have an exponent, and its digit count, come from the values:
    a double above fl(10^k) rounds only decimals above 10^k, and fl(10^k)
    prints as 1e{k}, so comparing against fl(10^k) is exact; floor(log10|x|)
    is not (it reads 16 for 9999999999999998.0).
    """
    import orjson  # imported here: `import satstab.cli` stays numpy-only

    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, width = table.shape
    flat = table.ravel()
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    text = np.frombuffer(text, np.uint8).copy()
    text[-1] = ord(",")  # the closing "]" ends the last cell
    cells = np.flatnonzero(text == ord(","))  # the byte after each cell, in row-major order
    ends = cells.reshape(rows, width)
    text[0] = 0
    text[ends[:, -1]] = 5  # the line ends
    text[ends[:, list(int_columns), None] - [1, 2]] = 0  # ints lose their ".0"

    bad = ~np.isfinite(table)  # orjson's "null", in row-major order
    if bad.any():
        value = table[bad]
        kind = np.where(np.isnan(value), 0, np.where(value > 0, 1, 2))
        text[ends[bad][:, None] - np.arange(4, 0, -1)] = _NONFINITE[kind]

    magnitude = np.abs(table)
    text[ends[(magnitude >= 1e-9) & (magnitude < 1e-5)] - 2] = 1  # the "-" of "e-7"
    big = (magnitude >= 1e16) & (magnitude < np.inf)  # the "e" of "e16" or "e100"
    text[ends[big] - 3 - (magnitude[big] >= 1e100)] = 2
    band = np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4))
    if band.size:
        end = cells[band]
        lead = np.where(band > 0, cells[band - 1], 0) + 1 + np.signbit(flat[band])
        text[lead + 5] = text[lead + 6]  # the first significant digit
        text[lead + 6] = np.where(lead + 7 < end, ord("."), 0)
        text[lead[:, None] + np.arange(5)] = 0  # "0.000" before the moved digit
        text[end] = np.where(band % width < width - 1, 3, 4)

    # a replace whose marker is absent is one memchr pass and copies nothing
    text = text.tobytes().replace(b"\0", b"")
    for marker, spelled in _SPELLED:
        text = text.replace(marker, spelled)
    return text


def _csv_blocks(table, int_columns=()):
    """`_csv_block` over `_CSV_CHUNK` rows of `table` at a time."""
    for lo in range(0, len(table), _CSV_CHUNK):
        yield _csv_block(table[lo : lo + _CSV_CHUNK], int_columns)


def _write_csv(path, header, blocks):
    """Write the header line, then the CSV bytes in `blocks` (an iterable)."""
    with open(path, "wb") as handle:
        handle.write(",".join(header).encode() + b"\r\n")
        handle.writelines(blocks)


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
    bc_residuals = es.bc_residual()
    table = np.column_stack([np.arange(1, es.count + 1), es.values, bc_residuals, es.norm_error()])
    csv_path = _out_path(cfg, out_dir, "spectrum.csv")
    _write_csv(csv_path, ["index", "sigma", "bc_residual", "norm_error"], _csv_blocks(table, [0]))
    summary = {
        "bc": cfg.bc.value,
        "lambda": cfg.lam,
        "length": cfg.length,
        "count": es.count,
        "n": split.n,
        "eta": split.eta,
        "solver": es.solver,
        "worst_eigen_residual": float(eigen_residual(es).max()),
        "worst_bc_residual": float(bc_residuals.max()),
        "worst_orthonormality_error": _orthonormality_error(es),
    }
    _write_json(_out_path(cfg, out_dir, "spectrum.json"), summary)
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# modal


def cmd_modal(cfg, out_dir=None):
    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    for name, mat in (("A", ms.A), ("B", ms.B), ("b_tail", ms.b_tail)):
        path = _out_path(cfg, out_dir, f"{name}.csv")
        mat = np.atleast_2d(mat)
        header = [f"c{k+1}" for k in range(mat.shape[1] if len(mat) else 0)]
        _write_csv(path, header, _csv_blocks(mat))
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


def _system_head(cfg, ms, split):
    """The `certificate_head` of the system the config describes."""
    return certificate_head(ms.mode, ms.n, ms.m, cfg.J, split.eta, cfg.ell, cfg.dt)


def _design(cfg, ms):
    """Gain, certificate and energy constants; no certificate when no mode is unstable.

    A gain of the stepped design (`poles: null`) that `build_certificate`
    rejects raises `NotStabilizable`, carrying the rejection's message: the
    design has no continuous certificate.  With explicit poles the
    `CertificateFailure` itself propagates.
    """
    gain = design_gain(ms, poles=list(cfg.poles) if cfg.poles else None, dt=cfg.dt)
    if ms.dim == 0:
        return gain, None, None
    try:
        cert = build_certificate(ms, gain, cfg.level())
    except CertificateFailure as exc:
        if cfg.poles:
            raise
        raise NotStabilizable(f"stepped design: no continuous certificate: {exc}") from exc
    return gain, cert, select_h2_constants(cert, ms, gain)


def _synth_report_text(cfg, ms, head, gain, cert, consts):
    report = gain.report
    lines = [
        f"mode: {head['mode']}  (n = {head['n']}, m = {head['m']}, J = {head['J']})",
        f"tail gap eta = {head['eta']:.6g}",
        f"kalman rank {report.rank} of {report.dim} (controllable: {report.controllable})",
    ]
    if cert is None:
        lines.append("no unstable modes: zero gain, no certificate needed")
    else:
        lines.append(f"gain K = {gain.K.tolist()}")
        rho = np.abs(np.linalg.eigvals(step_plan(ms, gain, cfg.level(), cfg.dt).head_map())).max()
        lines.append(f"stepped head map: spectral radius {rho:.6g} at dt = {cfg.dt:g}")
        lines.append(
            f"certificate: alpha = {cert.alpha:.6g}, "
            f"beta range [{cert.beta_min:.6g}, {cert.beta_max:.6g}]"
        )
        if consts is not None:
            values = (f"{f.name} = {getattr(consts, f.name):.6g}" for f in fields(consts))
            lines.append("energy constants: " + ", ".join(values))
    return "\n".join(lines) + "\n"


def cmd_synth(cfg, out_dir=None):
    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    gain, cert, consts = _design(cfg, ms)
    head = _system_head(cfg, ms, split)
    path = _out_path(cfg, out_dir, "certificate.json")
    _write_json(path, certificate_document(head, gain, cert, consts))
    with open(_out_path(cfg, out_dir, "synth_report.txt"), "w") as handle:
        handle.write(_synth_report_text(cfg, ms, head, gain, cert, consts))
    print(f"wrote {path}")
    return EXIT_OK


def load_certificate(path):
    """The JSON document of a synth file, and the gain, certificate and constants in it."""
    doc = cfgmod.read_json(path, "certificate")
    try:
        return (doc, *read_certificate(doc))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"certificate {path} is malformed: {exc}")


def _matching_certificate(path, cfg, ms, split):
    """`load_certificate`'s four values, if usable for the config, and the certificate's check.

    Exits 2 (ConfigError) unless every head field but the derived tail gap
    eta equals the config's (naming each field that differs and both its
    values), a certificate is present when some mode is unstable, and
    `check_certificate` accepts its P and D (naming the values it rejects).
    The check is that call's result (None without a certificate); whether
    its LMIs hold is the caller's to judge.
    """
    doc, gain, cert, consts = load_certificate(path)
    differ = [
        f"{key}: file {doc.get(key)!r}, config {value!r}"
        for key, value in _system_head(cfg, ms, split).items()
        if key != "eta" and doc.get(key) != value
    ]
    if differ:
        raise ConfigError(
            f"certificate {path} was synthesized for a different system ({'; '.join(differ)})"
        )
    check = None
    if cert is not None:
        try:
            check = check_certificate(cert, ms, gain)
        except ValueError as exc:
            raise ConfigError(f"certificate {path} is malformed: {exc}")
    elif ms.dim > 0:
        raise ConfigError(
            f"certificate {path} has P = null, but {ms.n} mode(s) are unstable:"
            " no region to monitor"
        )
    return doc, gain, cert, consts, check


# ---------------------------------------------------------------------------
# simulate


def _trajectory_blocks(ms, traj, flags):
    """The CSV bytes of each `_CSV_CHUNK` samples; `flags` are the sat_active columns."""
    for lo in range(0, traj.times.size, _CSV_CHUNK):
        rows = slice(lo, lo + _CSV_CHUNK)
        table = np.column_stack([
            traj.times[rows], ms.field_coefficients(traj.states[rows]), traj.control[rows],
            traj.sat_active[rows], traj.l2[rows], traj.h1[rows], traj.h2[rows], traj.v1[rows],
            traj.v2[rows],
        ])
        yield _csv_block(table, flags)


def _trajectory_rows(cfg, ms, traj):
    """CSV header and a generator of CSV bytes, `_CSV_CHUNK` samples at a time."""
    J = cfg.J
    m = traj.control.shape[1]
    header = (
        ["t"]
        + [f"y_{j+1}" for j in range(J)]
        + [f"u_{k+1}" for k in range(m)]
        + [f"sat_active_{k+1}" for k in range(m)]
        + ["l2", "h1", "h2", "v1", "v2"]
    )
    return header, _trajectory_blocks(ms, traj, range(1 + J + m, 1 + J + 2 * m))


def _fit_or_none(traj, channel, t_start):
    try:
        fit = fit_decay_rate(traj, channel, t_start)
    except NonPositiveChannel:
        return None
    return {"rate": fit.rate, "prefactor": fit.prefactor, "r_squared": fit.r_squared}


def cmd_simulate(cfg, certificate_path, out_dir=None, basin=False):
    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    _, gain, cert, consts, check = _matching_certificate(certificate_path, cfg, ms, split)
    if check is not None and not check.ok:
        raise ConfigError(
            f"certificate {certificate_path} does not certify this system: "
            f"lambda_max(M1) = {check.lambda_max_m1:.3e}, "
            f"lambda_min(M2) = {check.lambda_min_m2:.3e}"
        )
    sim = cfg.sim_config()
    if basin:
        if not isinstance(cfg.initial[0], str):
            raise ConfigError("basin estimation needs a preset initial state")
        amplitude = cfg.initial[1]
        # searched first: a config it rejects exits before anything is written;
        # its first pass steps the configured run (the low end) and keeps it
        *edge, traj = estimate_basin(
            sim, ms, gain, amplitude * 256.0, level=cfg.level(), monitors=(cert, consts)
        )
    else:
        traj = run(sim, ms, gain, cert, consts, level=cfg.level())

    csv_path = _out_path(cfg, out_dir, "trajectory.csv")
    _write_csv(csv_path, *_trajectory_rows(cfg, ms, traj))

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
        "rates": {name: _fit_or_none(traj, name, sim.fit_start) for name in channels},
        "nl_ratio_max": None if math.isnan(traj.nl_ratio_max) else traj.nl_ratio_max,
    }
    if basin:
        summary["basin_estimate"], summary["basin_bracketed"] = edge
    _write_json(_out_path(cfg, out_dir, "summary.json"), summary)
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gronwall

_GRONWALL_KEYS = {"v0", "p", "b", "k", "T", "samples", "output"}


def cmd_gronwall(path, out_dir=None):
    doc = cfgmod.read_json(path, "gronwall config")
    if not isinstance(doc, dict) or set(doc) - _GRONWALL_KEYS:
        raise ConfigError(f"gronwall config keys must be within {sorted(_GRONWALL_KEYS)}")
    try:
        v0 = float(doc["v0"])
        p = float(doc["p"])
        b = float(doc["b"])
        k = float(doc["k"])
        horizon = float(doc["T"])
        samples = doc.get("samples", 2001)
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 3:
            raise ValueError(f"samples must be an integer >= 3, got {samples!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"gronwall config is malformed: {exc}")
    for key, value in (("v0", v0), ("p", p), ("b", b), ("k", k), ("T", horizon)):
        if not math.isfinite(value):
            raise ConfigError(f"gronwall {key} must be finite, got {value}")
    if not horizon > 0.0:
        raise ConfigError(f"gronwall T must be positive, got {horizon}")
    directory, prefix = cfgmod.parse_output(doc, "gronwall")
    directory = out_dir if out_dir is not None else directory
    nbytes = 8.0 * samples  # a column of the table
    try:
        if nbytes > sys.maxsize:  # numpy's size limit
            raise MemoryError
        t = np.linspace(0.0, horizon, samples)
        out = gronwall_bound(v0, b, k, p, t)
    except MemoryError:
        raise ConfigError(
            f"gronwall samples = {samples} take {nbytes:.3g} bytes for each column of "
            "the bound's table: more than can be allocated"
        ) from None
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{prefix}.csv")
    table = np.column_stack([out.times, out.values, out.w])
    _write_csv(csv_path, ["t", "bound", "w"], _csv_blocks(table))
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
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        if not ok:
            self.failures.append(name)


def cmd_verify(cfg, certificate_path=None):
    """Check one (gain, certificate, constants) triple: the file's if given, else `_design`'s."""
    rng = np.random.default_rng(cfg.seed)
    report = _Report()

    es = cfgmod.build_eigen(cfg)
    ms, split = cfgmod.build_modal(cfg, es)
    gain = cert = consts = check = design_error = None
    if certificate_path is not None:
        doc, gain, cert, consts, check = _matching_certificate(certificate_path, cfg, ms, split)
    ortho = _orthonormality_error(es)
    report.check("spectral.orthonormality", ortho <= 1e-10, f"worst {ortho:.2e}")
    residual = float(eigen_residual(es).max())
    report.check("spectral.eigen_residual", residual <= 1e-9, f"worst {residual:.2e}")
    rise = float(np.max(np.diff(es.values), initial=-math.inf))
    report.check("spectral.values_sorted", rise <= 1e-12, f"largest increase {rise:.2e}")

    if ms.mode == "internal":
        partial = np.sum(np.vstack([ms.B, ms.b_tail]) ** 2, axis=0)
        report.check(
            "modal.bessel_inequality",
            bool(np.all(partial <= ms.shape_norms_sq + 1e-10)),
            f"smallest slack {np.min(ms.shape_norms_sq - partial):.2e}",
        )
    else:
        lift = ms.lifting  # d(0) = d(L) = 0, d'(0) = 1, d'(L) = 0; exact at x = 0
        ends = [lift.d(0.0), lift.d(cfg.length), lift.d1(0.0) - 1.0, lift.d1(cfg.length)]
        residual = float(np.max(np.abs(ends)))
        lift_ok = ends[0] == 0.0 and ends[2] == 0.0 and residual < 1e-12
        report.check("modal.lifting_identities", lift_ok, f"largest residual {residual:.2e}")

    if certificate_path is None and ms.dim > 0:
        try:
            gain, cert, consts = _design(cfg, ms)
        except SatStabError as exc:
            design_error = exc
            report.check("synthesis.certificate", False, str(exc))
    elif ms.dim == 0 and certificate_path is not None:
        # nothing to certify: the file must hold no certificate block
        held = certificate_fields_held(doc)
        report.check("certificate.absent", not held,
                     "no mode is unstable, yet the file holds " + ", ".join(held) if held else "")
    if cert is not None:
        if check is None:  # a designed certificate carries the check that gated it
            check = cert.check
        report.check("synthesis.certificate", check.ok,
                     f"M1 {check.lambda_max_m1:.2e}, M2 {check.lambda_min_m2:.2e}")
        boundary_pts = sample_ellipsoid(cert, rng, 2000, surface=True)
        margin = cfg.ell * (1.0 + 1e-9)
        reach = float(np.max(np.abs(boundary_pts @ (gain.K - cert.C).T)))
        report.check("synthesis.sector_inclusion", reach <= margin,
                     f"largest |(K - C)z|/ell {reach / cfg.ell:.6g}")
        sector = sector_holds(boundary_pts, gain.K, cert.C, cert.D, cfg.level())
        worst = float(sector.weighted_value.max())
        report.check("synthesis.sector_condition", worst <= 1e-12, f"worst {worst:.2e}")

    if cert is not None and ms.mode == "internal":
        sim = SimConfig(dt=min(cfg.dt, 1e-3), T=min(cfg.T, 2.0))
        starts = np.zeros((10, cfg.J))
        starts[:, : ms.n] = sample_ellipsoid(cert, rng, 10)
        trajs = run_batch(sim, ms, gain, starts, cert, consts, level=cfg.level())
        slack = _dissipation_slack(ms, gain, cert, sim.dt)
        invariant_ok = not any(traj.left_region for traj in trajs)
        dissipation_ok = True
        gaps = []  # ((slack - alpha) |z|^2 - dv1/dt) / |z|^2 per step with z != 0
        for traj in trajs:
            dv = np.diff(traj.v1) / sim.dt
            z = traj.states[:-1, : ms.n]
            z_sq = np.vecdot(z, z)
            bound = -cert.alpha * z_sq + slack * z_sq
            if not np.all(dv <= bound + 1e-12):
                dissipation_ok = False
            moving = z_sq > 0.0
            gaps.append((bound - dv)[moving] / z_sq[moving])
        report.check("simulate.region_invariance", invariant_ok,
                     f"largest v1 {max(float(np.max(traj.v1)) for traj in trajs):.6g}")
        report.check("simulate.v1_dissipation", dissipation_ok,
                     f"smallest slack/|z|^2 {np.min(np.concatenate(gaps), initial=math.inf):.2e}, "
                     f"allowance/alpha {slack / cert.alpha:.2e}")

        y0 = np.zeros(cfg.J)
        y0[0] = 0.5 / math.sqrt(cert.P[0, 0])
        eq_sim = SimConfig(dt=1e-3, T=0.5, initial=tuple(y0.tolist()))
        t_inf = run(eq_sim, ms, gain)
        t_fin = run(eq_sim, ms, gain, level=SaturationLevel(1e9))
        difference = float(np.max(np.abs(t_inf.states - t_fin.states)))
        report.check("simulate.unsaturated_equivalence", difference <= 1e-14,
                     f"max difference {difference:.2e}")
        parseval_ok = True
        errors = []
        for k in (0, t_inf.times.size - 1):
            y = es.synthesize(t_inf.states[k])
            quad_sq = es.quadrature.integrate(y**2)
            modal_sq = float(np.sum(t_inf.states[k] ** 2))
            error, scale = abs(quad_sq - modal_sq), max(modal_sq, 1e-30)
            if error > 1e-12 * scale:
                parseval_ok = False
            errors.append(error / scale)
        report.check("simulate.parseval", parseval_ok, f"worst relative error {max(errors):.2e}")

    if report.failures:
        print(f"{len(report.failures)} invariant(s) failed")
        if isinstance(design_error, Infeasible) and len(report.failures) == 1:
            return design_error.exit_code  # the design alone failed: no such design exists
        return SatStabError.exit_code
    print("all invariants passed")
    return EXIT_OK


def _dissipation_slack(ms, gain, cert, dt):
    acl = ms.A + ms.B @ gain.K
    scale = np.linalg.norm(acl, 2) + np.linalg.norm(ms.B @ gain.K, 2)
    return 4.0 * dt * float(np.linalg.norm(cert.P, 2)) * scale**2


# ---------------------------------------------------------------------------
# entry


@functools.cache
def _parser():
    """The argument parser, built on the first `main` call and reused after it."""
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return ConfigError.exit_code if exc.code not in (0, None) else EXIT_OK

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
        return cmd_verify(cfg, args.certificate)  # the parser admits no other command
    except SatStabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so ahead of the config errors
        print(f"{SatStabError.label}: LinAlgError: {exc}", file=sys.stderr)
        return SatStabError.exit_code
    except ValueError as exc:
        print(f"{ConfigError.label}: {exc}", file=sys.stderr)
        return ConfigError.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
