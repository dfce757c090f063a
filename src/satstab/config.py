"""Experiment configuration: a closed-key JSON document.

The schema is deliberately strict so that configs double as archival
records: every key is known, unknown keys are rejected, and parse ->
serialize -> parse is the identity.
"""

import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .modal import Indicator, ModeCombination, assemble_boundary, assemble_internal
from .saturation import SaturationLevel
from .simulate import _PRESETS, SimConfig
from .spectral import (
    BoundaryCondition,
    OperatorParams,
    eigen_clamped,
    eigen_closed_form,
    unstable_count,
)

_TOP_KEYS = {
    "bc",
    "lambda",
    "length",
    "delta",
    "nu",
    "ell",
    "actuators",
    "poles",
    "J",
    "dt",
    "T",
    "initial",
    "seed",
    "output",
}
_REQUIRED = {"bc", "lambda", "length", "actuators", "J", "dt", "T", "initial"}

_BC_NAMES = {
    "clamped": BoundaryCondition.CLAMPED,
    "hinged": BoundaryCondition.HINGED,
    "neumann_ch": BoundaryCondition.NEUMANN_CH,
}


@dataclass(frozen=True)
class ExperimentConfig:
    bc: BoundaryCondition
    lam: float
    length: float
    delta: float
    nu: float
    ell: float
    actuators: tuple
    poles: tuple | None
    J: int
    dt: float
    T: float
    initial: object
    seed: int
    output_dir: str
    output_prefix: str

    @property
    def boundary_mode(self):
        return len(self.actuators) == 0

    def level(self):
        return SaturationLevel(self.ell)

    def sim_config(self):
        return SimConfig(
            dt=self.dt,
            T=self.T,
            delta=self.delta,
            nu=self.nu,
            initial=self.initial,
        )


def _finite(value, key):
    """float(value), or a ConfigError naming `key` if that is not a finite number.

    Python's json reads NaN and Infinity, which no config field accepts.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _require_number(doc, key, minimum=None, strict=False):
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    value = _finite(value, key)
    if minimum is not None:
        if strict and not value > minimum:
            raise ConfigError(f"{key} must be > {minimum}, got {value}")
        if not strict and not value >= minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_actuator(entry, index):
    if not isinstance(entry, dict):
        raise ConfigError(f"actuator entries must be objects, got {entry!r}")
    kind = entry.get("kind")
    key = f"actuators[{index}]"
    if kind == "indicator":
        extra = set(entry) - {"kind", "a", "b"}
        if extra:
            raise ConfigError(f"unknown actuator keys {sorted(extra)}")
        try:
            return Indicator(_finite(entry["a"], f"{key}.a"), _finite(entry["b"], f"{key}.b"))
        except KeyError as exc:
            raise ConfigError(f"indicator actuator missing key {exc}")
        except ValueError as exc:
            raise ConfigError(str(exc))
    if kind == "modes":
        extra = set(entry) - {"kind", "coefficients"}
        if extra:
            raise ConfigError(f"unknown actuator keys {sorted(extra)}")
        coeffs = entry.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("mode actuator needs a nonempty coefficient list")
        return ModeCombination([_finite(c, f"{key}.coefficients") for c in coeffs])
    raise ConfigError(f"unknown actuator kind {kind!r}")


def _parse_initial(entry):
    if not isinstance(entry, dict):
        raise ConfigError("initial must be an object with 'modal' or 'preset'")
    if "modal" in entry:
        extra = set(entry) - {"modal"}
        if extra:
            raise ConfigError(f"unknown initial keys {sorted(extra)}")
        modal = entry["modal"]
        if not isinstance(modal, list) or not modal:
            raise ConfigError("initial.modal must be a nonempty list")
        return tuple(_finite(c, "initial.modal") for c in modal)
    if "preset" in entry:
        extra = set(entry) - {"preset", "amplitude"}
        if extra:
            raise ConfigError(f"unknown initial keys {sorted(extra)}")
        if "amplitude" not in entry:
            raise ConfigError("initial.preset needs an amplitude")
        preset = str(entry["preset"])
        if preset not in _PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; use one of {_PRESETS}")
        return (preset, _finite(entry["amplitude"], "initial.amplitude"))
    raise ConfigError("initial must carry either 'modal' or 'preset'")


def parse_output(doc, prefix):
    """(directory, prefix) from the document's optional `output` object.

    Its keys must be within `directory` (default ".") and `prefix`
    (default: the `prefix` argument).
    """
    output = doc.get("output", {})
    if not isinstance(output, dict) or set(output) - {"directory", "prefix"}:
        raise ConfigError("output must be an object with 'directory' and 'prefix'")
    return str(output.get("directory", ".")), str(output.get("prefix", prefix))


def parse_config(doc):
    """Validate a JSON document (already loaded) into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED - set(doc)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    bc_name = doc["bc"]
    if bc_name not in _BC_NAMES:
        raise ConfigError(f"bc must be one of {sorted(_BC_NAMES)}, got {bc_name!r}")

    lam = _require_number(doc, "lambda", minimum=0.0, strict=True)
    length = _require_number(doc, "length", minimum=0.0, strict=True)
    delta = _require_number(doc, "delta", minimum=0.0) if "delta" in doc else 0.0
    nu = _require_number(doc, "nu", minimum=0.0) if "nu" in doc else 0.0
    ell = (
        math.inf
        if doc.get("ell", "inf") == "inf"
        else _require_number(doc, "ell", minimum=0.0, strict=True)
    )

    if not isinstance(doc["actuators"], list):
        raise ConfigError("actuators must be a list (empty selects boundary actuation)")
    actuators = tuple(_parse_actuator(a, i) for i, a in enumerate(doc["actuators"]))

    poles_raw = doc.get("poles")
    poles = None
    if poles_raw is not None:
        if not isinstance(poles_raw, list) or not poles_raw:
            raise ConfigError("poles must be null or a nonempty list")
        poles = tuple(_finite(p, "poles") for p in poles_raw)

    J = doc["J"]
    if isinstance(J, bool) or not isinstance(J, int) or J < 1:
        raise ConfigError(f"J must be a positive integer, got {J!r}")
    dt = _require_number(doc, "dt", minimum=0.0, strict=True)
    T = _require_number(doc, "T", minimum=0.0)

    initial = _parse_initial(doc["initial"])
    if isinstance(initial[0], float) and len(initial) != J:
        raise ConfigError(f"initial.modal must hold J = {J} coefficients")

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    out_dir, out_prefix = parse_output(doc, "experiment")

    if len(actuators) == 0 and _BC_NAMES[bc_name] != BoundaryCondition.CLAMPED:
        raise ConfigError("boundary actuation (empty actuators) requires clamped bc")
    if len(actuators) == 0 and (delta != 0.0 or nu != 0.0):
        raise ConfigError("boundary actuation supports the linear dynamics only")

    return ExperimentConfig(
        bc=_BC_NAMES[bc_name],
        lam=lam,
        length=length,
        delta=delta,
        nu=nu,
        ell=ell,
        actuators=actuators,
        poles=poles,
        J=J,
        dt=dt,
        T=T,
        initial=initial,
        seed=seed,
        output_dir=out_dir,
        output_prefix=out_prefix,
    )


def read_json(path, what):
    """The JSON document in the file at `path`; a ConfigError names it as `what` otherwise."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


def load_config(path):
    return parse_config(read_json(path, "config"))


def serialize_config(cfg):
    """Canonical JSON document for an ExperimentConfig."""
    actuators = []
    for shape in cfg.actuators:
        if isinstance(shape, Indicator):
            actuators.append({"kind": "indicator", "a": shape.a, "b": shape.b})
        else:
            actuators.append({"kind": "modes", "coefficients": list(shape.coefficients)})
    if isinstance(cfg.initial[0], str):
        initial = {"preset": cfg.initial[0], "amplitude": cfg.initial[1]}
    else:
        initial = {"modal": list(cfg.initial)}
    return {
        "bc": cfg.bc.value,
        "lambda": cfg.lam,
        "length": cfg.length,
        "delta": cfg.delta,
        "nu": cfg.nu,
        "ell": "inf" if math.isinf(cfg.ell) else cfg.ell,
        "actuators": actuators,
        "poles": None if cfg.poles is None else list(cfg.poles),
        "J": cfg.J,
        "dt": cfg.dt,
        "T": cfg.T,
        "initial": initial,
        "seed": cfg.seed,
        "output": {"directory": cfg.output_dir, "prefix": cfg.output_prefix},
    }


def build_eigen(cfg):
    params = OperatorParams(cfg.lam, cfg.length)
    if cfg.bc == BoundaryCondition.CLAMPED:
        return eigen_clamped(params, cfg.J)
    return eigen_closed_form(params, cfg.bc, cfg.J)


def build_modal(cfg, es):
    """Modal system plus the unstable split for this configuration."""
    split = unstable_count(es)
    if cfg.boundary_mode:
        return assemble_boundary(es, split.n), split
    return assemble_internal(es, cfg.actuators, split.n), split
