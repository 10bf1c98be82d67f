"""Run configuration: JSON ingestion, unit normalization, defaults.

Every frequency-like quantity in the config carries an explicit unit tag
(GHz | MHz | rad_per_s) and a ``times_2pi`` boolean; ingestion normalizes
everything to angular frequency (rad/s) and the normalized values are echoed
into every output summary so a run can be reproduced from its own metadata.

Decay rates kappa/gamma take the factor 2*pi from the ``bath.rate_convention``
setting instead of their ``times_2pi`` flags: "plain" keeps them as written
(1 MHz -> 1e6 1/s), "angular" multiplies them by 2*pi.  A rate flagged
``times_2pi: true`` is an error, so the flag cannot be silently overridden.

Unknown keys anywhere in the document are errors: a silently ignored typo in
a physics parameter is the main operational hazard this format guards
against.  A document holds no sweep: ``spectrum`` and ``phij`` take theirs
from the ``--sweep`` flag, which sets ``RunConfig.sweep``, and a ``sweep``
key is unknown like any other.

Each wire and circuit key is declared once, in the ``_WIRE_KEYS`` and
``_CIRCUIT_KEYS`` tables, which drive its parse and its echo.  Whether a key is
required, and the default of an omitted one, come from the fields of
``WireParams`` and ``CircuitParams`` alone.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .circuit import CircuitParams
from .wire import WireParams

__all__ = ["ConfigError", "RunConfig", "SweepSpec", "default_config_dict", "load_config"]

SCHEMA_VERSION = 1

_UNIT_SCALE = {"GHz": 1e9, "MHz": 1e6, "rad_per_s": 1.0}

# Largest STEPS of --sweep and curve.steps.  A command holds its grid and
# result arrays in memory, computes them a block of points at a time
# (qcore.BLOCK) and writes one CSV line per grid point.  A 2*10**5-step
# spectrum peaks at 47 MB of resident memory and writes 14 MB (59 MB while
# one root solve covered the whole sweep), and at 10**6 steps a spectrum
# peaks at 113 MB and a gate curve at 72 MB, so the limit stays well below
# a gigabyte.  Larger counts end in a memory error rather than a result
# (10**13 steps would need 80 TB for the grid alone).
MAX_STEPS = 10**6


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _require_keys(section, allowed: set[str], required: set[str], where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _number(value, where: str) -> float:
    """A JSON number as a float; booleans, strings and containers are errors."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _count(value, where: str) -> int:
    """A positive integer; booleans are not counts."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where} must be a positive integer")
    return value


def _frequency(node, where: str, rate_convention: Optional[str] = None) -> float:
    """Normalize a tagged frequency field to rad/s (or 1/s for rates)."""
    _require_keys(node, {"value", "unit", "times_2pi"}, {"value", "unit"}, where)
    unit = node["unit"]
    if not isinstance(unit, str) or unit not in _UNIT_SCALE:
        raise ConfigError(f"{where}: unit must be one of {sorted(_UNIT_SCALE)}, got {unit!r}")
    value = _number(node["value"], f"{where}.value")
    times_2pi = node.get("times_2pi", False)
    if not isinstance(times_2pi, bool):
        raise ConfigError(f"{where}.times_2pi must be true or false")
    if rate_convention is not None:
        if times_2pi:
            raise ConfigError(f"{where}: a rate takes its 2*pi from bath.rate_convention; "
                              "set times_2pi false and bath.rate_convention to 'angular'")
        times_2pi = rate_convention == "angular"
    base = value * _UNIT_SCALE[unit]
    scaled = base * (2.0 * math.pi) if times_2pi else base
    if not math.isfinite(scaled):
        raise ConfigError(f"{where}: {value!r} {unit} overflows a double in rad/s")
    return scaled


# One (config key, field, reader) row per key, in the order the keys are read.
_WIRE_KEYS = (
    ("v_F_m_per_s", "v_F", _number),
    ("L_m", "L", _number),
    ("Delta0", "Delta0", _frequency),
    ("W_m", "W", _number),
    ("T_K", "T", _number),
)
_CIRCUIT_KEYS = (
    ("E_J", "E_J", _frequency),
    ("E_J0", "E_J0", _frequency),
    ("E_c", "E_c", _frequency),
    ("n_g", "n_g", _number),
    ("g", "g", _number),
    ("phi_e_rad", "phi_e", _number),
    ("phi_c_rad", "phi_c", _number),
    ("omega_r", "omega_r", _frequency),
)


def _params(cls, table, section, where: str):
    """Build ``cls`` from a config section described by ``table``."""
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    _require_keys(section, {key for key, _, _ in table},
                  {key for key, name, _ in table if name not in optional}, where)
    try:
        return cls(**{name: read(section[key], f"{where}.{key}")
                      for key, name, read in table if key in section})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _echo(params, table) -> dict:
    """Normalized echo of a section: a frequency under its key plus _rad_per_s."""
    return {key + "_rad_per_s" if read is _frequency else key: getattr(params, name)
            for key, name, read in table}


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("sweep needs at least 1 step")
        if self.steps > MAX_STEPS:
            raise ConfigError(f"--sweep STEPS = {self.steps} exceeds the limit of {MAX_STEPS}")
        # Finiteness first: a NaN bound also fails max > min, but the NaN is
        # what is wrong.
        if not math.isfinite(self.max - self.min):
            raise ConfigError("sweep bounds and their difference must be finite")
        if not self.max > self.min:
            raise ConfigError("sweep requires max > min")

    def values(self) -> np.ndarray:
        step = (self.max - self.min) / self.steps
        return self.min + np.arange(self.steps + 1) * step


@dataclass(frozen=True)
class RunConfig:
    wire: WireParams
    circuit: CircuitParams
    kappa: float
    gamma: float
    rate_convention: str
    k: int
    lambda2_pinned: Optional[float]
    out_dir: str
    formats: tuple[str, ...]
    curve_x_max: float
    curve_steps: int
    sweep: Optional[SweepSpec] = None  # from the --sweep flag; a document has no sweep

    def normalized(self) -> dict:
        """Normalized parameter echo (rad/s everywhere) for output metadata."""
        return {
            "schema_version": SCHEMA_VERSION,
            "wire": _echo(self.wire, _WIRE_KEYS),
            "circuit": {**_echo(self.circuit, _CIRCUIT_KEYS), "eta": self.circuit.eta},
            "bath": {"kappa_per_s": self.kappa, "gamma_per_s": self.gamma,
                     "rate_convention": self.rate_convention},
            "schedule": {"k": self.k, "lambda2_rad_per_s": self.lambda2_pinned},
            "curve": {"x_max": self.curve_x_max, "steps": self.curve_steps},
            "sweep": None if self.sweep is None else asdict(self.sweep),
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }


def default_config_dict() -> dict:
    """Built-in defaults: the device parameters used throughout the study."""
    return {
        "schema_version": SCHEMA_VERSION,
        "wire": {
            "v_F_m_per_s": 1e5,
            "L_m": 5e-6,
            "W_m": 1e-7,
            "T_K": 0.02,
            "Delta0": {"value": 32.0, "unit": "GHz", "times_2pi": True},
        },
        "circuit": {
            "E_J": {"value": 16.0, "unit": "GHz", "times_2pi": True},
            "E_J0": {"value": 160.0, "unit": "GHz", "times_2pi": True},
            "E_c": {"value": 160.0, "unit": "GHz", "times_2pi": True},
            "omega_r": {"value": 6.0, "unit": "GHz", "times_2pi": True},
            "n_g": 0.5,
            "g": 0.01,
            "phi_e_rad": 0.0,
            "phi_c_rad": 0.5,
        },
        "bath": {
            "kappa": {"value": 1.0, "unit": "MHz", "times_2pi": False},
            "gamma": {"value": 1.0, "unit": "MHz", "times_2pi": False},
            "rate_convention": "plain",
        },
        "schedule": {
            "k": 1,
            "lambda2": {"value": 32.0, "unit": "MHz", "times_2pi": True},
        },
        "curve": {"x_max": 1.1, "steps": 44},
        "output": {"directory": "out", "formats": ["csv", "json", "svg"]},
    }


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document into a :class:`RunConfig`.

    A missing required key raises ConfigError.  An omitted ``wire`` or
    ``circuit`` key takes the default of its parameter class, not its
    ``default_config_dict`` value: without ``circuit.phi_c_rad`` the phase is
    0.0, not 0.5.  Without ``schedule.lambda2``, ``gate`` derives lambda2 from
    the device.  An omitted ``bath.rate_convention``, ``curve`` or ``output``
    takes its ``default_config_dict`` value.  The result has no sweep
    (``sweep`` is not a key of the document).
    """
    defaults = default_config_dict()
    _require_keys(
        doc,
        {"schema_version", "wire", "circuit", "bath", "schedule", "curve", "output"},
        {"schema_version", "wire", "circuit", "bath", "schedule"},
        "config document",
    )
    if isinstance(doc["schema_version"], bool) or doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']!r}; expected {SCHEMA_VERSION}"
        )

    wire = _params(WireParams, _WIRE_KEYS, doc["wire"], "wire")
    circuit = _params(CircuitParams, _CIRCUIT_KEYS, doc["circuit"], "circuit")

    b = doc["bath"]
    _require_keys(b, {"kappa", "gamma", "rate_convention"}, {"kappa", "gamma"}, "bath")
    convention = b.get("rate_convention", defaults["bath"]["rate_convention"])
    if convention not in ("plain", "angular"):
        raise ConfigError(f"bath.rate_convention must be 'plain' or 'angular', got {convention!r}")
    kappa = _frequency(b["kappa"], "bath.kappa", rate_convention=convention)
    gamma = _frequency(b["gamma"], "bath.gamma", rate_convention=convention)
    if kappa < 0 or gamma < 0:
        raise ConfigError("bath rates must be non-negative")

    s = doc["schedule"]
    _require_keys(s, {"k", "fock_cutoff", "lambda2"}, {"k"}, "schedule")
    k = _count(s["k"], "schedule.k")
    if "fock_cutoff" in s:
        # The gate's curve is computed without a cavity Hilbert space, so the
        # key of older documents is still checked but no longer used.
        fock = s["fock_cutoff"]
        if not isinstance(fock, int) or fock < 8:
            raise ConfigError("schedule.fock_cutoff must be an integer >= 8")
        warnings.warn("schedule.fock_cutoff is ignored: the gate fidelity is computed "
                      "in closed form, without a Fock cutoff", stacklevel=2)
    lambda2_pinned = None
    if s.get("lambda2") is not None:
        lambda2_pinned = _frequency(s["lambda2"], "schedule.lambda2")
        if lambda2_pinned <= 0:
            raise ConfigError("schedule.lambda2 must be positive when given")

    curve = {} if doc.get("curve") is None else doc["curve"]
    _require_keys(curve, {"x_max", "steps"}, set(), "curve")
    x_max = _number(curve.get("x_max", defaults["curve"]["x_max"]), "curve.x_max")
    steps = _count(curve.get("steps", defaults["curve"]["steps"]), "curve.steps")
    if steps > MAX_STEPS:
        raise ConfigError(f"curve.steps = {steps} exceeds the limit of {MAX_STEPS}")
    if x_max <= 0:
        raise ConfigError("curve.x_max must be positive")

    out = {} if doc.get("output") is None else doc["output"]
    _require_keys(out, {"directory", "formats"}, set(), "output")
    directory = out.get("directory", defaults["output"]["directory"])
    if not isinstance(directory, str):
        raise ConfigError("output.directory must be a string")
    formats = out.get("formats", defaults["output"]["formats"])
    # Every command writes its CSV table and JSON summary; only svg is optional.
    if not (isinstance(formats, list) and all(isinstance(f, str) for f in formats)
            and {"csv", "json"} <= set(formats) <= {"csv", "json", "svg"}):
        raise ConfigError(f"output.formats must list 'csv' and 'json' and may add 'svg', "
                          f"got {formats!r}")

    return RunConfig(
        wire=wire,
        circuit=circuit,
        kappa=kappa,
        gamma=gamma,
        rate_convention=convention,
        k=k,
        lambda2_pinned=lambda2_pinned,
        out_dir=directory,
        formats=tuple(formats),
        curve_x_max=x_max,
        curve_steps=steps,
    )


def _finite_number(text: str) -> float:
    """JSON number hook: NaN, +-Infinity and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} is not allowed in a config file")
    return value


def _finite_int(text: str) -> int:
    """JSON integer hook: the value stays an int but must fit in a double."""
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(
            f"non-finite number: a {len(text)}-digit integer overflows a double") from exc
    return value


def load_config(path: Optional[str] = None) -> RunConfig:
    """Parse the config file at ``path``, or the built-in defaults if None."""
    if path is None:
        return parse_config(default_config_dict())
    try:
        doc = json.loads(
            Path(path).read_text(),
            parse_float=_finite_number,
            parse_int=_finite_int,
            parse_constant=_finite_number,
        )
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
