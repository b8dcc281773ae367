"""Flat key=value experiment configuration.

The format is line oriented: one `dotted.path=value` per line, `#` comments,
blank lines ignored.  Lists are comma separated; the damper location of a
run is the exact fraction `beam.xi_num` / `beam.xi_den` of the length, and
sweep-xi takes its locations from `sweep.xi` instead.

The parameter records are the schema: key `section.field` sets that field,
parsed by its annotation (numbers finite, booleans true or false), and an
absent key keeps the record's default, the only way to a None.  A record's
__post_init__ checks its fields; its ParamError names the key.
`tip.epsilon` is the number epsilon >= 0 that the tip body adds to the mass,
damping and stiffness of the end deflection; its default 0 is no body, the
traction-free end.  `contact.kind` picks the stop law: none for no law,
normal_compliance (contact.d1, d2, p, g_lo, g_hi), or signorini_penalty
(contact.eps_pen, g_lo, g_hi), the same record read with p = 1 and
d1 = d2 = 1/contact.eps_pen given.

Every key is read once, and the reads are the only list of keys: a key that
nothing reads, such as a stop-law key the chosen contact.kind does not take,
is a ConfigError, reported after any bad value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .model import (
    BeamParams,
    ForceLaw,
    InitSpec,
    Laws,
    NormalCompliance,
    ParamError,
    SchemeConfig,
    penalty_stiffness,
    step_count,
)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field path."""


@dataclass(frozen=True)
class SweepSpec:
    eps_pen: tuple[float, ...] = ()
    epsilon: tuple[float, ...] = ()
    xi: tuple[Fraction, ...] = ()
    ne: tuple[int, ...] = ()

    def __post_init__(self):
        if not all(n >= 2 for n in self.ne):
            raise ParamError("ne", "need at least 2 elements")
        for name in ("xi", "ne", "eps_pen", "epsilon"):
            values = getattr(self, name)
            for i, j in enumerate(map(values.index, values)):
                if i != j:
                    raise ParamError(name, f"{values[i]} is repeated")
        for eps_pen in self.eps_pen:  # each row's law has stiffness 1/eps_pen
            penalty_stiffness(eps_pen)
        if not all(v > 0.0 for v in self.epsilon):
            raise ParamError("epsilon", "must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    beam: BeamParams
    contact: NormalCompliance | None
    force_f: ForceLaw
    force_g: ForceLaw
    ne: int
    scheme: SchemeConfig
    t_final: float
    # the tip body's epsilon: its mass, damping and stiffness; 0 is no body
    tip: float = 0.0
    stride: int = 1
    init: InitSpec = field(default_factory=InitSpec)
    multiplier_n: int = 0
    sweep: SweepSpec = field(default_factory=SweepSpec)
    snapshot: bool = False

    def __post_init__(self):
        if self.tip < 0.0:
            raise ParamError("tip", "epsilon must be nonnegative")
        if self.multiplier_n < 0:
            raise ParamError("multiplier_n", "must be >= 0 (0: default)")
        # the multiplier exp(n x) must stay finite up to x = ell
        n_max = math.log(sys.float_info.max) / self.beam.ell
        if self.multiplier_n > n_max:
            raise ParamError("multiplier_n", f"must be at most {n_max:.6g} "
                             "(n * beam.ell <= log of the largest float)")
        if self.ne < 2:
            raise ParamError("ne", "need at least 2 elements")
        if self.stride < 1:
            raise ParamError("stride", "must be >= 1")

    def laws(self) -> Laws:
        return Laws(contact=self.contact, force_f=self.force_f, force_g=self.force_g)


def parse_mapping(text: str) -> dict[str, str]:
    """Raw key=value pairs from config text; duplicate keys are an error."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        out[key] = value
    return out


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def _parse_fraction(text: str) -> Fraction:
    if "/" not in text:
        raise ValueError(f"expected num/den fraction, got {text!r}")
    num, den = text.split("/", 1)
    return Fraction(int(num), int(den))


def _list(conv):
    def parse(text: str) -> tuple:
        if not text.strip():
            return ()
        try:
            return tuple(conv(part.strip()) for part in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad list entry: {exc}") from exc
    return parse


# the parser of a value, by the annotation of the field it sets
_PARSERS = {
    "float": _finite_float, "float | None": _finite_float, "int": _int,
    "bool": _bool, "str": str,
    "tuple[float, ...]": _list(_finite_float), "tuple[int, ...]": _list(int),
    "tuple[Fraction, ...]": _list(_parse_fraction),
}


def _get(mapping: dict[str, str], key: str, parse, default=MISSING):
    """Take key out of mapping and parse its value; default when it is absent
    (required if none)."""
    raw = mapping.pop(key, None)
    if raw is None:
        if default is MISSING:
            raise ConfigError(f"missing required field {key}")
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _record(cls, section: str, mapping: dict[str, str], keys=None, **given):
    """A cls whose fields not given are read from their keys: keys[field], else
    section.field.  A ParamError of cls becomes a ConfigError naming the key."""
    def key(name):
        return (keys or {}).get(name, f"{section}.{name}")

    for f in fields(cls):
        if f.name not in given and (
                key(f.name) in mapping
                or f.default is MISSING and f.default_factory is MISSING):
            given[f.name] = _get(mapping, key(f.name), _PARSERS[f.type])
    try:
        return cls(**given)
    except ParamError as exc:
        raise ConfigError(f"{key(exc.name)}: {exc}") from exc


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    mapping = dict(mapping)  # each read takes its key out of this copy

    beam = _record(BeamParams, "beam", mapping)

    kind = _get(mapping, "contact.kind", str, "none")
    if kind == "none":
        contact = None
    elif kind == "normal_compliance":
        contact = _record(NormalCompliance, "contact", mapping)
    elif kind == "signorini_penalty":
        d = _get(mapping, "contact.eps_pen",
                 lambda text: penalty_stiffness(_finite_float(text)))
        contact = _record(NormalCompliance, "contact", mapping, d1=d, d2=d, p=1)
    else:
        raise ConfigError(f"contact.kind: unknown kind {kind!r}")

    # the horizon against a positive dt, before SchemeConfig's check of dt:
    # a horizon that overflows in steps is named first
    t_final = _get(mapping, "run.t_final", _finite_float)
    dt = _get(mapping, "scheme.dt", _finite_float)
    if dt > 0.0:
        try:
            step_count(t_final, dt)
        except ValueError as exc:
            raise ConfigError(f"run.t_final: {exc}") from exc
    config = _record(
        ExperimentConfig, "run", mapping,
        {"ne": "mesh.ne", "multiplier_n": "multiplier.n", "tip": "tip.epsilon"},
        t_final=t_final, beam=beam, contact=contact,
        force_f=_record(ForceLaw, "force_f", mapping),
        force_g=_record(ForceLaw, "force_g", mapping),
        scheme=_record(SchemeConfig, "scheme", mapping, dt=dt),
        init=_record(InitSpec, "init", mapping, {"seed": "run.seed"}),
        sweep=_record(SweepSpec, "sweep", mapping),
    )
    # each sweep-xi row's beam, whose float position must lie inside too
    for frac in config.sweep.xi:
        try:
            replace(beam, xi_num=frac.numerator, xi_den=frac.denominator)
        except ParamError as exc:
            raise ConfigError(f"sweep.xi: {exc}") from exc
    if mapping:
        key = min(mapping)
        if key.startswith("contact."):
            raise ConfigError(f"{key}: not read by contact.kind = {kind}")
        raise ConfigError(f"unknown field {key}")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    return build_config(parse_mapping(text))
