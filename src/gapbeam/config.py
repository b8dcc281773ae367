"""Flat key=value experiment configuration.

The format is line oriented: one `dotted.path=value` per line, `#` comments,
blank lines ignored.  Lists are comma separated; the damper location is given
as an exact fraction (`beam.xi_num`, `beam.xi_den`) or as a real override
(`beam.xi`), in which case location verdicts report irrational input.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .model import (
    BeamParams,
    ForceLaw,
    NoContact,
    NormalCompliance,
    ParamError,
    SignoriniPenalty,
    TipParams,
)
from .timestep import Laws, SchemeConfig, step_count


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field path."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on: the default sweep.workers."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class InitSpec:
    kind: str = "zero"
    amplitude: float = 1.0
    amplitude_psi: float = 0.0
    mode: int = 1
    center: float | None = None
    width: float | None = None
    radius: float = 1.0


@dataclass(frozen=True)
class SweepSpec:
    eps_pen: tuple[float, ...] = ()
    epsilon: tuple[float, ...] = ()
    xi: tuple[Fraction, ...] = ()
    ne: tuple[int, ...] = ()
    tie_tip: bool = True
    # the rows of a sweep run on up to this many processes (never more than
    # there are rows), by default the usable CPUs; the artifacts do not
    # depend on it
    workers: int = field(default_factory=usable_cpus)


@dataclass(frozen=True)
class ExperimentConfig:
    beam: BeamParams
    tip: TipParams
    contact: object
    force_f: ForceLaw
    force_g: ForceLaw
    ne: int
    scheme: SchemeConfig
    t_final: float
    stride: int = 1
    seed: int = 0
    init: InitSpec = field(default_factory=InitSpec)
    multiplier_n: int | None = None
    sweep: SweepSpec = field(default_factory=SweepSpec)
    snapshot: bool = False

    def laws(self) -> Laws:
        return Laws(contact=self.contact, force_f=self.force_f, force_g=self.force_g)


_REQUIRED = (
    "beam.rho1", "beam.rho2", "beam.k", "beam.b", "beam.ell",
    "beam.gamma1", "beam.gamma2", "mesh.ne", "scheme.dt", "run.t_final",
)

_KNOWN = set(_REQUIRED) | {
    "beam.xi_num", "beam.xi_den", "beam.xi",
    "tip.enabled", "tip.epsilon", "tip.damping_on",
    "contact.kind", "contact.d1", "contact.d2", "contact.p",
    "contact.g_lo", "contact.g_hi", "contact.eps_pen",
    "force_f.mu", "force_f.alpha", "force_f.cutoff_r", "force_f.f0",
    "force_g.mu", "force_g.alpha", "force_g.cutoff_r", "force_g.f0",
    "scheme.newton_tol", "scheme.newton_max",
    "run.stride", "run.seed", "run.snapshot",
    "init.kind", "init.amplitude", "init.amplitude_psi", "init.mode",
    "init.center", "init.width", "init.radius",
    "multiplier.n",
    "sweep.eps_pen", "sweep.epsilon", "sweep.xi", "sweep.ne",
    "sweep.tie_tip", "sweep.workers",
}


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


class _Fields:
    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping

    def _raw(self, key):
        return self.mapping.get(key)

    def get_float(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required field {key}")
            return default
        try:
            return _finite_float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    def get_int(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required field {key}")
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {raw!r}") from exc

    def get_bool(self, key, default):
        raw = self._raw(key)
        if raw is None:
            return default
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: not a boolean: {raw!r}")

    def get_str(self, key, default):
        raw = self._raw(key)
        return default if raw is None else raw

    def get_list(self, key, conv):
        raw = self._raw(key)
        if raw is None or not raw.strip():
            return ()
        try:
            return tuple(conv(part.strip()) for part in raw.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key}: bad list entry: {exc}") from exc

    def get_optional_float(self, key):
        raw = self._raw(key)
        if raw is None or raw.lower() in ("", "none", "off"):
            return None
        return self.get_float(key)


@contextmanager
def _section(name: str, keys: dict[str, str] | None = None):
    """Re-raise a record's ParamError as a ConfigError naming the config key.

    The key of a field is keys[field] when given, else name.field in lower
    case (force_f.cutoff_R is read from force_f.cutoff_r).
    """
    try:
        yield
    except ParamError as exc:
        key = (keys or {}).get(exc.name, f"{name}.{exc.name.lower()}")
        raise ConfigError(f"{key}: {exc}") from exc


def _require(ok: bool, key: str, what: str) -> None:
    if not ok:
        raise ConfigError(f"{key}: {what}")


def _parse_fraction(text: str) -> Fraction:
    if "/" not in text:
        raise ValueError(f"expected num/den fraction, got {text!r}")
    num, den = text.split("/", 1)
    return Fraction(int(num), int(den))


def eps_row_dir(eps_pen: float) -> str:
    """Directory of one sweep-eps row; build_config keeps these distinct."""
    return f"eps_{eps_pen:g}"


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    unknown = sorted(set(mapping) - _KNOWN)
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]}")
    for key in _REQUIRED:
        if key not in mapping:
            raise ConfigError(f"missing required field {key}")
    f = _Fields(mapping)

    xi_num, xi_den = f._raw("beam.xi_num"), f._raw("beam.xi_den")
    xi_real = f.get_optional_float("beam.xi")
    if (xi_num is None) != (xi_den is None):
        raise ConfigError("beam.xi_num and beam.xi_den must be given together")
    if xi_num is not None and xi_real is not None:
        raise ConfigError("beam.xi conflicts with beam.xi_num/beam.xi_den")
    if xi_num is None and xi_real is None:
        raise ConfigError("missing required field beam.xi_num/beam.xi_den (or beam.xi)")
    xi_fraction = None
    if xi_num is not None:
        try:
            xi_fraction = Fraction(int(xi_num), int(xi_den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"beam.xi_num/beam.xi_den: {exc}") from exc

    xi_key = "beam.xi" if xi_fraction is None else "beam.xi_num/beam.xi_den"
    with _section("beam", {"xi": xi_key}):
        beam = BeamParams(
            rho1=f.get_float("beam.rho1"), rho2=f.get_float("beam.rho2"),
            k=f.get_float("beam.k"), b=f.get_float("beam.b"),
            ell=f.get_float("beam.ell"),
            gamma1=f.get_float("beam.gamma1"), gamma2=f.get_float("beam.gamma2"),
            xi_fraction=xi_fraction, xi_real=xi_real,
        )

    with _section("tip"):
        tip = TipParams(
            enabled=f.get_bool("tip.enabled", False),
            epsilon=f.get_float("tip.epsilon", 0.0),
            damping_on=f.get_bool("tip.damping_on", True),
        )

    kind = f.get_str("contact.kind", "none").lower()
    with _section("contact"):
        if kind in ("none", "no_contact"):
            contact = NoContact()
        elif kind in ("normal_compliance", "nc"):
            contact = NormalCompliance(
                d1=f.get_float("contact.d1"), d2=f.get_float("contact.d2"),
                p=f.get_int("contact.p", 1),
                g_lo=f.get_float("contact.g_lo"), g_hi=f.get_float("contact.g_hi"),
            )
        elif kind in ("signorini_penalty", "penalty"):
            contact = SignoriniPenalty(
                eps_pen=f.get_float("contact.eps_pen"),
                g_lo=f.get_float("contact.g_lo"), g_hi=f.get_float("contact.g_hi"),
            )
        else:
            raise ConfigError(f"contact.kind: unknown kind {kind!r}")

    def force(prefix):
        with _section(prefix):
            return ForceLaw(
                mu=f.get_float(f"{prefix}.mu", 0.0),
                alpha=f.get_float(f"{prefix}.alpha", 0.0),
                cutoff_R=f.get_optional_float(f"{prefix}.cutoff_r"),
                f0=f.get_float(f"{prefix}.f0", 0.0),
            )

    with _section("scheme"):
        scheme = SchemeConfig(
            dt=f.get_float("scheme.dt"),
            newton_tol=f.get_float("scheme.newton_tol", 1e-10),
            newton_max=f.get_int("scheme.newton_max", 25),
        )

    init = InitSpec(
        kind=f.get_str("init.kind", "zero"),
        amplitude=f.get_float("init.amplitude", 1.0),
        amplitude_psi=f.get_float("init.amplitude_psi", 0.0),
        mode=f.get_int("init.mode", 1),
        center=f.get_optional_float("init.center"),
        width=f.get_optional_float("init.width"),
        radius=f.get_float("init.radius", 1.0),
    )
    sweep = SweepSpec(
        eps_pen=f.get_list("sweep.eps_pen", _finite_float),
        epsilon=f.get_list("sweep.epsilon", _finite_float),
        xi=f.get_list("sweep.xi", _parse_fraction),
        ne=f.get_list("sweep.ne", int),
        tie_tip=f.get_bool("sweep.tie_tip", True),
        workers=f.get_int("sweep.workers", usable_cpus()),
    )
    _require(init.width is None or init.width > 0.0, "init.width",
             "must be positive")
    _require(init.radius > 0.0, "init.radius", "must be positive")
    _require(all(n >= 2 for n in sweep.ne), "sweep.ne",
             "need at least 2 elements")
    _require(all(0 < x < 1 for x in sweep.xi), "sweep.xi",
             "must lie strictly inside (0, 1)")
    for key, values in (("sweep.xi", sweep.xi), ("sweep.ne", sweep.ne)):
        for i, value in enumerate(values):
            _require(value not in values[:i], key, f"{value} is repeated")
    for key, values in (("sweep.eps_pen", sweep.eps_pen),
                        ("sweep.epsilon", sweep.epsilon)):
        _require(all(v > 0.0 for v in values), key, "must be positive")
    dirs = [eps_row_dir(v) for v in sweep.eps_pen]
    for i, j in enumerate(map(dirs.index, dirs)):
        _require(i == j, "sweep.eps_pen", f"{sweep.eps_pen[j]!r} and "
                 f"{sweep.eps_pen[i]!r} share the row directory {dirs[i]}")
    _require(sweep.workers >= 1, "sweep.workers", "must be >= 1")
    multiplier_n = f.get_int("multiplier.n", 0)
    _require(multiplier_n >= 0, "multiplier.n", "must be >= 0 (0: default)")
    ne = f.get_int("mesh.ne")
    _require(ne >= 2, "mesh.ne", "need at least 2 elements")
    t_final = f.get_float("run.t_final")
    try:
        step_count(t_final, scheme.dt)
    except ValueError as exc:
        raise ConfigError(f"run.t_final: {exc}") from exc
    stride = f.get_int("run.stride", 1)
    _require(stride >= 1, "run.stride", "must be >= 1")

    return ExperimentConfig(
        beam=beam, tip=tip, contact=contact,
        force_f=force("force_f"), force_g=force("force_g"),
        ne=ne, scheme=scheme, t_final=t_final, stride=stride,
        seed=f.get_int("run.seed", 0), init=init,
        multiplier_n=multiplier_n or None,
        sweep=sweep, snapshot=f.get_bool("run.snapshot", False),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    return build_config(parse_mapping(text))
