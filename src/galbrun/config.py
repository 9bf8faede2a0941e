"""Run configuration: flat key = value text files and validation.

The format is deliberately plain: one key per line, '#' comments, commas
for lists. Unknown keys are rejected so typos fail loudly. The metadata
file echoed next to run outputs is itself a loadable config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from galbrun.assembly import AbcVariant
from galbrun.mesh import DuctGeometry
from galbrun.physics import (
    ProfileKind,
    SourceKind,
    SourceSpec,
    TimeProfile,
    well_posedness_margin,
)


class ConfigError(ValueError):
    """Malformed or physically inadmissible configuration."""


class InitKind(str, Enum):
    NONE = "none"
    BUMP = "bump"
    PLANE_PULSE = "plane_pulse"


@dataclass
class RunConfig:
    """Everything a run needs; field names double as config file keys.

    Geometry and grid: R, h are the duct half-length and half-height, nx
    and ny the cell counts. Time stepping derives the step from
    cfl_safety * h_min / (1 + |M|) and snaps it so an integer number of
    steps lands on t_end.

    Flow: M is the mean-flow Mach number (|M| < 1 enforced), s the
    regularization weight on the curl-curl term. min(1, s) > M^2 is the
    sufficient well-posedness regime; outside it the run proceeds with a
    warning.

    Boundaries (abc): "stable" or "naive" absorbing conditions on x = +-R,
    or "none" for a closed box, which requires M = 0.

    Initial data (init_kind): "none" starts from rest; "bump" starts from
    the gradient of a Gaussian bump with zero velocity; "plane_pulse"
    launches an exact downstream-moving y-independent pulse (init_center_y
    is ignored for it).
    """

    # geometry
    R: float = 4.0
    h: float = 1.0
    # discretization
    nx: int = 160
    ny: int = 40
    cfl_safety: float = 0.35
    t_end: float = 2.0
    snapshot_times: tuple[float, ...] = ()
    # flow
    M: float = 0.5
    s: float = 1.0
    # artificial boundary treatment
    abc: str = "stable"
    # source
    source_kind: str = "rotational"
    source_center_x: float = 0.0
    source_center_y: float = 0.0
    source_width: float = 0.25
    source_amplitude: float = 1.0
    time_profile: str = "gaussian_pulse"
    time_t0: float = 0.5
    time_sigma: float = 0.1
    # initial data
    init_kind: str = "none"
    init_center_x: float = 0.0
    init_center_y: float = 0.0
    init_width: float = 0.35
    init_amplitude: float = 1.0
    # output
    out_dir: str = "out"

    def geometry(self) -> DuctGeometry:
        return DuctGeometry(R=self.R, h=self.h)

    def source_spec(self) -> SourceSpec | None:
        if self.source_kind == SourceKind.NONE.value:
            return None
        return SourceSpec(
            kind=SourceKind(self.source_kind),
            center=(self.source_center_x, self.source_center_y),
            width=self.source_width,
            amplitude=self.source_amplitude,
            time_profile=TimeProfile(
                kind=ProfileKind(self.time_profile),
                t0=self.time_t0,
                sigma=self.time_sigma,
            ),
        )

    def validate(self) -> list[str]:
        """Raise ConfigError on hard violations; return soft warnings."""
        # float() accepts nan, inf and overflowing literals such as 1e999;
        # nan passes every range check below and inf most of them.
        for name, value in vars(self).items():
            values = value if name == "snapshot_times" else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{name} must be finite; got {value!r}")
        if self.R <= 0 or self.h <= 0:
            raise ConfigError("R and h must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("nx and ny must be at least 1")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigError("cfl_safety must lie in (0, 1]")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if abs(self.M) >= 1.0:
            raise ConfigError(
                f"M = {self.M} violates the subsonic requirement |M| < 1"
            )
        if self.s < 0:
            raise ConfigError("regularization weight s must be nonnegative")
        for key, kind in (
            ("abc", AbcVariant),
            ("source_kind", SourceKind),
            ("time_profile", ProfileKind),
            ("init_kind", InitKind),
        ):
            value, values = getattr(self, key), [k.value for k in kind]
            if value not in values:
                raise ConfigError(f"unknown {key} {value!r}; one of {', '.join(values)}")
        if self.abc == AbcVariant.NONE and self.M != 0.0:
            # With flow the closed box's end walls feed energy in: sym(Bh) is
            # indefinite there and no boundary term cancels it.
            raise ConfigError(f"abc = none (closed box) needs M = 0; got M = {self.M}")
        if self.source_width <= 0 or self.init_width <= 0 or self.time_sigma <= 0:
            raise ConfigError("source_width, init_width and time_sigma must be positive")
        for ts in self.snapshot_times:
            if ts < 0 or ts > self.t_end + 1e-12:
                raise ConfigError(f"snapshot time {ts} outside [0, t_end]")

        warnings = []
        if well_posedness_margin(self.M, self.s) <= 0:
            warnings.append(
                f"min(1, s) = {min(1.0, self.s)} does not exceed M^2 = {self.M ** 2}: "
                "outside the sufficient well-posedness regime, expect instability"
            )
        if self.s != 1.0 and self.abc != "none":
            warnings.append(
                "absorbing boundary analysis assumes s = 1; this run is experimental"
            )
        return warnings


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELD_TYPES[key]
    raw = raw.strip()
    if f.type in ("float", float):
        return float(raw)
    if f.type in ("int", int):
        return int(raw)
    if key == "snapshot_times":
        if not raw:
            return ()
        return tuple(float(tok) for tok in raw.split(","))
    return raw


def parse_config_text(text: str) -> RunConfig:
    kwargs = {}
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            unknown.append(key)
            continue
        if key in kwargs:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        try:
            kwargs[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file. Warnings are re-derivable via
    RunConfig.validate(); hard violations raise ConfigError."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = parse_config_text(text)
    cfg.validate()
    return cfg


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: RunConfig, header_comments: tuple[str, ...] = ()) -> str:
    """Canonical echo; parsing it back reproduces the config exactly."""
    lines = [f"# {c}" for c in header_comments]
    for f in dataclasses.fields(RunConfig):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
