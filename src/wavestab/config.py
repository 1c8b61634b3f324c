"""Experiment configuration: flat INI files -> validated run ingredients.

Sections: ``[model]`` (family, coefficients, grid), ``[controller]``
(variant and its parameters), ``[initial]`` (named profiles), ``[time]``
(stepper), ``[analysis]`` (fit window and safety factor).  Anything
malformed, and any section or key not in :data:`KEYS`, raises
:class:`ConfigError` carrying the section/key context so the CLI can exit
with a usage error.

:func:`step_gate` decides the explicit feedback's step limit, r < 1, and
warns where r < 1 does not bound the step; the CLI prints what it decides.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .analysis import check_window
from .controllers import (
    ControllerSpec,
    FourierModes,
    GainReport,
    NoControl,
    Nodal,
    SubdomainControl,
    VolumeElements,
    certificate,
    feedback_law,
)
from .grid import BoundaryCondition, Field, Grid1D, make_grid, zeros
from .integrator import StepperConfig, default_dt
from .models import Family, ModelSpec
from .spectral import Subdomain, sine_mode, trig_table


# the [analysis] defaults: the fit window as fractions of t_end, and the
# share of the certified rate a run must reach
DEFAULT_FIT_WINDOW = (0.2, 0.9)
DEFAULT_SAFETY = 0.8

# the keys each section knows (lower case, as configparser reads them); a key
# another family or law does not use is accepted, any other is an error
KEYS = {
    "model": ("family", "l", "n_cells", "nu", "a", "b", "bc", "nonlinearity", "p", "m"),
    "controller": ("variant", "mu", "n", "obs_points", "act_points", "omega_lo", "omega_hi"),
    "initial": ("u0", "u1", "u0_amplitude", "u1_amplitude"),
    "time": ("t_end", "dt", "record_every"),
    "analysis": ("safety", "window_lo", "window_hi"),
}

# the [controller] variant names of the feedback laws
LAWS = {
    "none": NoControl,
    "volume": VolumeElements,
    "fourier": FourierModes,
    "nodal": Nodal,
    "subdomain": SubdomainControl,
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def finite_float(text: str) -> float:
    """``float(text)``, with infinities and NaN refused like unparsable text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Grid1D
    model: ModelSpec
    controller: ControllerSpec
    u0: Field
    u1: Field
    stepper: StepperConfig
    window: tuple[float, float]  # the fit window (lo, hi), resolved against t_end
    safety: float
    raw: dict

    @cached_property
    def step_ratio(self) -> float:
        """r = dt^2 (lambda - a)/4 at the configured dt: :meth:`ratio_at` ``stepper.dt``."""
        return self.ratio_at(self.stepper.dt)

    @cached_property
    def gain_report(self) -> Optional[GainReport]:
        """The pair's gain report, once per config (None if uncertified); a failed check is a ``[controller]`` error."""
        cert = certificate(self.model, self.controller)
        try:
            return cert.gains(self.grid, self.model, self.controller) if cert is not None else None
        except ValueError as exc:
            raise ConfigError(f"[controller] {exc}") from None

    def ratio_at(self, dt: float) -> float:
        """r = dt^2 (lambda - a)/4 at step ``dt``, with lambda the ``stiffness`` of :func:`feedback_law`.

        The IMEX step takes the feedback and ``a*u`` explicitly; it is
        stable, and its modified energy positive, while r < 1, and the
        physical energy can exceed the modified one by 1/(1 - r).  That
        holds for a law that actuates through the adjoint of its
        observation; for one that does not, r < 1 is only necessary.
        """
        return dt**2 * (feedback_law(self.controller, self.grid).stiffness - self.model.a) / 4.0

    @property
    def variant(self) -> str:
        return next(name for name, law in LAWS.items() if law is type(self.controller))


# ---------------------------------------------------------------------------
# initial profiles
# ---------------------------------------------------------------------------

_PROFILE_CALL = re.compile(r"^(mode|bump|random)\s*\(\s*([^)]*?)\s*\)$")
_PROFILE_SPACE = re.compile(r"^mode\s+(\S+)$")


def parse_profile(text: str) -> tuple[str, tuple[float, ...]]:
    """Parse ``zero``, ``mode K``, ``bump(center,width)``, ``random(seed,degree)``."""
    t = text.strip().lower()
    if t in ("zero", "0"):
        return ("zero", ())
    m = _PROFILE_SPACE.match(t)
    if m:
        t = f"mode({m.group(1)})"
    m = _PROFILE_CALL.match(t)
    if not m:
        raise ConfigError(f"unrecognized profile {text!r}")
    kind = m.group(1)
    try:
        args = tuple(finite_float(s) for s in m.group(2).split(",")) if m.group(2) else ()
    except ValueError:
        raise ConfigError(f"profile {text!r} needs finite numeric arguments") from None
    expected = {"mode": 1, "bump": 2, "random": 2}[kind]
    if len(args) != expected:
        raise ConfigError(f"profile {kind!r} takes {expected} argument(s), got {len(args)}")
    return (kind, args)


def build_profile(grid: Grid1D, text: str, amplitude: float, key: str = "u0") -> Field:
    """Realize a named profile on the grid, scaled by ``amplitude``; the text is checked at any amplitude.

    A scaled profile that is not finite is a :class:`ConfigError` naming
    ``key``, the ``[initial]`` key that holds the profile, and its amplitude key.
    """
    kind, args = parse_profile(text)
    if kind == "zero":
        return zeros(grid)
    x = grid.nodes
    with np.errstate(over="ignore"):  # an overflow is refused below, by key, not warned about
        if kind == "mode":
            k = int(args[0])
            lowest = 1 if grid.bc is BoundaryCondition.DIRICHLET else 0
            # the nodes resolve n_nodes modes; any higher one aliases onto these
            if k != args[0] or not lowest <= k < lowest + grid.n_nodes:
                raise ConfigError(f"invalid mode index {args[0]} on {grid.n_cells} cells")
            if grid.bc is BoundaryCondition.DIRICHLET:
                vals = sine_mode(grid, k)
            else:
                vals = np.cos(k * np.pi * x / grid.L)
        elif kind == "bump":
            center, width = args
            if width <= 0.0:
                raise ConfigError(f"bump width must be positive, got {width}")
            vals = np.exp(-(((x - center) / width) ** 2))
        else:  # random trigonometric polynomial
            # a degree of n_cells or more aliases onto lower modes
            if any(a != int(a) for a in args) or args[0] < 0 or not 1 <= args[1] < grid.n_cells:
                need = f"an integer seed >= 0 and an integer degree in [1, n_cells = {grid.n_cells})"
                raise ConfigError(f"profile {text!r} needs {need}")
            seed, degree = int(args[0]), int(args[1])
            rng = np.random.default_rng([seed, 0])
            vals = np.zeros_like(x)
            for row in trig_table(grid, degree):  # one coefficient per row, summed in row order
                vals += rng.uniform(-1.0, 1.0) * row
        if amplitude == 0.0:
            return zeros(grid)
        vals = amplitude * vals
    if not np.isfinite(vals).all():
        raise ConfigError(f"[initial] {key} = {text!r} times {key}_amplitude = {amplitude!r} is not finite")
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# INI loading
# ---------------------------------------------------------------------------

class _Section:
    """Typed accessors over one INI section with error context."""

    def __init__(self, name: str, section: dict):
        self.name = name
        self.section = section

    def _get(self, key, conv, default, required):
        if key not in self.section:
            if required:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        raw = self.section[key]
        try:
            return conv(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a valid value") from None

    def float(self, key, default=None, required=False):
        return self._get(key, finite_float, default, required)

    def int(self, key, default=None, required=False):
        def conv(s):
            v = finite_float(s)
            if v != int(v):
                raise ValueError
            return int(v)

        return self._get(key, conv, default, required)

    def str(self, key, default=None, required=False):
        return self._get(key, lambda s: s.strip(), default, required)

    def floats(self, key):
        raw = self.str(key)
        if raw is None:
            return None
        try:
            return tuple(finite_float(s) for s in raw.split(","))
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} must be a comma-separated list") from None


def _load_ini(path: str) -> dict:
    """The file's sections, each a dict of its keys' (interpolated) text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
        raw = {name: dict(parser[name]) for name in parser.sections()}  # interpolation can fail
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    for name, section in raw.items():
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in section:
            if key not in KEYS[name]:
                raise ConfigError(f"[{name}] unknown key {key!r}")
    return raw


def _build_model(sec: _Section) -> tuple[ModelSpec, Grid1D]:
    family = sec.str("family", required=True).lower()
    L = sec.float("l", required=True)
    n_cells = sec.int("n_cells", required=True)
    nu = sec.float("nu", 1.0)
    a = sec.float("a", 0.0)
    b = sec.float("b", required=True)
    bc = sec.str("bc", "dirichlet").lower()
    try:
        family = Family(family)
    except ValueError:
        raise ConfigError(f"[model] unknown family {family!r}") from None
    # only the damped wave reads its source law; the other two families hard-wire the power law
    law = sec.str("nonlinearity", "zero").lower() if family is Family.DAMPED_WAVE else "power"
    if law not in ("zero", "power"):
        raise ConfigError(f"[model] nonlinearity must be 'zero' or 'power', got {law!r}")
    p = sec.float("p", required=True) if law == "power" else None
    m = sec.float("m", required=True) if family is Family.NONLINEAR_DAMPING else None
    try:
        model = ModelSpec(family, nu, a, b, BoundaryCondition(bc), p, m)
        grid = make_grid(L, n_cells, model.bc)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None
    return model, grid


def build_controller(section: dict, grid: Grid1D) -> ControllerSpec:
    """The law a ``[controller]`` section's text names, built on ``grid``.

    The law is built now, so a bc, alignment or resolution problem is a
    config error.  ``load_config`` and each sweep member parse their
    section here.
    """
    sec = _Section("controller", section)
    variant = sec.str("variant", "none").lower()
    law = LAWS.get(variant)
    if law is None:
        raise ConfigError(f"[controller] unknown variant {variant!r}")
    try:
        if law is NoControl:
            controller = NoControl()
        else:
            mu = sec.float("mu", required=True)
            if law is Nodal:
                controller = Nodal(
                    sec.int("n", required=True),
                    mu,
                    obs_points=sec.floats("obs_points"),
                    act_points=sec.floats("act_points"),
                )
            elif law is SubdomainControl:
                lo, hi = sec.float("omega_lo", required=True), sec.float("omega_hi", required=True)
                controller = SubdomainControl(Subdomain(lo, hi), mu)
            else:
                controller = law(sec.int("n", required=True), mu)
        feedback_law(controller, grid)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[controller] {exc}") from None
    return controller


def step_gate(cfg: ExperimentConfig, member: str = "") -> Optional[str]:
    """Refuse, warn about or pass the step ratio r = ``cfg.step_ratio`` of a config about to step.

    A config with no step, or with r <= 0.9, passes (None).  r >= 1 is a
    :class:`ConfigError` before any step; otherwise the result is one
    ``warning:`` line.  Both, led by ``member``, name the largest dt that
    divides t_end and passes this gate.  A law that does not actuate
    through the adjoint of its observation is warned about at any r < 1
    instead, as r < 1 does not bound its step.  ``load_config`` does not
    call this: a sweep gates its members, not the INI's own law, which no
    member runs.
    """
    r, stepper = cfg.step_ratio, cfg.stepper
    if stepper.n_steps == 0:
        return None
    if r < 1.0 and not feedback_law(cfg.controller, cfg.grid).adjoint:
        return (
            f"warning: {member}dt = {stepper.dt!r} gives r = dt^2 (lambda - a)/4 = {r:.6g} < 1, which is"
            " necessary but does not bound this law's step: its actuation is not the adjoint of its"
            " observation, so the step can grow at any r"
        )
    if r <= 0.9:
        return None
    # the fewest steps n with r(t_end/n) < 1, by bisection on r itself, which
    # does not rise with n: r(t_end/lo) >= 1 (or lo = 0) and r(t_end/hi) < 1
    t_end, lo, hi = stepper.t_end, 0, stepper.n_steps
    while cfg.ratio_at(t_end / hi) >= 1.0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if cfg.ratio_at(t_end / mid) >= 1.0 else (lo, mid)
    largest = f"the largest dt that divides t_end with r < 1 is dt = {t_end:g}/{hi} = {t_end / hi!r}"
    if r >= 1.0:
        raise ConfigError(
            f"[time] {member}step ratio r = dt^2 (lambda - a)/4 = {r!r} >= 1 at dt = {stepper.dt!r}: "
            f"past the explicit feedback's limit the step is unstable; {largest}"
        )
    return (
        f"warning: {member}dt = {stepper.dt!r} gives r = dt^2 (lambda - a)/4 = {r:.6g}, near the explicit"
        f" feedback's limit r = 1: the energy can exceed the step's modified energy by the factor"
        f" 1/(1 - r) = {1.0 / (1.0 - r):.6g}; {largest}"
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment INI file."""
    raw = _load_ini(path)
    for required in ("model", "time"):
        if required not in raw:
            raise ConfigError(f"config is missing the [{required}] section")

    model, grid = _build_model(_Section("model", raw["model"]))
    controller = build_controller(raw.get("controller", {}), grid)

    init_sec = _Section("initial", raw.get("initial", {}))
    u0 = build_profile(grid, init_sec.str("u0", "zero"), init_sec.float("u0_amplitude", 1.0), "u0")
    u1 = build_profile(grid, init_sec.str("u1", "zero"), init_sec.float("u1_amplitude", 1.0), "u1")

    time_sec = _Section("time", raw["time"])
    t_end = time_sec.float("t_end", required=True)
    dt = time_sec.float("dt")
    if dt is None:
        # the largest step up to the default that divides t_end
        dt = default_dt(grid)
        if math.isfinite(t_end) and t_end > 0.0:
            dt = t_end / math.ceil(t_end / dt)
    record_every = time_sec.int("record_every", 0)
    try:
        stepper = StepperConfig(dt=dt, t_end=t_end)
        stepper = replace(stepper, record_every=record_every or max(1, stepper.n_steps // 2000))
    except ValueError as exc:
        raise ConfigError(f"[time] {exc}") from None

    an_sec = _Section("analysis", raw.get("analysis", {}))
    safety = an_sec.float("safety", DEFAULT_SAFETY)
    if not 0.0 < safety <= 1.0:
        raise ConfigError(f"[analysis] safety must be in (0, 1], got {safety}")
    lo = an_sec.float("window_lo", DEFAULT_FIT_WINDOW[0] * t_end)
    hi = an_sec.float("window_hi", DEFAULT_FIT_WINDOW[1] * t_end)
    if t_end > 0.0 and not (0.0 <= lo < hi and lo < t_end):
        raise ConfigError(
            f"[analysis] fit window ({lo!r}, {hi!r}) needs 0 <= lo < hi and lo < t_end = {t_end!r}"
        )

    cfg = ExperimentConfig(grid=grid, model=model, controller=controller, u0=u0, u1=u1,
                           stepper=stepper, window=(lo, hi), safety=safety, raw=raw)
    if t_end > 0.0 and cfg.gain_report is not None:
        # a record cadence that leaves the check's window too few records is refused before the run
        kind, t = cfg.gain_report.kind, stepper.record_steps * stepper.dt
        window, need = check_window(kind, cfg.window, t[-1])
        count = int(np.count_nonzero((window[0] <= t) & (t <= window[1])))
        if count < need:
            check = "power-law check" if kind == "polynomial" else "decay fit"
            raise ConfigError(
                f"[time] only {count} of the {t.size} records (record_every = {stepper.record_every}) "
                f"fall in the {check}'s window ({window[0]!r}, {window[1]!r}); need at least {need}"
            )
    return cfg


def gain_report_for(cfg: ExperimentConfig) -> Optional[GainReport]:
    """The configured pair's gain report, :attr:`ExperimentConfig.gain_report`."""
    return cfg.gain_report
