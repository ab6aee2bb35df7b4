"""Experiment configuration: one JSON document drives every CLI subcommand.

The document decodes (`fields.decode`) into `ExperimentConfig`, one frozen
section per top-level key, whose field defaults are the only defaults; a
mistake raises ConfigError naming the dotted field path ("sources.count").
Builders turn sections into live objects; the random seed only enters
through randomized source placement, keeping a fixed (config, seed) pair
byte-deterministic.
"""

import inspect
import json
from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .calculus import (check_mass, check_samples, check_times, grigoryan_check,
                       heat_kernel_equality_check)
from .errors import ConfigError, FieldError
from .extraction import compare_gelfand, default_time_grid
from .fields import decode, require
from .models import (
    Isometry,
    ObservationSet,
    SpectralModel,
    Window,
    build_model,
    make_manifold,
    node_counts,
)
from .recovery import isometry_gauge_check, ucp_nullspace_test
from .solver import PotentialField, make_source_basis, zero_potential


def _default_of(fn, name: str):
    """The default that the library call `fn` declares for `name`."""
    return inspect.signature(fn).parameters[name].default


@dataclass(frozen=True)
class ModelSection:
    """The manifold ("circle", "torus" with `edges`, "sphere") and truncation K."""

    kind: str
    truncation: int
    radius: Optional[float] = None
    edges: Optional[tuple[float, ...]] = None
    quadrature: Union[tuple[int, ...], int, None] = None

    def __post_init__(self):
        require(self.truncation >= 2, "truncation", "must be >= 2")
        manifold = self.manifold
        if self.quadrature is not None:
            node_counts(self.quadrature, manifold.dimension)

    @property
    def geometry(self) -> dict:
        """The geometry parameters given: `radius`, `edges` or neither."""
        return {name: value for name, value in (("radius", self.radius), ("edges", self.edges))
                if value is not None}

    @property
    def manifold(self):
        """The geometry without eigendata (FieldError for a bad kind, radius or edges)."""
        return make_manifold(self.kind, **self.geometry)


@dataclass(frozen=True)
class HarmonicTerm:
    """amplitude * form(frequency * x[axis] + phase), form "cos" or "sin"."""

    amplitude: float
    form: Literal["cos", "sin"] = "cos"
    frequency: int = 1
    axis: int = 0
    phase: float = 0.0

    def __post_init__(self):
        require(self.frequency >= 1, "frequency", "must be >= 1")


@dataclass(frozen=True)
class PotentialSection:
    """V: "zero", "constant" (`value`) or "harmonic" (the sum of `terms`)."""

    id: Literal["zero", "constant", "harmonic"]
    value: Union[int, float, None] = None  # an int keeps its label: constant(1)
    terms: tuple[HarmonicTerm, ...] = ()

    def __post_init__(self):
        constant, harmonic = self.id == "constant", self.id == "harmonic"
        require((self.value is not None) == constant, "value",
                "missing required field" if constant else "only for a constant potential")
        require(bool(self.terms) == harmonic, "terms",
                "expected a nonempty list" if harmonic else "only for a harmonic potential")


@dataclass(frozen=True)
class SourcesSection:
    """Bump sources inside the window; `make_source_basis` places them."""

    count: int = 1
    radius: Optional[float] = None
    order: int = _default_of(make_source_basis, "order")
    centers: Optional[tuple[Union[tuple[float, ...], float], ...]] = None

    def __post_init__(self):
        require(self.count >= 1, "count", "must be >= 1")
        require(self.radius is None or self.radius > 0, "radius", "must be > 0")
        require(self.order >= 1, "order", "must be >= 1")
        require(self.centers is None or len(self.centers) == self.count, "centers",
                f"expected a list of {self.count} centers, one per source (sources.count)")


@dataclass(frozen=True)
class TimesSection:
    """Heat-trace times: `default_time_grid`, or uniform on [start, stop]."""

    kind: Literal["default", "uniform"] = "default"
    start: Optional[float] = None
    stop: Optional[float] = None
    samples: Optional[int] = None

    def __post_init__(self):
        uniform = self.kind == "uniform"
        for name in ("start", "stop"):
            require((getattr(self, name) is not None) == uniform, name,
                    "missing required field" if uniform else "only for a uniform grid")
        require(not uniform or self.start > 0, "start", "must be > 0")
        require(not uniform or self.stop > self.start, "stop", "must exceed times.start")
        if self.samples is not None:
            check_samples(self.samples)


@dataclass(frozen=True)
class TolerancesSection:
    """Pass thresholds of the subcommands (recover_tol is checked only when set)."""

    solve_residual: float = 1e-10
    eig_rtol: float = _default_of(compare_gelfand, "eig_rtol")
    angle_tol: float = _default_of(compare_gelfand, "angle_tol")
    recover_tol: Optional[float] = None
    gauge_tol: float = _default_of(isometry_gauge_check, "tolerance")
    heat_tol: float = _default_of(heat_kernel_equality_check, "tolerance")

    def __post_init__(self):
        for name, value in vars(self).items():
            require(value is None or value > 0, name, "must be > 0")


@dataclass(frozen=True)
class CompareSection:
    """The two spectral-data files `loglap compare` reads."""

    first: str
    second: str


@dataclass(frozen=True)
class UcpSection:
    node_multiplier: int = _default_of(ucp_nullspace_test, "node_multiplier")
    include_image: bool = _default_of(ucp_nullspace_test, "include_image")

    def __post_init__(self):
        # the certificate needs twice as many sample points as basis columns
        require(self.node_multiplier >= 2, "node_multiplier", "must be >= 2")


@dataclass(frozen=True)
class HeatcheckSection:
    """Kernel-equality times and the point pairs of the Gaussian bound check."""

    times: tuple[float, ...] = (0.05, 0.2, 1.0)
    pairs: int = _default_of(grigoryan_check, "n_pairs")

    def __post_init__(self):
        check_times(self.times)
        require(self.pairs >= 1, "pairs", "must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """A config document: its sections, the decoded window and isometry, and
    the checks that need the manifold."""

    model: ModelSection
    m: float
    potential: PotentialSection = PotentialSection("zero")
    observation: Optional[Window] = None
    sources: SourcesSection = SourcesSection()
    times: TimesSection = TimesSection()
    tolerances: TolerancesSection = TolerancesSection()
    out: Optional[str] = None
    seed: int = 0
    mode: Literal["internal", "blind"] = "internal"
    compare: Optional[CompareSection] = None
    isometry: Optional[Isometry] = None
    ucp: UcpSection = UcpSection()
    heatcheck: HeatcheckSection = HeatcheckSection()

    def __post_init__(self):
        check_mass(self.m)
        require(self.seed >= 0, "seed", "must be >= 0")
        manifold = self.model.manifold
        dim = manifold.dimension
        for i, term in enumerate(self.potential.terms):
            require(0 <= term.axis < dim, f"potential.terms[{i}].axis",
                    f"expected a chart axis in [0, {dim})")
        for i, c in enumerate(self.sources.centers or ()):
            require(len(c) == dim if isinstance(c, tuple) else dim == 1,
                    f"sources.centers[{i}]", f"expected a list of {dim} chart coordinates")
        checks = {"observation": manifold.check_window,  # a foreign or malformed one raises
                  "isometry": lambda iso: manifold.apply_isometry(iso, np.zeros((1, dim)))}
        for name, check in checks.items():
            try:
                if getattr(self, name) is not None:
                    check(getattr(self, name))
            except FieldError as exc:
                raise FieldError(f"{name}.{exc.field}", exc.reason) from exc


def validate_config(raw) -> ExperimentConfig:
    """The config document decoded; ConfigError names the field path."""
    try:
        return decode(ExperimentConfig, raw)
    except FieldError as exc:
        raise ConfigError(exc.field, exc.reason) from exc


def load_config(path, seed: Optional[int] = None) -> ExperimentConfig:
    """Read and validate a config file; `seed`, when given, replaces its seed."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read the config ({exc})") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError("", f"config is not valid JSON ({exc})") from exc
    if seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed}
    return validate_config(raw)


# builders --------------------------------------------------------------------

def config_model(cfg: ExperimentConfig) -> SpectralModel:
    spec = cfg.model
    return build_model(spec.kind, spec.truncation, quadrature=spec.quadrature, **spec.geometry)


def config_potential(cfg: ExperimentConfig) -> PotentialField:
    spec = cfg.potential
    if spec.id == "zero":
        return zero_potential
    if spec.id == "constant":
        return PotentialField(lambda coords: np.full(len(coords), float(spec.value)),
                              label=f"constant({spec.value})")

    def harmonic(coords):
        pts = np.asarray(coords, dtype=float).reshape(len(coords), -1)  # circle: (P,)
        return sum(t.amplitude * (np.cos if t.form == "cos" else np.sin)(
            t.frequency * pts[:, t.axis] + t.phase) for t in spec.terms)

    label = "+".join(f"{t.amplitude}*{t.form}({t.frequency}*x{t.axis})" for t in spec.terms)
    return PotentialField(func=harmonic, label=label)


def config_sources(cfg: ExperimentConfig, model: SpectralModel,
                   obs: ObservationSet) -> list:
    spec = cfg.sources
    return make_source_basis(model, obs, spec.count, radius=spec.radius,
                             order=spec.order, centers=spec.centers, seed=cfg.seed)


def config_times(cfg: ExperimentConfig, model: SpectralModel) -> np.ndarray:
    """The default grid, or a uniform one with as many samples."""
    spec = cfg.times
    grid = default_time_grid(model, cfg.m, samples=spec.samples)
    return grid if spec.kind == "default" else np.linspace(spec.start, spec.stop, grid.size)
