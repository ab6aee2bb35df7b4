"""Experiment configuration: one JSON document drives every CLI subcommand.

Validation reports dotted field paths ("model.kind", "sources.count") so a
batch failure names the offending entry. Builders turn validated sections
into live objects; the random seed only enters through randomized source
placement, keeping a fixed (config, seed) pair byte-deterministic.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FieldError, LoglapError, PreconditionError
from .extraction import default_time_grid
from .models import (
    ISOMETRIES,
    ObservationSet,
    SpectralModel,
    build_model,
    from_fields,
    make_manifold,
    restrict_to_observation,
)
from .solver import PotentialField, make_source_basis, zero_potential


class ConfigError(LoglapError):
    """Invalid configuration; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class ExperimentConfig:
    model: dict
    m: float
    potential: dict = field(default_factory=lambda: {"id": "zero"})
    observation: Optional[dict] = None
    sources: dict = field(default_factory=lambda: {"count": 1})
    times: Optional[dict] = None
    tolerances: dict = field(default_factory=dict)
    out: Optional[str] = None
    seed: int = 0
    mode: str = "internal"
    compare: Optional[dict] = None
    isometry: Optional[dict] = None
    ucp: dict = field(default_factory=dict)
    heatcheck: dict = field(default_factory=dict)


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}{key}", "missing required field")
    return cfg[key]


def _number(value, path: str, *, minimum=None, strict=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, found {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, found {value!r}")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(path, f"must be {op} {minimum}")
    return v


def _integer(value, path: str, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, found {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _list(value, path: str, item, **bounds) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a nonempty list, found {value!r}")
    return [item(v, f"{path}[{i}]", **bounds) for i, v in enumerate(value)]


def _centers(centers, count: int, dim: int) -> None:
    """One center per source: `dim` chart coordinates (a bare number if dim is 1)."""
    if not isinstance(centers, list) or len(centers) != count:
        raise ConfigError("sources.centers", f"expected a list of {count} centers, "
                                             "one per source (sources.count)")
    for i, c in enumerate(centers):
        path = f"sources.centers[{i}]"
        if isinstance(c, list) and len(c) == dim:
            _list(c, path, _number)
        elif dim == 1 and not isinstance(c, list):
            _number(c, path)
        else:
            raise ConfigError(path, f"expected a list of {dim} chart coordinates")


@contextmanager
def _field_errors(section: str):
    """Report the model layer's argument errors under the config section."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError(f"{section}.{exc.field}", exc.reason) from exc
    except PreconditionError as exc:
        raise ConfigError(section, str(exc)) from exc


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config document must be a mapping")

    model = _require(raw, "model", "")
    if not isinstance(model, dict):
        raise ConfigError("model", "must be a mapping")
    kind = _require(model, "kind", "model.")
    _integer(_require(model, "truncation", "model."), "model.truncation", minimum=2)
    if "radius" in model:
        _number(model["radius"], "model.radius", minimum=0.0, strict=True)
    if "edges" in model:
        _list(model["edges"], "model.edges", _number, minimum=0.0, strict=True)
    with _field_errors("model"):
        manifold = make_manifold(kind, **{k: model[k] for k in ("radius", "edges")
                                          if k in model})
    quadrature = model.get("quadrature")
    if isinstance(quadrature, list) and len(quadrature) != manifold.dimension:
        raise ConfigError("model.quadrature", f"expected {manifold.dimension} entries, one per chart axis")
    if isinstance(quadrature, list):
        _list(quadrature, "model.quadrature", _integer, minimum=1)
    elif quadrature is not None:
        _integer(quadrature, "model.quadrature", minimum=1)

    m = _number(_require(raw, "m", ""), "m", minimum=1.0, strict=True)

    potential = raw.get("potential", {"id": "zero"})
    if not isinstance(potential, dict) or "id" not in potential:
        raise ConfigError("potential.id", "missing required field")
    if potential["id"] not in ("zero", "constant", "harmonic"):
        raise ConfigError("potential.id", f"unknown potential {potential['id']!r}")
    if potential["id"] == "constant":
        _number(_require(potential, "value", "potential."), "potential.value")
    if potential["id"] == "harmonic":
        terms = _require(potential, "terms", "potential.")
        if not isinstance(terms, list) or not terms:
            raise ConfigError("potential.terms", "expected a nonempty list")
        for i, term in enumerate(terms):
            p = f"potential.terms[{i}]."
            if not isinstance(term, dict):
                raise ConfigError(p[:-1], "expected a mapping")
            if term.get("form", "cos") not in ("cos", "sin"):
                raise ConfigError(p + "form", "expected 'cos' or 'sin'")
            _number(_require(term, "amplitude", p), p + "amplitude")
            _number(term.get("phase", 0.0), p + "phase")
            _integer(term.get("frequency", 1), p + "frequency", minimum=1)
            if _integer(term.get("axis", 0), p + "axis", minimum=0) >= manifold.dimension:
                raise ConfigError(p + "axis",
                                  f"expected a chart axis in [0, {manifold.dimension})")

    observation = raw.get("observation")
    if observation is not None:
        if not isinstance(observation, dict):
            raise ConfigError("observation", "must be a mapping")
        with _field_errors("observation"):
            manifold.check_window(from_fields(observation, (manifold.window,)))

    sources = raw.get("sources", {"count": 1})
    if not isinstance(sources, dict):
        raise ConfigError("sources", "must be a mapping")
    count = _integer(sources.get("count", 1), "sources.count", minimum=1)
    if "radius" in sources:
        _number(sources["radius"], "sources.radius", minimum=0.0, strict=True)
    if "order" in sources:
        _integer(sources["order"], "sources.order", minimum=1)
    if "centers" in sources:
        _centers(sources["centers"], count, manifold.dimension)

    times = raw.get("times")
    if times is not None:
        if not isinstance(times, dict):
            raise ConfigError("times", "must be a mapping")
        tkind = times.get("kind", "default")
        if tkind not in ("default", "uniform"):
            raise ConfigError("times.kind", f"unknown grid kind {tkind!r}")
        if tkind == "uniform":
            start = _number(_require(times, "start", "times."), "times.start",
                            minimum=0.0, strict=True)
            stop = _number(_require(times, "stop", "times."), "times.stop")
            if stop <= start:
                raise ConfigError("times.stop", "must exceed times.start")
        if "samples" in times:
            _integer(times["samples"], "times.samples", minimum=2)

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances", "must be a mapping")
    for key, value in tolerances.items():
        _number(value, f"tolerances.{key}", minimum=0.0, strict=True)

    seed = raw.get("seed", 0)
    _integer(seed, "seed", minimum=0)

    mode = raw.get("mode", "internal")
    if mode not in ("internal", "blind"):
        raise ConfigError("mode", f"expected 'internal' or 'blind', found {mode!r}")

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", "expected a directory path string")

    compare = raw.get("compare")
    if compare is not None:
        if not isinstance(compare, dict):
            raise ConfigError("compare", "must be a mapping")
        _require(compare, "first", "compare.")
        _require(compare, "second", "compare.")

    isometry = raw.get("isometry")
    if isometry is not None:
        if not isinstance(isometry, dict):
            raise ConfigError("isometry", "must be a mapping")
        with _field_errors("isometry"):  # a foreign or malformed isometry raises
            manifold.apply_isometry(from_fields(isometry, manifold.isometries),
                                    np.zeros((1, manifold.dimension)))

    ucp = raw.get("ucp", {})
    if not isinstance(ucp, dict):
        raise ConfigError("ucp", "must be a mapping")
    if "node_multiplier" in ucp:
        _integer(ucp["node_multiplier"], "ucp.node_multiplier", minimum=1)

    heatcheck = raw.get("heatcheck", {})
    if not isinstance(heatcheck, dict):
        raise ConfigError("heatcheck", "must be a mapping")

    return ExperimentConfig(model=model, m=m, potential=potential,
                            observation=observation, sources=sources,
                            times=times, tolerances=tolerances, out=out,
                            seed=seed, mode=mode, compare=compare,
                            isometry=isometry, ucp=ucp, heatcheck=heatcheck)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config is not valid JSON ({exc})") from exc
    return validate_config(raw)


# builders --------------------------------------------------------------------

def config_model(cfg: ExperimentConfig) -> SpectralModel:
    spec = cfg.model
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()
              if k in ("radius", "edges", "quadrature")}
    return build_model(spec["kind"], spec["truncation"], **kwargs)


def config_potential(cfg: ExperimentConfig) -> PotentialField:
    spec = cfg.potential
    if spec["id"] == "zero":
        return zero_potential
    if spec["id"] == "constant":
        return PotentialField(const=float(spec["value"]),
                              label=f"constant({spec['value']})")
    terms = [(t.get("form", "cos"), float(t["amplitude"]),
              int(t.get("frequency", 1)), int(t.get("axis", 0)),
              float(t.get("phase", 0.0))) for t in spec["terms"]]

    def harmonic(coords):
        pts = np.asarray(coords, dtype=float).reshape(len(coords), -1)  # circle: (P,)
        out = np.zeros(pts.shape[0])
        for form, amp, freq, axis, phase in terms:
            angle = freq * pts[:, axis] + phase
            out += amp * (np.cos(angle) if form == "cos" else np.sin(angle))
        return out

    label = "+".join(f"{amp}*{form}({freq}*x{axis})"
                     for form, amp, freq, axis, _ in terms)
    return PotentialField(func=lambda c: harmonic(c), label=label)


def config_observation(cfg: ExperimentConfig, model: SpectralModel) -> ObservationSet:
    spec = cfg.observation
    if spec is None:
        raise ConfigError("observation", "this subcommand needs an observation set")
    return restrict_to_observation(model, from_fields(spec, (model.manifold.window,)))


def config_sources(cfg: ExperimentConfig, model: SpectralModel,
                   obs: ObservationSet, seed: Optional[int] = None) -> list:
    spec = cfg.sources
    kwargs = {}
    if "radius" in spec:
        kwargs["radius"] = float(spec["radius"])
    if "order" in spec:
        kwargs["order"] = int(spec["order"])
    if "centers" in spec:
        kwargs["centers"] = [tuple(c) if isinstance(c, list) else c
                             for c in spec["centers"]]
    kwargs["seed"] = cfg.seed if seed is None else seed
    return list(make_source_basis(model, obs, int(spec.get("count", 1)), **kwargs))


def config_times(cfg: ExperimentConfig, model: SpectralModel) -> Optional[np.ndarray]:
    spec = cfg.times
    if spec is None:
        return None
    samples = spec.get("samples")
    if spec.get("kind", "default") == "default":
        return default_time_grid(model, cfg.m, samples=samples)
    return np.linspace(float(spec["start"]), float(spec["stop"]),
                       samples if samples is not None else 4 * model.truncation)


def config_isometry(cfg: ExperimentConfig):
    if cfg.isometry is None:
        raise ConfigError("isometry", "this subcommand needs an isometry")
    return from_fields(cfg.isometry, ISOMETRIES)
