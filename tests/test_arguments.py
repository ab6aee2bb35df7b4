"""Argument rules: each misuse raises a typed error that names the argument.

The time-grid, sample-count, mass, shared-node, quadrature-count,
geometry, window, source-stack, point, count (seeds included), tolerance and
finite-number rules have one definition each (`calculus.check_times`,
`calculus.check_samples`, `calculus.check_mass`, `calculus.check_shared_nodes`,
`models.node_counts`, `models.make_manifold`, `models.check_window_of`,
`solver.source_matrix`, `models.as_points`, `fields.require_count`,
`fields.require_tolerance`, `fields.require_finite`);
every case below is one caller of one rule, or one argument check whose
fault numpy or a later step would otherwise report late or not at all.
"""

import re
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest

from loglap import recovery
from loglap.calculus import (
    HeatTrace,
    apply_L,
    check_times,
    field_from_samples,
    grigoryan_check,
    heat_kernel,
    heat_kernel_equality_check,
    heat_kernel_matrix,
    log_identity_quadrature,
    pointwise_L,
    random_field,
)
from loglap.config import validate_config
from loglap.errors import FieldError, PreconditionError, SupportViolationError
from loglap.extraction import (
    build_gelfand_data,
    compare_gelfand,
    default_time_grid,
    extract_exponents,
    heat_trace_of_field,
)
from loglap.models import (AngularInterval, CircleReflection, CircleRotation,
                           SphereAxialRotation, SphereMeridianReflection, SphericalCap,
                           TorusAxisReflection, TorusBox, TorusTranslation, apply_isometry,
                           build_model, certificate_sampling, check_window_of, interior_points,
                           restrict_to_observation, verify_orthonormality, with_mixed_blocks)
from loglap.recovery import isometry_gauge_check, recover_potential, ucp_nullspace_test
from loglap.solver import (
    PotentialField,
    cauchy_records,
    forward_map,
    make_source_basis,
    solve_schrodinger,
    zero_potential,
)

V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3*cos")
NAN_V = PotentialField(lambda th: np.where(th > 1.0, np.nan, 0.0), label="nan-tail")
GRID_2D = [[0.1, 0.5], [0.2, 0.3]]
GRID_NAN = [0.1, np.nan, 0.5]


@lru_cache(maxsize=None)
def half_circle(K, quadrature=None):
    """(model, obs, sources): circle K on the window (0, pi), three sources."""
    model = build_model("circle", K, quadrature=quadrature)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    return model, obs, make_source_basis(model, obs, 3)


def sphere_sources(centers):
    """One source on the sphere K=4, in the cap of radius 1.2 at the pole."""
    model = build_model("sphere", 4)
    obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.2))
    return make_source_basis(model, obs, 1, centers=centers)


def gelfand(quadrature):
    model, obs, sources = half_circle(3, quadrature)
    return build_gelfand_data(model, 2.0, zero_potential, obs, sources)


def trace(times, solution=None):
    model, obs, _ = half_circle(6)
    u = random_field(model, 0) if solution is None else solution
    return heat_trace_of_field(model, 2.0, u, obs, times)


TIMES = np.linspace(0.0, 1.1, 12)
SAMPLES = np.exp(-np.outer(TIMES, [1.0, 2.5]))


def exponents(times=TIMES, values=SAMPLES, max_order=4):
    """`extract_exponents` on two decaying channels sampled from t = 0."""
    return extract_exponents(HeatTrace(times, values), max_order)


def gelfand_times(times):
    model, obs, sources = half_circle(6)
    return build_gelfand_data(model, 2.0, V, obs, sources, times=times)


def equality(times):
    model, obs, _ = half_circle(6)
    return heat_kernel_equality_check(model, model, 2.0, obs, obs, times)


def gaussian(times):
    return grigoryan_check(half_circle(6)[0], 2.0, times)


def heatcheck_config(times):
    return validate_config({"model": {"kind": "circle", "truncation": 5}, "m": 2.0,
                            "heatcheck": {"times": times}})


def with_mass(m):
    """Every library entry point that takes the mass, called with `m`."""
    model, obs, sources = half_circle(6)
    return [lambda: forward_map(model, m, V),
            lambda: apply_L(random_field(model, 0), m),
            lambda: heat_kernel_matrix(model, m, 0.5, model.nodes[:2], model.nodes[:2]),
            lambda: default_time_grid(model, m),
            lambda: cauchy_records(model, m, V, sources, obs),
            lambda: build_gelfand_data(model, m, V, obs, sources),
            lambda: ucp_nullspace_test(model, m, obs),
            lambda: recover_potential(model, m, obs, V,
                                      cauchy_records(model, 2.0, V, sources, obs)),
            lambda: validate_config({"model": {"kind": "circle", "truncation": 5},
                                     "m": m})]


def foreign_sources(call):
    """`call` on the K=6 circle with the sources of the K=8 circle."""
    model, obs, _ = half_circle(6)
    return call(model, obs, half_circle(8)[2])


def other_model(call, mixed):
    """`call(model, obs, sources, records)` on the K=8 circle, with the sources
    and records of a model of the same size: the radius-2 circle, or the
    block-mixed copy of the K=8 circle."""
    model, obs, sources = half_circle(8)
    other = with_mixed_blocks(model, 1) if mixed else build_model("circle", 8, radius=2.0)
    other_obs = restrict_to_observation(other, AngularInterval(0.0, np.pi))
    other_sources = make_source_basis(other, other_obs, 3)
    return call(model, obs, other_sources,
                cauchy_records(other, 2.0, V, other_sources, other_obs))


@lru_cache(maxsize=None)
def foreign_window(name):
    """The window (0, pi) of another circle than `half_circle(6)`'s 64-node
    one: 48 nodes, radius 2 (the same nodes, other weights), or 128 nodes
    (indices up to 63, in range)."""
    geometry = {"quadrature": {"quadrature": 48}, "radius": {"radius": 2.0},
                "nodes": {"quadrature": 128}}[name]
    return restrict_to_observation(build_model("circle", 6, **geometry),
                                   AngularInterval(0.0, np.pi))


def recast_window(cast):
    """`check_window_of` on `half_circle(6)`'s window, its node indices
    passed through `cast`."""
    model, obs, _ = half_circle(6)
    return check_window_of(model, replace(obs, node_indices=cast(obs.node_indices)))


def with_window(obs):
    """Every entry point that takes a window of `half_circle(6)`'s model,
    called with `obs`, and the name of that argument."""
    model, own, sources = half_circle(6)
    return {
        "records": (lambda: cauchy_records(model, 2.0, V, sources, obs), "obs"),
        "gelfand": (lambda: build_gelfand_data(model, 2.0, V, obs, sources), "obs"),
        "trace": (lambda: heat_trace_of_field(model, 2.0, random_field(model, 0), obs,
                                              [0.5]), "obs"),
        "gauge": (lambda: isometry_gauge_check(model, 2.0, V, obs,
                                               CircleReflection(np.pi / 2)), "obs"),
        "equality": (lambda: heat_kernel_equality_check(model, model, 2.0, obs, obs, [0.5]),
                     "obs_a"),
        "recover": (lambda: recover_potential(model, 2.0, obs, V, cauchy_records(
            model, 2.0, V, sources, own)), "obs")}


def with_tolerance(value):
    """Every entry point that takes a tolerance, called with `value`, by
    (argument, entry point); `pointwise_L` only where `value` is not None,
    its default."""
    model, obs, _ = half_circle(6)
    gauge = partial(isometry_gauge_check, model, 2.0, V, obs, CircleReflection(np.pi / 2))
    calls = {
        ("tol", "orthonormality"): lambda: verify_orthonormality(model, tol=value),
        ("tolerance", "gauge"): lambda: gauge(tolerance=value),
        ("tolerance", "equality"): lambda: heat_kernel_equality_check(
            model, model, 2.0, obs, obs, [0.5], tolerance=value),
        ("tol", "log"): lambda: log_identity_quadrature(2.0, tol=value),
        ("eig_rtol", "compare"): lambda: compare_gelfand(gelfand(64), gelfand(64),
                                                         eig_rtol=value),
        ("angle_tol", "compare"): lambda: compare_gelfand(gelfand(64), gelfand(64),
                                                          angle_tol=value)}
    if value is not None:
        calls["tol", "pointwise"] = lambda: pointwise_L(random_field(model, 0), 2.0, [0.5],
                                                        tol=value)
    return calls


def with_seed(value):
    """Every entry point that takes a seed, called with `value`;
    `make_source_basis` only where `value` is not None, its default."""
    model, obs, _ = half_circle(6)
    calls = {"gaussian": lambda: grigoryan_check(model, 2.0, [0.5], seed=value),
             "random_field": lambda: random_field(model, value),
             "mixed": lambda: with_mixed_blocks(model, value),
             "gauge": lambda: isometry_gauge_check(model, 2.0, V, obs,
                                                   CircleReflection(np.pi / 2), seed=value)}
    if value is not None:
        calls["sources"] = lambda: make_source_basis(model, obs, 2, seed=value)
    return calls


def with_mask_eps(value):
    model, obs, sources = half_circle(6)
    return recover_potential(model, 2.0, obs, V, cauchy_records(model, 2.0, V, sources, obs),
                             mask_eps=value)


def with_time(t):
    """Both heat-kernel entry points, called at time `t`."""
    model = half_circle(6)[0]
    return {"matrix": lambda: heat_kernel_matrix(model, 2.0, t, model.nodes[:2],
                                                 model.nodes[:2]),
            "kernel": lambda: heat_kernel(model, 2.0, t, [0.1], [0.2])}


def small_model(kind):
    """The K=3 model of `kind`, the torus with edges (6, 6)."""
    return build_model(kind, 3, **({"edges": (6.0, 6.0)} if kind == "torus" else {}))


def solve_half_circle(F):
    """`forward_map(...).solve(F)` on `half_circle(6)`'s model."""
    return forward_map(half_circle(6)[0], 2.0, V).solve(F)


def different_nodes_equality():
    model_a, obs_a, _ = half_circle(3, 64)
    model_b, obs_b, _ = half_circle(3, 128)
    return heat_kernel_equality_check(model_a, model_b, 2.0, obs_a, obs_b, [0.5])


CASES = {
    # time grids
    "times-2d-trace": (lambda: trace(GRID_2D), FieldError, "times"),
    "times-nan-trace": (lambda: trace(GRID_NAN), FieldError, "times"),
    "times-2d-gelfand": (lambda: gelfand_times(GRID_2D), FieldError, "times"),
    "times-nan-gelfand": (lambda: gelfand_times(GRID_NAN), FieldError, "times"),
    "times-2d-equality": (lambda: equality(GRID_2D), FieldError, "times"),
    "times-nan-equality": (lambda: equality(GRID_NAN), FieldError, "times"),
    "times-2d-gaussian": (lambda: gaussian(GRID_2D), FieldError, "times"),
    "times-nan-gaussian": (lambda: gaussian(GRID_NAN), FieldError, "times"),
    "times-negative-config": (lambda: heatcheck_config([0.1, -0.2]), FieldError,
                              "heatcheck.times"),
    "times-nan-config": (lambda: heatcheck_config(GRID_NAN), FieldError,
                         "heatcheck.times[1]"),
    "times-ragged": (lambda: check_times([[0.1], [0.2, 0.3]]), FieldError, "times"),
    # time-grid sample counts, one rule for the library and the config
    **{f"samples-{n}": (lambda n=n: default_time_grid(half_circle(6)[0], 2.0, samples=n),
                        FieldError, "samples") for n in (-3, 0, 1, 2.5)},
    "samples-config": (lambda: validate_config({
        "model": {"kind": "circle", "truncation": 5}, "m": 2.0, "times": {"samples": 1}}),
        FieldError, "times.samples"),
    **{f"pairs-{name}": (lambda pair=pair: grigoryan_check(half_circle(6)[0], 2.0, [0.5],
                                                          pairs=[pair]), FieldError, "pairs")
       for name, pair in (("one-point", ([0.1],)), ("two-points", ([0.1, 0.2], [0.3, 0.4])),
                          ("nan", ([0.1], [np.nan])), ("text", (["a"], [0.2])),
                          ("ragged", ([[0.1], [0.2, 0.3]], [0.2])))},
    # trace samples for the pencil: finite, though t = 0 is allowed
    "trace-nan-values-extract": (lambda: exponents(values=np.where(SAMPLES < 0.3, np.nan,
                                                                   SAMPLES)),
                                 FieldError, "trace.values"),
    "trace-inf-values-extract": (lambda: exponents(values=np.where(SAMPLES < 0.3, np.inf,
                                                                   SAMPLES)),
                                 FieldError, "trace.values"),
    "trace-nan-times-extract": (lambda: exponents(times=np.append(TIMES[:-1], np.nan)),
                                FieldError, "trace.times"),
    # chart points, one rule for every argument that holds points
    "points-nan-kernel": (lambda: heat_kernel(half_circle(6)[0], 2.0, 0.5, [np.nan], [0.1]),
                          FieldError, "x"),
    "points-numeric-text-basis": (lambda: small_model("circle").eigenfunction_values(["0.5"]),
                                  FieldError, "points"),
    "centers-nan-sources": (lambda: sphere_sources([[np.nan, 0.1]]), FieldError, "centers[0]"),
    "centers-ragged-sources": (lambda: sphere_sources([[[0.1], [0.2, 0.3]]]), FieldError,
                               "centers[0]"),
    # counts: integers, numpy's included, but not bools
    "truncation-bool": (lambda: build_model("circle", True), FieldError, "truncation"),
    "quadrature-bool": (lambda: build_model("circle", 4, quadrature=True), FieldError,
                        "quadrature"),
    "count-float-sources": (lambda: make_source_basis(*half_circle(6)[:2], 2.5), FieldError,
                            "count"),
    **{f"order-{value}-sources": (lambda value=value: make_source_basis(
        *half_circle(6)[:2], 1, order=value), FieldError, "order") for value in (2.5, True)},
    **{f"max_order-{value}-extract": (lambda value=value: exponents(max_order=value),
                                      FieldError, "max_order") for value in (2.5, True, 0)},
    "count-bool-interior": (lambda: interior_points(half_circle(6)[0],
                                                    AngularInterval(0.0, np.pi), True),
                            FieldError, "count"),
    **{f"n_pairs-{value}": (lambda value=value: grigoryan_check(
        half_circle(6)[0], 2.0, [0.5], n_pairs=value), FieldError, "n_pairs")
       for value in (2.5, True)},
    **{f"node_multiplier-{value}": (lambda value=value: ucp_nullspace_test(
        half_circle(6)[0], 2.0, half_circle(6)[1], node_multiplier=value), FieldError,
        "node_multiplier")
       for value in (0, 2.5, True)},
    **{f"include_image-{value!r}": (lambda value=value: ucp_nullspace_test(
        half_circle(6)[0], 2.0, half_circle(6)[1], include_image=value), FieldError,
        "include_image")
       for value in ("no", 1, 0.0, None)},
    # tolerances: real numbers, finite and > 0, at every entry point
    **{f"{arg}-{name}-{entry}": (call, FieldError, arg)
       for name, value in (("text", "a"), ("none", None), ("nan", np.nan), ("inf", np.inf),
                           ("negative", -1.0), ("zero", 0.0), ("bool", True))
       for (arg, entry), call in with_tolerance(value).items()},
    # seeds: integers >= 0, None only where it is the default
    **{f"seed-{value!r}-{entry}": (call, FieldError, "seed")
       for value in ("a", 2.5, -1, True, None) for entry, call in with_seed(value).items()},
    # the recovery mask threshold, a fraction of the largest |u| in [0, 1]
    **{f"mask_eps-{value!r}": (lambda value=value: with_mask_eps(value), FieldError, "mask_eps")
       for value in ("a", None, np.nan, 2.0, -1.0, True)},
    # the mass, infinite and at most 1, at every entry point
    **{f"mass-inf-{i}": (call, FieldError, "m") for i, call in enumerate(with_mass(np.inf))},
    **{f"mass-one-{i}": (call, FieldError, "m") for i, call in enumerate(with_mass(1.0))},
    # shared window nodes
    "nodes-compare": (lambda: compare_gelfand(gelfand(64), gelfand(128)), PreconditionError,
                      "a and b"),
    "nodes-equality": (different_nodes_equality, PreconditionError, "obs_a and obs_b"),
    # geometry parameters: only those of the kind's constructor, lengths finite and > 0
    **{f"geometry-{name}-{kind}": (lambda kind=kind, geometry=geometry: build_model(
        kind, 3, **geometry), FieldError, name)
       for kind, geometry, name in (("circle", {"edges": (6.0,)}, "edges"),
                                    ("torus", {"edges": (6.0,), "radius": 2.0}, "radius"),
                                    ("sphere", {"edges": (1.0, 2.0)}, "edges"),
                                    ("sphere", {"metric": 1.0}, "metric"))},
    "geometry-missing-torus": (lambda: build_model("torus", 3), FieldError, "edges"),
    **{f"edges-{name}": (lambda edges=edges: build_model("torus", 3, edges=edges),
                         FieldError, "edges")
       for name, edges in (("inf", (np.inf, 6.0)), ("nan", (6.0, np.nan)), ("empty", ()),
                           ("scalar", 6.0), ("text", ("a", 6.0)),
                           ("numeric-text", ("2", "3")), ("bool", (True, 6.0)))},
    **{f"radius-{value}-{kind}": (lambda kind=kind, value=value: build_model(
        kind, 3, radius=value), FieldError, "radius")
       for kind in ("circle", "sphere") for value in (np.inf, np.nan, 0.0, "2", True)},
    # windows: restricted on the model they are passed with, at every entry point
    **{f"window-{name}-{entry}": (call, FieldError, field)
       for name in ("quadrature", "radius", "nodes")
       for entry, (call, field) in with_window(foreign_window(name)).items()},
    **{f"window-{name}-indices": (lambda cast=cast: recast_window(cast), FieldError, "obs")
       for name, cast in (("float", lambda idx: idx.astype(float)), ("list", list))},
    "window-radius-equality-b": (lambda: heat_kernel_equality_check(
        half_circle(6)[0], half_circle(6)[0], 2.0, half_circle(6)[1],
        foreign_window("radius"), [0.5]), FieldError, "obs_b"),
    # a source radius that does not fit, NaN included
    "source-radius-nan": (lambda: make_source_basis(*half_circle(6)[:2], 2, radius=np.nan),
                          SupportViolationError, "source 0"),
    # quadrature counts
    "quadrature-circle-axes": (lambda: build_model("circle", 4, quadrature=[64, 64]),
                               FieldError, "quadrature"),
    "quadrature-sphere-zero": (lambda: build_model("sphere", 4, quadrature=0), FieldError,
                               "quadrature"),
    "quadrature-torus-zero": (lambda: build_model("torus", 3, edges=(6.0, 6.0),
                                                  quadrature=(0, 8)),
                              FieldError, "quadrature"),
    "quadrature-string": (lambda: build_model("circle", 4, quadrature="abc"), FieldError,
                          "quadrature"),
    "quadrature-config": (lambda: validate_config({
        "model": {"kind": "circle", "truncation": 5, "quadrature": 0}, "m": 2.0}),
        FieldError, "model.quadrature"),
    # source stacks
    "sources-empty-records": (lambda: foreign_sources(
        lambda model, obs, _: cauchy_records(model, 2.0, V, [], obs)), FieldError, "sources"),
    "sources-empty-gelfand": (lambda: foreign_sources(
        lambda model, obs, _: build_gelfand_data(model, 2.0, V, obs, [])), FieldError,
        "sources"),
    "sources-foreign-records": (lambda: foreign_sources(
        lambda model, obs, src: cauchy_records(model, 2.0, V, src, obs)), FieldError,
        "sources[0]"),
    "sources-foreign-gelfand": (lambda: foreign_sources(
        lambda model, obs, src: build_gelfand_data(model, 2.0, V, obs, src)), FieldError,
        "sources[0]"),
    "sources-foreign-solve": (lambda: foreign_sources(
        lambda model, obs, src: solve_schrodinger(model, 2.0, V, src[0])), FieldError,
        "sources[0]"),
    "sources-array-solve": (lambda: foreign_sources(
        lambda model, obs, src: solve_schrodinger(model, 2.0, V, np.ones(model.total_dim))),
        FieldError, "sources[0]"),
    **{f"sources-{name}-records": (lambda mixed=mixed: other_model(
        lambda model, obs, src, _: cauchy_records(model, 2.0, V, src, obs), mixed),
        FieldError, "sources[0]") for name, mixed in (("radius", False), ("mixed", True))},
    **{f"records-{name}-recover": (lambda mixed=mixed: other_model(
        lambda model, obs, _, recs: recover_potential(model, 2.0, obs, V, recs), mixed),
        PreconditionError, "record bump00") for name, mixed in (("radius", False),
                                                                ("mixed", True))},
    # argument checks that would otherwise fail elsewhere
    **{f"t-{name}-{entry}": (call, FieldError, "t")
       for name, value in (("text", "a"), ("none", None), ("list", [0.5]), ("inf", np.inf),
                           ("bool", True))
       for entry, call in with_time(value).items()},
    "radius-text-sources": (lambda: make_source_basis(*half_circle(6)[:2], 2, radius="a"),
                            FieldError, "radius"),
    "const-text-potential": (lambda: PotentialField(const="a").node_values(half_circle(6)[0]),
                             FieldError, "const"),
    "lam-text-log": (lambda: log_identity_quadrature("a"), FieldError, "lam"),
    "radius-text-cap": (lambda: restrict_to_observation(build_model("sphere", 4),
                                                        SphericalCap((0.0, 0.0), "a")),
                        FieldError, "radius"),
    "center-numeric-text-cap": (lambda: restrict_to_observation(
        build_model("sphere", 4), SphericalCap(("0", "0"), 1.2)), FieldError, "center"),
    # a sampling grid that reads no centre still checks it
    **{f"center-{name}-{entry}": (lambda value=value, call=call: call(
        build_model("sphere", 4), SphericalCap((value, 0.0), 1.0), 64), FieldError, "center")
       for name, value in (("nan", np.nan), ("inf", np.inf))
       for entry, call in (("certificate", certificate_sampling), ("interior", interior_points))},
    **{f"isometry-{name}": (lambda kind=kind, iso=iso: apply_isometry(
        small_model(kind), iso, [0.5] * (1 if kind == "circle" else 2)), FieldError, field)
       for name, kind, iso, field in (
           ("angle-text-circle", "circle", CircleRotation("a"), "angle"),
           ("angle-nan-circle", "circle", CircleRotation(np.nan), "angle"),
           ("axis-inf-circle", "circle", CircleReflection(np.inf), "axis"),
           ("shift-nan-torus", "torus", TorusTranslation((0.1, np.nan)), "shift[1]"),
           ("center-text-torus", "torus", TorusAxisReflection(0, center="a"), "center"),
           ("angle-bool-sphere", "sphere", SphereAxialRotation(True), "angle"),
           ("meridian-nan-sphere", "sphere", SphereMeridianReflection(np.nan), "meridian"),
           ("axis-text-torus", "torus", TorusAxisReflection("a"), "axis"),
           ("axis-float-torus", "torus", TorusAxisReflection(0.5), "axis"))},
    **{f"bounds-text-{name}": (lambda kind=kind, desc=desc: restrict_to_observation(
        small_model(kind), desc), FieldError, field)
       for name, kind, desc, field in (
           ("start-circle", "circle", AngularInterval("0.5", 1.0), "start"),
           ("end-circle", "circle", AngularInterval(0.5, "1"), "end"),
           ("torus", "torus", TorusBox(((0.5, 1.0), ("0", 1.0))), "intervals[1][0]"))},
    "samples-text-project": (lambda: field_from_samples(half_circle(6)[0], ["a"] * 64),
                             FieldError, "f_values"),
    **{f"F-{name}-solve": (lambda F=F: solve_half_circle(F), FieldError, "F")
       for name, F in (("short", np.ones(5)), ("text", ["a"] * 11), ("numeric-text", ["0.5"] * 11),
                       ("ragged", [[1.0], [2.0, 3.0]]), ("nan", np.full(11, np.nan)))},
    "solution-array-trace": (lambda: trace([0.5], np.ones(11)), FieldError, "solution"),
    "truncation-float": (lambda: build_model("circle", 2.5), FieldError, "truncation"),
    "potential-nan": (lambda: forward_map(half_circle(6)[0], 2.0, NAN_V), FieldError, "V"),
}


@pytest.mark.parametrize("call, error, name", CASES.values(), ids=CASES.keys())
def test_misuse_names_the_argument(call, error, name):
    with pytest.raises(error, match=f"^{re.escape(name)}[: ]") as info:
        call()
    if error is FieldError:
        assert info.value.field == name


@pytest.mark.parametrize("name", ["quadrature", "radius", "nodes"])
def test_gauge_checks_window_before_work(name, monkeypatch):
    """A foreign window fails `isometry_gauge_check` before its random field
    and forward maps are built."""
    built = []
    for stage in ("random_field", "forward_map"):
        monkeypatch.setattr(recovery, stage, lambda *args, stage=stage, **kw: built.append(stage))
    model, _, _ = half_circle(6)
    with pytest.raises(FieldError, match="^obs: ") as info:
        isometry_gauge_check(model, 2.0, V, foreign_window(name), CircleReflection(np.pi / 2))
    assert info.value.field == "obs" and built == []


def test_numpy_bools_choose_the_variant():
    model, obs, _ = half_circle(6)
    for value in (np.True_, np.False_):
        report = ucp_nullspace_test(model, 2.0, obs, include_image=value)
        assert report.include_image is bool(value)
        assert report == ucp_nullspace_test(model, 2.0, obs, include_image=bool(value))


def test_numpy_integers_are_counts():
    model = build_model("circle", np.int64(4), quadrature=np.int32(16))
    assert type(model.truncation) is int and model.quadrature_spec == (16,)
    assert interior_points(model, AngularInterval(0.0, np.pi), np.int64(3)).shape == (3, 1)
