"""Unique-continuation rank tests, recovery, and gauge checks.

The UCP test is checked against a from-scratch constraint matrix; recovery
errors are pinned by the forward-solve ground truth they started from.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loglap import models
from loglap.calculus import apply_L, heat_kernel_equality_check, heat_kernel_matrix
from loglap.errors import PreconditionError, UnderdeterminedSamplingError
from loglap.models import (
    AngularInterval,
    CircleReflection,
    CircleRotation,
    SphereAxialRotation,
    SphericalCap,
    TorusAxisReflection,
    TorusBox,
    apply_isometry,
    build_model,
    certificate_sampling,
    interior_points,
    project_function,
    restrict_to_observation,
    with_mixed_blocks,
)
from loglap.recovery import (
    isometry_gauge_check,
    recover_potential,
    ucp_nullspace_test,
    _weighted_median,
)
from loglap.serialize import dump_record, load_record
from loglap.solver import (
    PotentialField,
    cauchy_record,
    cauchy_records,
    make_source_basis,
    zero_potential,
)

# ---------------------------------------------------------------- oracles


def circle_basis_columns(theta, K):
    cols = [np.full_like(theta, 1.0 / np.sqrt(2 * np.pi))]
    for k in range(1, K):
        cols.append(np.cos(k * theta) / np.sqrt(np.pi))
        cols.append(np.sin(k * theta) / np.sqrt(np.pi))
    return np.column_stack(cols)


def half_circle(K, **kwargs):
    model = build_model("circle", K, **kwargs)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    return model, obs


# ---------------------------------------------------------------- ucp


class TestUcpNullspace:
    def test_circle_quarter_interval_small_rank(self):
        model = build_model("circle", 8)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi / 2))
        report = ucp_nullspace_test(model, 2.0, obs)
        assert report.passed
        assert report.null_dimension == 0
        assert report.smallest_singular > 0
        # from-scratch constraint matrix at the same sample points, in the
        # basis cos k(theta - c), sin k(theta - c) about the window centre c
        dim = model.total_dim
        pts = interior_points(model, obs.descriptor, 4 * dim)
        B = circle_basis_columns(pts[:, 0] - np.pi / 4, 8)
        lam = np.repeat(np.arange(8) ** 2, [1] + [2] * 7).astype(float)
        mult = (lam + 2.0) * np.log(lam + 2.0)
        M = np.vstack([B, B * mult[None, :]])
        M = M / np.linalg.norm(M, axis=0)[None, :]
        sv = np.linalg.svd(M, compute_uv=False)
        assert np.sum(sv < 1e-9 * sv[0]) == 0
        assert abs(report.smallest_singular - sv[-1]) < 1e-10 * sv[0]

    def test_small_window_large_truncation_degenerates(self):
        # band-limited fields can concentrate off a quarter window well
        # enough at this rank that the null space is numerically nontrivial;
        # the rank certificate must report that instead of hiding it
        model = build_model("circle", 16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi / 2))
        report = ucp_nullspace_test(model, 2.0, obs)
        assert not report.passed
        assert report.null_dimension >= 1

    def test_single_point_underdetermined(self):
        model = build_model("circle", 8)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        with pytest.raises(UnderdeterminedSamplingError):
            ucp_nullspace_test(model, 2.0, obs, points=np.array([[0.5]]))

    def test_points_outside_window_rejected(self):
        # points off the window would certify a different set
        model = build_model("circle", 8)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        pts = np.concatenate([interior_points(model, obs.descriptor, 60),
                              [[4.0], [5.5]]])
        with pytest.raises(PreconditionError, match=f"^2 of {pts.shape[0]} sample points"):
            ucp_nullspace_test(model, 2.0, obs, points=pts)

    def test_image_rows_strengthen_constraint(self):
        # dropping the operator-image rows weakens the constraint on a
        # small window, which is the point of using the full Cauchy pair
        model = build_model("circle", 24)
        obs = restrict_to_observation(model, AngularInterval(0.0, 0.35))
        full = ucp_nullspace_test(model, 2.0, obs)
        weak = ucp_nullspace_test(model, 2.0, obs, include_image=False)
        assert full.smallest_singular > weak.smallest_singular

    def test_all_catalog_models_pass(self):
        cases = [
            (build_model("circle", 16), AngularInterval(0.0, 4.7)),
            (build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi)),
             TorusBox(((0.5, 4.5), (1.0, 5.0)))),
            (build_model("sphere", 8), SphericalCap((0.0, 0.0), 2.4)),
        ]
        for model, desc in cases:
            obs = restrict_to_observation(model, desc)
            report = ucp_nullspace_test(model, 2.0, obs)
            assert report.passed, f"{model.kind}: dim {report.null_dimension}"


def window_centre(desc):
    return np.mean(np.array(desc.intervals, dtype=float), axis=1)


def parity_basis(model, points, centre):
    """The window-centred parity basis of a flat torus from its definition:
    the column of lattice vector j (k = |j|) and kind cos or sin is
    prod_a t_a(k_a w_a (x_a - c_a)), unit in L2, with t_a = sin on the first
    nonzero axis of a sine column and where j_a < 0, else cos.  Over an
    orbit {(+-k_1, ..., +-k_n)} these are all 2^s products with cos where
    k_a = 0, each once."""
    manifold, table = model.manifold, model.basis_table
    y = np.asarray(points) - centre
    freq = 2 * np.pi / np.array(manifold.periods)
    volume = np.prod(np.array(manifold.periods) * np.array(manifold.scales))
    out = np.empty((y.shape[0], table["kinds"].size))
    for col, (j, kind) in enumerate(zip(table["lattice"], table["kinds"])):
        first = np.flatnonzero(j)[:1]
        sine = (j < 0) | ((kind == 2) & np.isin(np.arange(j.size), first))
        out[:, col] = np.sqrt(2.0 ** np.count_nonzero(j) / volume) * np.prod(
            [(np.sin if s else np.cos)(abs(ja) * w * y[:, a])
             for a, (ja, s, w) in enumerate(zip(j, sine, freq))], axis=0)
    return out


def test_parity_basis_spans_each_orbit():
    # the parity functions of an orbit are an orthonormal basis of what its
    # model columns span, so the two bases differ by an orthogonal map
    # inside each orbit, where L's multiplier is constant
    model = build_model("torus", 13, edges=(2.0, 3.0, 5.0))
    centre = np.array([0.7, 1.1, 2.9])
    B = model.eigenfunction_values(model.nodes)
    P = parity_basis(model, model.nodes, centre)
    V = B.T @ (model.weights[:, None] * P)
    assert np.max(np.abs(V.T @ V - np.eye(model.total_dim))) <= 1e-12
    k = np.abs(model.basis_table["lattice"])
    same_orbit = np.all(k[:, None, :] == k[None, :, :], axis=2)
    assert np.max(np.abs(V[~same_orbit])) <= 1e-12
    assert np.max(np.abs(P - model.manifold.window_values(
        model.nodes - centre, model.basis_table))) <= 1e-13


def cap_frame(desc, points):
    """Sphere chart points x as R^-1 x, R = [e_1 e_2 n] the rotation that
    takes the pole to the cap centre n, with e_1 and e_2 the unit
    colatitude and longitude directions at n."""
    tc, pc = desc.center
    frame = np.array([[np.cos(tc) * np.cos(pc), np.cos(tc) * np.sin(pc), -np.sin(tc)],
                      [-np.sin(pc), np.cos(pc), 0.0],
                      [np.sin(tc) * np.cos(pc), np.sin(tc) * np.sin(pc), np.cos(tc)]])
    colat, lon = np.asarray(points).T
    x = np.column_stack([np.sin(colat) * np.cos(lon), np.sin(colat) * np.sin(lon),
                         np.cos(colat)])
    y = x @ frame.T
    return np.column_stack([np.arccos(np.clip(y[:, 2], -1.0, 1.0)),
                            np.arctan2(y[:, 1], y[:, 0])])


def certificate_basis(model, desc, points, grid=True):
    """The basis the certificate normalises: on an untransformed flat torus
    the parity basis about the window centre; on an untransformed sphere's
    default `grid` the cap-centred basis, the model's basis at R^-1 x; the
    model's basis else (a transform, or explicit points on a sphere)."""
    if model.transform is not None:
        return model.eigenfunction_values(points)
    if model.kind != "sphere":
        return parity_basis(model, points, window_centre(desc))
    return model.eigenfunction_values(cap_frame(desc, points) if grid else points)


def dense_certificate(model, m, obs, include_image, multiplier=4, points=None):
    """The certificate straight from its definition: normalise the columns
    of [B; B diag(mult)] (or of B), B in `certificate_basis` at the default
    grid or the explicit `points`, and take every singular value."""
    grid = points is None
    if grid:
        points = interior_points(model, obs.descriptor, multiplier * model.total_dim)
    B = certificate_basis(model, obs.descriptor, points, grid)
    if include_image:
        lam = model.flat_eigenvalues()
        B = np.vstack([B, B * ((lam + m) * np.log(lam + m))[None, :]])
    sv = np.linalg.svd(B / np.linalg.norm(B, axis=0)[None, :], compute_uv=False)
    return int(np.sum(sv < 1e-9 * sv[0])), sv


DENSE_CASES = {
    "circle": ("circle", 16, {}, AngularInterval(0.0, 4.7)),
    "torus": ("torus", 6, {"edges": (2 * np.pi, 2 * np.pi)},
              TorusBox(((0.5, 4.5), (1.0, 5.0)))),
    "sphere-off-pole": ("sphere", 8, {}, SphericalCap((0.9, 1.7), 1.4)),
    # solution-only rows are rank deficient here, the image rows are not
    "sphere-off-pole-K16": ("sphere", 16, {}, SphericalCap((0.9, 1.7), 1.4)),
    # the leading six eigenspaces of a truncation-12 model, built at 6
    "sphere-K-below-truncation": ("sphere", 6, {}, SphericalCap((0.9, 1.7), 1.4)),
    "circle-quarter-degenerate": ("circle", 16, {}, AngularInterval(0.0, np.pi / 2)),
    # caps centred on the basis pole, whose cap-centred basis is the model's
    "sphere-polar": ("sphere", 8, {}, SphericalCap((0.0, 0.0), 2.4)),
    "sphere-polar-longitude-K16": ("sphere", 16, {}, SphericalCap((0.0, 1.3), 2.6)),
    "sphere-polar-K-below-truncation": ("sphere", 6, {}, SphericalCap((0.0, 0.0), 2.4)),
    # solution-only rows are rank deficient here, the image rows are not
    "sphere-polar-degenerate": ("sphere", 16, {}, SphericalCap((0.0, 0.0), 1.4)),
    # the largest torus and circle windows of the benchmark's UCP sweep
    "torus-K32": ("torus", 32, {"edges": (2 * np.pi, 2 * np.pi)},
                  TorusBox(((0.3, 5.9), (0.3, 5.9)))),
    "circle-K32": ("circle", 32, {}, AngularInterval(0.0, 5.2)),
}


def assert_matches_dense(report, model, obs, include_image, multiplier=4, points=None):
    null_dim, sv = dense_certificate(model, 2.0, obs, include_image, multiplier, points)
    assert report.null_dimension == null_dim
    assert report.passed == (null_dim == 0)
    assert abs(report.smallest_singular - sv[-1]) <= 1e-10 * sv[0]


class TestUcpDenseReference:
    """Both variants go through the samples' triangular factor, and sphere
    caps through one block per azimuthal order; each must certify what the
    dense P x D or 2P x D stack certifies in the basis it normalises."""

    @pytest.mark.parametrize("include_image", [True, False], ids=["image", "solution"])
    @pytest.mark.parametrize("case", DENSE_CASES.values(), ids=DENSE_CASES.keys())
    def test_matches_dense_svd(self, case, include_image):
        kind, truncation, kwargs, desc = case
        model = build_model(kind, truncation, **kwargs)
        obs = restrict_to_observation(model, desc)
        report = ucp_nullspace_test(model, 2.0, obs, include_image=include_image)
        assert_matches_dense(report, model, obs, include_image)


class TestCertificateSampling:
    """`certificate_sampling` decides where the certificate samples a window
    and how its columns group."""

    @pytest.mark.parametrize("variant", ["circle", "torus", "off-pole", "mixed-blocks",
                                         "explicit-points"])
    def test_one_group_of_all_columns(self, variant, monkeypatch):
        # a flat torus's default grid splits into parity classes
        # (TestUcpAxisRoute) and a sphere cap's into orders
        # (TestUcpPolarCapRoute); explicit points, like every dense input,
        # form one group in the basis the certificate normalises, on a
        # sphere the model's own, also off the pole
        model, desc = build_model("sphere", 8), SphericalCap((0.0, 0.0), 2.4)
        if variant == "circle":
            model, desc = build_model("circle", 16), AngularInterval(0.0, 4.7)
        elif variant == "torus":
            model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
            desc = TorusBox(((0.5, 4.5), (1.0, 5.0)))
        elif variant == "off-pole":
            desc = SphericalCap((0.9, 1.7), 1.4)
        elif variant == "mixed-blocks":
            model = with_mixed_blocks(model, seed=3)
        count = 4 * model.total_dim
        expected = interior_points(model, desc, count)
        points = None if variant == "mixed-blocks" else expected[::2]
        flat = variant in ("circle", "torus")
        drawn = []

        def counting_points(*args):
            drawn.append(args)
            return interior_points(*args)

        # the dense route samples through `interior_points`, which the
        # benchmark's tracer times as its own layer
        monkeypatch.setattr(models, "interior_points", counting_points)
        sampling = certificate_sampling(model, desc, count, points)
        assert len(drawn) == (points is None)
        given = expected if points is None else points
        assert sampling.n_points == given.shape[0]
        assert len(sampling.groups) == 1
        cols, times = sampling.groups[0]
        every = np.arange(model.total_dim)
        assert times == 1 and np.array_equal(every[cols], every)
        # the model's basis is evaluated at the points, except on a flat
        # torus, whose parity basis is evaluated directly
        calls = count_basis_calls(monkeypatch)
        (R,) = sampling.factors()
        assert len(calls) == (not flat)
        B = certificate_basis(model, desc, given, grid=points is None)
        assert R.shape == (model.total_dim,) * 2
        assert np.max(np.abs(R.T @ R - B.T @ B)) <= 1e-12 * np.max(np.abs(B.T @ B))


def count_basis_calls(monkeypatch):
    """Record the values of every basis evaluation, made through the
    method the benchmark's tracer times as `models.basis`."""
    calls, evaluate = [], models.SpectralModel.eigenfunction_values

    def counting(self, points):
        values = evaluate(self, points)
        calls.append(values)
        return values

    monkeypatch.setattr(models.SpectralModel, "eigenfunction_values", counting)
    return calls


ROUTE_WINDOWS = {
    "circle": ({}, AngularInterval(0.3, 4.7)),
    "torus": ({"edges": (2 * np.pi, 3.0)}, TorusBox(((0.5, 4.5), (0.2, 2.5)))),
    "sphere": ({}, SphericalCap((0.9, 1.7), 1.4)),
}


@pytest.mark.parametrize("kind", models._MANIFOLDS)
def test_default_grid_takes_a_structured_route(kind, monkeypatch):
    # every catalog geometry factors the default grid of an untransformed
    # model in column groups without forming the P x D samples; a new
    # geometry needs a window here, and a route, not the dense fallback
    kwargs, desc = ROUTE_WINDOWS[kind]
    model = build_model(kind, 8, **kwargs)
    drawn, evaluated = [], count_basis_calls(monkeypatch)
    monkeypatch.setattr(models, "interior_points", lambda *args: drawn.append(args))
    if hasattr(model.manifold, "window_values"):
        values = type(model.manifold).window_values
        monkeypatch.setattr(type(model.manifold), "window_values", lambda self, y, table: (
            evaluated.append(values(self, y, table)) or evaluated[-1]))
    sampling = certificate_sampling(model, desc, 4 * model.total_dim)
    factors = sampling.factors()
    assert drawn == [] and len(factors) == len(sampling.groups) > 1
    assert all(B.shape[0] < sampling.n_points for B in evaluated)


MEMO_CASES = {
    "torus": ("torus", 6, {"edges": (2 * np.pi, 2 * np.pi)}, TorusBox(((0.5, 4.5), (1.0, 5.0)))),
    "sphere-off-pole": ("sphere", 8, {}, SphericalCap((0.9, 1.7), 1.4)),
    "sphere-polar": ("sphere", 8, {}, SphericalCap((0.0, 0.0), 2.4)),
}


class TestCertificateMemo:
    """The certificate's factors are kept in the model's `certificate` memo:
    both variants on one window factor it once, a flat torus's default grid
    per axis without evaluating the basis, any other input from one basis
    evaluation."""

    @pytest.mark.parametrize("case", MEMO_CASES.values(), ids=MEMO_CASES.keys())
    def test_variants_share_one_evaluation(self, case, monkeypatch):
        kind, K, kwargs, desc = case

        def fresh_report(include_image):
            model = build_model(kind, K, **kwargs)
            obs = restrict_to_observation(model, desc)
            return ucp_nullspace_test(model, 2.0, obs, include_image=include_image)

        expected = [fresh_report(True), fresh_report(False)]
        model = build_model(kind, K, **kwargs)
        obs = restrict_to_observation(model, desc)
        sampling = certificate_sampling(model, desc, 4 * model.total_dim)
        per_axis = sampling.key[0] == "centred"
        if kind == "sphere":  # the route evaluates the basis on the polar rings
            gammas, _ = model.manifold._ring_grid(desc, 4 * model.total_dim)
            samples = model.eigenfunction_values(np.column_stack([gammas, 0 * gammas]))
        else:
            samples = certificate_basis(model, desc, interior_points(
                model, desc, 4 * model.total_dim))
        calls = count_basis_calls(monkeypatch)
        held, built, memo = [], [], models.SpectralModel.memo

        def recording(self, slot, key, build):
            def counted():
                built.append(slot)
                return build()

            value = memo(self, slot, key, counted)
            if slot == "certificate":
                held.append(value)
            return value

        monkeypatch.setattr(models.SpectralModel, "memo", recording)
        reports = [ucp_nullspace_test(model, 2.0, obs, include_image=inc)
                   for inc in (True, False, True)]
        assert len(calls) == (not per_axis) and built == ["certificate"]
        assert per_axis == (kind == "torus")
        assert reports == expected + expected[:1]
        # one read-only (w x w) factor per column group, R^T R = B^T B
        assert len(held) == 3 and all(value is held[0] for value in held)
        every = np.arange(model.total_dim)
        assert len(held[0]) == len(sampling.groups)
        for R, (cols, _) in zip(held[0], sampling.groups):
            width = every[cols].size
            B = samples[:, cols]
            assert R.shape == (width, width) and not R.flags.writeable
            assert np.max(np.abs(R.T @ R - B.T @ B)) <= 1e-12 * np.max(np.abs(B.T @ B))

    def test_new_key_evaluates_again(self, monkeypatch):
        model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
        first = restrict_to_observation(model, TorusBox(((0.5, 4.5), (1.0, 5.0))))
        second = restrict_to_observation(model, TorusBox(((0.4, 4.0), (1.0, 5.5))))
        points = interior_points(model, second.descriptor, 3 * model.total_dim)
        built, memo = [], models.SpectralModel.memo

        def recording(self, slot, key, build):
            def counted():
                built.append(key[0])
                return build()

            return memo(self, slot, key, counted)

        monkeypatch.setattr(models.SpectralModel, "memo", recording)
        # (grid factors, point factors) built after each call: default grids
        # factor per parity class, explicit points evaluate the parity basis
        steps = [
            (dict(obs=first), (1, 0)),
            (dict(obs=first, include_image=False), (1, 0)),
            (dict(obs=second), (2, 0)),
            (dict(obs=second, node_multiplier=6), (3, 0)),
            (dict(obs=second, node_multiplier=6, include_image=False), (3, 0)),
            (dict(obs=second, points=points), (3, 1)),
            (dict(obs=second, points=points, include_image=False), (3, 1)),
            (dict(obs=first), (4, 1)),  # the slot keeps the last key only
        ]
        for kwargs, counts in steps:
            ucp_nullspace_test(model, 2.0, **kwargs)
            assert (built.count("centred"), built.count("offsets")) == counts, kwargs
        assert len(built) == 5

    def test_mixed_copy_starts_empty(self, monkeypatch):
        model = build_model("sphere", 8)
        obs = restrict_to_observation(model, SphericalCap((0.9, 1.7), 1.4))
        points = interior_points(model, obs.descriptor, 4 * model.total_dim)
        plain = ucp_nullspace_test(model, 2.0, obs, include_image=False, points=points)
        calls = count_basis_calls(monkeypatch)
        mixed = with_mixed_blocks(model, seed=3)
        report = ucp_nullspace_test(mixed, 2.0, obs, include_image=False, points=points)
        # same points, so only an empty memo makes the copy evaluate its own basis
        assert len(calls) == 1
        assert not np.array_equal(calls[0], model.eigenfunction_values(points))
        assert report.n_points == plain.n_points


class TestUcpPolarCapRoute:
    """In the cap-centred frame the default samples of every cap sit on
    rings of n_az equispaced longitudes about the pole, and the certificate
    splits by order."""

    @pytest.mark.parametrize("multiplier", [2, 4, 7])
    @pytest.mark.parametrize("K", [8, 32])
    def test_orders_orthogonal_on_ring_grid(self, K, multiplier):
        model = build_model("sphere", K)
        desc = SphericalCap((0.0, 0.7), 2.6)
        sampling = certificate_sampling(model, desc, multiplier * K * K)
        gammas, n_az = model.manifold._ring_grid(desc, multiplier * K * K)
        # distinct orders, and the two kinds of one order, stay orthogonal
        # on n_az equispaced longitudes exactly when n_az > 2 (K - 1); the
        # order blocks are overdetermined when there are at least K rings
        assert n_az > 2 * (K - 1) and sampling.n_points == gammas.size * n_az
        assert gammas.size >= K
        B = model.eigenfunction_values(
            interior_points(model, desc, multiplier * K * K))
        assert B.shape[0] == sampling.n_points
        table = model.basis_table
        group = table["orders"] * 2 + (table["kinds"] == 2)
        gram = B.T @ B
        apart = group[:, None] != group[None, :]
        assert np.max(np.abs(gram[apart])) <= 1e-12 * np.max(np.diag(gram))
        widths = [cols.size for cols, _ in sampling.groups]
        counts = [count for _, count in sampling.groups]
        assert widths == [K - m for m in range(K)]
        assert counts == [1] + [2] * (K - 1)
        assert sum(w * c for w, c in zip(widths, counts)) == model.total_dim

    @pytest.mark.parametrize("include_image", [True, False], ids=["image", "solution"])
    @pytest.mark.parametrize("variant", ["mixed-blocks", "explicit-points", "near-pole"])
    def test_other_inputs_take_dense_route(self, variant, include_image):
        # a transform, and explicit points on any cap, evaluate the model's
        # own basis; near the pole its report differs from the cap-centred one
        model = build_model("sphere", 8)
        desc = SphericalCap((1e-3, 0.0) if variant == "near-pole" else (0.0, 0.0), 2.4)
        points = None
        if variant == "mixed-blocks":
            model = with_mixed_blocks(model, seed=3)
        else:
            points = interior_points(model, desc, 4 * model.total_dim)
        obs = restrict_to_observation(model, desc)
        assert len(certificate_sampling(model, desc, 4 * model.total_dim,
                                        points).groups) == 1
        report = ucp_nullspace_test(model, 2.0, obs, include_image=include_image,
                                    points=points)
        assert_matches_dense(report, model, obs, include_image, points=points)


FLAT_GEOMETRIES = [("torus", {"edges": edges}) for edges in (
    (2 * np.pi, 2 * np.pi), (2 * np.pi, 2.2 * np.pi), (1.0, 3.7), (1.0, 12.0),
    (2.0, 3.0, 5.0))] + [
    ("circle", {"radius": radius}) for radius in (0.5, 1.7)]


@st.composite
def flat_windows(draw):
    """A flat-torus model, K from 2 to 20, and a box strictly inside its
    chart, wide enough to hold quadrature nodes."""
    kind, kwargs = draw(st.sampled_from(FLAT_GEOMETRIES))
    model = build_model(kind, draw(st.integers(2, 20)), **kwargs)
    bounds = []
    for period in model.manifold.periods:
        lo = draw(st.floats(0.01, 0.5))
        bounds.append((lo * period, draw(st.floats(lo + 0.2, 0.99)) * period))
    desc = AngularInterval(*bounds[0]) if kind == "circle" else TorusBox(tuple(bounds))
    return model, desc


class TestUcpAxisRoute:
    """A flat torus's default window grid is factored per parity class from
    per-axis QRs; each variant must certify what the dense P x D or 2P x D
    stack in the window-centred parity basis certifies, and each held factor
    must carry its class's Gram matrix."""

    @staticmethod
    def check(model, desc, multiplier):
        """Run the checks; return the class widths and the count of the held
        factors' rows that are identically zero, which is 0 where every axis
        has as many grid points as even per-axis columns."""
        obs = restrict_to_observation(model, desc)
        for include_image in (True, False):
            report = ucp_nullspace_test(model, 2.0, obs, node_multiplier=multiplier,
                                        include_image=include_image)
            assert_matches_dense(report, model, obs, include_image, multiplier)
        count = multiplier * model.total_dim
        sampling = certificate_sampling(model, desc, count)
        assert sampling.key[0] == "centred"
        held = model.memo("certificate", sampling.key, lambda: pytest.fail("not held"))
        B = parity_basis(model, interior_points(model, desc, count), window_centre(desc))
        gram = B.T @ B
        # the classes partition the columns and are mutually orthogonal
        classes = np.full(model.total_dim, -1)
        for c, (cols, times) in enumerate(sampling.groups):
            assert times == 1 and np.all(classes[cols] == -1)
            classes[cols] = c
        assert np.all(classes >= 0) and len(sampling.groups) <= 2 ** model.dimension
        apart = classes[:, None] != classes[None, :]
        assert np.max(np.abs(gram[apart])) <= 1e-12 * np.max(np.diag(gram))
        zero_rows = 0
        for R, (cols, _) in zip(held, sampling.groups):
            G = gram[np.ix_(cols, cols)]
            assert R.shape == (cols.size,) * 2 and np.array_equal(R, np.triu(R))
            assert np.max(np.abs(R.T @ R - G)) <= 1e-12 * np.max(np.abs(G))
            zero_rows += np.count_nonzero(~np.any(R != 0, axis=1))
        per_axis = round(B.shape[0] ** (1 / model.dimension))
        if per_axis >= np.max(np.abs(model.basis_table["lattice"])) + 1:
            assert zero_rows == 0
        return [cols.size for cols, _ in sampling.groups], zero_rows

    @settings(max_examples=60, deadline=None)
    @given(window=flat_windows(), multiplier=st.integers(2, 6))
    def test_matches_dense_svd(self, window, multiplier):
        self.check(*window, multiplier)

    @pytest.mark.parametrize("K, multiplier, constant_axis", [(12, 2, True), (16, 2, False)])
    def test_axis_with_fewer_points_than_columns(self, K, multiplier, constant_axis):
        # the long axis of the (1, 12) torus has 12 or 13 even and 11 or 12
        # odd per-axis columns but 7 or 9 grid points, so its even and odd R
        # have zero rows and every class pads.  At K = 12 the short axis
        # carries only the constant: it has no odd columns, so two classes
        model = build_model("torus", K, edges=(1.0, 12.0))
        desc = TorusBox(((0.05, 0.95), (0.2, 11.8)))
        count = multiplier * model.total_dim
        top = np.max(np.abs(model.basis_table["lattice"]), axis=0)
        per_axis = round(interior_points(model, desc, count).shape[0] ** 0.5)
        assert per_axis < top[1] and (top[0] == 0) == constant_axis
        widths, zero_rows = self.check(model, desc, multiplier)
        assert (widths, zero_rows) == {12: ([12, 11], 9), 16: ([17, 15, 4, 3], 7)}[K]

    @pytest.mark.parametrize("K", [8, 16, 32])
    def test_one_qr_per_axis(self, K, monkeypatch):
        # each class factor is rows and columns of the Kronecker product of
        # per-axis triangular factors: one QR of each axis's even columns and
        # one of its odd columns, and no other decomposition
        calls = []
        for name in ("qr", "svd", "cholesky", "eig", "eigh", "lstsq", "solve"):
            monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, f=getattr(
                np.linalg, name), **kwargs: calls.append((name, np.shape(a))) or f(
                    a, *args, **kwargs))
        model = build_model("torus", K, edges=(2 * np.pi, 2 * np.pi))
        sampling = certificate_sampling(model, TorusBox(((0.79, 5.6), (0.5, 5.4))),
                                        4 * model.total_dim)
        factors = sampling.factors()
        n = round(sampling.n_points ** 0.5)
        J = np.max(np.abs(model.basis_table["lattice"]), axis=0)
        assert calls == [("qr", shape) for j in J for shape in ((n, j + 1), (n, j))]
        assert len(factors) == 4
        assert sum(np.count_nonzero(np.any(R != 0, axis=1)) for R in factors) == model.total_dim

    def test_three_axes(self):
        # every lattice vector with three nonzero entries spans all eight
        # parities of its orbit, so each of the 2^3 classes holds columns
        model = build_model("torus", 13, edges=(2.0, 3.0, 5.0))
        lattice = model.basis_table["lattice"]
        assert np.any(np.all(lattice != 0, axis=1))
        widths, _ = self.check(model, TorusBox(((0.1, 1.9), (0.2, 2.5), (0.5, 4.0))), 4)
        assert len(widths) == 8


FLAT_TRANSLATES = {
    "arc": ("circle", {}, [AngularInterval(a, a + 5.2) for a in (0.0, 0.5, 1.0)]),
    "box": ("torus", {"edges": (2 * np.pi, 2 * np.pi)},
            [TorusBox(((0.6, 5.6), (0.4, 5.5))), TorusBox(((0.1, 5.1), (0.7, 5.8)))]),
}


class TestUcpTranslationInvariance:
    """Every translation of a flat torus is an isometry, and the certificate
    normalises in the window's own parity basis: windows of equal float side
    lengths get the same report, bit for bit."""

    @pytest.mark.parametrize("K", [8, 16, 32])
    @pytest.mark.parametrize("case", FLAT_TRANSLATES.values(), ids=FLAT_TRANSLATES.keys())
    def test_translated_windows_agree(self, case, K):
        kind, kwargs, descs = case
        lengths = {tuple(b - a for a, b in desc.intervals) for desc in descs}
        assert len(lengths) == 1
        reports = []
        for desc in descs:
            # a fresh model per window, so that no memo is shared
            model = build_model(kind, K, **kwargs)
            obs = restrict_to_observation(model, desc)
            reports.append([(r.null_dimension, r.smallest_singular, r.n_points)
                            for r in (ucp_nullspace_test(model, 2.0, obs, include_image=inc)
                                      for inc in (True, False))])
        assert all(r == reports[0] for r in reports)


CAP_CENTRES = [(0.0, 0.0), (0.0, 1.3), (0.9, 1.7), (1.6, 0.3), (np.pi, 0.0)]


class TestUcpRotationInvariance:
    """Every rotation of the round sphere is an isometry, and the
    certificate normalises in the cap-centred basis: caps of equal radius
    get the same report wherever they sit, bit for bit, from one memo key."""

    @pytest.mark.parametrize("K", [8, 16, 32])
    @pytest.mark.parametrize("radius", [1.4, 2.4])
    def test_rotated_caps_agree(self, radius, K):
        reports, keys = [], set()
        for centre in CAP_CENTRES:
            # a fresh model per cap, so that no memo is shared
            model = build_model("sphere", K)
            obs = restrict_to_observation(model, SphericalCap(centre, radius))
            reports.append([(r.null_dimension, r.smallest_singular, r.n_points)
                            for r in (ucp_nullspace_test(model, 2.0, obs, include_image=inc)
                                      for inc in (True, False))])
            keys.add(certificate_sampling(model, obs.descriptor, 4 * model.total_dim).key)
        assert all(r == reports[0] for r in reports) and len(keys) == 1


# ---------------------------------------------------------------- recovery


def cosine_records(K, centers, m=1.1):
    model, obs = half_circle(K)
    V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3cos")
    basis = make_source_basis(model, obs, len(centers), radius=1.2, order=3,
                              centers=centers)
    records = [cauchy_record(model, m, V, src, obs) for src in basis]
    return model, obs, V, records


class TestWeightedMedian:
    def test_majority_weight_wins(self):
        assert _weighted_median(np.array([0.0, 1.0, 10.0]),
                                np.array([1.0, 1.0, 10.0])) == 10.0
        assert _weighted_median(np.array([0.0, 1.0, 10.0]),
                                np.array([3.0, 1.0, 1.0])) == 0.0

    def test_single_candidate(self):
        assert _weighted_median(np.array([4.2]), np.array([0.1])) == 4.2


class TestRecoverPotential:
    def test_zero_potential_single_source(self):
        model = build_model("circle", 112)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        basis = make_source_basis(model, obs, 1, radius=1.3, order=3,
                                  centers=[np.pi / 2])
        rec = cauchy_record(model, 1.1, zero_potential, basis[0], obs)
        out = recover_potential(model, 1.1, obs, zero_potential, [rec])
        assert np.all(out.mask)
        assert np.max(np.abs(out.values)) < 1e-8

    def test_cosine_recovery_error_shrinks_with_truncation(self):
        centers = np.linspace(1.26, 1.88, 6)
        errors = []
        for K in (16, 32, 48, 64):
            model, obs, V, records = cosine_records(K, centers)
            out = recover_potential(model, 1.1, obs, V, records)
            comp = np.setdiff1d(np.arange(model.nodes.shape[0]),
                                obs.node_indices)
            covered = comp[out.mask[comp]]
            truth = 0.3 * np.cos(model.nodes[covered, 0])
            errors.append(np.max(np.abs(out.values[covered] - truth)) / 0.3)
        assert errors[2] <= 1e-4
        assert errors[0] > errors[1] > errors[2] > errors[3]

    def test_known_restriction_copied_on_observation(self):
        centers = np.linspace(1.26, 1.88, 6)
        model, obs, V, records = cosine_records(16, centers)
        out = recover_potential(model, 1.1, obs, V, records)
        assert np.array_equal(out.values[obs.node_indices],
                              V.values_at(model, obs.nodes))
        assert np.all(out.mask[obs.node_indices])

    def test_mask_contract_and_empty_coverage(self):
        centers = np.linspace(1.26, 1.88, 6)
        model, obs, V, records = cosine_records(16, centers)
        out = recover_potential(model, 1.1, obs, V, records, mask_eps=1.0)
        hidden = ~out.mask
        assert np.any(hidden)
        assert np.all(np.isnan(out.values[hidden]))
        assert out.covered_fraction < 1.0

    def test_loaded_records_rejected(self, tmp_path):
        # serialized records hold window data only: no solution to divide by
        centers = np.linspace(1.26, 1.88, 2)
        model, obs, V, records = cosine_records(8, centers)
        loaded = []
        for i, rec in enumerate(records):
            dump_record(rec, tmp_path / f"rec{i}.json")
            loaded.append(load_record(tmp_path / f"rec{i}.json"))
        assert np.array_equal(loaded[0].u_values, records[0].u_values)
        with pytest.raises(PreconditionError, match="carry no solution"):
            recover_potential(model, 1.1, obs, V, loaded)

    def test_records_of_another_mass_rejected(self):
        # unchecked, records solved at m = 3 and recovered with m = 2 give a
        # sup error of 1.79 off the window at full coverage (circle K=32, six
        # order-3 sources; 6.6e-4 for consistent records)
        model, obs, V, records = cosine_records(32, np.linspace(1.26, 1.88, 6), m=3.0)
        recover_potential(model, 3.0, obs, V, records)
        with pytest.raises(PreconditionError, match="^record bump00: mass"):
            recover_potential(model, 2.0, obs, V, records)

    @pytest.mark.parametrize("quadrature, field", [(None, "node_indices"),
                                                   (128, "solution")])
    def test_records_of_another_model_rejected(self, quadrature, field):
        # unchecked, K=20 records on the K=32 model fail as an IndexError; with
        # the same 128 nodes the window agrees and the solution length does not
        model, obs, V, _ = cosine_records(32, [1.5])
        small, small_obs = half_circle(20, quadrature=quadrature)
        src = make_source_basis(small, small_obs, 1, radius=1.2, order=3, centers=[1.5])
        records = cauchy_records(small, 1.1, V, src, small_obs)
        with pytest.raises(PreconditionError, match=f"^record bump00: {field}"):
            recover_potential(model, 1.1, obs, V, records)

    def test_disagreement_diagnostic_reported(self):
        centers = np.linspace(1.26, 1.88, 6)
        model, obs, V, records = cosine_records(32, centers)
        out = recover_potential(model, 1.1, obs, V, records)
        comp = np.setdiff1d(np.arange(model.nodes.shape[0]), obs.node_indices)
        spread = out.disagreement[comp]
        assert np.all(np.isfinite(spread[out.mask[comp]]))
        assert np.max(spread[out.mask[comp]]) < 1e-3


# ---------------------------------------------------------------- kernels


class TestHeatKernelEquality:
    def test_identical_models(self):
        model, obs = half_circle(12)
        report = heat_kernel_equality_check(model, model, 2.0, obs, obs,
                                            [0.1, 0.5, 1.0])
        assert report.passed
        assert report.max_deviation == 0.0

    def test_radius_mismatch_fails_at_small_time(self):
        times = [0.05, 0.3, 1.5]
        out = []
        for radius in (1.0, 1.05):
            model = build_model("circle", 32, radius=radius)
            obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
            out.append((model, obs))
        report = heat_kernel_equality_check(out[0][0], out[1][0], 2.0,
                                            out[0][1], out[1][1], times,
                                            tolerance=1e-6)
        assert not report.passed
        assert report.deviations[0] > report.deviations[-1]
        assert report.deviations[0] > 1e-3

    def test_mixed_blocks_equal_kernels(self):
        model, obs = half_circle(12)
        mixed = with_mixed_blocks(model, seed=7)
        obs2 = restrict_to_observation(mixed, AngularInterval(0.0, np.pi))
        report = heat_kernel_equality_check(model, mixed, 2.0, obs, obs2,
                                            [0.1, 0.5, 1.0])
        assert report.passed
        assert report.max_deviation < 1e-12

    @pytest.mark.parametrize("kind,desc", [
        ("circle", AngularInterval(0.0, np.pi)),
        ("sphere", SphericalCap((0.0, 0.0), 1.2)),
    ])
    def test_deviations_match_kernel_matrix_per_time(self, kind, desc):
        # the reference evaluates both bases afresh at every time
        model_a = build_model(kind, 8)
        model_b = with_mixed_blocks(build_model(kind, 8, radius=1.05), seed=2)
        obs_a = restrict_to_observation(model_a, desc)
        obs_b = restrict_to_observation(model_b, desc)
        times = np.array([0.05, 0.3, 1.5])
        report = heat_kernel_equality_check(model_a, model_b, 2.0, obs_a, obs_b, times)
        reference = [np.max(np.abs(heat_kernel_matrix(model_a, 2.0, t, obs_a.nodes, obs_a.nodes)
                                   - heat_kernel_matrix(model_b, 2.0, t, obs_b.nodes, obs_b.nodes)))
                     for t in times]
        assert np.array_equal(report.deviations, reference)

    def test_incompatible_nodes(self):
        model_a, obs_a = half_circle(8, quadrature=64)
        model_b, obs_b = half_circle(8, quadrature=128)
        with pytest.raises(PreconditionError):
            heat_kernel_equality_check(model_a, model_b, 2.0, obs_a, obs_b,
                                       [0.5])


# ---------------------------------------------------------------- gauge


def record_route_defect(model, m, V, obs, isometry):
    """The gauge check's record defect from two `cauchy_records` calls: the
    record of (V, f) against that of the pulled-back problem, whose source
    is f's band expansion at the pulled-back nodes."""
    src = make_source_basis(model, obs, 1)[0]
    pull_back = partial(apply_isometry, model, isometry, inverse=True)
    v_pulled = PotentialField(lambda pts: V.values_at(model, pull_back(pts)))
    f_pulled = project_function(
        model, model.eigenfunction_values(pull_back(model.nodes)) @ src.coefficients)
    rec = cauchy_records(model, m, V, [src], obs)[0]
    rec2 = cauchy_records(model, m, v_pulled,
                          [dataclasses.replace(src, coefficients=f_pulled)], obs)[0]
    inv_obs = pull_back(obs.nodes)
    du = np.max(np.abs(rec2.u_values - rec.solution.evaluate(inv_obs)))
    dlu = np.max(np.abs(rec2.lu_values - apply_L(rec.solution, m).evaluate(inv_obs)))
    return float(max(du, dlu)) / max(float(np.max(np.abs(rec.u_values))), 1e-300)


def _circle_reflection_case():
    model, obs = half_circle(8)
    V = PotentialField(lambda th: 0.3 * np.cos(th) + 0.2 * np.sin(2 * th))
    return model, V, obs, CircleReflection(np.pi / 2)


def _torus_reflection_case():
    model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
    obs = restrict_to_observation(model, TorusBox(((0.5, 4.5), (1.0, 5.0))))
    V = PotentialField(lambda pts: 0.2 * np.cos(pts[:, 0]) + 0.1 * np.sin(pts[:, 1]))
    return model, V, obs, TorusAxisReflection(0, center=2.5)


def _sphere_rotation_case():
    model = build_model("sphere", 8)
    obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.0))
    V = PotentialField(lambda pts: 0.5 * np.cos(pts[:, 0]))
    return model, V, obs, SphereAxialRotation(0.7)


class TestIsometryGauge:
    def test_identity_rotation(self):
        model, obs = half_circle(8)
        V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3cos")
        report = isometry_gauge_check(model, 2.0, V, obs, CircleRotation(0.0))
        assert report.passed
        assert report.intertwining_defect < 1e-12
        assert report.record_defect < 1e-12

    def test_circle_reflection_fixing_window(self):
        model, obs = half_circle(8)
        V = PotentialField(lambda th: 0.3 * np.cos(th) + 0.2 * np.sin(2 * th),
                           label="asym")
        report = isometry_gauge_check(model, 2.0, V, obs,
                                      CircleReflection(np.pi / 2))
        assert report.passed
        assert report.record_defect < 1e-10

    def test_sphere_axial_rotation_on_cap(self):
        model = build_model("sphere", 8)
        obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.0))
        V = PotentialField(lambda pts: 0.5 * np.cos(pts[:, 0]), label="zonal")
        report = isometry_gauge_check(model, 2.0, V, obs,
                                      SphereAxialRotation(0.7))
        assert report.passed
        assert report.record_defect < 1e-10

    def test_torus_axis_reflection(self):
        model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
        obs = restrict_to_observation(model, TorusBox(((0.5, 4.5), (1.0, 5.0))))
        V = PotentialField(
            lambda pts: 0.2 * np.cos(pts[:, 0]) + 0.1 * np.sin(pts[:, 1]),
            label="aniso")
        report = isometry_gauge_check(model, 2.0, V, obs,
                                      TorusAxisReflection(0, center=2.5))
        assert report.passed
        assert report.record_defect < 1e-10

    def test_reflection_moving_window_rejected(self):
        model, obs = half_circle(8)
        with pytest.raises(PreconditionError):
            isometry_gauge_check(model, 2.0, zero_potential, obs,
                                 CircleReflection(0.0))

    @pytest.mark.parametrize("case", [_circle_reflection_case, _torus_reflection_case,
                                      _sphere_rotation_case],
                             ids=["circle-reflection", "torus-axis-reflection",
                                  "sphere-axial-rotation"])
    def test_record_defect_matches_record_route(self, case):
        # the direct solves give the defect of two Cauchy records bit for bit
        model, V, obs, isometry = case()
        report = isometry_gauge_check(model, 2.0, V, obs, isometry)
        assert report.record_defect == record_route_defect(model, 2.0, V, obs, isometry)

    def test_intertwining_exact_for_random_field(self):
        model, obs = half_circle(10)
        report = isometry_gauge_check(model, 2.0, zero_potential, obs,
                                      CircleReflection(np.pi / 2))
        assert report.intertwining_defect < 1e-10
