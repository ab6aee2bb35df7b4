"""Eigendata catalog, quadrature, and observation-set tests.

Frozen reference values come from independent routes: closed forms evaluated
by hand or mpmath, and a brute-force lattice enumeration for the torus that
shares no code with the catalog implementation.
"""
from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loglap.models import (
    AngularInterval,
    CircleReflection,
    CircleRotation,
    DenseSynthesis,
    ObservationSet,
    RingSynthesis,
    SphereAxialRotation,
    SphericalCap,
    TorusBox,
    TorusTranslation,
    apply_isometry,
    build_model,
    geodesic_distance,
    interior_points,
    isometry_preserves_set,
    project_function,
    restrict_to_observation,
    verify_orthonormality,
    with_mixed_blocks,
)
from loglap.errors import FieldError, PreconditionError
from loglap.solver import PotentialField, forward_map

# Closed-form constants, frozen. 1/sqrt(2 pi), 1/sqrt(pi), sqrt(3/(4 pi)).
INV_SQRT_2PI = 0.3989422804014327
INV_SQRT_PI = 0.5641895835477563
ZONAL_POLE_VALUE = 0.4886025119029199


def brute_force_torus_eigendata(edges, count, bound=40):
    """Enumerate lattice eigenvalues |2 pi j / L|^2 directly.

    Independent oracle: collects every lattice vector in a box, groups equal
    eigenvalues, and returns the first `count` (eigenvalue, multiplicity)
    pairs. The box bound is large enough that the returned prefix is
    complete for every edge set used in the tests.
    """
    edges = np.asarray(edges, dtype=float)
    n = edges.size
    values = {}
    for j in itertools.product(range(-bound, bound + 1), repeat=n):
        lam = sum((2.0 * np.pi * ji / Li) ** 2 for ji, Li in zip(j, edges))
        key = round(lam, 9)
        values[key] = values.get(key, 0) + 1
    pairs = sorted(values.items())[:count]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def circle_oracle(theta, K, radius):
    """Closed-form circle basis: 1/sqrt(2 pi r), then cos(k theta)/sqrt(pi r)
    and sin(k theta)/sqrt(pi r) for k = 1..K-1."""
    cols = [np.full(theta.shape, 1.0 / np.sqrt(2.0 * np.pi * radius))]
    for k in range(1, K):
        cols += [np.cos(k * theta) / np.sqrt(np.pi * radius),
                 np.sin(k * theta) / np.sqrt(np.pi * radius)]
    return np.column_stack(cols)


class TestCircleOracle:
    """The circle is the 1-torus with period 2 pi and scale r; its tables
    must reproduce the closed forms."""

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("K", [4, 16, 33])
    def test_matches_closed_form(self, K, radius):
        model = build_model("circle", K, radius=radius)
        n = max(4 * K, 64)
        theta = 2 * np.pi * np.arange(n) / n
        assert np.array_equal(model.eigenvalues, np.array([(k / radius) ** 2 for k in range(K)]))
        assert list(model.multiplicities) == [1] + [2] * (K - 1)
        assert np.array_equal(model.nodes, theta[:, None])
        assert np.array_equal(model.weights, np.full(n, 2 * np.pi * radius / n))
        assert model.quadrature_spec == (n,)
        assert np.max(np.abs(model.node_basis() - circle_oracle(theta, K, radius))) <= 1e-13
        off_grid = np.linspace(0.0, 2 * np.pi, 37)
        assert np.max(np.abs(model.eigenfunction_values(off_grid)
                             - circle_oracle(off_grid, K, radius))) <= 1e-13


class TestCatalogEigendata:
    def test_circle_unit(self):
        model = build_model("circle", 4)
        assert np.allclose(model.eigenvalues, [0.0, 1.0, 4.0, 9.0])
        assert list(model.multiplicities) == [1, 2, 2, 2]
        assert model.total_dim == 7

    def test_circle_radius_two(self):
        model = build_model("circle", 3, radius=2.0)
        assert np.allclose(model.eigenvalues, [0.0, 0.25, 1.0])

    @pytest.mark.parametrize(
        "edges",
        [(2.0 * np.pi, 2.0 * np.pi), (2.0 * np.pi, np.pi), (2.0 * np.pi, 2.0 * np.pi * np.sqrt(2.0))],
        ids=["square", "half", "irrational"],
    )
    def test_torus_matches_bruteforce(self, edges):
        model = build_model("torus", 6, edges=edges)
        lams, mults = brute_force_torus_eigendata(edges, 6)
        assert np.allclose(model.eigenvalues, lams, atol=1e-9)
        assert list(model.multiplicities) == mults

    def test_torus_eigenvalues_stored_exact(self):
        # grouping rounds to 9 decimals; the stored values must not be rounded
        edges = (1.0, 1.3)
        model = build_model("torus", 8, edges=edges)
        j = np.array(list(itertools.product(range(-6, 7), repeat=2)))
        exact = np.sum((2 * np.pi * j / np.asarray(edges)) ** 2, axis=1)
        for lam in model.eigenvalues[1:]:
            assert np.min(np.abs(exact - lam)) <= 1e-13 * lam
        ring = build_model("torus", 8, edges=(2 * np.pi * 0.7,))
        circle = build_model("circle", 8, radius=0.7)
        assert np.allclose(ring.eigenvalues, circle.eigenvalues, rtol=1e-13, atol=0.0)

    def test_torus_square_frozen(self):
        # 2 pi x 2 pi torus: integer lattice, first three shells.
        model = build_model("torus", 3, edges=(2.0 * np.pi, 2.0 * np.pi))
        assert np.allclose(model.eigenvalues, [0.0, 1.0, 2.0])
        assert list(model.multiplicities) == [1, 4, 4]

    def test_torus_column_order_frozen(self):
        # blocks ascending; inside a block the lattice vectors in lexicographic
        # order, each nonzero one a (cos, sin) pair of columns
        model = build_model("torus", 3, edges=(2.0 * np.pi, 2.0 * np.pi))
        assert model.basis_table["lattice"].tolist() == [
            [0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, -1], [1, -1], [1, 1], [1, 1]]
        assert model.basis_table["kinds"].tolist() == [0, 1, 2, 1, 2, 1, 2, 1, 2]
        assert model.basis_table["kinds"].dtype == np.int8
        box = build_model("torus", 3, edges=(2.0 * np.pi, 3.0 * np.pi, 5.0))
        assert box.basis_table["lattice"].tolist() == [
            [0, 0, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0], [1, 0, 0]]

    def test_sphere_unit(self):
        model = build_model("sphere", 4)
        assert np.allclose(model.eigenvalues, [0.0, 2.0, 6.0, 12.0])
        assert list(model.multiplicities) == [1, 3, 5, 7]

    def test_sphere_radius(self):
        model = build_model("sphere", 3, radius=2.0)
        assert np.allclose(model.eigenvalues, [0.0, 0.5, 1.5])

    def test_eigenvalues_strictly_increasing(self):
        for kind, kwargs in (
            ("circle", {}),
            ("torus", {"edges": (2.0 * np.pi, np.pi)}),
            ("sphere", {}),
        ):
            model = build_model(kind, 8, **kwargs)
            assert np.all(np.diff(model.eigenvalues) > 0)
            assert model.eigenvalues[0] == 0.0
            assert model.multiplicities[0] == 1


def basis_column(model, k, ell, points):
    """Values of the ell-th basis function of eigenspace k."""
    return model.eigenfunction_values(points)[:, model.block_offsets[k] + ell]


class TestEigenfunctionValues:
    def test_circle_constant(self):
        model = build_model("circle", 4)
        val = basis_column(model, 0, 0, np.array([[0.7]]))
        assert np.allclose(val, INV_SQRT_2PI)

    def test_circle_first_pair(self):
        model = build_model("circle", 4)
        theta = np.array([[0.0], [np.pi / 2.0]])
        cos_vals = basis_column(model, 1, 0, theta)
        sin_vals = basis_column(model, 1, 1, theta)
        assert np.allclose(cos_vals, [INV_SQRT_PI, 0.0], atol=1e-15)
        assert np.allclose(sin_vals, [0.0, INV_SQRT_PI], atol=1e-15)

    def test_sphere_zonal_at_pole(self):
        model = build_model("sphere", 3)
        pole = np.array([[1e-12, 0.0]])
        val = basis_column(model, 1, 0, pole)
        assert np.allclose(val, ZONAL_POLE_VALUE, atol=1e-9)

    def test_sphere_radius_scaling(self):
        # Area scales like r^2 so functions scale like 1/r.
        unit = build_model("sphere", 3)
        double = build_model("sphere", 3, radius=2.0)
        p = np.array([[1.1, 0.4]])
        v1 = basis_column(unit, 2, 3, p)
        v2 = basis_column(double, 2, 3, p)
        assert np.allclose(v1, 2.0 * v2)

    def test_torus_constant(self):
        edges = (2.0 * np.pi, np.pi)
        model = build_model("torus", 3, edges=edges)
        vol = 2.0 * np.pi * np.pi
        val = basis_column(model, 0, 0, np.array([[0.3, 0.9]]))
        assert np.allclose(val, 1.0 / np.sqrt(vol))


def where_torus_basis(model, pts):
    """The flat-torus basis as first written: sin and cos of every phase,
    one of them kept per column by `np.where`.  `basis_values` takes the
    same phase product and the same sin or cos per entry, so the two must
    agree bitwise."""
    manifold, table = model.manifold, model.basis_table
    freq = np.array([2.0 * np.pi / p for p in manifold.periods])
    phase = pts @ (table["lattice"] * freq).T
    vol = float(np.prod([p * s for p, s in zip(manifold.periods, manifold.scales)]))
    out = np.where(table["kinds"][None, :] == 2, np.sin(phase), np.cos(phase))
    norm = np.where(table["kinds"] == 0, 1.0 / np.sqrt(vol), np.sqrt(2.0 / vol))
    return out * norm[None, :]


TORUS_BASIS_CASES = {
    "circle-radius-1.5": ("circle", 16, {"radius": 1.5}),
    "circle-K1": ("circle", 1, {}),
    "torus-unequal-edges": ("torus", 10, {"edges": (6.0, 4.5)}),
    "torus-K1": ("torus", 1, {"edges": (6.0, 4.5)}),
    "3-torus": ("torus", 6, {"edges": (3.0, 4.0, 5.0)}),
    # wide enough that a phase product over fewer columns changes some bits
    "torus-K32": ("torus", 32, {"edges": (6.0, 6.0)}),
}


class TestFlatTorusBasis:
    @pytest.mark.parametrize("case", TORUS_BASIS_CASES.values(), ids=TORUS_BASIS_CASES.keys())
    def test_matches_where_reference(self, case):
        kind, K, kwargs = case
        model = build_model(kind, K, **kwargs)
        rng = np.random.default_rng(K)
        periods = np.asarray(model.manifold.periods)
        # random points reach outside one period, where phases are larger
        rand = rng.uniform(-1.0, 2.0, size=(400, periods.size)) * periods
        for pts in (model.nodes, rand):
            values = model.eigenfunction_values(pts)
            assert values.flags.c_contiguous
            assert np.array_equal(values, where_torus_basis(model, pts))
        assert np.array_equal(model.node_basis(), where_torus_basis(model, model.nodes))


class TestQuadrature:
    @pytest.mark.parametrize(
        "kind,kwargs,tol",
        [
            ("circle", {}, 1e-12),
            ("torus", {"edges": (2.0 * np.pi, np.pi)}, 1e-12),
            ("sphere", {}, 1e-10),
        ],
    )
    def test_orthonormality(self, kind, kwargs, tol):
        model = build_model(kind, 6, **kwargs)
        report = verify_orthonormality(model, tol=tol)
        assert report.passed, report
        assert report.max_defect <= tol

    def test_aliasing_reported(self):
        # 8 nodes cannot resolve products of degree-7 trig polynomials.
        model = build_model("circle", 8, quadrature=8)
        report = verify_orthonormality(model, tol=1e-10)
        assert not report.passed

    def test_volume(self):
        model = build_model("circle", 3, radius=2.0)
        assert np.allclose(np.sum(model.weights), 4.0 * np.pi)
        sphere = build_model("sphere", 3)
        assert np.allclose(np.sum(sphere.weights), 4.0 * np.pi)
        torus = build_model("torus", 3, edges=(2.0 * np.pi, np.pi))
        assert np.allclose(np.sum(torus.weights), 2.0 * np.pi ** 2)

    def test_projection_roundtrip(self):
        """Quadrature projection is exact on the truncated span."""
        rng = np.random.default_rng(7)
        for kind, kwargs in (("circle", {}), ("sphere", {})):
            model = build_model(kind, 5, **kwargs)
            coeffs = rng.standard_normal(model.total_dim)
            samples = model.node_basis() @ coeffs
            recovered = project_function(model, samples)
            assert np.allclose(recovered, coeffs, atol=1e-11)

    def test_inner_product_parseval(self):
        model = build_model("circle", 6)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(model.total_dim)
        d = rng.standard_normal(model.total_dim)
        f = model.node_basis() @ c
        g = model.node_basis() @ d
        assert np.allclose(np.sum(model.weights * f * g), c @ d, atol=1e-11)

    def test_projection_of_plain_cosine(self):
        # cos(3 theta) = sqrt(pi) * basisfunction(3, cos) on the unit circle.
        model = build_model("circle", 5)
        samples = np.cos(3.0 * model.nodes[:, 0])
        coeffs = project_function(model, samples)
        expected = np.zeros(model.total_dim)
        expected[model.block_slice(3)][0] = np.sqrt(np.pi)
        assert np.allclose(coeffs, expected, atol=1e-12)


class TestLaplacianConsistency:
    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("circle", {"radius": 1.7}),
            ("torus", {"edges": (2.0 * np.pi, np.pi)}),
        ],
    )
    def test_flat_models_exact(self, kind, kwargs):
        """Flat Laplacian via central differences in the chart coordinates.

        The circle's chart angle has metric length r; torus charts are
        unit-scaled. Second order stencil, as for the sphere below.
        """
        model = build_model(kind, 5, **kwargs)
        scale = kwargs.get("radius", 1.0)
        h = 1e-4
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, np.pi, size=(8, model.dimension))
        base = model.eigenfunction_values(pts)
        lap = np.zeros_like(base)
        for axis in range(model.dimension):
            step = np.zeros(model.dimension)
            step[axis] = h
            lap -= (model.eigenfunction_values(pts + step) - 2.0 * base
                    + model.eigenfunction_values(pts - step)) / (h * scale) ** 2
        lam = np.repeat(model.eigenvalues, model.multiplicities)
        scale_of_values = np.max(np.abs(base)) * model.eigenvalues[-1]
        assert np.max(np.abs(lap - base * lam[None, :])) <= 1e-6 * scale_of_values

    def test_sphere_finite_differences(self):
        """Laplace-Beltrami via central differences in (colat, lon).

        Independent of every stored table; second order stencil, so the
        tolerance is h^2 times curvature-scale derivatives.
        """
        model = build_model("sphere", 4, radius=1.3)
        r = 1.3
        h = 1e-4
        rng = np.random.default_rng(11)
        colat = rng.uniform(0.6, 2.5, size=8)
        lon = rng.uniform(0.0, 2.0 * np.pi, size=8)
        pts = np.column_stack([colat, lon])

        def ev(p):
            return model.eigenfunction_values(p)

        base = ev(pts)
        dth = np.zeros((8, 2)); dth[:, 0] = h
        dph = np.zeros((8, 2)); dph[:, 1] = h
        d2_th = (ev(pts + dth) - 2.0 * base + ev(pts - dth)) / h**2
        d1_th = (ev(pts + dth) - ev(pts - dth)) / (2.0 * h)
        d2_ph = (ev(pts + dph) - 2.0 * base + ev(pts - dph)) / h**2
        cot = 1.0 / np.tan(colat)[:, None]
        sin2 = np.sin(colat)[:, None] ** 2
        lap = -(d2_th + cot * d1_th + d2_ph / sin2) / r**2
        lam = np.repeat(model.eigenvalues, model.multiplicities)
        scale = np.max(np.abs(base)) * model.eigenvalues[-1]
        assert np.max(np.abs(lap - base * lam[None, :])) <= 1e-4 * scale


class TestObservationSets:
    def test_circle_interval(self):
        model = build_model("circle", 5)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        theta = obs.nodes[:, 0]
        assert theta.min() > 0.0 and theta.max() < np.pi
        assert obs.nodes.shape[0] > 0
        assert obs.nodes.shape[0] < model.nodes.shape[0]
        assert np.allclose(obs.weights, model.weights[obs.node_indices])

    def test_window_is_frozen_and_read_only(self):
        # records and spectral data hold the window itself, not a copy
        model = build_model("circle", 5)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        for name in ("node_indices", "nodes", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(obs, name)[0] = 1
        with pytest.raises(FrozenInstanceError):
            obs.descriptor = AngularInterval(0.5, 1.0)

    @pytest.mark.parametrize("name", ["node_indices", "weights"])
    def test_one_index_and_weight_per_node(self, name):
        model = build_model("circle", 5)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        with pytest.raises(FieldError, match=f"^{name}: expected {obs.size} entries, one per node"):
            replace(obs, **{name: getattr(obs, name)[1:]})

    @pytest.mark.parametrize("descriptor", [None, (0.0, np.pi), CircleRotation(0.5)],
                             ids=["none", "tuple", "isometry"])
    def test_descriptor_is_a_window(self, descriptor):
        model = build_model("circle", 5)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        with pytest.raises(FieldError, match="^descriptor: expected one of"):
            replace(obs, descriptor=descriptor)

    def test_list_indices_refused_by_hand(self):
        with pytest.raises(FieldError, match="^node_indices: expected an array of integers"):
            ObservationSet(AngularInterval(0, 1), [0, 1], np.zeros((2, 1)), np.ones(2))

    def test_window_by_hand_holds_read_only_copies(self):
        given = np.array([0, 1]), np.zeros((2, 1)), np.ones(2)
        obs = ObservationSet(AngularInterval(0.0, 1.0), *given)
        held = obs.node_indices, obs.nodes, obs.weights
        for array, kept in zip(given, held):
            assert array.flags.writeable and not kept.flags.writeable
            array[0] = 7
            assert 7 not in kept

    def test_full_circle_rejected(self):
        model = build_model("circle", 5)
        with pytest.raises(FieldError, match=r"^end: "):
            restrict_to_observation(model, AngularInterval(0.0, 2.0 * np.pi))

    def test_empty_interval_rejected(self):
        model = build_model("circle", 5, quadrature=64)
        with pytest.raises(PreconditionError):
            restrict_to_observation(model, AngularInterval(0.001, 0.002))

    def test_torus_box(self):
        model = build_model("torus", 3, edges=(2.0 * np.pi, np.pi))
        box = TorusBox(((0.0, np.pi), (0.0, np.pi / 2.0)))
        obs = restrict_to_observation(model, box)
        assert obs.nodes.shape[0] > 0
        assert np.all(obs.nodes[:, 0] < np.pi)
        assert np.all(obs.nodes[:, 1] < np.pi / 2.0)

    def test_spherical_cap(self):
        model = build_model("sphere", 4)
        cap = SphericalCap((0.0, 0.0), np.pi / 3.0)
        obs = restrict_to_observation(model, cap)
        assert np.all(obs.nodes[:, 0] < np.pi / 3.0)
        assert obs.nodes.shape[0] > 0

    def test_cap_covering_everything_rejected(self):
        model = build_model("sphere", 4)
        with pytest.raises(FieldError, match=r"^radius: "):
            restrict_to_observation(model, SphericalCap((0.0, 0.0), np.pi))

    def test_interior_points(self):
        model = build_model("circle", 5)
        desc = AngularInterval(1.0, 2.0)
        pts = interior_points(model, desc, 37)
        assert pts.shape == (37, 1)
        assert pts[:, 0].min() > 1.0 and pts[:, 0].max() < 2.0

        sphere = build_model("sphere", 4)
        cap = SphericalCap((0.0, 0.0), 0.8)
        pts = interior_points(sphere, cap, 50)
        assert pts.shape[0] >= 50
        assert np.all(pts[:, 0] < 0.8)


class TestDistances:
    def test_circle_wraparound(self):
        model = build_model("circle", 3, radius=2.0)
        d = geodesic_distance(model, np.array([[0.1]]), np.array([[2.0 * np.pi - 0.1]]))
        assert np.allclose(d, 2.0 * 0.2)

    def test_torus_wraparound(self):
        model = build_model("torus", 3, edges=(2.0 * np.pi, np.pi))
        p = np.array([[0.05, 0.05]])
        q = np.array([[2.0 * np.pi - 0.05, np.pi - 0.05]])
        assert np.allclose(geodesic_distance(model, p, q), np.hypot(0.1, 0.1))

    def test_sphere_great_circle(self):
        model = build_model("sphere", 3, radius=2.0)
        north = np.array([[1e-9, 0.0]])
        equator = np.array([[np.pi / 2.0, 1.0]])
        assert np.allclose(geodesic_distance(model, north, equator), 2.0 * np.pi / 2.0, atol=1e-6)


class TestBlockMixing:
    def test_mixed_model_still_orthonormal(self):
        model = build_model("circle", 6)
        mixed = with_mixed_blocks(model, seed=5)
        report = verify_orthonormality(mixed, tol=1e-11)
        assert report.passed
        # Same spectrum, genuinely different basis.
        assert np.allclose(mixed.eigenvalues, model.eigenvalues)
        assert not np.allclose(mixed.node_basis(), model.node_basis())

    def test_mixing_preserves_block_spans(self):
        model = build_model("sphere", 4)
        mixed = with_mixed_blocks(model, seed=1)
        for k in range(model.truncation):
            sl = model.block_slice(k)
            a = model.node_basis()[:, sl]
            b = mixed.node_basis()[:, sl]
            # b = a @ Q for orthogonal Q, so projectors coincide.
            assert np.allclose(a @ a.T, b @ b.T, atol=1e-10)

    def test_mixed_copy_starts_without_the_memo(self):
        # the copy shares every field but none of the arrays memoised on
        # the original, which hold the unmixed basis
        model = build_model("sphere", 4)
        plain = model.node_basis()
        mixed = with_mixed_blocks(model, seed=1)
        assert not np.allclose(mixed.node_basis(), plain)
        assert model.node_basis() is plain

    def test_rectangular_transform_keeps_leading_blocks(self):
        # the first D_6 catalog columns of the K=8 circle, as a (D_8, D_6)
        # transform, are the K=6 circle
        big, small = build_model("circle", 8), build_model("circle", 6)
        cut = replace(big, truncation=6, eigenvalues=big.eigenvalues[:6],
                      multiplicities=big.multiplicities[:6],
                      transform=np.eye(big.total_dim)[:, :small.total_dim])
        assert np.array_equal(cut.nodes, small.nodes)
        pts = np.linspace(0.0, 2.0 * np.pi, 37)
        assert np.array_equal(cut.eigenfunction_values(pts), small.eigenfunction_values(pts))
        V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3*cos")
        F = np.random.default_rng(0).standard_normal((small.total_dim, 3))
        assert np.array_equal(forward_map(cut, 2.0, V).solve(F),
                              forward_map(small, 2.0, V).solve(F))
        # mixing composes after the transform, so the cut model can be mixed
        assert verify_orthonormality(with_mixed_blocks(cut, seed=2), tol=1e-11).passed


class TestIsometries:
    def test_circle_rotation_and_reflection(self):
        model = build_model("circle", 4)
        pts = np.array([[0.3], [5.9]])
        rot = CircleRotation(1.0)
        out = apply_isometry(model, rot, pts)
        assert np.allclose(np.mod(out[:, 0], 2.0 * np.pi), np.mod(pts[:, 0] + 1.0, 2.0 * np.pi))
        refl = CircleReflection(0.0)
        out = apply_isometry(model, refl, pts)
        assert np.allclose(np.mod(out[:, 0] + pts[:, 0], 2.0 * np.pi), 0.0, atol=1e-12)

    def test_distance_invariance(self):
        rng = np.random.default_rng(2)
        model = build_model("sphere", 3)
        iso = SphereAxialRotation(0.77)
        p = np.column_stack([rng.uniform(0.2, 2.9, 5), rng.uniform(0, 2 * np.pi, 5)])
        q = np.column_stack([rng.uniform(0.2, 2.9, 5), rng.uniform(0, 2 * np.pi, 5)])
        d0 = geodesic_distance(model, p, q)
        d1 = geodesic_distance(model, apply_isometry(model, iso, p), apply_isometry(model, iso, q))
        assert np.allclose(d0, d1, atol=1e-12)

        torus = build_model("torus", 3, edges=(2.0 * np.pi, np.pi))
        iso_t = TorusTranslation((0.4, 0.2))
        pt = np.column_stack([rng.uniform(0, 2 * np.pi, 5), rng.uniform(0, np.pi, 5)])
        qt = np.column_stack([rng.uniform(0, 2 * np.pi, 5), rng.uniform(0, np.pi, 5)])
        assert np.allclose(
            geodesic_distance(torus, pt, qt),
            geodesic_distance(torus, apply_isometry(torus, iso_t, pt), apply_isometry(torus, iso_t, qt)),
            atol=1e-12,
        )

    def test_set_preservation_predicates(self):
        model = build_model("sphere", 4)
        cap = SphericalCap((0.0, 0.0), np.pi / 3.0)
        obs = restrict_to_observation(model, cap)
        rot = SphereAxialRotation(1.3)
        assert isometry_preserves_set(model, rot, obs)

        circle = build_model("circle", 4)
        interval = restrict_to_observation(circle, AngularInterval(0.0, np.pi))
        refl = CircleReflection(1.0)
        assert not isometry_preserves_set(circle, refl, interval)


def lpmv_basis(pts, table):
    """The unit-sphere basis as it was built before the recurrence: scipy's
    lpmv (Condon-Shortley sign included) times
    sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), and sqrt(2) cos/sin(m lon) for m > 0."""
    sps = pytest.importorskip("scipy.special")
    colat, lon = pts[:, 0], pts[:, 1]
    l, m, kinds = table["degrees"], table["orders"], table["kinds"]
    norm = np.exp(0.5 * (np.log(2 * l + 1.0) - np.log(4.0 * np.pi)
                         + sps.gammaln(l - m + 1) - sps.gammaln(l + m + 1)))
    phase = m[None, :] * lon[:, None]
    trig = np.where(kinds == 0, 1.0, np.sqrt(2.0)) * np.where(kinds == 2, np.sin(phase),
                                                               np.cos(phase))
    return sps.lpmv(m[None, :], l[None, :], np.cos(colat)[:, None]) * norm * trig


def exact_basis(point, table):
    """The unit-sphere basis at one point to 60 digits, from the explicit
    polynomial (-1)^m sin^m d^m/dx^m P_l(x) with P_l's exact coefficients."""
    mpmath = pytest.importorskip("mpmath")
    from fractions import Fraction
    from math import comb, factorial
    out = np.empty(table["degrees"].size)
    with mpmath.workdps(60):
        colat, lon = mpmath.mpf(float(point[0])), mpmath.mpf(float(point[1]))
        x, s = mpmath.cos(colat), mpmath.sin(colat)
        for col, (l, m, kind) in enumerate(zip(*(table[k].tolist() for k in
                                                 ("degrees", "orders", "kinds")))):
            # P_l(x) = 2^-l sum_k (-1)^k C(l,k) C(2l-2k,l) x^(l-2k), differentiated m times
            terms = [(Fraction((-1) ** k * comb(l, k) * comb(2 * l - 2 * k, l), 2 ** l)
                      * factorial(l - 2 * k) / factorial(l - 2 * k - m), l - 2 * k - m)
                     for k in range(l // 2 + 1) if l - 2 * k >= m]
            deriv = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * x ** j
                                for c, j in terms)
            norm = mpmath.sqrt((2 * l + 1) * mpmath.mpf(factorial(l - m))
                               / (4 * mpmath.pi * factorial(l + m)))
            value = norm * (-s) ** m * deriv
            if kind:
                value *= mpmath.sqrt(2) * (mpmath.cos(m * lon) if kind == 1
                                           else mpmath.sin(m * lon))
            out[col] = float(value)
    return out


def per_column_sphere_basis(pts, table, radius):
    """The degree recurrence written into a row-major (P, D) array one
    column at a time, the layout the basis had before it was built row by
    row; the arithmetic is the same, so the values must agree bitwise."""
    colat, lon = pts[:, 0], pts[:, 1]
    x, s = np.cos(colat), np.sin(colat)
    degs = table["degrees"]
    column = {(int(l), int(m), int(k)): c for c, (l, m, k) in
              enumerate(zip(degs, table["orders"], table["kinds"]))}
    lmax = int(np.max(degs))
    out = np.empty((pts.shape[0], degs.size))
    p_mm = np.full(pts.shape[0], 1.0 / (np.sqrt(4.0 * np.pi) * radius))
    for m in range(lmax + 1):
        if m == 0:
            trig = ((0, 1.0),)
        else:
            p_mm = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * p_mm
            trig = ((1, np.sqrt(2.0) * np.cos(m * lon)),
                    (2, np.sqrt(2.0) * np.sin(m * lon)))
        p_prev, p = np.zeros_like(p_mm), p_mm
        for l in range(m, lmax + 1):
            if l > m:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p = p, a * (x * p - b * p_prev)
            for kind, factor in trig:
                out[:, column[l, m, kind]] = p * factor
    return out


class TestSphereRecurrence:
    """The normalised associated-Legendre recurrence against lpmv, an exact
    evaluation, closed forms at the poles and the quadrature."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    def test_matches_per_column_reference(self, mixed):
        # one step per degree for all orders does the per-order arithmetic
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0.0, np.pi, 300), rng.uniform(0.0, 2.0 * np.pi, 300)])
        for K, radius in itertools.product((1, 2, 12, 24, 48), (1.5, 0.75)):
            model = build_model("sphere", K, radius=radius)
            expected = per_column_sphere_basis(pts, model.basis_table, radius)
            if mixed:
                model = with_mixed_blocks(model, seed=3)
                expected = expected @ model.transform
            assert np.array_equal(model.eigenfunction_values(pts), expected), (K, radius)
        # the heat trace and the Gram assembly take rows of the node basis;
        # a column-major cache makes every such take strided
        for other in (build_model("circle", 6), model,
                      build_model("torus", 4, edges=(6.0, 6.0))):
            assert other.node_basis().flags.c_contiguous

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    def test_node_basis_matches_per_column_reference(self, radius):
        model = build_model("sphere", 24, radius=radius)
        expected = per_column_sphere_basis(model.nodes, model.basis_table, radius)
        assert np.array_equal(model.node_basis(), expected)

    @pytest.mark.parametrize("K", [8, 32, 48])
    def test_matches_lpmv(self, K):
        # lpmv receives x = cos(colatitude) and loses sin(colatitude) to its
        # rounding within 1e-2 of a pole (up to 2.6e-12 off at K = 48); that
        # band is checked against the exact evaluation below.
        rng = np.random.default_rng(K)
        model = build_model("sphere", K)
        pts = np.column_stack([rng.uniform(1e-2, np.pi - 1e-2, 1000),
                               rng.uniform(0.0, 2.0 * np.pi, 1000)])
        diff = model.eigenfunction_values(pts) - lpmv_basis(pts, model.basis_table)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_near_poles_match_exact_values(self):
        rng = np.random.default_rng(48)
        model = build_model("sphere", 48)
        offsets = rng.uniform(1e-3, 1e-2, 4)
        pts = np.column_stack([np.concatenate([offsets[:2], np.pi - offsets[2:]]),
                               rng.uniform(0.0, 2.0 * np.pi, 4)])
        values = model.eigenfunction_values(pts)
        for point, row in zip(pts, values):
            assert np.max(np.abs(row - exact_basis(point, model.basis_table))) <= 5e-13

    def test_pole_closed_forms(self):
        # at colatitude 0 only the zonal columns survive, with value
        # sqrt((2l+1)/(4 pi)); at pi they carry the sign (-1)^l
        model = build_model("sphere", 48)
        table = model.basis_table
        zonal = table["orders"] == 0
        peak = np.sqrt((2 * table["degrees"] + 1) / (4.0 * np.pi))
        north, south = model.eigenfunction_values(np.array([[0.0, 0.4], [np.pi, 0.4]]))
        assert np.max(np.abs(north[zonal] - peak[zonal])) <= 1e-13
        assert np.all(north[~zonal] == 0.0)
        sign = (-1.0) ** table["degrees"]
        assert np.max(np.abs(south[zonal] - sign[zonal] * peak[zonal])) <= 1e-13
        assert np.max(np.abs(south[~zonal])) <= 1e-13

    def test_orthonormal_at_K48(self):
        report = verify_orthonormality(build_model("sphere", 48))
        assert report.passed, report

    def test_radius_two_halves_every_value(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(0.0, np.pi, 200), rng.uniform(0.0, 2.0 * np.pi, 200)])
        unit = build_model("sphere", 12).eigenfunction_values(pts)
        double = build_model("sphere", 12, radius=2.0).eigenfunction_values(pts)
        assert np.array_equal(double, unit / 2.0)


def blockwise(B, offsets, W):
    """Each eigenspace's part of B @ W as one mat-vec per (source, block),
    (K, S, |O|): the dense window pass's products."""
    out = np.empty((offsets.size - 1, W.shape[1], B.shape[0]))
    for s, column in enumerate(np.ascontiguousarray(W.T)):
        for k in range(offsets.size - 1):
            out[k, s] = B[:, offsets[k]:offsets[k + 1]] @ column[offsets[k]:offsets[k + 1]]
    return out


def dense_window(case):
    """A model and a window of it that take the dense route."""
    if case == "circle":
        model, desc = build_model("circle", 16), AngularInterval(0.0, np.pi)
    elif case == "torus":
        model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
        desc = TorusBox(((0.0, np.pi), (0.5, 3.0)))
    elif case == "off-pole":
        model, desc = build_model("sphere", 8), SphericalCap((0.9, 1.7), 1.2)
    else:  # a polar cap of a basis mixed inside each eigenspace
        model, desc = with_mixed_blocks(build_model("sphere", 8), seed=3), SphericalCap((0.0, 0.0), 1.2)
    return model, restrict_to_observation(model, desc)


class TestWindowSynthesis:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), K=st.integers(1, 24), S=st.sampled_from([1, 16]))
    def test_rings_match_the_dense_products(self, data, K, S):
        model = build_model("sphere", K)
        n_colat, n_lon = model.quadrature_spec
        r = data.draw(st.integers(1, n_colat - 1), label="rings")
        colat = model.nodes[::n_lon, 0]
        obs = restrict_to_observation(model, SphericalCap((0.0, 0.0),
                                                          0.5 * (colat[r - 1] + colat[r])))
        window = model.window_synthesis(obs)
        assert isinstance(window, RingSynthesis) and obs.size == r * n_lon
        C = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")).standard_normal(
            (model.total_dim, S))
        B = model.node_basis()[obs.node_indices]
        for got, dense in ((window.values(C), B @ C),
                           (window.per_block(C), blockwise(B, model.block_offsets, C))):
            assert got.shape == dense.shape
            assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("rings", [1, 10])
    def test_a_ring_source_does_not_depend_on_its_neighbours(self, rings):
        model = build_model("sphere", 24)
        colat = model.nodes[::model.quadrature_spec[1], 0]
        obs = restrict_to_observation(
            model, SphericalCap((0.0, 0.0), 0.5 * (colat[rings - 1] + colat[rings])))
        window = model.window_synthesis(obs)
        assert window.legendre.shape[1] == rings
        W = np.random.default_rng(5).standard_normal((model.total_dim, 16))
        stacked = window.per_block(W)
        for s in range(W.shape[1]):
            assert np.array_equal(stacked[:, s], window.per_block(W[:, [s]])[:, 0])

    @pytest.mark.parametrize("case", ["circle", "torus", "off-pole", "mixed"])
    def test_dense_windows_keep_the_gathered_products(self, case):
        model, obs = dense_window(case)
        window = model.window_synthesis(obs)
        assert isinstance(window, DenseSynthesis)
        B = model.node_basis()[obs.node_indices]
        assert window.rows.dtype == B.dtype and window.rows.tobytes() == B.tobytes()
        for S in (1, 3):
            C = np.random.default_rng(S).standard_normal((model.total_dim, S))
            assert np.array_equal(window.values(C), B @ C)
            assert np.array_equal(window.per_block(C), blockwise(B, model.block_offsets, C))

    def test_the_window_slot_is_the_one_gather(self):
        # the memo keeps one route per window, so another window's dense
        # route replaces the only gather the memo holds
        model, obs = dense_window("circle")
        other = restrict_to_observation(model, AngularInterval(np.pi, 5.0))
        model.window_synthesis(obs)
        window = model.window_synthesis(other)
        assert isinstance(window, DenseSynthesis)
        assert window.rows.shape == (other.size, model.total_dim)
        memo = model.__dict__["_memo"]
        assert memo["window_synthesis"][0] == np.asarray(other.node_indices,
                                                         dtype=np.intp).tobytes()
        gathers = [v for _, v in memo.values() if isinstance(v, DenseSynthesis)]
        assert len(gathers) == 1 and gathers[0] is window

    def test_ring_route_needs_whole_polar_rings(self):
        # the first rings but one node, and the last rings, take the dense route
        model = build_model("sphere", 6)
        n_lon = model.quadrature_spec[1]
        cap = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.2))
        south = restrict_to_observation(model, SphericalCap((np.pi, 0.0), 1.2))
        cut = replace(cap, node_indices=cap.node_indices[:-1], nodes=cap.nodes[:-1],
                      weights=cap.weights[:-1])
        assert cap.size % n_lon == 0 and south.size % n_lon == 0
        for obs in (cut, south):
            assert isinstance(model.window_synthesis(obs), DenseSynthesis)


class TestDeterminism:
    def test_rebuild_identical(self):
        a = build_model("sphere", 5)
        b = build_model("sphere", 5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.node_basis(), b.node_basis())

    def test_node_basis_is_read_only(self):
        # every caller shares the memoised array
        model = build_model("circle", 6)
        with pytest.raises(ValueError, match="read-only"):
            model.node_basis()[0, 0] = 1.0
        assert model.node_basis()[0, 0] == 1.0 / np.sqrt(2.0 * np.pi)
