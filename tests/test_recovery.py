"""Unique-continuation rank tests, recovery, and gauge checks.

The UCP test is checked against a from-scratch constraint matrix; recovery
errors are pinned by the forward-solve ground truth they started from.
"""

import numpy as np
import pytest

from loglap.calculus import heat_kernel_matrix
from loglap.errors import (
    EmptyCoverageError,
    InconsistentCandidatesError,
    PreconditionError,
    UnderdeterminedSamplingError,
)
from loglap.models import (
    AngularInterval,
    CircleReflection,
    CircleRotation,
    SphereAxialRotation,
    SphericalCap,
    TorusAxisReflection,
    TorusBox,
    build_model,
    interior_points,
    polar_cap_rings,
    restrict_to_observation,
    with_mixed_blocks,
)
from loglap.recovery import (
    heat_kernel_equality_check,
    isometry_gauge_check,
    recover_potential,
    ucp_nullspace_test,
    _weighted_median,
)
from loglap.solver import (
    PotentialField,
    cauchy_record,
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
        # from-scratch constraint matrix at the same sample points
        dim = model.total_dim
        pts = interior_points(model, obs.descriptor, 4 * dim)
        B = circle_basis_columns(pts[:, 0], 8)
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

    def test_truncation_argument(self):
        model = build_model("circle", 16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi / 2))
        report = ucp_nullspace_test(model, 2.0, obs, K=8)
        assert report.truncation == 8
        assert report.passed
        with pytest.raises(ValueError):
            ucp_nullspace_test(model, 2.0, obs, K=32)

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


def dense_certificate(model, m, obs, K, include_image):
    """The certificate straight from its definition: normalise the columns
    of [B; B diag(mult)] (or of B) and take every singular value."""
    dim = int(model.block_offsets[K])
    pts = interior_points(model, obs.descriptor, 4 * dim)
    B = model.eigenfunction_values(pts)[:, :dim]
    if include_image:
        lam = model.flat_eigenvalues()[:dim]
        B = np.vstack([B, B * ((lam + m) * np.log(lam + m))[None, :]])
    sv = np.linalg.svd(B / np.linalg.norm(B, axis=0)[None, :], compute_uv=False)
    return int(np.sum(sv < 1e-9 * sv[0])), sv


DENSE_CASES = {
    "circle": ("circle", 16, {}, AngularInterval(0.0, 4.7), None),
    "torus": ("torus", 6, {"edges": (2 * np.pi, 2 * np.pi)},
              TorusBox(((0.5, 4.5), (1.0, 5.0))), None),
    "sphere-off-pole": ("sphere", 8, {}, SphericalCap((0.9, 1.7), 1.4), None),
    # solution-only rows are rank deficient here, the image rows are not
    "sphere-off-pole-K16": ("sphere", 16, {}, SphericalCap((0.9, 1.7), 1.4), None),
    "sphere-K-below-truncation": ("sphere", 12, {}, SphericalCap((0.9, 1.7), 1.4), 6),
    "circle-quarter-degenerate": ("circle", 16, {}, AngularInterval(0.0, np.pi / 2), None),
    # caps centred on the basis pole take the per-order route
    "sphere-polar": ("sphere", 8, {}, SphericalCap((0.0, 0.0), 2.4), None),
    "sphere-polar-longitude-K16": ("sphere", 16, {}, SphericalCap((0.0, 1.3), 2.6), None),
    "sphere-polar-K-below-truncation": ("sphere", 12, {}, SphericalCap((0.0, 0.0), 2.4), 6),
    # solution-only rows are rank deficient here, the image rows are not
    "sphere-polar-degenerate": ("sphere", 16, {}, SphericalCap((0.0, 0.0), 1.4), None),
}


def assert_matches_dense(report, model, obs, K, include_image, bitwise):
    null_dim, sv = dense_certificate(model, 2.0, obs, K, include_image)
    assert report.null_dimension == null_dim
    assert report.passed == (null_dim == 0)
    if bitwise:
        assert report.smallest_singular == sv[-1]
    else:
        assert abs(report.smallest_singular - sv[-1]) <= 1e-10 * sv[0]


class TestUcpDenseReference:
    """The image variant goes through the samples' triangular factor, and
    polar caps through one block per azimuthal order; both must certify
    what the dense 2P x D stack certifies.  The solution variant of the
    dense route is the definition itself, bit for bit."""

    @pytest.mark.parametrize("include_image", [True, False], ids=["image", "solution"])
    @pytest.mark.parametrize("case", DENSE_CASES.values(), ids=DENSE_CASES.keys())
    def test_matches_dense_svd(self, case, include_image):
        kind, truncation, kwargs, desc, K = case
        model = build_model(kind, truncation, **kwargs)
        obs = restrict_to_observation(model, desc)
        report = ucp_nullspace_test(model, 2.0, obs, K=K, include_image=include_image)
        polar = kind == "sphere" and desc.center[0] == 0.0
        assert_matches_dense(report, model, obs, K or truncation, include_image,
                             bitwise=not (include_image or polar))


class TestUcpPolarCapRoute:
    """On a cap centred on the basis pole the default samples sit on rings
    of n_az equispaced longitudes, and the certificate splits by order."""

    @pytest.mark.parametrize("multiplier", [2, 4, 7])
    @pytest.mark.parametrize("K", [8, 32])
    def test_orders_orthogonal_on_ring_grid(self, K, multiplier):
        model = build_model("sphere", K)
        desc = SphericalCap((0.0, 0.7), 2.6)
        ring_points, n_az, columns = polar_cap_rings(model, desc, multiplier * K * K)
        # distinct orders, and the two kinds of one order, stay orthogonal
        # on n_az equispaced longitudes exactly when n_az > 2 (K - 1); the
        # order blocks are overdetermined when there are at least K rings
        assert n_az > 2 * (K - 1)
        assert ring_points.shape[0] >= K
        B = model.eigenfunction_values(
            interior_points(model, desc, multiplier * K * K))
        assert B.shape[0] == ring_points.shape[0] * n_az
        table = model.basis_table
        group = table["orders"] * 2 + (table["kinds"] == 2)
        gram = B.T @ B
        apart = group[:, None] != group[None, :]
        assert np.max(np.abs(gram[apart])) <= 1e-12 * np.max(np.diag(gram))
        assert [c.size for c in columns] == [K - m for m in range(K)]

    @pytest.mark.parametrize("include_image", [True, False], ids=["image", "solution"])
    @pytest.mark.parametrize("variant", ["mixed-blocks", "explicit-points", "near-pole"])
    def test_other_inputs_take_dense_route(self, variant, include_image):
        model = build_model("sphere", 8)
        desc = SphericalCap((0.0, 0.0), 2.4)
        points = None
        if variant == "mixed-blocks":
            model = with_mixed_blocks(model, seed=3)
        elif variant == "explicit-points":
            points = interior_points(model, desc, 4 * model.total_dim)
        else:
            desc = SphericalCap((1e-3, 0.0), 2.4)
        obs = restrict_to_observation(model, desc)
        if points is None:
            assert polar_cap_rings(model, desc, 4 * model.total_dim) is None
        report = ucp_nullspace_test(model, 2.0, obs, include_image=include_image,
                                    points=points)
        # only the dense route reproduces the definition bit for bit
        assert_matches_dense(report, model, obs, 8, include_image,
                             bitwise=not include_image)


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
        with pytest.raises(EmptyCoverageError):
            recover_potential(model, 1.1, obs, V, records, mask_eps=1.0,
                              require_full_coverage=True)

    def test_disagreement_tolerance_raises(self):
        centers = np.linspace(1.26, 1.88, 6)
        model, obs, V, records = cosine_records(16, centers)
        with pytest.raises(InconsistentCandidatesError):
            recover_potential(model, 1.1, obs, V, records,
                              disagreement_tol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_disagreement_tolerance_without_coverage(self):
        # no node off the window is covered, so no candidates can disagree
        centers = np.linspace(1.26, 1.88, 6)
        model, obs, V, records = cosine_records(8, centers)
        out = recover_potential(model, 1.1, obs, V, records, mask_eps=2.0,
                                disagreement_tol=1e-9)
        assert out.covered_fraction == 0.0

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

    def test_intertwining_exact_for_random_field(self):
        model, obs = half_circle(10)
        report = isometry_gauge_check(model, 2.0, zero_potential, obs,
                                      CircleReflection(np.pi / 2))
        assert report.intertwining_defect < 1e-10
