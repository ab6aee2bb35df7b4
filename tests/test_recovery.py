"""Unique-continuation rank tests, recovery, and gauge checks.

The UCP test is checked against a from-scratch constraint matrix; recovery
errors are pinned by the forward-solve ground truth they started from.
"""

import numpy as np
import pytest

from loglap import models
from loglap.calculus import heat_kernel_equality_check, heat_kernel_matrix
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
    certificate_sampling,
    interior_points,
    restrict_to_observation,
    with_mixed_blocks,
)
from loglap.recovery import (
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


def dense_certificate(model, m, obs, include_image):
    """The certificate straight from its definition: normalise the columns
    of [B; B diag(mult)] (or of B) and take every singular value."""
    pts = interior_points(model, obs.descriptor, 4 * model.total_dim)
    B = model.eigenfunction_values(pts)
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
    # caps centred on the basis pole take the per-order route
    "sphere-polar": ("sphere", 8, {}, SphericalCap((0.0, 0.0), 2.4)),
    "sphere-polar-longitude-K16": ("sphere", 16, {}, SphericalCap((0.0, 1.3), 2.6)),
    "sphere-polar-K-below-truncation": ("sphere", 6, {}, SphericalCap((0.0, 0.0), 2.4)),
    # solution-only rows are rank deficient here, the image rows are not
    "sphere-polar-degenerate": ("sphere", 16, {}, SphericalCap((0.0, 0.0), 1.4)),
}


def assert_matches_dense(report, model, obs, include_image, bitwise):
    null_dim, sv = dense_certificate(model, 2.0, obs, include_image)
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
        kind, truncation, kwargs, desc = case
        model = build_model(kind, truncation, **kwargs)
        obs = restrict_to_observation(model, desc)
        report = ucp_nullspace_test(model, 2.0, obs, include_image=include_image)
        polar = kind == "sphere" and desc.center[0] == 0.0
        assert_matches_dense(report, model, obs, include_image,
                             bitwise=not (include_image or polar))


class TestCertificateSampling:
    """`certificate_sampling` decides where the certificate samples a window
    and how its columns group."""

    @pytest.mark.parametrize("variant", ["circle", "torus", "off-pole", "mixed-blocks",
                                         "explicit-points"])
    def test_one_group_of_all_columns(self, variant, monkeypatch):
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
        points = expected[::2] if variant == "explicit-points" else None
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
        assert np.array_equal(sampling.points, given)
        assert sampling.n_points == given.shape[0]
        assert len(sampling.groups) == 1
        cols, times = sampling.groups[0]
        every = np.arange(model.total_dim)
        assert times == 1 and np.array_equal(every[cols], every)


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


MEMO_CASES = {
    "torus": ("torus", 6, {"edges": (2 * np.pi, 2 * np.pi)}, TorusBox(((0.5, 4.5), (1.0, 5.0)))),
    "sphere-off-pole": ("sphere", 8, {}, SphericalCap((0.9, 1.7), 1.4)),
    "sphere-polar": ("sphere", 8, {}, SphericalCap((0.0, 0.0), 2.4)),
}


class TestCertificateMemo:
    """The certificate's samples are kept in the model's `certificate` memo:
    both variants on one window evaluate the basis once."""

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
        calls = count_basis_calls(monkeypatch)
        reports = [ucp_nullspace_test(model, 2.0, obs, include_image=inc)
                   for inc in (True, False, True)]
        assert len(calls) == 1
        assert reports == expected + expected[:1]
        # neither variant writes into the shared samples
        held = calls[0]
        sampling = certificate_sampling(model, desc, 4 * model.total_dim)
        assert not held.flags.writeable
        assert np.array_equal(held, model.eigenfunction_values(sampling.points))

    def test_new_key_evaluates_again(self, monkeypatch):
        model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
        first = restrict_to_observation(model, TorusBox(((0.5, 4.5), (1.0, 5.0))))
        second = restrict_to_observation(model, TorusBox(((0.4, 4.0), (1.0, 5.5))))
        points = interior_points(model, second.descriptor, 3 * model.total_dim)
        calls = count_basis_calls(monkeypatch)
        steps = [
            (dict(obs=first), 1),
            (dict(obs=first, include_image=False), 1),
            (dict(obs=second), 2),
            (dict(obs=second, node_multiplier=6), 3),
            (dict(obs=second, node_multiplier=6, include_image=False), 3),
            (dict(obs=second, points=points), 4),
            (dict(obs=second, points=points, include_image=False), 4),
            (dict(obs=first), 5),  # the slot keeps the last key only
        ]
        for kwargs, count in steps:
            ucp_nullspace_test(model, 2.0, **kwargs)
            assert len(calls) == count, kwargs

    def test_mixed_copy_starts_empty(self, monkeypatch):
        model = build_model("sphere", 8)
        obs = restrict_to_observation(model, SphericalCap((0.9, 1.7), 1.4))
        plain = ucp_nullspace_test(model, 2.0, obs, include_image=False)
        calls = count_basis_calls(monkeypatch)
        mixed = with_mixed_blocks(model, seed=3)
        report = ucp_nullspace_test(mixed, 2.0, obs, include_image=False)
        # same points, so only an empty memo makes the copy evaluate its own basis
        assert len(calls) == 1
        assert not np.array_equal(calls[0], model.eigenfunction_values(
            certificate_sampling(model, obs.descriptor, 4 * model.total_dim).points))
        assert report.n_points == plain.n_points


class TestUcpPolarCapRoute:
    """On a cap centred on the basis pole the default samples sit on rings
    of n_az equispaced longitudes, and the certificate splits by order."""

    @pytest.mark.parametrize("multiplier", [2, 4, 7])
    @pytest.mark.parametrize("K", [8, 32])
    def test_orders_orthogonal_on_ring_grid(self, K, multiplier):
        model = build_model("sphere", K)
        desc = SphericalCap((0.0, 0.7), 2.6)
        sampling = certificate_sampling(model, desc, multiplier * K * K)
        ring_points = sampling.points
        n_az = sampling.n_points // ring_points.shape[0]
        # distinct orders, and the two kinds of one order, stay orthogonal
        # on n_az equispaced longitudes exactly when n_az > 2 (K - 1); the
        # order blocks are overdetermined when there are at least K rings
        assert n_az > 2 * (K - 1)
        assert ring_points.shape[0] >= K
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
        assert len(certificate_sampling(model, desc, 4 * model.total_dim,
                                        points).groups) == 1
        report = ucp_nullspace_test(model, 2.0, obs, include_image=include_image,
                                    points=points)
        # only the dense route reproduces the definition bit for bit
        assert_matches_dense(report, model, obs, include_image,
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
