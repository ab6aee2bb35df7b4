"""Functional calculus tests: spectral multipliers, heat flow, kernels and
their checks, the integral identity for the logarithm, and the pointwise
operator route.

Frozen constants were produced by an independent high-precision route
(mpmath at 40 digits): multiplier values (lam+m) ln(lam+m) and image-sum
kernel values on the unit circle.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from loglap.calculus import (
    GrigoryanReport,
    SanityReport,
    apply_L,
    check_mass,
    field_from_samples,
    grigoryan_check,
    heat_kernel,
    heat_kernel_equality_check,
    heat_kernel_matrix,
    log_identity_quadrature,
    pointwise_L,
    project,
    random_field,
    supnorm_sanity_check,
    weyl_sanity_check,
    FieldCoefficients,
)
from loglap.models import (AngularInterval, as_points, build_model, geodesic_distance,
                           restrict_to_observation)
from loglap.errors import QuadratureConvergenceError

# (lam + 2) ln(lam + 2) for lam = 0, 1, 4, 9; mpmath, 40 digits, frozen.
MULT_M2 = {
    0.0: 1.3862943611198906,
    1.0: 3.2958368660043291,
    4.0: 10.7505568153683300,
    9.0: 26.3768480007820760,
}

# Image-sum kernel on the unit circle with m = 2, frozen from mpmath.
THETA_SPOTS = [
    (0.1, 0.0, 0.7303586406011735),
    (0.5, 1.0, 0.0890161824402976),
    (1.0, np.pi, 0.0064752630902590),
    (2.0, 2.5, 0.0022834678877630),
]

# 2 ln 2 / sqrt(2 pi): value of the pointwise operator on the ground field.
PTL_CONSTANT = 0.5530514337328164


def image_sum_kernel(t, dtheta, radius=1.0, mass=2.0, terms=50):
    """Wrapped-Gaussian oracle for the circle heat kernel (with mass)."""
    j = np.arange(-terms, terms + 1)
    gau = np.exp(-((radius * dtheta + 2.0 * np.pi * radius * j) ** 2) / (4.0 * t))
    return float(np.exp(-mass * t) * gau.sum() / np.sqrt(4.0 * np.pi * t))


class TestMultipliers:
    def test_apply_L_frozen_table(self):
        model = build_model("circle", 4)
        unit = FieldCoefficients(model, np.ones(model.total_dim))
        out = apply_L(unit, 2.0)
        expected = [MULT_M2[lam] for lam in model.flat_eigenvalues()]
        assert np.allclose(out.values, expected, rtol=1e-14)

    def test_composition_matches(self):
        model = build_model("sphere", 4)
        f = random_field(model, seed=1)
        mu = model.flat_eigenvalues() + 2.5
        via_parts = mu * (np.log(mu) * f.values)
        direct = apply_L(f, 2.5)
        assert np.allclose(via_parts, direct.values, rtol=1e-13)

    def test_multipliers_monotone(self):
        model = build_model("torus", 6, edges=(2 * np.pi, np.pi))
        mu = model.eigenvalues + 2.0
        mult = mu * np.log(mu)
        assert np.all(np.diff(mult) > 0)

    def test_mass_validated(self):
        model = build_model("circle", 3)
        f = random_field(model, seed=0)
        for bad in (1.0, 0.3, -2.0):
            with pytest.raises(ValueError):
                apply_L(f, bad)
        check_mass(1.0001)

    def test_projection_partition(self):
        model = build_model("circle", 5)
        f = random_field(model, seed=3)
        total = np.zeros(model.total_dim)
        for k in range(model.truncation):
            pk = project(f, k)
            total += pk.values
            again = project(pk, k)
            assert np.allclose(again.values, pk.values)
            if k >= 1:
                crossed = project(pk, k - 1)
                assert np.allclose(crossed.values, 0.0)
        assert np.allclose(total, f.values)

    def test_L_commutes_with_projection(self):
        model = build_model("sphere", 4)
        f = random_field(model, seed=9)
        a = project(apply_L(f, 2.0), 2)
        b = apply_L(project(f, 2), 2.0)
        assert np.allclose(a.values, b.values, rtol=1e-13)


class TestHeatFlow:
    def test_semigroup_property(self):
        # P(0.3) P(0.5) = P(0.8) for the kernels, composed by the node quadrature
        model = build_model("circle", 6)
        nodes, w = model.nodes, model.weights
        one = (heat_kernel_matrix(model, 2.0, 0.3, nodes, nodes) * w[None, :]
               @ heat_kernel_matrix(model, 2.0, 0.5, nodes, nodes))
        both = heat_kernel_matrix(model, 2.0, 0.8, nodes, nodes)
        assert np.max(np.abs(one - both)) < 1e-13 * np.max(np.abs(both))

    def test_field_from_samples_roundtrip(self):
        model = build_model("circle", 6)
        g = random_field(model, seed=8)
        rebuilt = field_from_samples(model, g.node_values())
        assert np.allclose(rebuilt.values, g.values, atol=1e-11)


class TestHeatKernel:
    def test_frozen_spots_against_oracle(self):
        model = build_model("circle", 24)
        for t, dth, expected in THETA_SPOTS:
            got = heat_kernel(model, 2.0, t, np.array([dth]), np.array([0.0]))
            assert abs(got - expected) < 1e-10, (t, dth)

    def test_grid_against_image_sum(self):
        model = build_model("circle", 24)
        times = np.linspace(0.1, 2.0, 9)
        dths = np.linspace(0.0, np.pi, 7)
        worst = 0.0
        for t in times:
            for dth in dths:
                got = heat_kernel(model, 2.0, t, np.array([dth]), np.array([0.0]))
                worst = max(worst, abs(got - image_sum_kernel(t, dth)))
        assert worst < 1e-8

    def test_symmetry(self):
        model = build_model("sphere", 8)
        x = np.array([0.7, 1.1])
        y = np.array([2.0, 4.4])
        a = heat_kernel(model, 2.0, 0.4, x, y)
        b = heat_kernel(model, 2.0, 0.4, y, x)
        assert np.isclose(a, b, rtol=1e-13)

    def test_mass_shift_relation(self):
        model = build_model("circle", 16)
        x, y = np.array([0.3]), np.array([1.9])
        t = 0.7
        k2 = heat_kernel(model, 2.0, t, x, y)
        k3 = heat_kernel(model, 3.0, t, x, y)
        assert np.isclose(k3, np.exp(-t) * k2, rtol=1e-12)

    def test_kernel_matrix_agrees(self):
        model = build_model("sphere", 6)
        pts = model.nodes[::40]
        mat = heat_kernel_matrix(model, 2.0, 0.5, pts, pts)
        spot = heat_kernel(model, 2.0, 0.5, pts[2], pts[5])
        assert np.isclose(mat[2, 5], spot, rtol=1e-13)
        assert np.allclose(mat, mat.T, atol=1e-13)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_kernel_matrix_needs_positive_time(self, t):
        model = build_model("circle", 8)
        with pytest.raises(ValueError, match="t > 0"):
            heat_kernel_matrix(model, 2.0, t, model.nodes, model.nodes)


class TestGrigoryanBound:
    def test_circle_antipodal_exponent(self):
        """The leading wrapped Gaussian has exponent d^2/(4t), so the
        fitted rate must come out at or below 1/4."""
        model = build_model("circle", 24)
        times = np.linspace(0.05, 2.0, 16)
        pairs = [
            (np.array([0.0]), np.array([np.pi])),
            (np.array([0.0]), np.array([2.0])),
            (np.array([0.5]), np.array([0.5])),
        ]
        report = grigoryan_check(model, 2.0, times, pairs=pairs)
        assert report.passed
        assert report.violations == 0
        assert report.rate <= 0.25 + 1e-6

    def test_diagonal_only(self):
        # x = y: the bound degenerates to C t^{-n/2}.
        model = build_model("circle", 24)
        pairs = [(np.array([1.0]), np.array([1.0]))]
        report = grigoryan_check(model, 2.0, np.linspace(0.05, 1.0, 10), pairs=pairs)
        assert report.passed and report.violations == 0

    def test_fit_touches_per_column_kernel(self):
        # the fitted bound must hold on the column-by-column kernel and touch
        # it on the probe grid, where the prefactor was inflated to fit
        model = build_model("sphere", 10)
        times = np.linspace(0.1, 1.5, 10)
        pairs = [(np.array([0.3, 0.0]), np.array([0.3 + d, 1.0])) for d in (0.0, 0.4, 1.1, 2.0)]
        report = grigoryan_check(model, 2.0, times, pairs=pairs)
        logs = []
        for p, q in pairs:
            dist = geodesic_distance(model, p[None, :], q[None, :])[0]
            for t in times:
                value = heat_kernel_matrix(model, 2.0, t, p, q)[0, 0] * np.exp(2.0 * t)
                logs.append(np.log(abs(value)) + model.dimension / 2 * np.log(t)
                            + report.rate * dist ** 2 / t - np.log(report.prefactor))
        assert report.passed
        assert abs(max(logs)) < 1e-9

    @pytest.mark.parametrize(
        "kind,kwargs,K",
        [("torus", {"edges": (2 * np.pi, 2 * np.pi)}, 8), ("sphere", {}, 10)],
    )
    def test_other_models(self, kind, kwargs, K):
        model = build_model(kind, K, **kwargs)
        report = grigoryan_check(model, 2.0, np.linspace(0.1, 1.5, 10), n_pairs=12, seed=3)
        assert report.passed
        assert report.violations == 0


# Reference bodies of the Gaussian bound's two-block scoring and of the two
# growth laws as they stood before the scoring was folded into one step.
# The folded code must reproduce them bit for bit.


def two_block_grigoryan(model, m, times, pairs=None, n_pairs=20, seed=0):
    times = np.sort(np.asarray(times, dtype=float))
    if pairs is None:
        rng = np.random.default_rng(seed)
        idx_a = rng.integers(0, model.nodes.shape[0], size=n_pairs)
        idx_b = rng.integers(0, model.nodes.shape[0], size=n_pairs)
        idx_b[0] = idx_a[0]
        pa, pb = model.nodes[idx_a], model.nodes[idx_b]
    else:
        pa = np.vstack([as_points(p, model.dimension) for p, _ in pairs])
        pb = np.vstack([as_points(q, model.dimension) for _, q in pairs])
    dists = geodesic_distance(model, pa, pb)
    n = model.dimension
    phi_a = model.eigenfunction_values(pa)
    phi_b = model.eigenfunction_values(pb)
    per_block = np.add.reduceat(phi_a * phi_b, model.block_offsets[:-1], axis=1)

    def kernel_rows(ts):
        return np.exp(-np.outer(ts, model.eigenvalues)) @ per_block.T

    probe = kernel_rows(times)
    floor = 1e-13 * np.max(np.abs(probe))
    tt = np.repeat(times, dists.size)
    dd = np.tile(dists, times.size)
    vv = probe.ravel()
    mask = np.abs(vv) > floor
    ytarget = np.log(np.abs(vv[mask])) + (n / 2.0) * np.log(tt[mask])
    xfeat = dd[mask] ** 2 / tt[mask]
    design = np.column_stack([np.ones(ytarget.size), -xfeat])
    sol, *_ = np.linalg.lstsq(design, ytarget, rcond=None)
    rate = max(float(sol[1]), 0.0)
    log_pref = float(np.max(ytarget + rate * xfeat))

    fine = np.sort(np.concatenate([times, 0.5 * (times[:-1] + times[1:])]))
    check = kernel_rows(fine)
    ttf = np.repeat(fine, dists.size)
    ddf = np.tile(dists, fine.size)
    vvf = check.ravel()
    maskf = np.abs(vvf) > floor
    ratios = (np.log(np.abs(vvf[maskf])) + (n / 2.0) * np.log(ttf[maskf])
              + rate * ddf[maskf] ** 2 / ttf[maskf] - log_pref)
    violations = int(np.sum(ratios > 1e-9))
    max_ratio = float(np.max(ratios)) if ratios.size else -np.inf
    return GrigoryanReport(violations == 0, rate, float(np.exp(log_pref)),
                           violations, int(np.sum(maskf)), max_ratio)


def separate_weyl(model):
    lam = model.eigenvalues
    counts = np.cumsum(model.multiplicities).astype(float)
    mask = lam > 0
    power = lam[mask] ** (model.dimension / 2.0)
    ratios = counts[mask] / power
    C = float(np.max(ratios))
    violations = int(np.sum(counts[mask] > C * power * (1 + 1e-12)))
    return SanityReport(constant=C, exponent=model.dimension / 2.0,
                        violations=violations, n_checked=int(mask.sum()))


def separate_supnorm(model, m):
    B = model.node_basis()
    expo = (model.dimension - 1) / 4.0
    sups = np.maximum.reduceat(np.abs(B), model.block_offsets[:-1], axis=1).max(axis=0)
    power = (model.eigenvalues + m) ** expo
    ratios = sups / power
    C = float(np.max(ratios))
    violations = int(np.sum(sups > C * power * (1 + 1e-12)))
    return SanityReport(constant=C, exponent=expo, violations=violations,
                        n_checked=model.truncation)


FOLD_MODELS = pytest.mark.parametrize("kind,K,kwargs", [
    ("circle", 24, {}),
    ("torus", 8, {"edges": (2 * np.pi, 2 * np.pi)}),
    ("sphere", 10, {}),
], ids=["circle", "torus", "sphere"])


def same_fields(a, b) -> bool:
    """Same report type, and every field equal and of the same type."""
    return type(a) is type(b) and all(
        type(x) is type(y) and x == y for x, y in zip(dataclasses.astuple(a),
                                                      dataclasses.astuple(b)))


class TestFoldsAreBitwise:
    @FOLD_MODELS
    def test_gaussian_bound_seeded_pairs(self, kind, K, kwargs):
        model = build_model(kind, K, **kwargs)
        times = np.geomspace(0.05, 2.0, 12)
        report = grigoryan_check(model, 2.0, times, n_pairs=15, seed=4)
        assert same_fields(report, two_block_grigoryan(model, 2.0, times, n_pairs=15, seed=4))

    @FOLD_MODELS
    def test_gaussian_bound_explicit_pairs(self, kind, K, kwargs):
        model = build_model(kind, K, **kwargs)
        times = np.linspace(0.1, 1.5, 10)
        idx = np.random.default_rng(5).integers(0, model.nodes.shape[0], size=(6, 2))
        nodes = 0.9 * model.nodes + 0.05  # off the quadrature nodes
        pairs = [(nodes[i], nodes[j]) for i, j in idx]
        report = grigoryan_check(model, 2.0, times, pairs=pairs)
        assert same_fields(report, two_block_grigoryan(model, 2.0, times, pairs=pairs))

    @FOLD_MODELS
    def test_growth_laws(self, kind, K, kwargs):
        model = build_model(kind, K, **kwargs)
        assert same_fields(weyl_sanity_check(model), separate_weyl(model))
        assert same_fields(supnorm_sanity_check(model, 2.0), separate_supnorm(model, 2.0))


def equality_on_half_circle(times):
    model = build_model("circle", 8)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    return heat_kernel_equality_check(model, model, 2.0, obs, obs, times)


@pytest.mark.parametrize("call,match", [
    (lambda: equality_on_half_circle([]), "times"),
    (lambda: equality_on_half_circle([0.5, 0.0]), "times"),
    (lambda: equality_on_half_circle([[0.1, 0.5]]), "times"),
    (lambda: grigoryan_check(build_model("circle", 8), 2.0, []), "times"),
    (lambda: weyl_sanity_check(build_model("circle", 1)), "positive eigenvalue"),
], ids=["equality-empty", "equality-nonpositive", "equality-2d", "gaussian-empty",
        "weyl-no-positive-eigenvalue"])
def test_heat_checks_reject_empty_or_bad_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestLogIdentity:
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 1.0, np.e, 10.0, 1000.0, 1e4, 1e7])
    def test_matches_log(self, lam):
        value, err = log_identity_quadrature(lam)
        assert abs(value - np.log(lam)) <= 1e-8
        assert err <= 1e-8

    def test_rejects_nonpositive(self):
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                log_identity_quadrature(lam)


class TestPointwiseOperator:
    def test_ground_field_constant(self):
        model = build_model("circle", 4)
        coeffs = np.zeros(model.total_dim)
        coeffs[0] = 1.0
        f = FieldCoefficients(model, coeffs)
        value, err = pointwise_L(f, 2.0, np.array([0.3]))
        assert abs(value - PTL_CONSTANT) < 1e-9
        assert err < 1e-8

    @pytest.mark.parametrize(
        "kind,kwargs",
        [("circle", {}), ("torus", {"edges": (2 * np.pi, np.pi)}), ("sphere", {})],
    )
    def test_matches_spectral_route(self, kind, kwargs):
        for K in (6, 24):
            model = build_model(kind, K, **kwargs)
            rng = np.random.default_rng(17)
            f = random_field(model, seed=21)
            spectral = apply_L(f, 2.0)
            idx = rng.integers(0, model.nodes.shape[0], size=5)
            pts = model.nodes[idx]
            expected = spectral.evaluate(pts)
            scale = np.max(np.abs(expected))
            for i in range(pts.shape[0]):
                value, err = pointwise_L(f, 2.0, pts[i])
                assert abs(value - expected[i]) <= 1e-8 * scale
                assert err <= 1e-6 * scale

    def test_budget_error(self):
        model = build_model("circle", 8)
        f = random_field(model, seed=2)
        with pytest.raises(QuadratureConvergenceError):
            pointwise_L(f, 2.0, np.array([1.0]), tol=1e-16)
