"""End-to-end acceptance gate: ten numbered checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every check prints before asserting, so a red run still reports all its
measured numbers. Each check also asserts its own wall-clock budget.
"""

import time

import numpy as np
import scipy.linalg

from loglap.calculus import (
    apply_L,
    grigoryan_check,
    heat_kernel,
    l_multiplier,
    log_identity_quadrature,
    pointwise_L,
    random_field,
)
from loglap.extraction import (
    build_gelfand_data,
    compare_gelfand,
    supnorm_sanity_check,
    weyl_sanity_check,
)
from loglap.models import (
    AngularInterval,
    SphericalCap,
    TorusBox,
    build_model,
    restrict_to_observation,
)
from loglap.recovery import (
    isometry_gauge_check,
    recover_potential,
    ucp_nullspace_test,
)
from loglap.models import SphereAxialRotation
from loglap.solver import (
    PotentialField,
    cauchy_record,
    make_source_basis,
    solve_schrodinger,
    zero_potential,
)


def _verdict(num, name, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {flag} "
          f"({detail}; {elapsed:.1f}s / {budget:.0f}s)")


def test_01_log_identity_quadrature():
    budget, t0 = 1.0, time.perf_counter()
    worst = 0.0
    for lam in (1.0, float(np.e), 10.0, 1000.0):
        value, _ = log_identity_quadrature(lam)
        worst = max(worst, abs(value - np.log(lam)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _verdict(1, "log identity quadrature", ok, f"max dev {worst:.2e}",
             elapsed, budget)
    assert ok and elapsed < budget


def test_02_pointwise_matches_spectral_route():
    budget, t0 = 30.0, time.perf_counter()
    model = build_model("circle", 16)
    rng = np.random.default_rng(202)
    worst = 0.0
    for seed in range(50):
        f = random_field(model, seed=seed)
        spectral = apply_L(f, 2.0)
        pts = rng.uniform(0.0, 2.0 * np.pi, size=20)[:, None]
        expected = spectral.evaluate(pts)
        scale = float(np.max(np.abs(expected)))
        for i in range(pts.shape[0]):
            value, _ = pointwise_L(f, 2.0, pts[i])
            worst = max(worst, abs(value - expected[i]) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    _verdict(2, "pointwise vs spectral operator", ok,
             f"50 fields x 20 points, max rel dev {worst:.2e}", elapsed, budget)
    assert ok and elapsed < budget


def test_03_forward_solver():
    budget, t0 = 10.0, time.perf_counter()
    # zero potential: the solve is the explicit diagonal inverse
    model = build_model("circle", 16)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    src = make_source_basis(model, obs, 1)[0]
    u = solve_schrodinger(model, 2.0, zero_potential, src)
    diag = src.coefficients / l_multiplier(model.flat_eigenvalues(), 2.0)
    dev_diag = float(np.max(np.abs(u.values - diag)))

    # cosine potential: truncation refinement agreement on shared blocks
    V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3*cos")
    sols = {}
    for K in (32, 64):
        mK = build_model("circle", K)
        oK = restrict_to_observation(mK, AngularInterval(0.0, np.pi))
        sK = make_source_basis(mK, oK, 1, radius=1.3, order=3)[0]
        sols[K] = solve_schrodinger(mK, 2.0, V, sK)
    shared = build_model("circle", 32).total_dim
    dev_refine = float(np.max(np.abs(sols[32].values
                                     - sols[64].values[:shared])))
    elapsed = time.perf_counter() - t0
    ok = dev_diag <= 1e-12 and dev_refine <= 1e-8
    _verdict(3, "forward solver", ok,
             f"diagonal dev {dev_diag:.2e}, refinement dev {dev_refine:.2e}",
             elapsed, budget)
    assert ok and elapsed < budget


def test_04_heat_kernel_oracle_and_gaussian_bound():
    budget, t0 = 10.0, time.perf_counter()
    model = build_model("circle", 16)

    def wrapped_gaussian(t, dtheta, terms=50):
        j = np.arange(-terms, terms + 1)
        gau = np.exp(-((dtheta + 2.0 * np.pi * j) ** 2) / (4.0 * t))
        return float(np.exp(-2.0 * t) * gau.sum() / np.sqrt(4.0 * np.pi * t))

    worst = 0.0
    for t in np.linspace(0.1, 2.0, 20):
        for dth in np.linspace(0.0, np.pi, 15):
            got = heat_kernel(model, 2.0, float(t),
                              np.array([0.0]), np.array([dth]))
            worst = max(worst, abs(got - wrapped_gaussian(float(t), float(dth))))
    bound = grigoryan_check(model, 2.0, np.geomspace(0.05, 2.0, 50),
                            n_pairs=20, seed=0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and bound.violations == 0
    _verdict(4, "heat kernel", ok,
             f"image-sum dev {worst:.2e}, "
             f"bound violations {bound.violations}/{bound.n_checked}",
             elapsed, budget)
    assert ok and elapsed < budget


def test_05_eigendata_extraction_from_traces():
    budget, t0 = 60.0, time.perf_counter()
    model = build_model("circle", 5)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    sources = make_source_basis(model, obs, 5)
    data = build_gelfand_data(model, 2.0, zero_potential, obs, sources)

    expect = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    eig_dev = float(np.max(np.abs(data.eigenvalues - expect)
                           / np.maximum(1.0, expect)))
    mult_ok = np.array_equal(data.multiplicities, [1, 2, 2, 2, 2])
    B = model.node_basis()[obs.node_indices]
    sw = np.sqrt(obs.weights)
    angle = 0.0
    for k in range(5):
        ang = scipy.linalg.subspace_angles(
            sw[:, None] * B[:, model.block_slice(k)],
            sw[:, None] * data.families[k])
        angle = max(angle, float(np.max(ang)))
    elapsed = time.perf_counter() - t0
    ok = eig_dev <= 1e-6 and mult_ok and angle <= 1e-5
    _verdict(5, "eigendata extraction", ok,
             f"eig rel dev {eig_dev:.2e}, mult {'exact' if mult_ok else 'WRONG'}, "
             f"max angle {angle:.2e}", elapsed, budget)
    assert ok and elapsed < budget


def test_06_radius_discrimination():
    budget, t0 = 60.0, time.perf_counter()
    datasets = []
    for radius in (1.0, 1.01):
        model = build_model("circle", 3, radius=radius, quadrature=64)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        datasets.append(build_gelfand_data(model, 2.0, zero_potential, obs,
                                           make_source_basis(model, obs, 3)))
    report = compare_gelfand(datasets[0], datasets[1])
    expected_gap = 1.0 - 1.0 / 1.01 ** 2
    gap_dev = abs(float(report.eigenvalue_gaps[1]) - expected_gap)
    elapsed = time.perf_counter() - t0
    ok = (not report.passed) and report.failure_index == 1 and gap_dev <= 1e-4
    _verdict(6, "radius discrimination", ok,
             f"failure index {report.failure_index}, "
             f"gap {report.eigenvalue_gaps[1]:.6f} vs {expected_gap:.6f}",
             elapsed, budget)
    assert ok and elapsed < budget


def test_07_continuation_rank_certificates():
    budget, t0 = 120.0, time.perf_counter()
    families = [
        ("circle", {}, [AngularInterval(0.0, e) for e in (4.7, 5.2, 5.7)]),
        ("torus", {"edges": (2 * np.pi, 2 * np.pi)},
         [TorusBox(((a, b), (a, b)))
          for a, b in ((1.0, 5.3), (0.6, 5.6), (0.3, 5.9))]),
        ("sphere", {}, [SphericalCap((0.0, 0.0), r) for r in (2.4, 2.6, 2.8)]),
    ]
    n_pass = n_strict = n_total = 0
    for kind, kwargs, descriptors in families:
        for K in (8, 16, 32):
            model = build_model(kind, K, **kwargs)
            for desc in descriptors:
                obs = restrict_to_observation(model, desc)
                full = ucp_nullspace_test(model, 2.0, obs)
                solution_only = ucp_nullspace_test(model, 2.0, obs,
                                                   include_image=False)
                n_total += 1
                n_pass += int(full.passed and full.null_dimension == 0)
                n_strict += int(full.smallest_singular
                                > solution_only.smallest_singular)
    elapsed = time.perf_counter() - t0
    ok = n_pass == n_total == 27 and n_strict == n_total
    _verdict(7, "continuation rank test", ok,
             f"{n_pass}/{n_total} null dim 0, "
             f"{n_strict}/{n_total} pair beats solution-only strictly",
             elapsed, budget)
    assert ok and elapsed < budget


def test_08_potential_recovery_ladder():
    budget, t0 = 120.0, time.perf_counter()
    V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3*cos")
    centers = [[c] for c in np.linspace(1.26, 1.88, 6)]
    errors, full_coverage = [], True
    for K in (16, 32, 48):
        model = build_model("circle", K)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        sources = make_source_basis(model, obs, 6, radius=1.2, order=3,
                                    centers=centers)
        records = [cauchy_record(model, 1.1, V, s, obs) for s in sources]
        recovered = recover_potential(model, 1.1, obs, V, records)
        full_coverage &= recovered.covered_fraction == 1.0
        complement = np.setdiff1d(np.arange(model.nodes.shape[0]),
                                  obs.node_indices)
        truth = V.values_at(model, model.nodes)
        err = np.max(np.abs(recovered.values[complement] - truth[complement]))
        errors.append(float(err) / float(np.max(np.abs(truth))))
    elapsed = time.perf_counter() - t0
    monotone = errors[0] > errors[1] > errors[2]
    ok = errors[2] <= 1e-4 and monotone and full_coverage
    _verdict(8, "potential recovery", ok,
             "rel errors " + " > ".join(f"{e:.2e}" for e in errors)
             + f", coverage {'full' if full_coverage else 'INCOMPLETE'}",
             elapsed, budget)
    assert ok and elapsed < budget


def test_09_rotation_gauge_invariance():
    budget, t0 = 30.0, time.perf_counter()
    model = build_model("sphere", 8)
    obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.0))
    V = PotentialField(lambda pts: 0.5 * np.cos(pts[:, 0]), label="zonal")
    report = isometry_gauge_check(model, 2.0, V, obs,
                                  SphereAxialRotation(0.7), tolerance=1e-10)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.record_defect <= 1e-10
    _verdict(9, "rotation gauge invariance", ok,
             f"intertwining {report.intertwining_defect:.2e}, "
             f"record defect {report.record_defect:.2e}", elapsed, budget)
    assert ok and elapsed < budget


def test_10_spectral_growth_sanity():
    budget, t0 = 10.0, time.perf_counter()
    violations, details = 0, []
    for kind, kwargs in (("circle", {}),
                         ("torus", {"edges": (2 * np.pi, 2 * np.pi)}),
                         ("sphere", {})):
        model = build_model(kind, 16, **kwargs)
        weyl = weyl_sanity_check(model)
        sup = supnorm_sanity_check(model, 2.0)
        violations += weyl.violations + sup.violations
        details.append(f"{kind} C={weyl.constant:.3g}/{sup.constant:.3g}")
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _verdict(10, "growth-law sanity checks", ok,
             f"violations {violations}; " + ", ".join(details), elapsed, budget)
    assert ok and elapsed < budget
