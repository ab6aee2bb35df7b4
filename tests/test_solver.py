"""Forward solver: potential assembly, invertibility, sources, Cauchy records.

Oracle values are frozen from closed forms or from brute-force quadrature
written independently of the package (see helpers below).
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from loglap.calculus import l_multiplier
from loglap.errors import FieldError, SingularOperatorError, SupportViolationError
from loglap.models import (
    AngularInterval,
    SphericalCap,
    TorusBox,
    build_model,
    descriptor_contains,
    restrict_to_observation,
    with_mixed_blocks,
)
from loglap.extraction import default_time_grid, heat_trace_of_solution
from loglap.solver import (
    CauchyRecord,
    ForwardMap,
    PotentialField,
    SourceFunction,
    assemble_potential_matrix,
    bump_profile,
    cauchy_record,
    cauchy_records,
    forward_map,
    make_source_basis,
    solve_schrodinger,
    zero_potential,
)

# ---------------------------------------------------------------- oracles

# (k^2+m) log(k^2+m) at m=2, k=0,1; closed forms, 30-digit mpmath, frozen
MULT0_M2 = 1.3862943611198906   # 2 log 2
MULT1_M2 = 3.2958368660043291   # 3 log 3
SMALLEST_SHIFTED = 2.3862943611198906  # 2 log 2 + 1

# <phi_{1,cos}, cos(t) phi_0> on the unit circle = 1/sqrt(2)
COS_COUPLE_GROUND = 0.7071067811865476
# <phi_{k+1,*}, cos(t) phi_{k,*}> = 1/2 for k >= 1 (same cos/sin kind)
COS_COUPLE_NEIGHBOR = 0.5
# <Y_00, z Y_10> on the unit sphere = 1/sqrt(3)
ZONAL_Z_COUPLE = 0.5773502691896258

# peak-normalized profile exp(1 - 1/(1-s^2)^order) at s = 1/2
PROFILE_HALF = {1: 0.7165313105737893,
                2: 0.4594258240359266,
                3: 0.25401286329038647}


def circle_basis_matrix(theta, K):
    """Real circle basis built from scratch (no package code)."""
    cols = [np.full(np.shape(theta), 1.0 / np.sqrt(2 * np.pi))]
    for k in range(1, K):
        cols.append(np.cos(k * theta) / np.sqrt(np.pi))
        cols.append(np.sin(k * theta) / np.sqrt(np.pi))
    return np.stack(cols, axis=1)


def brute_potential_matrix(vfunc, K, n=4096):
    """Trapezoid-rule Gram matrix of V against the from-scratch basis."""
    theta = 2 * np.pi * np.arange(n) / n
    B = circle_basis_matrix(theta, K)
    w = 2 * np.pi / n
    return B.T @ (w * vfunc(theta)[:, None] * B)


def brute_projection(fvals_on, theta_fine, f_fine, K):
    # 8192-node trapezoid coefficients of a function given on a fine grid
    B = circle_basis_matrix(theta_fine, K)
    w = 2 * np.pi / theta_fine.size
    return B.T @ (w * f_fine)


# ---------------------------------------------------------------- fixtures

def circle(K, quad=None):
    return build_model("circle", K, quadrature=quad)


def cos_potential(scale=1.0):
    return PotentialField(lambda th: scale * np.cos(th), label=f"{scale}*cos")


def constant_potential(value, label=""):
    return PotentialField(lambda th: np.full(len(th), value), label=label)


def count_fresh_solves(monkeypatch):
    """The shapes of the stacks that `ForwardMap.solve` solves afresh, not
    from the solve the map keeps, listed as they happen."""
    shapes, solve_columns = [], ForwardMap._solve_columns

    def counting(fmap, F):
        shapes.append(F.shape)
        return solve_columns(fmap, F)

    monkeypatch.setattr(ForwardMap, "_solve_columns", counting)
    return shapes


# ---------------------------------------------------------------- potential


class TestPotentialField:
    def test_zero_potential_node_values(self):
        model = circle(6)
        v = zero_potential.node_values(model)
        assert v.shape == (model.nodes.shape[0],)
        assert np.all(v == 0.0)

    def test_constant_potential(self):
        model = circle(6)
        v = constant_potential(0.7).node_values(model)
        assert np.all(v == 0.7)

    def test_callable_receives_natural_coordinates(self):
        model = circle(4)
        v = cos_potential().node_values(model)
        assert np.allclose(v, np.cos(model.nodes[:, 0]), atol=1e-15)

    def test_torus_and_sphere_coordinates(self):
        torus = build_model("torus", 3, edges=(2 * np.pi, 2 * np.pi))
        v = PotentialField(lambda x: np.cos(x[:, 0])).node_values(torus)
        assert np.allclose(v, np.cos(torus.nodes[:, 0]), atol=1e-15)
        sphere = build_model("sphere", 3)
        v = PotentialField(lambda x: np.cos(x[:, 0])).node_values(sphere)
        assert np.allclose(v, np.cos(sphere.nodes[:, 0]), atol=1e-15)


class TestAssembly:
    def test_cosine_coupling_pattern(self):
        # columns: 0 const, 1 cos1, 2 sin1, 3 cos2, 4 sin2, ...
        M = assemble_potential_matrix(circle(6), cos_potential())
        assert abs(M[0, 1] - COS_COUPLE_GROUND) < 1e-12
        assert abs(M[1, 3] - COS_COUPLE_NEIGHBOR) < 1e-12
        assert abs(M[2, 4] - COS_COUPLE_NEIGHBOR) < 1e-12
        assert abs(M[3, 5] - COS_COUPLE_NEIGHBOR) < 1e-12
        # parity zeros: diagonal, cos-sin cross, |k-j| >= 2
        assert abs(M[0, 0]) < 1e-13
        assert abs(M[1, 1]) < 1e-13
        assert abs(M[0, 3]) < 1e-13
        assert abs(M[1, 2]) < 1e-13
        assert abs(M[1, 5]) < 1e-13

    def test_matches_brute_force_assembly(self):
        vf = lambda th: 0.3 * np.cos(th) + 0.2 * np.sin(2 * th) + 0.1 * np.cos(3 * th)
        M = assemble_potential_matrix(circle(10), PotentialField(vf))
        oracle = brute_potential_matrix(vf, 10)
        assert np.max(np.abs(M - oracle)) < 1e-10

    def test_exactly_symmetric(self):
        vf = lambda th: np.cos(th) + 0.4 * np.sin(3 * th) - 0.2 * np.cos(5 * th)
        M = assemble_potential_matrix(circle(12), PotentialField(vf))
        assert np.array_equal(M, M.T)

    def test_sphere_zonal_coupling(self):
        sphere = build_model("sphere", 3)
        M = assemble_potential_matrix(sphere, PotentialField(lambda x: np.cos(x[:, 0])))
        # column 1 is the zonal l=1 function
        assert abs(M[0, 1] - ZONAL_Z_COUPLE) < 1e-10
        assert np.max(np.abs(M - M.T)) == 0.0

    def test_torus_ground_row_single_entry(self):
        torus = build_model("torus", 3, edges=(2 * np.pi, 2 * np.pi))
        M = assemble_potential_matrix(torus, PotentialField(lambda x: np.cos(x[:, 0])))
        row = np.abs(M[0])
        hits = np.nonzero(row > 1e-12)[0]
        assert hits.size == 1
        assert abs(row[hits[0]] - COS_COUPLE_GROUND) < 1e-12

    def test_zero_potential_gives_zero_matrix(self):
        M = assemble_potential_matrix(circle(8), zero_potential)
        assert np.all(M == 0.0)


class TestOperatorSpectrum:
    def test_zero_potential_spectrum_is_multipliers(self):
        model = circle(10)
        eigs = forward_map(model, 2.0, zero_potential).eigenvalues
        expect = np.sort(l_multiplier(model.flat_eigenvalues(), 2.0))
        assert np.max(np.abs(eigs - expect)) < 1e-12

    def test_constant_potential_shifts_spectrum(self):
        model = circle(8)
        eigs = forward_map(model, 2.0, constant_potential(1.0)).eigenvalues
        assert abs(eigs[0] - SMALLEST_SHIFTED) < 1e-12
        expect = np.sort(l_multiplier(model.flat_eigenvalues(), 2.0) + 1.0)
        assert np.max(np.abs(eigs - expect)) < 1e-12

    def test_sorted_and_real(self):
        eigs = forward_map(circle(8), 2.0, cos_potential(0.5)).eigenvalues
        assert eigs.dtype == np.float64
        assert np.all(np.diff(eigs) >= 0)


# ---------------------------------------------------------------- solving


class TestSolve:
    def test_diagonal_inverse_zero_potential(self):
        model = circle(12)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(model.total_dim)
        u = forward_map(model, 2.0, zero_potential).solve(f)
        expect = f / l_multiplier(model.flat_eigenvalues(), 2.0)
        assert np.max(np.abs(u - expect)) < 1e-12

    def test_single_mode_frozen_value(self):
        model = circle(6)
        f = np.zeros(model.total_dim)
        f[1] = 1.0  # phi_{1,cos}
        u = forward_map(model, 2.0, zero_potential).solve(f)
        assert abs(u[1] - 1.0 / MULT1_M2) < 1e-14
        assert np.max(np.abs(np.delete(u, 1))) == 0.0

    def test_matches_brute_force_dense_solve(self):
        K = 12
        model = circle(K)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(model.total_dim)
        u = forward_map(model, 2.0, cos_potential()).solve(f)
        H = np.diag(l_multiplier(model.flat_eigenvalues(), 2.0)) \
            + brute_potential_matrix(np.cos, K)
        oracle = np.linalg.solve(H, f)
        assert np.max(np.abs(u - oracle)) < 1e-10

    def test_higher_truncation_agreement(self):
        # solve with V = cos at K=32, compare with the K=64 solve on the
        # shared leading blocks
        obs32 = AngularInterval(0.0, np.pi)
        m32 = circle(32)
        m64 = circle(64)
        src32 = make_source_basis(m32, restrict_to_observation(m32, obs32), 1,
                                  radius=1.3, order=3)[0]
        src64 = make_source_basis(m64, restrict_to_observation(m64, obs32), 1,
                                  radius=1.3, order=3)[0]
        u32 = solve_schrodinger(m32, 2.0, cos_potential(), src32)
        u64 = solve_schrodinger(m64, 2.0, cos_potential(), src64)
        assert np.max(np.abs(u32.values - u64.values[:m32.total_dim])) < 1e-8

    def test_singular_operator_raises(self):
        # V = -2 log 2 cancels the ground multiplier at m=2
        model = circle(4)
        with pytest.raises(SingularOperatorError):
            forward_map(model, 2.0, constant_potential(-MULT0_M2)).solve(
                np.ones(model.total_dim))

    def test_condition_limit(self):
        # condition number above 1e6: the solve goes through and is consistent
        model = circle(8)
        V = constant_potential(-MULT0_M2 + 1e-5)
        f = np.ones(model.total_dim)
        fmap = forward_map(model, 2.0, V)
        u = fmap.solve(f)
        assert fmap.cond > 1e6
        assert np.linalg.norm(fmap.matrix @ u - f) < 1e-7 * np.linalg.norm(f)

    def test_rhs_forms_equivalent(self):
        # a source goes to solve_schrodinger, its coefficient array to the map
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        src = make_source_basis(model, obs, 1, radius=1.2, order=2)[0]
        u1 = solve_schrodinger(model, 2.0, cos_potential(0.3), src)
        u2 = forward_map(model, 2.0, cos_potential(0.3)).solve(src.coefficients)
        assert np.array_equal(u1.values, u2)


class TestForwardMap:
    def test_batched_solve_matches_columns_and_dense_solve(self):
        model = circle(16)
        fmap = forward_map(model, 2.0, cos_potential(0.4))
        F = np.random.default_rng(5).standard_normal((model.total_dim, 6))
        U = fmap.solve(F)
        for j in range(F.shape[1]):
            col = fmap.solve(F[:, j])
            assert np.linalg.norm(U[:, j] - col) <= 1e-14 * np.linalg.norm(col)
            ref = scipy.linalg.solve(fmap.matrix, F[:, j], assume_a="sym")
            assert np.linalg.norm(col - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_one_eigh_serves_records_and_traces(self, monkeypatch):
        model = build_model("sphere", 6)
        obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.2))
        sources = make_source_basis(model, obs, 16, order=3, seed=1)
        calls = []

        def potential(p):
            calls.append(p.shape[0])
            return 0.2 * np.cos(p[:, 0])

        V = PotentialField(potential, label="0.2*cos")
        times = default_time_grid(model, 2.0)
        eigh, shapes = np.linalg.eigh, []

        def counting_eigh(a):
            shapes.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        window = model.window_synthesis(obs)
        records = cauchy_records(model, 2.0, V, sources, obs)
        # one evaluation keys the map and one assembles it, for all 16 sources
        assert len(records) == 16 and len(calls) == 2
        cauchy_records(model, 2.0, V, sources, obs)
        assert len(calls) == 3
        for src in sources:
            cauchy_record(model, 2.0, V, src, obs)
            heat_trace_of_solution(model, 2.0, V, src, obs, times)
        assert shapes == [(model.total_dim, model.total_dim)]
        # and one window synthesis, whose tables are read-only
        assert model.window_synthesis(obs) is window
        assert not window.legendre.flags.writeable

    def test_rebuilt_when_m_or_closure_changes(self):
        model = circle(8)
        amp = np.array([0.3])
        V = PotentialField(lambda th: amp[0] * np.cos(th), label="amp*cos")
        first = forward_map(model, 2.0, V)
        assert forward_map(model, 2.0, V) is first
        second = forward_map(model, 3.0, V)
        assert second is not first
        assert np.array_equal(second.multipliers,
                              l_multiplier(model.flat_eigenvalues(), 3.0))
        amp[0] = 0.5
        third = forward_map(model, 3.0, V)
        assert third is not second
        expect = np.diag(third.multipliers) + assemble_potential_matrix(model, V)
        assert np.array_equal(third.matrix, expect)

    def test_record_and_trace_of_a_source_share_one_solve(self, monkeypatch):
        model = build_model("sphere", 6)
        obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.2))
        sources = make_source_basis(model, obs, 3, order=3, seed=1)
        V = PotentialField(lambda p: 0.2 * np.cos(p[:, 0]), label="0.2*cos")
        times = default_time_grid(model, 2.0)
        fresh = count_fresh_solves(monkeypatch)
        for src in sources:
            rec = cauchy_record(model, 2.0, V, src, obs)
            trace = heat_trace_of_solution(model, 2.0, V, src, obs, times)
            assert trace.source_id == rec.source_id
        assert fresh == [(model.total_dim, 1)] * 3

    @pytest.mark.parametrize("shape", ["vector", "column"])
    def test_kept_solve_is_a_fresh_solve(self, shape, monkeypatch):
        model = circle(16)
        fmap = forward_map(model, 2.0, cos_potential(0.4))
        f = np.random.default_rng(2).standard_normal(model.total_dim)
        F = f if shape == "vector" else f[:, None]
        fresh = count_fresh_solves(monkeypatch)
        # the other shape fills the kept solve; a (D,) F is its (D, 1) column
        first = fmap.solve(f[:, None] if shape == "vector" else f)
        kept = fmap.solve(F.copy())
        assert len(fresh) == 1 and kept.shape == F.shape
        # a `replace` copy holds no solve, so it solves afresh
        again = dataclasses.replace(fmap).solve(F)
        assert len(fresh) == 2
        assert kept.tobytes() == again.tobytes() == first.tobytes()

    def test_f_changed_in_place_is_solved_again(self, monkeypatch):
        model = circle(8)
        fmap = forward_map(model, 2.0, cos_potential(0.3))
        F = np.random.default_rng(4).standard_normal((model.total_dim, 2))
        fresh = count_fresh_solves(monkeypatch)
        U = fmap.solve(F)
        F[0, 1] += 1.0
        U2 = fmap.solve(F)
        assert len(fresh) == 2
        assert np.array_equal(U2[:, 0], U[:, 0]) and not np.array_equal(U2[:, 1], U[:, 1])
        assert np.linalg.norm(fmap.matrix @ U2 - F) < 1e-12 * np.linalg.norm(F)

    def test_new_m_or_potential_solves_afresh(self, monkeypatch):
        model = circle(8)
        amp = np.array([0.3])
        V = PotentialField(lambda th: amp[0] * np.cos(th), label="amp*cos")
        f = np.ones(model.total_dim)
        fresh = count_fresh_solves(monkeypatch)
        first = forward_map(model, 2.0, V).solve(f)
        second = forward_map(model, 3.0, V).solve(f)
        amp[0] = 0.5
        fmap = forward_map(model, 3.0, V)
        third = fmap.solve(f)
        assert len(fresh) == 3
        assert not np.array_equal(first, second) and not np.array_equal(second, third)
        assert np.linalg.norm(fmap.matrix @ third - f) < 1e-12 * np.linalg.norm(f)

    def test_solutions_are_read_only_and_kept_apart(self):
        model = circle(8)
        fmap = forward_map(model, 2.0, cos_potential(0.3))
        rng = np.random.default_rng(6)
        u = fmap.solve(rng.standard_normal(model.total_dim))
        held = u.copy()
        U = fmap.solve(rng.standard_normal((model.total_dim, 3)))
        for out in (u, U):
            with pytest.raises(ValueError, match="read-only"):
                out[0] = 0.0
        assert np.array_equal(u, held)

    @pytest.mark.parametrize("m", [0.5, 1.0])
    def test_mass_at_most_one_rejected(self, m):
        # below m = 1 the operator loses positivity, at m = 1 it is singular;
        # both must report the mass rather than a solver failure
        model = circle(8)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        src = make_source_basis(model, obs, 1)[0]
        with pytest.raises(ValueError, match="^m: must be > 1"):
            solve_schrodinger(model, m, cos_potential(0.3), src)
        with pytest.raises(ValueError, match="^m: must be > 1"):
            cauchy_record(model, m, cos_potential(0.3), src, obs)

    @pytest.mark.parametrize("V", [
        PotentialField(lambda th: np.where(th < 1.0, np.nan, np.cos(th)), label="bad"),
        constant_potential(np.inf, "bad")], ids=["nan-callable", "inf-constant"])
    def test_non_finite_potential_rejected(self, V):
        # unchecked, a NaN potential reaches eigh, which fails to converge
        with pytest.raises(FieldError, match="^V: 'bad' has non-finite values"):
            forward_map(circle(8), 2.0, V)

    def test_equal_values_under_another_label_name_the_caller(self):
        # the map's key holds V's label, so a kept map names the potential it was built for
        model = circle(4)
        assert forward_map(model, 2.0, zero_potential).label == "zero"
        zero = constant_potential(0.0, "constant(0)")
        assert forward_map(model, 2.0, zero).label == "constant(0)"
        forward_map(model, 2.0, constant_potential(-MULT0_M2, "first"))
        with pytest.raises(SingularOperatorError, match="potential 'second'"):
            forward_map(model, 2.0, constant_potential(-MULT0_M2, "second")).solve(
                np.ones(model.total_dim))

    def test_mixed_block_copy_refactors(self):
        model = circle(8)
        V = cos_potential(0.3)
        fmap = forward_map(model, 2.0, V)
        mixed = with_mixed_blocks(model, seed=1)
        other = forward_map(mixed, 2.0, V)
        assert other is not fmap
        assert not np.allclose(other.matrix, fmap.matrix)
        expect = np.diag(other.multipliers) + assemble_potential_matrix(mixed, V)
        assert np.array_equal(other.matrix, expect)
        assert np.allclose(other.eigenvalues, fmap.eigenvalues, atol=1e-12)


# ---------------------------------------------------------------- sources


class TestBumpProfile:
    def test_frozen_values(self):
        for order, val in PROFILE_HALF.items():
            assert abs(bump_profile(0.5, order) - val) < 1e-15
        assert bump_profile(0.0, 1) == 1.0
        assert bump_profile(1.0, 2) == 0.0
        assert bump_profile(-1.0, 3) == 0.0
        assert bump_profile(2.5, 1) == 0.0

    def test_vectorized(self):
        s = np.array([-2.0, -0.5, 0.0, 0.5, 1.0])
        out = bump_profile(s, 2)
        assert out.shape == s.shape
        assert out[0] == 0.0 and out[4] == 0.0
        assert abs(out[1] - PROFILE_HALF[2]) < 1e-15
        assert out[2] == 1.0


class TestSourceBasis:
    def test_default_single_center(self):
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        basis = make_source_basis(model, obs, 1)
        src = basis[0]
        assert np.allclose(src.center, [np.pi / 2])
        # default radius stays inside the interval
        assert 0 < src.radius < np.pi / 2
        assert abs(src.evaluate([np.pi / 2]) - 1.0) < 1e-15

    def test_support_arithmetic(self):
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        src = make_source_basis(model, obs, 1, radius=np.pi / 4)[0]
        outside = np.array([np.pi / 4 - 0.01, 3 * np.pi / 4 + 0.01, 4.0, 6.0])
        assert np.all(src.evaluate(outside) == 0.0)
        inside = np.array([np.pi / 2 - 0.3, np.pi / 2, np.pi / 2 + 0.3])
        assert np.all(src.evaluate(inside) > 0.0)

    def test_radius_exceeding_interval_raises(self):
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        with pytest.raises(SupportViolationError):
            make_source_basis(model, obs, 1, radius=2.0)

    def test_explicit_center_near_boundary_raises(self):
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        with pytest.raises(SupportViolationError):
            make_source_basis(model, obs, 1, centers=[0.1], radius=0.5)

    def test_seed_jitter_deterministic_and_bounded(self):
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        plain = make_source_basis(model, obs, 3)
        a = make_source_basis(model, obs, 3, seed=11)
        b = make_source_basis(model, obs, 3, seed=11)
        c = make_source_basis(model, obs, 3, seed=12)
        spacing = np.pi / 4
        for s_plain, s_a, s_b, s_c in zip(plain, a, b, c):
            assert np.array_equal(s_a.center, s_b.center)
            assert np.max(np.abs(s_a.center - s_plain.center)) <= 0.2 * spacing + 1e-12
            assert not np.array_equal(s_a.center, s_c.center)

    # support radii are geodesic distances, so the window margin scales with r
    def test_circle_sources_supported_in_interval(self):
        for r in (0.5, 2.0):
            model = build_model("circle", 16, radius=r)
            obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
            basis = make_source_basis(model, obs, 2)
            inside = descriptor_contains(model, obs.descriptor, model.nodes)
            for src in basis:
                assert np.all(src.node_values[~inside] == 0.0)
                assert np.max(src.node_values) > 0.0
                c = src.center[0]
                assert src.radius == pytest.approx(0.9 * r * min(c, np.pi - c))

    def test_torus_sources_supported_in_box(self):
        for r in (1.0, 0.5, 2.0):
            torus = build_model("torus", 4, edges=(2 * np.pi * r, 2 * np.pi * r))
            box = TorusBox(((0.5 * r, 4.5 * r), (1.0 * r, 5.0 * r)))
            obs = restrict_to_observation(torus, box)
            basis = make_source_basis(torus, obs, 2)
            inside = descriptor_contains(torus, obs.descriptor, torus.nodes)
            for src in basis:
                assert np.all(src.node_values[~inside] == 0.0)
                assert np.max(src.node_values) > 0.0

    def test_sphere_sources_supported_in_cap(self):
        for r in (1.0, 0.5, 2.0):
            sphere = build_model("sphere", 8, radius=r)
            cap = SphericalCap((0.0, 0.0), np.pi / 2)
            obs = restrict_to_observation(sphere, cap)
            basis = make_source_basis(sphere, obs, 2)
            inside = descriptor_contains(sphere, obs.descriptor, sphere.nodes)
            for src in basis:
                assert np.all(src.node_values[~inside] == 0.0)
                assert np.max(src.node_values) > 0.0

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_explicit_radius_checked_against_geodesic_margin(self, r):
        circle_model = build_model("circle", 16, radius=r)
        arc = restrict_to_observation(circle_model, AngularInterval(0.0, np.pi))
        sphere = build_model("sphere", 6, radius=r)
        cap = restrict_to_observation(sphere, SphericalCap((0.0, 0.0), 1.0))
        for model, obs, center, margin in ((circle_model, arc, [np.pi / 2], np.pi / 2),
                                           (sphere, cap, [0.0, 0.0], 1.0)):
            make_source_basis(model, obs, 1, centers=[center], radius=0.999 * margin * r)
            with pytest.raises(SupportViolationError):
                make_source_basis(model, obs, 1, centers=[center],
                                  radius=1.001 * margin * r)

    def test_sphere_radius_violation(self):
        sphere = build_model("sphere", 6)
        cap = SphericalCap((0.0, 0.0), 0.3)
        obs = restrict_to_observation(sphere, cap)
        with pytest.raises(SupportViolationError):
            make_source_basis(sphere, obs, 1, radius=0.5)

    def test_source_ids_distinct(self):
        model = circle(16)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        basis = make_source_basis(model, obs, 4)
        ids = [s.source_id for s in basis]
        assert len(set(ids)) == 4


# ---------------------------------------------------------------- records


class TestCauchyRecord:
    def test_zero_potential_record_is_band_limited_source(self):
        # with V = 0: L u = P_K f, checked against from-scratch projection
        K = 64
        model = circle(K, quad=256)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        src = make_source_basis(model, obs, 1, radius=1.2, order=3)[0]
        rec = cauchy_record(model, 2.0, zero_potential, src, obs)

        theta_fine = 2 * np.pi * np.arange(8192) / 8192
        f_fine = src.evaluate(theta_fine)
        coeffs = brute_projection(None, theta_fine, f_fine, K)
        band = circle_basis_matrix(obs.nodes[:, 0], K) @ coeffs
        assert np.max(np.abs(rec.lu_values - band)) < 1e-10
        # and against the true bump samples at the measured in-band leak scale
        assert np.max(np.abs(rec.lu_values - src.node_values[obs.node_indices])) < 1e-5

    def test_potential_supported_in_observation_identity(self):
        K = 96
        model = circle(K, quad=384)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        V = PotentialField(
            lambda th: 0.4 * bump_profile((th - np.pi / 2) / 0.9, 2),
            label="bumpV")
        src = make_source_basis(model, obs, 1, radius=1.2, order=3)[0]
        rec = cauchy_record(model, 2.0, V, src, obs)
        f_obs = src.node_values[obs.node_indices]
        v_obs = V.node_values(model)[obs.node_indices]
        assert np.max(np.abs(rec.lu_values - (f_obs - v_obs * rec.u_values))) < 1e-6

    def test_truncation_refinement_band_limited(self):
        # smooth band-limited data: records at K=32 and K=48 coincide
        obs_desc = AngularInterval(0.0, np.pi)
        recs = []
        for K in (32, 48):
            model = circle(K, quad=256)
            obs = restrict_to_observation(model, obs_desc)
            src = make_source_basis(model, obs, 1, radius=1.3, order=3)[0]
            coeffs = src.coefficients.copy()
            coeffs[model.block_offsets[24]:] = 0.0
            src = dataclasses.replace(src, coefficients=coeffs)
            recs.append(cauchy_record(model, 2.0, cos_potential(0.3), src, obs))
        assert np.max(np.abs(recs[0].u_values - recs[1].u_values)) < 1e-6
        assert np.max(np.abs(recs[0].lu_values - recs[1].lu_values)) < 1e-6

    def test_truncation_sensitivity_of_raw_bump(self):
        # a genuine bump leaves a visible (but bounded) truncation signature
        obs_desc = AngularInterval(0.0, 1.5 * np.pi)
        recs = []
        for K in (32, 48):
            model = circle(K, quad=256)
            obs = restrict_to_observation(model, obs_desc)
            src = make_source_basis(model, obs, 1, radius=2.2, order=3)[0]
            recs.append(cauchy_record(model, 2.0, cos_potential(0.3), src, obs))
        diff = np.max(np.abs(recs[0].lu_values - recs[1].lu_values))
        assert 1e-7 < diff < 2e-5

    @staticmethod
    def cap_record(center):
        model = build_model("sphere", 6)
        obs = restrict_to_observation(model, SphericalCap(center, 1.2))
        V = PotentialField(lambda p: 0.2 * np.cos(p[:, 0]), label="0.2*cos")
        src = make_source_basis(model, obs, 1, order=3)[0]
        rec = cauchy_record(model, 2.0, V, src, obs)
        B = model.node_basis()[obs.node_indices]
        u = rec.solution.values
        return rec, B @ u, B @ (l_multiplier(model.flat_eigenvalues(), 2.0) * u)

    def test_values_are_window_rows_times_coefficients(self):
        # a polar cap takes the ring route, within 1e-13 of the dense products
        rec, u_dense, lu_dense = self.cap_record((0.0, 0.0))
        for values, dense in ((rec.u_values, u_dense), (rec.lu_values, lu_dense)):
            assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_off_pole_values_are_window_rows_times_coefficients(self):
        rec, u_dense, lu_dense = self.cap_record((0.9, 1.7))
        assert np.array_equal(rec.u_values, u_dense)
        assert np.array_equal(rec.lu_values, lu_dense)

    def test_second_window_replaces_rows(self):
        model = circle(16)
        first = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        second = restrict_to_observation(model, AngularInterval(0.5, 2.5))
        src = make_source_basis(model, second, 1)[0]
        rows = model.window_synthesis(first).rows
        rec = cauchy_record(model, 2.0, cos_potential(0.3), src, second)
        assert np.array_equal(rec.u_values,
                              model.node_basis()[second.node_indices] @ rec.solution.values)
        again = model.window_synthesis(first).rows
        assert again is not rows
        assert np.array_equal(again, rows)

    def test_record_payload(self):
        model = circle(24)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        src = make_source_basis(model, obs, 1, radius=1.0)[0]
        rec = cauchy_record(model, 2.0, cos_potential(0.3), src, obs)
        assert rec.kind == "circle"
        assert rec.truncation == 24
        assert rec.mass == 2.0
        assert rec.source_id == src.source_id
        assert rec.potential_label == "0.3*cos"
        assert rec.u_values.shape == (obs.size,)
        assert rec.lu_values.shape == (obs.size,)
        assert np.array_equal(rec.window.nodes, obs.nodes)
        assert rec.solution.values.shape == (model.total_dim,)

    def test_record_immutable(self):
        model = circle(8)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        src = make_source_basis(model, obs, 1)[0]
        rec = cauchy_record(model, 2.0, zero_potential, src, obs)
        with pytest.raises(AttributeError):
            rec.mass = 3.0

    def test_u_values_match_solution_on_nodes(self):
        model = circle(24)
        obs = restrict_to_observation(model, AngularInterval(0.5, 2.5))
        src = make_source_basis(model, obs, 1)[0]
        rec = cauchy_record(model, 2.0, cos_potential(0.2), src, obs)
        full = rec.solution.node_values()
        assert np.max(np.abs(rec.u_values - full[obs.node_indices])) < 1e-13


def window_case(case):
    """A model, a window on it and a potential: circle, torus, sphere cap,
    and the circle with its eigenspaces rotated."""
    if case == "torus":
        model = build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))
        return (model, restrict_to_observation(model, TorusBox(((0.0, np.pi), (0.5, 3.0)))),
                PotentialField(lambda p: 0.3 * np.cos(p[:, 0]) * np.sin(p[:, 1]), label="torus"))
    if case == "sphere":
        model = build_model("sphere", 6)
        return (model, restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.2)),
                PotentialField(lambda p: 0.2 * np.cos(p[:, 0]), label="0.2*cos"))
    model = circle(16) if case == "circle" else with_mixed_blocks(circle(16), seed=4)
    return model, restrict_to_observation(model, AngularInterval(0.0, np.pi)), cos_potential(0.3)


class TestCauchyRecords:
    @pytest.mark.parametrize("case", ["circle", "torus", "sphere", "mixed"])
    def test_batch_matches_per_source_records(self, case):
        model, obs, V = window_case(case)
        sources = make_source_basis(model, obs, 6, order=3, seed=2)
        batch = cauchy_records(model, 2.0, V, sources, obs)
        assert [rec.source_id for rec in batch] == [src.source_id for src in sources]
        for src, rec in zip(sources, batch):
            alone = cauchy_record(model, 2.0, V, src, obs)
            for a, b in ((rec.u_values, alone.u_values), (rec.lu_values, alone.lu_values),
                         (rec.solution.values, alone.solution.values)):
                assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)
            assert np.array_equal(rec.window.nodes, obs.nodes)

    @pytest.mark.parametrize("case", ["circle", "torus", "sphere", "mixed"])
    def test_one_source_batch_is_the_mat_vec_record(self, case):
        # numpy's (D, D) @ (D, 1) is the mat-vec bit for bit, so a record of
        # one source equals the one-vector solve and products exactly; the
        # sphere's polar cap takes the ring route, within 1e-13 of them
        model, obs, V = window_case(case)
        src = make_source_basis(model, obs, 1, order=3)[0]
        fmap = forward_map(model, 2.0, V)
        u = fmap.solve(src.coefficients)
        B = model.node_basis()[obs.node_indices]
        rec = cauchy_records(model, 2.0, V, [src], obs)[0]
        assert np.array_equal(rec.solution.values, u)
        for values, dense in ((rec.u_values, B @ u), (rec.lu_values, B @ (fmap.multipliers * u))):
            if case == "sphere":
                assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))
            else:
                assert np.array_equal(values, dense)

    @pytest.mark.parametrize("case", ["circle", "sphere"])
    def test_records_hold_the_window_they_were_given(self, case):
        model, obs, V = window_case(case)
        records = cauchy_records(model, 2.0, V, make_source_basis(model, obs, 4), obs)
        assert all(rec.window is obs for rec in records)

    def test_no_sources_rejected(self):
        model, obs, V = window_case("circle")
        with pytest.raises(ValueError, match="at least one source"):
            cauchy_records(model, 2.0, V, [], obs)
