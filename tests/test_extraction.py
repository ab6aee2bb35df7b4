"""Spectral-data extraction from heat traces: pencil fits, eigendata, comparison.

Synthetic exponential sums are constructed from scratch in the tests and act
as the primary oracle for the identification machinery; the model-backed
tests compare against analytic eigendata.
"""

import dataclasses

import numpy as np
import pytest

import scipy.linalg

from loglap.calculus import (
    FieldCoefficients,
    HeatTrace,
    apply_L,
    l_multiplier,
    random_field,
    supnorm_sanity_check,
    weyl_sanity_check,
)
from loglap.errors import (
    GridTooCoarseError,
    PreconditionError,
    RankAmbiguousError,
    UnderExcitedEigenspaceError,
)
from loglap.extraction import (
    GelfandData,
    _excitation_mask,
    build_gelfand_data,
    compare_gelfand,
    default_time_grid,
    extract_exponents,
    heat_trace_of_field,
    heat_trace_of_solution,
    principal_angles,
)
from loglap.models import (
    AngularInterval,
    RingSynthesis,
    SphericalCap,
    TorusBox,
    build_model,
    restrict_to_observation,
    with_mixed_blocks,
)
from loglap.solver import (
    cauchy_records,
    forward_map,
    make_source_basis,
    solve_schrodinger,
    zero_potential,
    PotentialField,
)

# ---------------------------------------------------------------- oracles

MULT1_M2 = 3.2958368660043291      # 3 log 3
INV_SQRT_PI = 0.5641895835477563
# 1.5 * (2 log 2) * (1/sqrt(2 pi)): constant-solution trace amplitude
CONST_TRACE_AMP = 0.8295771505992245
# 1 - 1/1.01^2: eigenvalue gap between unit circle and radius 1.01
GAP_RADII = 0.019703950593079167


def synthetic_trace(times, exponents, amplitudes):
    """Exponential-sum trace built from scratch; amplitudes is (n_ch, r)."""
    times = np.asarray(times, dtype=float)
    amplitudes = np.atleast_2d(np.asarray(amplitudes, dtype=float))
    values = np.einsum("cr,tr->tc", amplitudes,
                       np.exp(-np.outer(times, np.asarray(exponents, dtype=float))))
    return HeatTrace(times=times, values=values)


def dense_trace(model, m, u, obs, times):
    """The trace column by column: every basis column decays on its own."""
    lam = model.flat_eigenvalues()
    B = model.node_basis()[obs.node_indices]
    return (np.exp(-np.outer(times, lam + m)) * (l_multiplier(lam, m) * u.values)) @ B.T


def cos_pot(scale):
    return PotentialField(lambda th: scale * np.cos(th), label=f"{scale}*cos")


def circle_setup(K, m=2.0, quad=None, count=5, radius=None, order=1):
    model = build_model("circle", K, quadrature=quad)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    basis = make_source_basis(model, obs, count, radius=radius, order=order)
    return model, obs, basis


def band_part(model, source, blocks, drop=None):
    """`source` cut to its first `blocks` eigenvalue blocks, less block
    `drop`: coefficients zeroed, node values re-expanded from them."""
    keep = np.arange(model.total_dim) < model.block_offsets[blocks]
    if drop is not None:
        keep[model.block_slice(drop)] = False
    coeffs = np.where(keep, source.coefficients, 0.0)
    return dataclasses.replace(source, coefficients=coeffs,
                               node_values=model.node_basis() @ coeffs)


# ---------------------------------------------------------------- traces


class TestHeatTraceOfSolution:
    def test_constant_solution_trace(self):
        model = build_model("circle", 6)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        u = np.zeros(model.total_dim)
        u[0] = 1.5
        times = np.array([0.3, 0.7])
        tr = heat_trace_of_field(model, 2.0, FieldCoefficients(model, u), obs, times)
        expect = CONST_TRACE_AMP * np.exp(-2.0 * times)[:, None]
        assert np.max(np.abs(tr.values - expect)) < 1e-14

    def test_single_mode_trace(self):
        model = build_model("circle", 6)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        u = np.zeros(model.total_dim)
        u[1] = 1.0  # phi_{1,cos}
        times = np.array([0.1, 0.5, 1.0])
        tr = heat_trace_of_field(model, 2.0, FieldCoefficients(model, u), obs, times)
        phi = np.cos(obs.nodes[:, 0]) * INV_SQRT_PI
        expect = MULT1_M2 * np.exp(-3.0 * times)[:, None] * phi[None, :]
        assert np.max(np.abs(tr.values - expect)) < 1e-13

    def test_general_field_matches_calculus_oracle(self):
        model = build_model("circle", 8)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        u = random_field(model, seed=5)
        times = np.array([0.2, 0.6, 1.3])
        tr = heat_trace_of_field(model, 2.0, u, obs, times)
        for j, t in enumerate(times):
            decay = np.exp(-t * (model.flat_eigenvalues() + 2.0))
            oracle = FieldCoefficients(model, decay * apply_L(u, 2.0).values).node_values()
            assert np.max(np.abs(tr.values[j] - oracle[obs.node_indices])) < 1e-12

    def test_solution_route_matches_field_route(self):
        model, obs, basis = circle_setup(8)
        src = basis[0]
        times = default_time_grid(model, 2.0)
        tr = heat_trace_of_solution(model, 2.0, cos_pot(0.3), src, obs, times)
        u = solve_schrodinger(model, 2.0, cos_pot(0.3), src)
        tr2 = heat_trace_of_field(model, 2.0, u, obs, times)
        assert np.max(np.abs(tr.values - tr2.values)) < 1e-14
        assert tr.source_id == src.source_id

    def test_gelfand_data_keeps_one_trace_per_source(self):
        model, obs, basis = circle_setup(6)
        times = default_time_grid(model, 2.0)
        data = build_gelfand_data(model, 2.0, cos_pot(0.3), obs, basis, times=times)
        assert [tr.source_id for tr in data.traces] == [src.source_id for src in basis]
        for src, tr in zip(basis, data.traces):
            alone = heat_trace_of_solution(model, 2.0, cos_pot(0.3), src, obs, times)
            assert np.max(np.abs(tr.values - alone.values)) < 1e-13
            assert np.array_equal(tr.node_indices, obs.node_indices)

    def test_rejects_nonpositive_times(self):
        model, obs, basis = circle_setup(4)
        with pytest.raises(ValueError):
            heat_trace_of_solution(model, 2.0, zero_potential, basis[0], obs,
                                   np.array([0.0, 0.5]))


class TestDefaultTimeGrid:
    def test_grid_brackets_mode_decay(self):
        model = build_model("circle", 5)
        times = default_time_grid(model, 2.0)
        assert times.size == 4 * 5
        mu_min = 0.0 + 2.0
        mu_max = 16.0 + 2.0
        assert abs(times[0] * mu_max - 0.2) < 1e-12
        assert abs(times[-1] * mu_min - 8.0) < 1e-12
        dt = np.diff(times)
        assert np.max(np.abs(dt - dt[0])) < 1e-12


class TestPerEigenspaceTrace:
    """The trace sums each eigenspace's columns before the time decay; the
    column-by-column formula is the reference."""

    @pytest.mark.parametrize("kind,kwargs,K,desc,mix_seed", [
        ("circle", {}, 10, AngularInterval(0.0, np.pi), None),
        ("torus", {"edges": (2 * np.pi, np.pi)}, 5, TorusBox(((0.5, 4.5), (0.5, 2.5))), None),
        ("sphere", {}, 6, SphericalCap((0.0, 0.0), 1.2), None),
        ("circle", {}, 10, AngularInterval(0.0, np.pi), 3),
        ("sphere", {}, 6, SphericalCap((0.0, 0.0), 1.2), 11),
    ], ids=["circle", "torus", "sphere", "mixed-circle", "mixed-sphere"])
    def test_matches_dense_formula(self, kind, kwargs, K, desc, mix_seed):
        model = build_model(kind, K, **kwargs)
        if mix_seed is not None:
            model = with_mixed_blocks(model, mix_seed)
        obs = restrict_to_observation(model, desc)
        u = random_field(model, seed=4)
        times = default_time_grid(model, 2.0, samples=9)
        values = heat_trace_of_field(model, 2.0, u, obs, times).values
        dense = dense_trace(model, 2.0, u, obs, times)
        assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_mixed_copy_gathers_its_own_rows(self):
        # the copy must not serve the window rows the base model gathered
        model = build_model("circle", 10)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        u = random_field(model, seed=4)
        times = default_time_grid(model, 2.0, samples=9)
        heat_trace_of_field(model, 2.0, u, obs, times)
        mixed = with_mixed_blocks(model, 3)
        u_mixed = FieldCoefficients(mixed, u.values)
        values = heat_trace_of_field(mixed, 2.0, u_mixed, obs, times).values
        dense = dense_trace(mixed, 2.0, u_mixed, obs, times)
        assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_single_eigenspace_decays_at_its_rate(self):
        model = build_model("sphere", 6)
        obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 1.2))
        k = 3
        coeffs = np.zeros(model.total_dim)
        coeffs[model.block_slice(k)] = np.random.default_rng(1).standard_normal(
            int(model.multiplicities[k]))
        u = FieldCoefficients(model, coeffs)
        times = np.array([0.05, 0.2, 0.7])
        values = heat_trace_of_field(model, 2.0, u, obs, times).values
        block_field = apply_L(u, 2.0).node_values()[obs.node_indices]
        mu_k = model.eigenvalues[k] + 2.0
        expect = np.exp(-mu_k * times)[:, None] * block_field[None, :]
        assert np.max(np.abs(values - expect)) <= 1e-13 * np.max(np.abs(expect))


# ---------------------------------------------------------------- pencil


class TestExponentExtraction:
    def test_two_mode_synthetic(self):
        times = np.linspace(0.0, 3.0, 64)
        tr = synthetic_trace(times, [2.0, 5.0], [[2.0, 0.5]])
        fit = extract_exponents(tr, 4)
        assert fit.exponents.shape == (2,)
        assert abs(fit.exponents[0] - 2.0) < 1e-8
        assert abs(fit.exponents[1] - 5.0) < 1e-8
        assert abs(fit.amplitudes[0, 0] - 2.0) < 1e-8
        assert abs(fit.amplitudes[0, 1] - 0.5) < 1e-8
        assert fit.residual < 1e-10

    def test_stacked_hankel_matches_scipy_oracle(self):
        # the pencil's strided Hankel against one scipy.linalg.hankel per channel;
        # an even sample count makes the blocks one column wider than tall
        times = np.linspace(0.0, 3.0, 40)
        tr = synthetic_trace(times, [1.0, 3.0, 7.0],
                             [[2.0, 0.5, 0.1], [1.5, -0.3, 0.2], [0.0, 1.0, 0.4]])
        fit = extract_exponents(tr, 4)
        rows = times.size - times.size // 2
        oracle = np.vstack([scipy.linalg.hankel(col[:rows], col[rows - 1:])
                            for col in tr.values.T])
        sv = scipy.linalg.svdvals(oracle)
        assert np.max(np.abs(fit.singular_values - sv)) < 1e-12 * sv[0]

    def test_constant_solution_single_exponent(self):
        model = build_model("circle", 6)
        obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
        u = np.zeros(model.total_dim)
        u[0] = 1.5
        times = default_time_grid(model, 2.0)
        tr = heat_trace_of_field(model, 2.0, FieldCoefficients(model, u), obs, times)
        fit = extract_exponents(tr, 3)
        assert fit.exponents.shape == (1,)
        assert abs(fit.exponents[0] - 2.0) < 1e-9
        assert np.max(np.abs(fit.amplitudes[:, 0] - CONST_TRACE_AMP)) < 1e-9

    def test_vanishing_amplitude_at_one_channel(self):
        times = np.linspace(0.0, 3.0, 64)
        tr = synthetic_trace(times, [2.0, 5.0], [[2.0, 0.5], [1.5, 0.0]])
        fit = extract_exponents(tr, 4)
        assert abs(fit.exponents[0] - 2.0) < 1e-8
        assert abs(fit.exponents[1] - 5.0) < 1e-8
        assert abs(fit.amplitudes[1, 0] - 1.5) < 1e-8
        assert abs(fit.amplitudes[1, 1]) < 1e-8

    def test_identifiability_at_minimal_sampling(self):
        # J = 2*order+2 exact samples identify `order` separated exponents
        order = 4
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mus = np.sort(rng.uniform(0.5, 6.0, order))
            while np.min(np.diff(mus)) < 0.3:
                mus = np.sort(rng.uniform(0.5, 6.0, order))
            amps = rng.uniform(0.5, 2.0, (2, order))
            times = np.linspace(0.0, 2.0, 2 * order + 2)
            fit = extract_exponents(synthetic_trace(times, mus, amps), order)
            assert fit.exponents.size == order
            assert np.max(np.abs(fit.exponents - mus)) < 1e-8
            assert np.max(np.abs(fit.amplitudes - amps)) < 1e-7

    def test_exponents_sorted(self):
        times = np.linspace(0.0, 2.5, 40)
        tr = synthetic_trace(times, [4.0, 1.0, 2.5], [[1.0, 2.0, -1.0]])
        fit = extract_exponents(tr, 5)
        assert np.all(np.diff(fit.exponents) > 0)
        assert np.max(np.abs(fit.exponents - [1.0, 2.5, 4.0])) < 1e-8

    def test_nonuniform_grid_raises(self):
        times = np.array([0.1, 0.2, 0.4, 0.8, 1.6, 3.2])
        tr = synthetic_trace(times, [2.0], [[1.0]])
        with pytest.raises(GridTooCoarseError):
            extract_exponents(tr, 2)

    def test_too_few_samples_raises(self):
        times = np.linspace(0.0, 2.0, 6)
        tr = synthetic_trace(times, [2.0], [[1.0]])
        with pytest.raises(GridTooCoarseError):
            extract_exponents(tr, 3)

    def test_tiny_trace_fits_tiny_amplitudes(self):
        # the rank and residual tests are relative, so a trace at 1e-12 still
        # fits, and the fit cannot hide finite amplitudes in it
        times = np.linspace(0.0, 12.0, 97)
        tr = synthetic_trace(times, [1.0, 3.0], [[1e-12, 1e-12]])
        fit = extract_exponents(tr, 3)
        assert np.max(np.abs(fit.amplitudes)) < 1e-10

    def test_noise_floor_triggers_rank_ambiguity(self):
        rng = np.random.default_rng(1)
        times = np.linspace(0.0, 3.0, 64)
        tr = synthetic_trace(times, [2.0], [[1.0]])
        tr.values = tr.values + 1e-8 * rng.standard_normal(tr.values.shape)
        with pytest.raises(RankAmbiguousError):
            extract_exponents(tr, 4)


# ---------------------------------------------------------------- gelfand


class TestBuildGelfandData:
    def test_data_and_traces_hold_the_window_they_were_given(self):
        model, obs, basis = circle_setup(5)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, basis)
        assert data.window is obs
        assert all(trace.node_indices is obs.node_indices for trace in data.traces)

    def test_circle_catalog_recovery(self):
        model, obs, basis = circle_setup(5)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, basis)
        assert np.array_equal(data.multiplicities, [1, 2, 2, 2, 2])
        expect = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        rel = np.abs(data.eigenvalues - expect) / np.maximum(1.0, expect)
        assert np.max(rel) < 1e-6
        # recovered restricted families span the analytic eigenspaces
        B = model.node_basis()[obs.node_indices]
        sw = np.sqrt(obs.weights)
        for k in range(5):
            analytic = B[:, model.block_slice(k)]
            ang = scipy.linalg.subspace_angles(sw[:, None] * analytic,
                                               sw[:, None] * data.families[k])
            assert np.max(ang) < 1e-6
        assert len(data.provenance) == 5
        assert data.mode == "internal"

    def test_internal_equals_blind(self):
        # one extraction path: internal mode only adds the catalog check
        model, obs, basis = circle_setup(5)
        V = cos_pot(0.3)
        internal = build_gelfand_data(model, 2.0, V, obs, basis)
        blind = build_gelfand_data(model, 2.0, V, obs, basis, mode="blind")
        assert np.array_equal(internal.eigenvalues, blind.eigenvalues)
        assert np.array_equal(internal.multiplicities, blind.multiplicities)
        assert len(internal.families) == len(blind.families) == 5
        for a, b in zip(internal.families, blind.families):
            assert np.array_equal(a, b)

    def test_default_grid_conditioning_boundary(self):
        # the uniform default grid undersamples the fastest mode at K=9 and
        # a residue block picks up a spurious rank; a denser explicit grid
        # resolves the same data cleanly
        model, obs, basis = circle_setup(9)
        with pytest.raises(RankAmbiguousError):
            build_gelfand_data(model, 2.0, zero_potential, obs, basis)
        times = np.linspace(0.2 / 66.0, 1.0, 64)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, basis,
                                  times=times)
        assert np.allclose(data.eigenvalues, np.arange(9.0) ** 2, atol=1e-6)

    def test_single_source_single_mode_blind(self):
        model, obs, basis = circle_setup(5)
        src = band_part(model, basis[0], 2, drop=0)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, [src],
                                  mode="blind")
        assert data.eigenvalues.size == 1
        assert abs(data.eigenvalues[0] - 1.0) < 1e-8
        assert data.multiplicities[0] >= 1
        assert data.mode == "blind"

    def test_under_excited_eigenspace_raises(self):
        model, obs, basis = circle_setup(5)
        sources = [band_part(model, src, 5, drop=2) for src in basis]
        with pytest.raises(UnderExcitedEigenspaceError):
            build_gelfand_data(model, 2.0, zero_potential, obs, sources)

    def test_blind_mode_spans_match_analytic(self):
        model, obs, basis = circle_setup(5)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, basis,
                                  mode="blind")
        B = model.node_basis()[obs.node_indices]
        sw = np.sqrt(obs.weights)
        for k in range(5):
            analytic = B[:, model.block_slice(k)]
            ang = scipy.linalg.subspace_angles(sw[:, None] * analytic,
                                               sw[:, None] * data.families[k])
            assert np.max(ang) < 1e-6

    def test_residue_consistency_with_potential(self):
        model, obs, basis = circle_setup(5)
        V = cos_pot(0.3)
        traces = build_gelfand_data(model, 2.0, V, obs, basis).traces
        fit = extract_exponents(
            HeatTrace(times=traces[0].times, values=np.hstack([tr.values for tr in traces])),
            model.truncation)
        B = model.node_basis()[obs.node_indices]
        n_src = len(basis)
        n_obs = obs.size
        amps = fit.amplitudes.reshape(n_src, n_obs, -1)
        for s, src in enumerate(basis):
            u = solve_schrodinger(model, 2.0, V, src)
            for k in range(5):
                mult = (model.eigenvalues[k] + 2.0) * np.log(model.eigenvalues[k] + 2.0)
                sl = model.block_slice(k)
                oracle = mult * (B[:, sl] @ u.values[sl])
                assert np.max(np.abs(amps[s, :, k] - oracle)) < 1e-7

    def test_subspace_invariance_under_sources(self):
        model, obs, _ = circle_setup(5)
        basis_a = make_source_basis(model, obs, 5)
        basis_b = make_source_basis(model, obs, 4, radius=0.45, order=2, seed=3)
        da = build_gelfand_data(model, 2.0, zero_potential, obs, basis_a)
        db = build_gelfand_data(model, 2.0, zero_potential, obs, basis_b)
        report = compare_gelfand(da, db)
        assert report.passed
        assert np.max(report.max_angles) < 1e-6

    def test_source_order_irrelevant(self):
        model, obs, basis = circle_setup(5)
        da = build_gelfand_data(model, 2.0, zero_potential, obs, list(basis))
        db = build_gelfand_data(model, 2.0, zero_potential, obs,
                                list(basis)[::-1])
        report = compare_gelfand(da, db)
        assert report.passed
        assert np.max(report.max_angles) < 1e-8


def probe_case(kind, K):
    """The benchmark's working-range probe inputs: a 0.3 cos potential, m = 2,
    window (0, pi), (0, pi)^2 or a cap of radius 1.2, and K, 16 or 16
    sources with jitter seed 0."""
    if kind == "circle":
        model = build_model("circle", K)
        desc, count = AngularInterval(0.0, np.pi), K
        V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3*cos")
    elif kind == "torus":
        model = build_model("torus", K, edges=(2.0 * np.pi, 2.0 * np.pi))
        desc, count = TorusBox(((0.0, np.pi), (0.0, np.pi))), 16
        V = PotentialField(lambda p: 0.3 * np.cos(p[:, 0]), label="0.3*cos(x)")
    else:
        model = build_model("sphere", K)
        desc, count = SphericalCap((0.0, 0.0), 1.2), 16
        V = PotentialField(lambda p: 0.3 * np.cos(p[:, 0]), label="0.3*cos(colat)")
    obs = restrict_to_observation(model, desc)
    return model, V, obs, make_source_basis(model, obs, count, seed=0)


# the largest K the probe reaches on every rung below it: a floor, so that a
# shrinking working range fails here and not only in the benchmark
WORKING_RANGE = {"circle": 7, "torus": 10, "sphere": 7}


@pytest.mark.parametrize("kind,K", [(kind, K) for kind, top in WORKING_RANGE.items()
                                    for K in range(1, top + 1)])
def test_working_range_floor(kind, K):
    model, V, obs, sources = probe_case(kind, K)
    data = build_gelfand_data(model, 2.0, V, obs, sources)
    assert np.array_equal(data.multiplicities, model.multiplicities)


def blockwise_trace(model, m, u, obs, times):
    """The trace as one mat-vec per eigenspace block, then one decay product."""
    rows = model.node_basis()[obs.node_indices]
    weighted = l_multiplier(model.flat_eigenvalues(), m) * u
    per_block = np.column_stack([rows[:, model.block_slice(k)] @ weighted[model.block_slice(k)]
                                 for k in range(model.truncation)])
    return np.exp(-np.outer(times, model.eigenvalues + m)) @ per_block.T


@pytest.mark.parametrize("kind,K", [("circle", 8), ("torus", 10), ("sphere", 7)])
def test_window_pass_keeps_the_per_source_trace_order(kind, K):
    # The probe sits on a knife edge: one matrix product per block instead
    # of one mat-vec per (source, block) moves the traces by ~3e-16 and
    # flips `_block_rank`'s 1e-8 decision on the circle at K=8.  So the
    # stacked traces must equal the single-source traces bit for bit, and
    # the flat windows the dense blockwise products; the polar cap takes
    # the ring route, within 1e-13 of them.
    model, V, obs, sources = probe_case(kind, K)
    times = default_time_grid(model, 2.0)
    data = build_gelfand_data(model, 2.0, V, obs, sources)
    U = forward_map(model, 2.0, V).solve(np.column_stack([s.coefficients for s in sources]))
    for u, src, trace in zip(U.T, sources, data.traces):
        alone = heat_trace_of_field(model, 2.0, FieldCoefficients(model, u), obs, times)
        assert np.array_equal(trace.values, alone.values)
        dense = blockwise_trace(model, 2.0, u, obs, times)
        if kind == "sphere":
            assert np.max(np.abs(trace.values - dense)) <= 1e-13 * np.max(np.abs(dense))
        else:
            assert np.array_equal(trace.values, dense)
        assert trace.source_id == src.source_id


@pytest.mark.parametrize("radius", [0.4, 1.2, 2.4])
def test_ring_route_stacked_traces_are_the_single_source_traces(radius):
    model = build_model("sphere", 6)
    obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), radius))
    assert isinstance(model.window_synthesis(obs), RingSynthesis)
    V = PotentialField(lambda p: 0.3 * np.cos(p[:, 0]), label="0.3*cos(colat)")
    sources = make_source_basis(model, obs, 16, seed=0)
    times = default_time_grid(model, 2.0)
    data = build_gelfand_data(model, 2.0, V, obs, sources, mode="blind")
    U = forward_map(model, 2.0, V).solve(np.column_stack([s.coefficients for s in sources]))
    for u, trace in zip(U.T, data.traces):
        alone = heat_trace_of_field(model, 2.0, FieldCoefficients(model, u), obs, times)
        assert np.array_equal(trace.values, alone.values)


def test_polar_cap_window_pass_holds_no_gather():
    model, V, obs, sources = probe_case("sphere", 6)
    cauchy_records(model, 2.0, V, sources, obs)
    build_gelfand_data(model, 2.0, V, obs, sources)
    memo = model.__dict__["_memo"]
    assert isinstance(memo["window_synthesis"][1], RingSynthesis)
    arrays = [a for _, v in memo.values()
              for a in (v, *(v if isinstance(v, tuple) else getattr(v, "__dict__", {}).values()))
              if isinstance(a, np.ndarray)]
    assert arrays and all(a.shape != (obs.size, model.total_dim) for a in arrays)


def test_excitation_mask_matches_per_source_rule():
    # block k is excited when some nonzero source has a block-k norm of at
    # least 1e-10 x its own norm
    model = build_model("sphere", 6)
    F = np.random.default_rng(3).standard_normal((model.total_dim, 4))
    F[:, 1] = 0.0
    F[model.block_slice(2), :] = 0.0
    F[model.block_slice(3), :] = 0.0
    F[model.block_slice(3), 2] = 1e-12
    F[model.block_slice(4), :] = 0.0
    F[model.block_slice(4), 3] = 1e-8
    expect = np.zeros(model.truncation, dtype=bool)
    for c in F.T:
        norm = np.linalg.norm(c)
        if norm == 0:
            continue
        for k in range(model.truncation):
            if np.linalg.norm(c[model.block_slice(k)]) >= 1e-10 * norm:
                expect[k] = True
    assert list(expect) == [True, True, False, False, True, True]
    assert np.array_equal(_excitation_mask(model, F), expect)


class TestCompareGelfand:
    def test_self_comparison(self):
        model, obs, basis = circle_setup(4)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, basis)
        report = compare_gelfand(data, data)
        assert report.passed
        assert np.max(np.abs(report.eigenvalue_gaps)) == 0.0
        assert np.max(report.max_angles) < 1e-10
        assert report.failure_index == -1

    def test_radius_discrimination(self):
        datasets = []
        for radius in (1.0, 1.01):
            model = build_model("circle", 3, radius=radius, quadrature=64)
            obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
            basis = make_source_basis(model, obs, 3)
            datasets.append(build_gelfand_data(model, 2.0, zero_potential,
                                               obs, basis))
        report = compare_gelfand(datasets[0], datasets[1])
        assert not report.passed
        assert report.failure_index == 1
        assert abs(report.eigenvalue_gaps[1] - GAP_RADII) < 1e-4

    def test_incompatible_nodes(self):
        model_a = build_model("circle", 3, quadrature=64)
        model_b = build_model("circle", 3, quadrature=128)
        out = []
        for model in (model_a, model_b):
            obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
            basis = make_source_basis(model, obs, 3)
            out.append(build_gelfand_data(model, 2.0, zero_potential, obs, basis))
        with pytest.raises(PreconditionError):
            compare_gelfand(out[0], out[1])

    def test_multiplicity_mismatch_flagged(self):
        model, obs, basis = circle_setup(4)
        data = build_gelfand_data(model, 2.0, zero_potential, obs, basis)
        clipped = GelfandData(
            eigenvalues=data.eigenvalues.copy(),
            multiplicities=np.array([1, 1, 2, 2]),
            families=[data.families[0], data.families[1][:, :1],
                      data.families[2], data.families[3]],
            window=data.window, mass=data.mass,
            mode=data.mode, provenance=list(data.provenance))
        report = compare_gelfand(data, clipped)
        assert not report.passed
        assert report.failure_index == 1
        assert not report.multiplicity_matches[1]


def family_pair(rng, n, widths, angles):
    """Two families of the given widths whose spans meet at exactly `angles`
    (one per column of the narrower), each multiplied by a random invertible
    matrix so that neither is orthonormal."""
    k, wide = min(widths), max(widths)
    q = np.linalg.qr(rng.standard_normal((n, wide + k)))[0]
    broad = q[:, :wide]
    narrow = np.cos(angles) * broad[:, :k] + np.sin(angles) * q[:, wide:]
    pair = (broad, narrow) if widths[0] >= widths[1] else (narrow, broad)
    return tuple(f @ (np.eye(f.shape[1]) + 0.3 * rng.standard_normal((f.shape[1],) * 2))
                 for f in pair)


class TestPrincipalAngles:
    """The numpy principal angles against scipy.linalg.subspace_angles and
    against the angles the families were built with."""

    @pytest.mark.parametrize("seed,draw", [
        (0, lambda rng, k: 10.0 ** rng.uniform(-13, -10, k)),
        (1, lambda rng, k: rng.uniform(0.0, 0.75, k)),
        (2, lambda rng, k: rng.uniform(0.82, 1.4, k)),
    ], ids=["nearly_equal", "below_45", "above_45"])
    def test_matches_scipy(self, seed, draw):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            widths = tuple(int(w) for w in rng.integers(1, 7, size=2))
            angles = draw(rng, min(widths))
            a, b = family_pair(rng, 40, widths, angles)
            ours = principal_angles(a, b)
            assert ours.shape == angles.shape
            assert np.max(np.abs(ours - scipy.linalg.subspace_angles(a, b))) <= 1e-13
            assert np.max(np.abs(ours - np.sort(angles)[::-1])) <= 1e-13

    def test_mixed_spread_reads_each_angle_by_its_own_cosine(self):
        # With angles on both sides of 45 degrees scipy pairs the i-th
        # smallest cosine's route with the i-th largest angle, so it reads
        # the small angles through arccos; the largest angle still agrees.
        rng = np.random.default_rng(3)
        for _ in range(60):
            widths = tuple(int(w) for w in rng.integers(2, 7, size=2))
            k = min(widths)
            angles = np.concatenate([10.0 ** rng.uniform(-13, -10, k // 2),
                                     rng.uniform(0.9, 1.4, k - k // 2)])
            a, b = family_pair(rng, 40, widths, angles)
            ours = principal_angles(a, b)
            assert np.max(np.abs(ours - np.sort(angles)[::-1])) <= 1e-13
            assert abs(ours[0] - np.max(scipy.linalg.subspace_angles(a, b))) <= 1e-13


# ---------------------------------------------------------------- sanity


class TestSpectralSanity:
    def test_weyl_constant_all_models(self):
        for model in (build_model("circle", 16),
                      build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi)),
                      build_model("sphere", 10)):
            rep = weyl_sanity_check(model)
            assert rep.violations == 0
            assert rep.constant > 0
            assert np.isfinite(rep.constant)

    def test_weyl_constant_stable_under_refinement(self):
        for kind, kwargs in (("circle", {}), ("sphere", {}),
                             ("torus", {"edges": (2 * np.pi, 2 * np.pi)})):
            small = weyl_sanity_check(build_model(kind, 8, **kwargs))
            large = weyl_sanity_check(build_model(kind, 16, **kwargs))
            assert large.constant <= small.constant * 1.05

    def test_supnorm_constant_all_models(self):
        for model in (build_model("circle", 16),
                      build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi)),
                      build_model("sphere", 10)):
            rep = supnorm_sanity_check(model, 2.0)
            assert rep.violations == 0
            assert np.isfinite(rep.constant)

    def test_supnorm_constant_is_the_largest_block_ratio(self):
        for model in (build_model("circle", 16), with_mixed_blocks(build_model("sphere", 10), 1),
                      build_model("torus", 6, edges=(2 * np.pi, 2 * np.pi))):
            B = model.node_basis()
            sups = np.array([np.max(np.abs(B[:, model.block_slice(k)]))
                             for k in range(model.truncation)])
            power = (model.eigenvalues + 2.0) ** ((model.dimension - 1) / 4.0)
            assert supnorm_sanity_check(model, 2.0).constant == float(np.max(sups / power))

    def test_supnorm_constant_stable_under_refinement(self):
        # bounded law: the fitted constant converges, so its growth per
        # truncation doubling must shrink (exactly flat on circle/torus,
        # decaying toward the asymptote on the sphere)
        for kind, kwargs in (("circle", {}), ("sphere", {}),
                             ("torus", {"edges": (2 * np.pi, 2 * np.pi)})):
            c8, c16, c32 = (supnorm_sanity_check(build_model(kind, K, **kwargs),
                                                 2.0).constant
                            for K in (8, 16, 32))
            assert c16 <= c8 * 1.10
            assert c32 / c16 <= c16 / c8 + 1e-12
