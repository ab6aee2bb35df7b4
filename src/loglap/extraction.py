"""Spectral data recovered from time-sampled observation records.

The forward side produces samples of e^{-tA} L u on the observation nodes.
Because L u expands over eigenspaces, each sample path is a finite sum of
decaying exponentials whose rates are the shifted eigenvalues and whose
coefficients carry the restricted eigenfunctions.  This module identifies
those rates and coefficients with a stacked-Hankel matrix pencil, rebuilds
the restricted eigenfamilies, and compares two such datasets block by block.
"""

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .calculus import (FieldCoefficients, HeatTrace, check_mass, check_samples,
                       check_shared_nodes, check_times, decay, l_multiplier)
from .errors import (
    GridTooCoarseError,
    RankAmbiguousError,
    UnderExcitedEigenspaceError,
)
from .fields import (has_shape, require, require_array, require_count, require_indices,
                     require_tolerance)
from .models import ObservationSet, SpectralModel
from .solver import forward_map, source_matrix

__all__ = [
    "ExponentialFit",
    "GelfandData",
    "MatchReport",
    "build_gelfand_data",
    "compare_gelfand",
    "default_time_grid",
    "extract_exponents",
    "heat_trace_of_field",
    "heat_trace_of_solution",
    "principal_angles",
]


# -------------------------------------------------------------- forward


def default_time_grid(model: SpectralModel, m: float, samples: Optional[int] = None) -> np.ndarray:
    """Uniform sampling times bracketing every mode's decay.

    The fastest mode has barely started to decay at the first sample
    (t_min*(lambda_max+m) = 0.2) and the slowest has decayed by e^-8 at
    the last (t_max*(lambda_min+m) = 8).  Sample count defaults to 4K.
    """
    check_mass(m)
    mu = model.eigenvalues + m
    t_min = 0.2 / float(mu[-1])
    t_max = 8.0 / float(mu[0])
    count = 4 * model.truncation if samples is None else check_samples(samples)
    return np.linspace(t_min, t_max, count)


def heat_trace_of_field(model: SpectralModel, m: float, solution: FieldCoefficients,
                        obs: ObservationSet, times, *,
                        source_id: Optional[str] = None) -> HeatTrace:
    """Sample e^{-tA} L u on the observation nodes for each listed time."""
    check_mass(m)
    times = check_times(times)
    require(has_shape(getattr(solution, "values", None), (model.total_dim,)), "solution",
            f"expected the FieldCoefficients of a field with {model.total_dim} coefficients")
    weighted = l_multiplier(model.flat_eigenvalues(), m) * solution.values
    return _window_traces(model, m, weighted[:, None], obs, times, [source_id])[1][0]


def _window_traces(model: SpectralModel, m: float, weighted: np.ndarray,
                   obs: ObservationSet, times: np.ndarray, source_ids: list) -> tuple:
    """(values, traces): e^{-tA} of each weighted coefficient column (D, S) on
    the window, as one (T, S*|O|) array whose columns s*|O| .. (s+1)*|O|-1 are
    source s, and the HeatTrace of source_ids[s], a column slice of it.

    Every column of block k decays at the rate lambda_k + m, also in a basis
    rotated inside each eigenspace, so the model's window synthesis reduces
    each column to one window vector per eigenspace (`per_block`) before one
    decay product.
    """
    per_block = model.window_synthesis(obs).per_block(weighted)
    values = decay(np.outer(times, model.eigenvalues + m)) @ per_block.reshape(model.truncation, -1)
    n = obs.size
    return values, [HeatTrace(times=times, values=values[:, s * n:(s + 1) * n],
                              node_indices=obs.node_indices, source_id=source_id)
                    for s, source_id in enumerate(source_ids)]


def _window_pass(model, m, V, obs, sources, times) -> tuple:
    """(F, values, traces): one solve of F = [f_1 ... f_S] and its `_window_traces`.
    L u takes the multipliers of the map that solved for u, so a record of
    the same sources (`cauchy_records`) shares the solve."""
    F = source_matrix(model, sources)
    fmap = forward_map(model, m, V)
    return F, *_window_traces(model, m, fmap.multipliers[:, None] * fmap.solve(F), obs, times,
                              [src.source_id for src in sources])


def heat_trace_of_solution(model: SpectralModel, m: float, V, source, obs: ObservationSet,
                           times) -> HeatTrace:
    """Forward solve then sample the evolved image of the solution: a one-source pass."""
    return _window_pass(model, m, V, obs, [source], check_times(times))[2][0]


# -------------------------------------------------------------- pencil


@dataclass
class ExponentialFit:
    """Result of identifying a finite exponential sum from trace samples."""

    exponents: np.ndarray       # (r,) ascending decay rates
    amplitudes: np.ndarray      # (n_channels, r)
    residual: float             # relative reconstruction error over all samples
    singular_values: np.ndarray
    rank: int
    dt: float


def extract_exponents(trace: HeatTrace, max_order: int) -> ExponentialFit:
    """Matrix-pencil identification of decay rates shared across channels.

    Builds one Hankel block per channel, stacks them vertically, and reads
    the rates off the shift structure of the common row space.  The rank
    decision must be unambiguous: a blurred singular-value gap, complex or
    nonpositive pencil eigenvalues, or more modes than the stated budget
    all abort rather than guess.  Singular values below 1e-10 of the largest
    are noise and must sit below 1e-3 of the last kept one; the fitted sum
    must reproduce the samples to 1e-6 relative.
    """
    require(isinstance(trace, HeatTrace), "trace", "expected a HeatTrace")
    max_order = require_count(max_order, "max_order")
    times, vals = trace.times, trace.values  # the trace has checked their shapes
    for name, samples in (("trace.times", times), ("trace.values", vals)):
        require(np.isfinite(samples).all(), name, "expected finite numbers")
    J = times.size
    require(vals.shape[1] > 0, "trace.values", "expected at least one channel")
    steps = np.diff(times)
    if J < 2 or np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1e-300):
        raise GridTooCoarseError("exponent extraction needs a uniform time grid")
    if J < 2 * max_order + 2:
        raise GridTooCoarseError(
            f"{J} samples cannot identify up to {max_order} exponents; "
            f"need at least {2 * max_order + 2}")
    dt = float(steps[0])
    n_ch = vals.shape[1]

    L = J // 2
    rows = J - L
    # channel c contributes rows c*rows .. (c+1)*rows-1, entry (i, j) = vals[i+j, c]
    windows = np.lib.stride_tricks.sliding_window_view(vals, L + 1, axis=0)
    hankel = windows.transpose(1, 0, 2).reshape(n_ch * rows, L + 1)

    _, sv, vt = np.linalg.svd(hankel, full_matrices=False)
    smax = sv[0]
    if smax == 0.0:
        raise RankAmbiguousError("trace is identically zero")
    rank = int(np.sum(sv > 1e-10 * smax))
    if rank > max_order:
        raise RankAmbiguousError(
            f"{rank} significant singular values exceed the stated budget {max_order}")
    if rank < sv.size and sv[rank] > 1e-3 * sv[rank - 1]:
        raise RankAmbiguousError(
            "no clean singular-value gap at the detected rank "
            f"({sv[rank]:.3e} vs {sv[rank - 1]:.3e})")

    W = vt[:rank].T                      # (L+1, rank) row-space basis
    pencil = np.linalg.pinv(W[:-1]) @ W[1:]
    zs = np.linalg.eigvals(pencil)
    if np.any(np.abs(zs.imag) > 1e-8 * (1.0 + np.abs(zs))):
        raise RankAmbiguousError("pencil produced complex decay rates")
    zs = zs.real
    if np.any(zs <= 0):
        raise RankAmbiguousError("pencil produced nonpositive ratios")
    mus = np.sort(-np.log(zs) / dt)

    # merge numerically split duplicates
    keep = [mus[0]]
    for mu in mus[1:]:
        if abs(mu - keep[-1]) > 1e-6 * max(1.0, abs(mu)):
            keep.append(mu)
    mus = np.array(keep)

    powers = np.arange(J)[:, None]
    E = np.exp(-mus[None, :] * dt) ** powers     # Vandermonde in z
    shifted, *_ = np.linalg.lstsq(E, vals, rcond=None)
    resid = np.linalg.norm(E @ shifted - vals) / np.linalg.norm(vals)
    if resid > 1e-6:
        raise GridTooCoarseError(
            f"exponential model leaves relative residual {resid:.3e}")
    amplitudes = shifted.T * np.exp(mus[None, :] * times[0])
    return ExponentialFit(exponents=mus, amplitudes=amplitudes,
                          residual=float(resid), singular_values=sv,
                          rank=int(mus.size), dt=dt)


# -------------------------------------------------------------- gelfand


@dataclass
class GelfandData:
    """Spectral data as seen from `window`, the observation set they were made on.

    families[k] holds node samples of a family spanning the residues the
    traces reveal at rate k, so its width is multiplicities[k].  Both modes
    build it the same way; internal mode has also checked the rates and
    widths against the model's catalog.  `traces` keeps the per-source heat
    traces the data was fitted from, column slices of the one stacked trace
    array of the window pass; it is in-memory only.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    families: list[np.ndarray]
    window: ObservationSet
    mass: float
    mode: Literal["internal", "blind"]
    provenance: list[str] = field(default_factory=list)
    traces: Optional[list[HeatTrace]] = field(default=None, metadata={"in_memory": True})

    def __post_init__(self):
        require(isinstance(self.window, ObservationSet), "window", "expected an ObservationSet")
        check_mass(self.mass, "mass")
        self.eigenvalues = require_array(self.eigenvalues, "eigenvalues", (None,))
        n_nodes, n_blocks = self.window.size, self.eigenvalues.size
        require(has_shape(self.multiplicities, (n_blocks,)), "multiplicities",
                f"expected {n_blocks} entries, one per eigenvalue")
        require_indices(self.multiplicities, "multiplicities")
        require(len(self.families) == n_blocks, "families",
                f"expected {n_blocks} entries, one per eigenvalue")
        for k, (family, width) in enumerate(zip(self.families, self.multiplicities)):
            require_array(family, f"families[{k}]", (n_nodes, width),
                          f"expected shape ({n_nodes}, {width})")


def _excitation_mask(model: SpectralModel, F: np.ndarray) -> np.ndarray:
    """mask[k] is True when some nonzero source column of F has a block-k
    norm of at least 1e-10 x its own norm."""
    norms = np.linalg.norm(F, axis=0)
    blocks = np.sqrt(np.add.reduceat(F * F, model.block_offsets[:-1], axis=0))
    return np.any((blocks >= 1e-10 * norms) & (norms > 0), axis=1)


def build_gelfand_data(model: SpectralModel, m: float, V, obs: ObservationSet,
                       sources, *, times=None, mode: str = "internal") -> GelfandData:
    """Run the forward map once for all sources and distill spectral data.

    Both modes report what the traces support: the detected rates, and per
    rate the span of the residues on the observation nodes.  mode="internal"
    also checks that data against the model's own catalog: every
    materialized eigenspace must be fully excited, at its own rate.
    """
    require(mode in ("internal", "blind"), "mode",
            f"expected 'internal' or 'blind', found {mode!r}")
    sources = list(sources)
    times = default_time_grid(model, m) if times is None else check_times(times)
    F, values, traces = _window_pass(model, m, V, obs, sources, times)
    fit = extract_exponents(HeatTrace(times=times, values=values), model.truncation)

    # residues per (source, node, rate) in the weighted node geometry
    sw = np.sqrt(obs.weights)
    amps = fit.amplitudes.reshape(len(sources), obs.size, fit.rank) * sw[None, :, None]
    families = []
    for j in range(fit.rank):
        _, svals, vt = np.linalg.svd(amps[:, :, j], full_matrices=False)
        families.append(vt[:_block_rank(svals)].T / sw[:, None])
    multiplicities = np.array([f.shape[1] for f in families], dtype=int)
    if mode == "internal":
        _check_catalog(model, m, F, fit.exponents, multiplicities)
    return GelfandData(eigenvalues=fit.exponents - m, multiplicities=multiplicities,
                       families=families, window=obs, mass=float(m), mode=mode,
                       provenance=[s.source_id for s in sources], traces=traces)


def _block_rank(svals: np.ndarray) -> int:
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > 1e-8 * svals[0]))


def _check_catalog(model, m, F, exponents, multiplicities):
    """Raise unless the fitted rates are the catalog's, one per eigenspace,
    and each rate's residues span exactly that eigenspace's dimension."""
    expected_mu = model.eigenvalues + m
    gaps = np.diff(expected_mu) if expected_mu.size > 1 else expected_mu
    match_tol = 0.5 * float(np.min(gaps))

    excited = _excitation_mask(model, F)
    assignment = np.full(model.truncation, -1, dtype=int)
    for k, target in enumerate(expected_mu):
        j = int(np.argmin(np.abs(exponents - target)))
        if abs(exponents[j] - target) <= match_tol:
            assignment[k] = j
            continue
        if excited[k]:
            raise GridTooCoarseError(
                f"eigenspace {k} is excited but its decay rate {target:g} "
                "is missing from the fit; refine the time grid")
        raise UnderExcitedEigenspaceError(
            f"no source has weight in eigenspace {k}; add sources")
    spurious = set(range(exponents.size)) - set(assignment.tolist())
    if spurious:
        extras = ", ".join(f"{exponents[j]:g}" for j in sorted(spurious))
        raise GridTooCoarseError(f"fit produced unexpected decay rates: {extras}")

    for k in range(model.truncation):
        d_k = int(model.multiplicities[k])
        rank = int(multiplicities[assignment[k]])
        if rank < d_k:
            raise UnderExcitedEigenspaceError(
                f"eigenspace {k} has dimension {d_k} but the sources only "
                f"reveal rank {rank}; add sources")
        if rank > d_k:
            raise RankAmbiguousError(
                f"residues at eigenspace {k} have rank {rank} > dimension {d_k}")


# -------------------------------------------------------------- compare


@dataclass(frozen=True)
class MatchReport:
    """Blockwise comparison of two spectral datasets on shared nodes."""

    passed: bool
    eigenvalue_gaps: np.ndarray
    multiplicity_matches: np.ndarray
    max_angles: np.ndarray
    failure_index: int
    n_compared: int
    count_mismatch: bool
    eig_rtol: float
    angle_tol: float


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of `a` and `b`, largest first.

    With orthonormal bases Qa, Qb from QR, the cosines are the singular
    values of Qa^T Qb.  An angle whose cosine squared is at least 1/2 is
    read from the sines instead, the singular values of the part of the
    narrower basis outside the wider span, since arccos loses all accuracy
    near 0 (Knyazev & Argentati, SISC 2002).  The columns of each family
    must be linearly independent.
    """
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    cross = qa.T @ qb
    cosines = np.linalg.svd(cross, compute_uv=False)[::-1]
    if qa.shape[1] >= qb.shape[1]:
        outside = qb - qa @ cross
    else:
        outside = qa - qb @ cross.T
    sines = np.linalg.svd(outside, compute_uv=False)[:cosines.size]
    return np.where(cosines ** 2 >= 0.5, np.arcsin(np.clip(sines, -1.0, 1.0)),
                    np.arccos(np.clip(cosines, -1.0, 1.0)))


def compare_gelfand(a: GelfandData, b: GelfandData, *,
                    eig_rtol: float = 1e-6, angle_tol: float = 1e-5) -> MatchReport:
    """Compare eigenvalues, multiplicities, and restricted eigenspace spans.

    Both datasets must live on the same observation nodes; principal angles
    are measured in the weighted node geometry of the first dataset.
    """
    for name, data in (("a", a), ("b", b)):
        require(isinstance(data, GelfandData), name, "expected a GelfandData")
    check_shared_nodes(a.window.nodes, b.window.nodes, "a and b")
    eig_rtol = require_tolerance(eig_rtol, "eig_rtol")
    angle_tol = require_tolerance(angle_tol, "angle_tol")
    n = min(a.eigenvalues.size, b.eigenvalues.size)
    count_mismatch = a.eigenvalues.size != b.eigenvalues.size
    sw = np.sqrt(a.window.weights)

    gaps = np.empty(n)
    mult_ok = np.empty(n, dtype=bool)
    angles = np.empty(n)
    failure = -1
    for k in range(n):
        la, lb = float(a.eigenvalues[k]), float(b.eigenvalues[k])
        gaps[k] = abs(la - lb) / max(1.0, abs(la), abs(lb))
        mult_ok[k] = int(a.multiplicities[k]) == int(b.multiplicities[k])
        ang = principal_angles(sw[:, None] * a.families[k], sw[:, None] * b.families[k])
        angles[k] = float(np.max(ang)) if ang.size else 0.0
        ok = gaps[k] <= eig_rtol and mult_ok[k] and angles[k] <= angle_tol
        if not ok and failure < 0:
            failure = k
    passed = failure < 0 and not count_mismatch
    return MatchReport(passed=passed, eigenvalue_gaps=gaps,
                       multiplicity_matches=mult_ok, max_angles=angles,
                       failure_index=failure, n_compared=n,
                       count_mismatch=count_mismatch,
                       eig_rtol=eig_rtol, angle_tol=angle_tol)
