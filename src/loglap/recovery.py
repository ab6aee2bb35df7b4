"""Unique-continuation diagnostics and potential recovery.

Everything here works at finite rank: the continuation statement becomes a
singular-value rank test on a stacked constraint matrix, and recovery
divides the observed operator image by the solution wherever the solution
is safely away from zero.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .calculus import (apply_L, check_mass, field_from_samples,
                       l_multiplier, random_field)
from .errors import (
    EmptyCoverageError,
    InconsistentCandidatesError,
    PreconditionError,
    UnderdeterminedSamplingError,
)
from .models import (
    Isometry,
    ObservationSet,
    SpectralModel,
    Window,
    apply_isometry,
    certificate_sampling,
    isometry_preserves_set,
    project_function,
)
from .solver import (
    PotentialField,
    SourceFunction,
    band_limit_source,
    cauchy_record,
    make_source_basis,
)

__all__ = [
    "GaugeReport",
    "KernelMatchReport",
    "RecoveredPotential",
    "UcpReport",
    "heat_kernel_equality_check",
    "isometry_gauge_check",
    "recover_potential",
    "ucp_nullspace_test",
]


# -------------------------------------------------------------------- ucp


@dataclass(frozen=True)
class UcpReport:
    """Rank certificate for the truncated continuation statement."""

    truncation: int
    descriptor: Window
    null_dimension: int
    smallest_singular: float
    passed: bool
    n_points: int
    include_image: bool


def _certificate_values(samples: np.ndarray, mult) -> np.ndarray:
    """Singular values of the column-normalised [B; B diag(mult)], or of B
    when `mult` is None.  `samples` is left as it is."""
    if mult is not None:
        R = np.linalg.qr(samples, mode="r")
        samples = np.vstack([R, R * mult[None, :]])
    # unit column norms: rank must not depend on how the operator scales
    # individual basis directions
    scale = np.maximum(np.linalg.norm(samples, axis=0), 1e-300)[None, :]
    # the memo's B is read-only; the quotient is a new array in B's layout
    # (a C-order copy of column-major B moves the SVD's last bits)
    return np.linalg.svd(samples / scale, compute_uv=False)


def ucp_nullspace_test(model: SpectralModel, m: float, obs: ObservationSet, *,
                       node_multiplier: int = 4, include_image: bool = True,
                       points=None) -> UcpReport:
    """Numerical null space of v -> (v, L v) sampled inside the window.

    A truncated field vanishing on the observation set together with its
    operator image must vanish everywhere; at finite rank that is a
    full-column-rank statement about the stacked sample matrix.  The null
    dimension counts singular values below 1e-9 of the largest.

    With the image rows, the samples B = QR enter only through their
    triangular factor: Q has orthonormal columns, so [R; R diag(mult)] has
    the singular values and the column norms of [B; B diag(mult)] at
    2D x D in place of 2P x D.  Explicit `points` must lie in the window.

    `certificate_sampling` decides where B is sampled and how its columns
    group; each group's singular values count as often as it says.  B is
    kept in the model's `certificate` memo, keyed by the sample points, so
    the two variants on one window evaluate the basis once.
    """
    check_mass(m)
    dim = model.total_dim
    sampling = certificate_sampling(model, obs.descriptor, node_multiplier * dim, points)
    if sampling.n_points < 2 * dim:
        raise UnderdeterminedSamplingError(
            f"{sampling.n_points} sample points cannot overdetermine a "
            f"{dim}-dimensional space; need at least {2 * dim}")

    mult = l_multiplier(model.flat_eigenvalues(), m) if include_image else None
    values = model.memo("certificate", sampling.points.tobytes(),
                        lambda: model.eigenfunction_values(sampling.points))
    sv = np.concatenate([
        np.repeat(_certificate_values(values[:, cols], None if mult is None else mult[cols]),
                  count)
        for cols, count in sampling.groups])
    null_dim = int(np.sum(sv < 1e-9 * np.max(sv)))
    return UcpReport(truncation=model.truncation, descriptor=obs.descriptor,
                     null_dimension=null_dim,
                     smallest_singular=float(np.min(sv)),
                     passed=null_dim == 0, n_points=int(sampling.n_points),
                     include_image=include_image)


# --------------------------------------------------------------- recovery


@dataclass
class RecoveredPotential:
    """Node table of recovered potential values with coverage mask."""

    nodes: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    disagreement: np.ndarray
    observation_indices: np.ndarray
    covered_fraction: float


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted median along the last axis.  nan sorts last, so a nan value
    given zero weight never wins."""
    order = np.argsort(values, axis=-1)
    v, w = (np.take_along_axis(a, order, -1) for a in (values, weights))
    cum = np.cumsum(w, axis=-1)
    pick = np.argmax(cum >= 0.5 * cum[..., -1:], axis=-1)
    return np.take_along_axis(v, pick[..., None], -1)[..., 0]


def recover_potential(model: SpectralModel, m: float, obs: ObservationSet,
                      v_known: PotentialField, records, *,
                      mask_eps: float = 1e-6,
                      disagreement_tol: Optional[float] = None,
                      require_full_coverage: bool = False) -> RecoveredPotential:
    """Recover the potential outside the window from observation records.

    Off the window the sources vanish, so the equation pins the potential
    to -(L u)/u wherever a solution stays away from zero.  Candidates from
    different sources are aggregated by a weighted median with weights |u|;
    nodes with no admissible source are masked.  On the window the known
    restriction is copied verbatim.
    """
    check_mass(m)
    records = list(records)
    if not records:
        raise ValueError("no records given")
    n_nodes = model.nodes.shape[0]
    complement = np.setdiff1d(np.arange(n_nodes), obs.node_indices)

    u = np.column_stack([rec.solution.node_values() for rec in records])
    lu = np.column_stack([apply_L(rec.solution, m).node_values() for rec in records])
    admissible = np.abs(u) > mask_eps * np.max(np.abs(u), axis=0)
    admissible[obs.node_indices] = False
    candidates = np.divide(-lu, u, out=np.full_like(u, np.nan), where=admissible)
    values = _weighted_median(candidates, np.where(admissible, np.abs(u), 0.0))
    mask = admissible.any(axis=1)
    disagreement = np.fmax.reduce(np.abs(candidates - values[:, None]), axis=1)

    uncovered = complement[~mask[complement]]
    if require_full_coverage and uncovered.size:
        raise EmptyCoverageError(
            f"{uncovered.size} nodes outside the window have no admissible "
            "source; add sources or lower the mask threshold")
    if disagreement_tol is not None:
        # uncovered nodes carry no candidate, hence no disagreement
        reached = complement[mask[complement]]
        worst = float(np.max(disagreement[reached])) if reached.size else 0.0
        if worst > disagreement_tol:
            raise InconsistentCandidatesError(
                f"source candidates disagree by {worst:.3e} "
                f"(tolerance {disagreement_tol:.3e}); raise the truncation")

    values[obs.node_indices] = v_known.values_at(model, obs.nodes)
    mask[obs.node_indices] = True
    covered = float(mask[complement].mean()) if complement.size else 1.0
    return RecoveredPotential(nodes=model.nodes, values=values, mask=mask,
                              disagreement=disagreement,
                              observation_indices=obs.node_indices.copy(),
                              covered_fraction=covered)


# ---------------------------------------------------------------- kernels


@dataclass(frozen=True)
class KernelMatchReport:
    """Pointwise heat-kernel comparison on a shared node set."""

    passed: bool
    max_deviation: float
    deviations: np.ndarray
    times: np.ndarray
    tolerance: float


def heat_kernel_equality_check(model_a: SpectralModel, model_b: SpectralModel,
                               m: float, obs_a: ObservationSet,
                               obs_b: ObservationSet, times, *,
                               tolerance: float = 1e-10) -> KernelMatchReport:
    """Compare both kernels on all window node pairs over the time grid.

    Each model's basis rows on the window come from `window_rows`; only
    the decay changes from one time to the next.
    """
    check_mass(m)
    if obs_a.nodes.shape != obs_b.nodes.shape or \
            np.max(np.abs(obs_a.nodes - obs_b.nodes)) > 1e-12:
        raise PreconditionError("observation node sets differ")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times <= 0):
        raise ValueError("times must be positive")
    rows_a = model_a.window_rows(obs_a.node_indices)
    rows_b = model_b.window_rows(obs_b.node_indices)
    mu_a = model_a.flat_eigenvalues() + m
    mu_b = model_b.flat_eigenvalues() + m
    devs = np.empty(times.size)
    for j, t in enumerate(times):
        ka = (rows_a * np.exp(-t * mu_a)[None, :]) @ rows_a.T
        kb = (rows_b * np.exp(-t * mu_b)[None, :]) @ rows_b.T
        devs[j] = np.max(np.abs(ka - kb))
    worst = float(np.max(devs))
    return KernelMatchReport(passed=worst <= tolerance, max_deviation=worst,
                             deviations=devs, times=times, tolerance=tolerance)


# ------------------------------------------------------------------ gauge


@dataclass(frozen=True)
class GaugeReport:
    """Invariance of observation records under a catalog symmetry."""

    passed: bool
    intertwining_defect: float
    record_defect: float
    tolerance: float
    isometry: Isometry


def isometry_gauge_check(model: SpectralModel, m: float, V: PotentialField,
                         obs: ObservationSet, isometry, *,
                         tolerance: float = 1e-10, seed: int = 0) -> GaugeReport:
    """Check that a window-preserving symmetry leaves the records invariant.

    Two stages: the operator must commute with composition by the symmetry
    (exact in the eigenbasis, checked on a random truncated field), and the
    record of (V, f) must match the pulled-back record of (V o Phi^{-1},
    f o Phi^{-1}) on the window nodes.
    """
    check_mass(m)
    if not isometry_preserves_set(model, isometry, obs):
        raise PreconditionError(
            "isometry moves observation nodes out of the window")

    # stage 1: intertwining on a random truncated field
    u = random_field(model, seed=seed)
    mapped_nodes = apply_isometry(model, isometry, model.nodes)
    pulled = field_from_samples(model, u.evaluate(mapped_nodes))
    lhs = apply_L(pulled, m).node_values()
    rhs = apply_L(u, m).evaluate(mapped_nodes)
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    intertwining = float(np.max(np.abs(lhs - rhs))) / scale

    # stage 2: record invariance for one window-supported source.  The bump
    # is truncated to the model band first: composition by the symmetry and
    # projection onto the band only commute for band-limited data, so a raw
    # bump would leak its spectral tail into the comparison whenever the
    # symmetry does not map quadrature nodes to quadrature nodes.
    src = band_limit_source(model, make_source_basis(model, obs, 1)[0],
                            model.truncation)
    rec = cauchy_record(model, m, V, src, obs)

    pull_back = partial(apply_isometry, model, isometry, inverse=True)
    v_pulled = PotentialField(lambda pts: V.values_at(model, pull_back(pts)),
                              label=f"{V.label}~pullback")
    inv_nodes = pull_back(model.nodes)
    f_coeffs = project_function(model, src.evaluate(inv_nodes))
    src_pulled = SourceFunction(
        model=model, source_id=f"{src.source_id}~pullback", center=src.center,
        radius=src.radius, order=src.order,
        node_values=model.node_basis() @ f_coeffs, coefficients=f_coeffs,
        band_limited=True)
    rec2 = cauchy_record(model, m, v_pulled, src_pulled, obs)

    inv_obs = pull_back(obs.nodes)
    du = np.max(np.abs(rec2.u_values - rec.solution.evaluate(inv_obs)))
    dlu = np.max(np.abs(rec2.lu_values - apply_L(rec.solution, m).evaluate(inv_obs)))
    ref = max(float(np.max(np.abs(rec.u_values))), 1e-300)
    record_defect = float(max(du, dlu)) / ref

    passed = intertwining <= tolerance and record_defect <= tolerance
    return GaugeReport(passed=passed, intertwining_defect=intertwining,
                       record_defect=record_defect, tolerance=tolerance,
                       isometry=isometry)
