"""Unique-continuation diagnostics and potential recovery.

Everything here works at finite rank: the continuation statement becomes a
singular-value rank test on a stacked constraint matrix, and recovery
divides the observed operator image by the solution wherever the solution
is safely away from zero.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .calculus import (apply_L, check_mass, field_from_samples,
                       l_multiplier, random_field)
from .errors import PreconditionError, UnderdeterminedSamplingError
from .fields import require, require_count, require_tolerance
from .models import (
    Isometry,
    ObservationSet,
    SpectralModel,
    Window,
    apply_isometry,
    certificate_sampling,
    check_window_of,
    isometry_preserves_set,
    project_function,
)
from .solver import CauchyRecord, PotentialField, forward_map, make_source_basis

__all__ = [
    "GaugeReport",
    "RecoveredPotential",
    "UcpReport",
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


def _certificate_values(R: np.ndarray, mult) -> np.ndarray:
    """Singular values of the column-normalised [R; R diag(mult)], or of R
    when `mult` is None, in descending order.  `R` is left as it is: the
    memo's R is read-only, so the stack is one new array, normalised in
    place."""
    rows = R.shape[0]
    stack = np.empty((rows if mult is None else 2 * rows, R.shape[1]))
    stack[:rows] = R
    if mult is not None:
        np.multiply(R, mult, out=stack[rows:])
    # unit column norms: rank must not depend on how the operator scales
    # individual basis directions
    stack /= np.maximum(np.linalg.norm(stack, axis=0), 1e-300)
    return np.linalg.svd(stack, compute_uv=False)


def ucp_nullspace_test(model: SpectralModel, m: float, obs: ObservationSet, *,
                       node_multiplier: int = 4, include_image: bool = True,
                       points=None) -> UcpReport:
    """Numerical null space of v -> (v, L v) sampled inside the window.

    A truncated field vanishing on the observation set together with its
    operator image must vanish everywhere; at finite rank that is a
    full-column-rank statement about the stacked sample matrix.  The null
    dimension counts singular values below 1e-9 of the largest.

    The samples B enter only through a factor R with R^T R = B^T B, such as
    the triangular factor of B = QR: R has the singular values and the
    column norms of B, and [R; R diag(mult)] those of [B; B diag(mult)], at
    D x D and 2D x D in place of P x D and 2P x D.  Explicit `points` must
    lie in the window.

    `certificate_sampling` decides where B is sampled, in which basis (on
    a flat torus the window-centred parity basis, so that a translated
    window gets the same report), how its columns group and how each group
    is factored; each group's singular values count as often as it says.
    The factors are kept in the model's `certificate` memo under the
    sampling's key, so the two variants on one window factor it once.
    """
    check_mass(m)
    require_count(node_multiplier, "node_multiplier")
    require(isinstance(include_image, (bool, np.bool_)), "include_image", "expected a bool")
    include_image = bool(include_image)
    dim = model.total_dim
    sampling = certificate_sampling(model, obs.descriptor, node_multiplier * dim, points)
    if sampling.n_points < 2 * dim:
        raise UnderdeterminedSamplingError(
            f"{sampling.n_points} sample points cannot overdetermine a "
            f"{dim}-dimensional space; need at least {2 * dim}")
    mult = l_multiplier(model.flat_eigenvalues(), m) if include_image else None
    factors = model.memo("certificate", sampling.key, sampling.factors)
    values = [_certificate_values(R, None if mult is None else mult[cols])
              for R, (cols, _) in zip(factors, sampling.groups)]
    cutoff = 1e-9 * max(sv[0] for sv in values)
    null_dim = sum(count * int(np.count_nonzero(sv < cutoff))
                   for sv, (_, count) in zip(values, sampling.groups))
    return UcpReport(truncation=model.truncation, descriptor=obs.descriptor,
                     null_dimension=null_dim,
                     smallest_singular=float(min(sv[-1] for sv in values)),
                     passed=null_dim == 0, n_points=int(sampling.n_points),
                     include_image=include_image)


# --------------------------------------------------------------- recovery

MASK_EPS = 1e-6  # a source is admissible where |u| exceeds this fraction of its largest |u|


@dataclass
class RecoveredPotential:
    """Node table of recovered potential values with coverage mask."""

    nodes: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    disagreement: np.ndarray
    observation_indices: np.ndarray

    @property
    def off_window(self) -> np.ndarray:
        """True at the nodes outside the observation window."""
        out = np.ones(len(self.values), dtype=bool)
        out[self.observation_indices] = False
        return out

    @property
    def covered_fraction(self) -> float:
        """The share of nodes off the window that `mask` marks recovered (1.0 if none)."""
        off = self.off_window
        return float(np.mean(self.mask[off])) if off.any() else 1.0


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted median along the last axis.  nan sorts last, so a nan value
    given zero weight never wins."""
    order = np.argsort(values, axis=-1)
    v, w = (np.take_along_axis(a, order, -1) for a in (values, weights))
    cum = np.cumsum(w, axis=-1)
    pick = np.argmax(cum >= 0.5 * cum[..., -1:], axis=-1)
    return np.take_along_axis(v, pick[..., None], -1)[..., 0]


def recover_potential(model: SpectralModel, m: float, obs: ObservationSet,
                      v_known: PotentialField, records) -> RecoveredPotential:
    """Recover the potential outside the window from observation records.

    Off the window the sources vanish, so the equation pins the potential
    to -(L u)/u wherever a solution stays away from zero.  Candidates from
    different sources are aggregated by a weighted median with weights |u|;
    nodes with no admissible source are masked.  On the window the known
    restriction is copied verbatim.  The records must carry their solution
    (serialized records hold window data only) and be made on this model,
    mass and observation set.
    """
    m = check_mass(m)
    check_window_of(model, obs)
    idx = obs.node_indices
    records = list(records)
    require(records, "records", "expected at least one record")
    for i, rec in enumerate(records):
        require(isinstance(rec, CauchyRecord), f"records[{i}]", "expected a CauchyRecord")
        if rec.solution is None:
            raise PreconditionError(
                "records carry no solution (serialized records hold window data "
                "only); recover from records made by cauchy_records")
        for name, ok in (("mass", rec.mass == m),
                         ("node_indices", np.array_equal(rec.window.node_indices, idx)),
                         ("solution", rec.solution.model is model)):
            if not ok:
                raise PreconditionError(f"record {rec.source_id}: {name} disagrees with "
                                        "the model, m and obs of this call")
    u = np.column_stack([rec.solution.node_values() for rec in records])
    lu = np.column_stack([apply_L(rec.solution, m).node_values() for rec in records])
    admissible = np.abs(u) > MASK_EPS * np.max(np.abs(u), axis=0)
    admissible[idx] = False
    candidates = np.divide(-lu, u, out=np.full_like(u, np.nan), where=admissible)
    values = _weighted_median(candidates, np.where(admissible, np.abs(u), 0.0))
    mask = admissible.any(axis=1)
    disagreement = np.fmax.reduce(np.abs(candidates - values[:, None]), axis=1)

    values[idx] = v_known.values_at(model, obs.nodes)
    mask[idx] = True
    return RecoveredPotential(nodes=model.nodes, values=values, mask=mask,
                              disagreement=disagreement,
                              observation_indices=idx.copy())


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
    tolerance = require_tolerance(tolerance, "tolerance")
    check_window_of(model, obs)
    if not isometry_preserves_set(model, isometry, obs):
        raise PreconditionError(
            "isometry moves observation nodes out of the window")

    # stage 1: intertwining on a random truncated field
    u = random_field(model, seed=seed)
    B = model.eigenfunction_values(apply_isometry(model, isometry, model.nodes))
    lhs = apply_L(field_from_samples(model, B @ u.values), m).node_values()
    rhs = B @ apply_L(u, m).values
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    intertwining = float(np.max(np.abs(lhs - rhs))) / scale

    # stage 2: record invariance for one window-supported source f, each
    # problem solved once.  f is pulled back through its band expansion:
    # composition by the symmetry and projection onto the band only commute
    # for band-limited data, so the raw bump would leak its spectral tail
    # into the comparison whenever the symmetry does not map quadrature
    # nodes to quadrature nodes.
    pull_back = partial(apply_isometry, model, isometry, inverse=True)
    v_pulled = PotentialField(lambda pts: V.values_at(model, pull_back(pts)),
                              label=f"{V.label}~pullback")
    f = make_source_basis(model, obs, 1)[0].coefficients
    f_pulled = project_function(model, model.eigenfunction_values(pull_back(model.nodes)) @ f)
    fmap = forward_map(model, m, V)
    U = fmap.solve(f[:, None])
    U2 = forward_map(model, m, v_pulled).solve(f_pulled[:, None])
    mult = fmap.multipliers[:, None]
    # Cauchy data of the pulled-back problem on the window against those of
    # (V, f) at Phi^{-1}(window nodes)
    window = model.window_synthesis(obs)
    E = model.eigenfunction_values(pull_back(obs.nodes))
    du = np.max(np.abs(window.values(U2) - E @ U))
    dlu = np.max(np.abs(window.values(mult * U2) - E @ (mult * U)))
    ref = max(float(np.max(np.abs(window.values(U)))), 1e-300)
    record_defect = float(max(du, dlu)) / ref

    passed = intertwining <= tolerance and record_defect <= tolerance
    return GaugeReport(passed=passed, intertwining_defect=intertwining,
                       record_defect=record_defect, tolerance=tolerance,
                       isometry=isometry)
