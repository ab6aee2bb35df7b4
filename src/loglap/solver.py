"""Truncated Schrodinger solves and Cauchy records on observation sets.

The operator acts blockwise through the multiplier (lam+m)log(lam+m); a
multiplicative potential couples blocks through its quadrature Gram matrix.
Sources are compactly supported bumps placed inside the observation set, so
smoothness and support containment hold by construction.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import FieldCoefficients, check_mass, l_multiplier
from .errors import (
    IllConditionedError,
    SingularOperatorError,
    SupportViolationError,
)
from .fields import is_real, require, require_array, require_count
from .models import (
    ObservationSet,
    SpectralModel,
    as_points,
    check_window_of,
    geodesic_distance,
    kept,
    project_function,
)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialField:
    """Multiplicative potential, given as a callable on natural coordinates.

    The callable receives angles (P,) on the circle, coordinate rows (P, n)
    on the torus, and (colatitude, longitude) rows (P, 2) on the sphere.
    `func=None` is the zero potential.
    """

    func: Optional[Callable] = None
    label: str = ""

    def values_at(self, model: SpectralModel, points) -> np.ndarray:
        pts = as_points(points, model.dimension)
        n = pts.shape[0]
        if self.func is None:
            return np.zeros(n)
        out = require_array(self.func(model.manifold.natural_coordinates(pts)), "V", (n,),
                            f"{self.label!r} must return {n} numbers, one per point")
        require(np.all(np.isfinite(out)), "V", f"{self.label!r} has non-finite values")
        return out

    def node_values(self, model: SpectralModel) -> np.ndarray:
        return self.values_at(model, model.nodes)

    @property
    def is_zero(self) -> bool:
        return self.func is None


zero_potential = PotentialField(label="zero")


def assemble_potential_matrix(model: SpectralModel, V: PotentialField) -> np.ndarray:
    """Gram matrix of multiplication by V in the truncated basis."""
    D = model.total_dim
    if V.is_zero:
        return np.zeros((D, D))
    v = V.node_values(model)
    B = model.node_basis()
    M = B.T @ ((model.weights * v)[:, None] * B)
    # symmetric up to roundoff by construction; make it exact
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# sources


def bump_profile(s, order: int = 1):
    """Peak-normalized compact profile exp(1 - 1/(1-s^2)^order) on |s|<1."""
    require_count(order, "order")
    s = require_array(s, "s", reason="expected real numbers")
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si) ** order)
    if out.ndim == 0:
        return float(out)
    return out


def _bump_values(model: SpectralModel, center, radius: float, order: int,
                 pts: np.ndarray) -> np.ndarray:
    d = geodesic_distance(model, pts, np.broadcast_to(center, pts.shape))
    return bump_profile(d / radius, order)


@dataclass
class SourceFunction:
    """One smooth compactly supported source together with its projection."""

    model: SpectralModel
    source_id: str
    center: np.ndarray
    radius: float
    order: int
    node_values: np.ndarray
    coefficients: np.ndarray

    def evaluate(self, points) -> np.ndarray:
        pts = as_points(points, self.model.dimension)
        return _bump_values(self.model, self.center, self.radius, self.order, pts)


def make_source_basis(model: SpectralModel, obs: ObservationSet, count: int, *,
                      radius=None, order: int = 1, seed: Optional[int] = None,
                      centers: Optional[Sequence] = None) -> list[SourceFunction]:
    """Build `count` bump sources supported strictly inside the observation
    set, each with its node values and projection onto the model basis.

    Default centers sit at interior fractions (i+1)/(count+1); `seed` jitters
    them. `radius` is one geodesic support radius shared by every source; the
    default is 0.9x the distance from each center to the window boundary.
    Explicit centers or a radius that push a support outside the set raise
    SupportViolationError.
    """
    check_window_of(model, obs)
    require_count(count, "count")
    if centers is not None:
        require(len(centers) == count, "centers",
                f"expected a list of {count} centers, one per source")
        ctrs = [as_points([c], model.dimension, f"centers[{i}]")[0] for i, c in enumerate(centers)]
    else:
        rng = None if seed is None else np.random.default_rng(require_count(seed, "seed", 0))
        ctrs = model.manifold.default_centers(obs.descriptor, count, rng)
    margins = [model.manifold.window_margin(obs.descriptor, c) for c in ctrs]
    require(radius is None or is_real(radius), "radius", "expected a number or None")
    radii = [0.9 * margin if radius is None else float(radius) for margin in margins]

    sources = []
    for i, (c, rho, margin) in enumerate(zip(ctrs, radii, margins)):
        if not 0 < rho < margin:
            raise SupportViolationError(
                f"source {i}: support radius {rho:.4g} does not fit inside the "
                f"observation set (margin {margin:.4g})")
        vals = _bump_values(model, c, rho, order, model.nodes)
        sources.append(SourceFunction(model=model, source_id=f"bump{i:02d}",
                                      center=c, radius=rho, order=order,
                                      node_values=vals,
                                      coefficients=project_function(model, vals)))
    return sources


# ---------------------------------------------------------------------------
# solving


def source_matrix(model: SpectralModel, sources: Sequence[SourceFunction]) -> np.ndarray:
    """F = [f_1 ... f_S], the coefficient columns of a nonempty list of
    sources built on `model` itself."""
    require(len(sources) > 0, "sources", "expected at least one source")
    for i, src in enumerate(sources):
        require(getattr(src, "model", None) is model, f"sources[{i}]",
                "expected a source built on this model (make_source_basis)")
    return np.column_stack([src.coefficients for src in sources])


@dataclass(frozen=True)
class ForwardMap:
    """The truncated operator H = diag(mult) + G_V with its eigendecomposition.

    One `eigh` serves every solve: U = Q diag(1/w) Q^T F.  Build it with
    `forward_map`, which keeps the latest one on the model and builds a new
    one whenever m, V's label or V's node values change.  The map keeps its
    last solve in its own memo (`kept`), keyed by the shape and bytes of F,
    so a record and a trace of one source cost one solve.
    """

    matrix: np.ndarray          # H, (D, D)
    eigenvalues: np.ndarray     # w, ascending
    eigenvectors: np.ndarray    # Q, columns orthonormal
    multipliers: np.ndarray     # mult, the V = 0 diagonal
    cond: float
    min_abs: float              # min |w|
    threshold: float            # 1e-10 x max(mult): at or below it H is singular
    label: str

    def solve(self, F) -> np.ndarray:
        """Solve H U = F for F of shape (D,) or (D, S); the result is read-only.

        A (D,) F is solved as the one column of a (D, 1) stack, so both
        shapes give the same bits and share the kept solve.  Raises
        SingularOperatorError when the smallest |eigenvalue| is below
        1e-10 x the largest multiplier, and IllConditionedError when a
        column's relative residual is inconsistent with the conditioning.
        """
        D = self.matrix.shape[0]
        reason = f"expected {D} finite numbers per column, one per basis function"
        F = require_array(F, "F", reason=reason)
        require(0 < F.ndim < 3 and len(F) == D and F.size and np.isfinite(F).all(), "F", reason)
        if self.min_abs <= self.threshold:
            raise SingularOperatorError(
                f"operator with potential '{self.label}' is numerically singular: "
                f"min |eigenvalue| = {self.min_abs:.3e} <= {self.threshold:.3e}")
        cols = F.reshape(D, -1)
        U = kept(self, "solve", (cols.shape, cols.tobytes()), lambda: self._solve_columns(cols))
        return U[:, 0] if F.ndim == 1 else U

    def _solve_columns(self, F: np.ndarray) -> np.ndarray:
        """U = Q diag(1/w) Q^T F for a checked (D, S) stack F, after each
        column's residual check."""
        w, Q = self.eigenvalues, self.eigenvectors
        U = Q @ ((Q.T @ F) / w[:, None])
        fnorm = np.linalg.norm(F, axis=0)
        res = np.linalg.norm(self.matrix @ U - F, axis=0)
        rel_res = float(np.max(np.divide(res, fnorm, out=np.zeros_like(res),
                                         where=fnorm > 0)))
        res_limit = max(1e-8, 100.0 * np.finfo(float).eps * self.cond)
        if rel_res > res_limit:
            raise IllConditionedError(
                f"solve residual {rel_res:.3e} exceeds {res_limit:.3e}; "
                "the truncated operator is too badly conditioned")
        return U


def forward_map(model: SpectralModel, m: float, V: PotentialField) -> ForwardMap:
    """The factored operator for (model, m, V), kept in the model's memo under
    m, V's label and the bytes of V's node values, not the identity of V: a
    potential whose closure changed is refactored rather than served stale,
    and a map always names the potential it was asked for."""
    def build() -> ForwardMap:
        mult = l_multiplier(model.flat_eigenvalues(), m)
        H = np.diag(mult) + assemble_potential_matrix(model, V)
        w, Q = np.linalg.eigh(H)
        amin = float(np.min(np.abs(w)))
        amax = float(np.max(np.abs(w)))
        cond = amax / amin if amin > 0 else np.inf
        return ForwardMap(matrix=H, eigenvalues=w, eigenvectors=Q, multipliers=mult,
                          cond=cond, min_abs=amin, threshold=1e-10 * float(np.max(mult)),
                          label=V.label)

    key = (check_mass(m), V.label, V.node_values(model).tobytes())
    return model.memo("forward_map", key, build)


def solve_schrodinger(model: SpectralModel, m: float, V: PotentialField,
                      source: SourceFunction) -> FieldCoefficients:
    """Solve (multiplier + V) u = f for one source in the truncated basis
    through the model's cached `forward_map`; raises as `ForwardMap.solve`
    does.  Coefficient arrays go to `forward_map(...).solve` directly."""
    f = source_matrix(model, [source])[:, 0]
    return FieldCoefficients(model, forward_map(model, m, V).solve(f))


@dataclass(frozen=True)
class Solution:
    """The artifact of `loglap solve`: the coefficients of u, what they solve
    for, and the residual |(L + V) u - f|."""

    kind: str
    truncation: int
    mass: float
    source_id: str
    potential_label: str
    coefficients: np.ndarray
    residual: float


# ---------------------------------------------------------------------------
# Cauchy records


@dataclass(frozen=True)
class CauchyRecord:
    """One source's columns of a window pass (`cauchy_records`): solution and
    operator samples on the nodes of `window`, the pass's observation set.
    `solution` keeps the full coefficient vector for checks off the window;
    it is in-memory only, so serialized records load with solution None.
    """

    kind: str
    truncation: int
    mass: float
    source_id: str
    potential_label: str
    window: ObservationSet
    u_values: np.ndarray
    lu_values: np.ndarray
    solution: Optional[FieldCoefficients] = field(default=None,
                                                  metadata={"in_memory": True})

    def __post_init__(self):
        require(isinstance(self.window, ObservationSet), "window", "expected an ObservationSet")
        check_mass(self.mass, "mass")
        for name in ("u_values", "lu_values"):
            require_array(getattr(self, name), name, (self.window.size,),
                          f"expected {self.window.size} entries, one per node")


def cauchy_records(model: SpectralModel, m: float, V: PotentialField,
                   sources: Sequence[SourceFunction], obs: ObservationSet) -> list[CauchyRecord]:
    """One window pass: solve once with F = [f_1 ... f_S] and restrict u and
    L u to the nodes through the model's `window_synthesis`; L u takes the
    multipliers of the operator that solved for u."""
    sources = list(sources)
    F = source_matrix(model, sources)
    fmap = forward_map(model, m, V)
    U = fmap.solve(F)
    synthesis = model.window_synthesis(obs)
    u_obs, lu_obs = synthesis.values(U), synthesis.values(fmap.multipliers[:, None] * U)
    return [CauchyRecord(kind=model.kind, truncation=model.truncation, mass=float(m),
                         source_id=src.source_id, potential_label=V.label,
                         window=obs, u_values=u_obs[:, s].copy(), lu_values=lu_obs[:, s].copy(),
                         solution=FieldCoefficients(model, U[:, s].copy()))
            for s, src in enumerate(sources)]


def cauchy_record(model: SpectralModel, m: float, V: PotentialField,
                  source: SourceFunction, obs: ObservationSet) -> CauchyRecord:
    """`cauchy_records` with one source."""
    return cauchy_records(model, m, V, [source], obs)[0]
