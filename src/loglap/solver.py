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
from .fields import require, require_count
from .models import (
    ObservationSet,
    SpectralModel,
    Window,
    as_points,
    geodesic_distance,
    project_function,
)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialField:
    """Multiplicative potential, given as a callable on natural coordinates.

    The callable receives angles (P,) on the circle, coordinate rows (P, n)
    on the torus, and (colatitude, longitude) rows (P, 2) on the sphere.
    `const` short-circuits to a constant and `func=None, const=None` is the
    zero potential.
    """

    func: Optional[Callable] = None
    const: Optional[float] = None
    label: str = ""

    def values_at(self, model: SpectralModel, points) -> np.ndarray:
        pts = as_points(points, model.dimension)
        n = pts.shape[0]
        if self.func is not None:
            out = np.asarray(self.func(model.manifold.natural_coordinates(pts)),
                             dtype=float)
            require(out.shape == (n,), "V", f"{self.label!r} returned shape {out.shape}, "
                                            f"expected ({n},)")
        elif self.const is not None:
            out = np.full(n, float(self.const))
        else:
            return np.zeros(n)
        require(np.all(np.isfinite(out)), "V", f"{self.label!r} has non-finite values")
        return out

    def node_values(self, model: SpectralModel) -> np.ndarray:
        return self.values_at(model, model.nodes)

    @property
    def is_zero(self) -> bool:
        return self.func is None and (self.const is None or self.const == 0.0)


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
    s = np.asarray(s, dtype=float)
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
    require_count(count, "count")
    if centers is not None:
        require(len(centers) == count, "centers",
                f"expected a list of {count} centers, one per source")
        ctrs = [as_points([c], model.dimension, f"centers[{i}]")[0] for i, c in enumerate(centers)]
    else:
        rng = np.random.default_rng(seed) if seed is not None else None
        ctrs = model.manifold.default_centers(obs.descriptor, count, rng)
    margins = [model.manifold.window_margin(obs.descriptor, c) for c in ctrs]

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
    `forward_map`, which keeps the latest one on the model.
    """

    matrix: np.ndarray          # H, (D, D)
    eigenvalues: np.ndarray     # w, ascending
    eigenvectors: np.ndarray    # Q, columns orthonormal
    multipliers: np.ndarray     # mult, the V = 0 diagonal
    cond: float
    label: str

    def solve(self, F) -> np.ndarray:
        """Solve H U = F for F of shape (D,) or (D, S).

        Raises SingularOperatorError when the smallest |eigenvalue| is below
        1e-10 x the largest multiplier, and IllConditionedError when a
        column's relative residual is inconsistent with the conditioning.
        """
        w = self.eigenvalues
        amin = float(np.min(np.abs(w)))
        threshold = 1e-10 * float(np.max(self.multipliers))
        if amin <= threshold:
            raise SingularOperatorError(
                f"operator with potential '{self.label}' is numerically singular: "
                f"min |eigenvalue| = {amin:.3e} <= {threshold:.3e}")
        F = np.asarray(F, dtype=float)
        Q = self.eigenvectors
        U = Q @ ((Q.T @ F) / (w if F.ndim == 1 else w[:, None]))
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
    """The factored operator for (model, m, V), reused while m and V's node
    values stay the same.

    The model's memo holds one map.  It is keyed by m and the bytes of V's
    node values, not by the identity of V, so a potential whose closure
    changed is refactored rather than served stale.
    """
    def build() -> ForwardMap:
        mult = l_multiplier(model.flat_eigenvalues(), m)
        H = np.diag(mult) + assemble_potential_matrix(model, V)
        w, Q = np.linalg.eigh(H)
        amin = float(np.min(np.abs(w)))
        amax = float(np.max(np.abs(w)))
        cond = amax / amin if amin > 0 else np.inf
        return ForwardMap(matrix=H, eigenvalues=w, eigenvectors=Q, multipliers=mult,
                          cond=cond, label=V.label)

    key = (check_mass(m), V.node_values(model).tobytes())
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
    operator samples on the observation nodes.  `solution` keeps the full
    coefficient vector for checks off the observation set; it is in-memory
    only, so serialized records load with solution None.
    """

    kind: str
    truncation: int
    mass: float
    source_id: str
    potential_label: str
    descriptor: Window
    node_indices: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    u_values: np.ndarray
    lu_values: np.ndarray
    solution: Optional[FieldCoefficients] = field(default=None,
                                                  metadata={"in_memory": True})

    def __post_init__(self):
        n_nodes = len(np.atleast_1d(self.nodes))
        for name in ("node_indices", "weights", "u_values", "lu_values"):
            require(np.shape(getattr(self, name)) == (n_nodes,), name,
                    f"expected {n_nodes} entries, one per node")


def cauchy_records(model: SpectralModel, m: float, V: PotentialField,
                   sources: Sequence[SourceFunction], obs: ObservationSet) -> list[CauchyRecord]:
    """One window pass: solve once with F = [f_1 ... f_S] and restrict u and
    L u to the nodes as two products with the window rows; L u takes the
    multipliers of the operator that solved for u."""
    sources = list(sources)
    F = source_matrix(model, sources)
    fmap = forward_map(model, m, V)
    U = fmap.solve(F)
    B = model.window_rows(obs)
    u_obs, lu_obs = B @ U, B @ (fmap.multipliers[:, None] * U)
    return [CauchyRecord(kind=model.kind, truncation=model.truncation, mass=float(m),
                         source_id=src.source_id, potential_label=V.label,
                         descriptor=obs.descriptor, node_indices=obs.node_indices.copy(),
                         nodes=obs.nodes.copy(), weights=obs.weights.copy(),
                         u_values=u_obs[:, s].copy(), lu_values=lu_obs[:, s].copy(),
                         solution=FieldCoefficients(model, U[:, s].copy()))
            for s, src in enumerate(sources)]


def cauchy_record(model: SpectralModel, m: float, V: PotentialField,
                  source: SourceFunction, obs: ObservationSet) -> CauchyRecord:
    """`cauchy_records` with one source."""
    return cauchy_records(model, m, V, [source], obs)[0]
