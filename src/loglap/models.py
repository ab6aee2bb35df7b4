"""Closed model manifolds with explicit Laplace-Beltrami eigendata.

Catalog: circles of radius r, flat tori R^n modulo a rectangular lattice,
and round 2-spheres of radius r. A model materializes its first K distinct
Laplace eigenvalues together with multiplicities and a real orthonormal
eigenbasis, plus a quadrature rule that integrates products of any two
basis functions exactly up to roundoff.

Chart coordinates used throughout:
    circle  -- (theta,) with theta in [0, 2 pi)
    torus   -- (x_1, ..., x_n) with x_i in [0, edge_i)
    sphere  -- (colatitude, longitude)

Basis ordering is deterministic: eigenvalues ascending; inside a block the
circle uses (cos, sin), the torus lexicographic canonical lattice vectors
each contributing (cos, sin), and the sphere order m = 0 then m = 1..l with
cosine before sine. Any fixed convention is as good as any other; nothing
downstream depends on signs, only on block spans.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import special as sps

from .errors import PreconditionError

__all__ = [
    "SpectralModel",
    "ObservationSet",
    "OrthonormalityReport",
    "AngularInterval",
    "TorusBox",
    "SphericalCap",
    "CircleRotation",
    "CircleReflection",
    "TorusTranslation",
    "TorusAxisReflection",
    "SphereAxialRotation",
    "SphereMeridianReflection",
    "build_model",
    "evaluate_eigenfunction",
    "inner_product",
    "project_function",
    "verify_orthonormality",
    "restrict_to_observation",
    "interior_points",
    "descriptor_contains",
    "geodesic_distance",
    "second_derivative_values",
    "with_mixed_blocks",
    "apply_isometry",
    "isometry_fixes_pointwise",
    "isometry_preserves_set",
]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# model container


@dataclass
class SpectralModel:
    """Immutable-by-convention bundle of eigendata and quadrature.

    Do not mutate fields after construction; helpers that need a variant
    (block mixing, different truncation) build a new instance.
    """

    kind: str
    truncation: int
    params: dict
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    quadrature_spec: tuple
    basis_table: dict
    block_mixers: Optional[list] = None
    _node_basis_cache: Optional[np.ndarray] = field(default=None, repr=False)
    # (key, ForwardMap) of the last factored operator; see solver.forward_map
    _forward_map_cache: Optional[tuple] = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        if self.kind == "circle":
            return 1
        if self.kind == "sphere":
            return 2
        return len(self.params["edges"])

    @property
    def coord_dim(self) -> int:
        return 1 if self.kind == "circle" else 2 if self.kind == "sphere" else self.dimension

    @property
    def total_dim(self) -> int:
        return int(np.sum(self.multiplicities))

    @property
    def volume(self) -> float:
        return float(np.sum(self.weights))

    @property
    def block_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.multiplicities)])

    def block_slice(self, k: int) -> slice:
        off = self.block_offsets
        return slice(int(off[k]), int(off[k + 1]))

    def eigenfunction_values(self, points) -> np.ndarray:
        """Matrix of all basis functions at the given points, (P, total_dim)."""
        pts = as_points(points, self.coord_dim)
        if self.kind == "circle":
            mat = _circle_values(pts, self.basis_table, self.params["radius"])
        elif self.kind == "torus":
            mat = _torus_values(pts, self.basis_table, self.params["edges"])
        else:
            mat = _sphere_values(pts, self.basis_table, self.params["radius"])
        if self.block_mixers is not None:
            mat = mat.copy()
            for k, mixer in enumerate(self.block_mixers):
                sl = self.block_slice(k)
                mat[:, sl] = mat[:, sl] @ mixer
        return mat

    def node_basis(self) -> np.ndarray:
        if self._node_basis_cache is None:
            self._node_basis_cache = self.eigenfunction_values(self.nodes)
        return self._node_basis_cache

    def flat_eigenvalues(self) -> np.ndarray:
        """Eigenvalue per basis column (block value repeated d_k times)."""
        return np.repeat(self.eigenvalues, self.multiplicities)


@dataclass
class ObservationSet:
    """Open observation region, realized on the model's quadrature nodes."""

    model: SpectralModel
    descriptor: object
    node_indices: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def contains(self, points) -> np.ndarray:
        return descriptor_contains(self.model, self.descriptor, points)

    @property
    def size(self) -> int:
        return int(self.node_indices.size)


@dataclass(frozen=True)
class OrthonormalityReport:
    passed: bool
    max_defect: float
    max_diag_defect: float
    max_offdiag: float
    aliasing_suspected: bool


# observation descriptors ----------------------------------------------------


@dataclass(frozen=True)
class AngularInterval:
    """Open arc (start, end) on the circle, angles in [0, 2 pi]."""

    start: float
    end: float


@dataclass(frozen=True)
class TorusBox:
    """Product of open per-axis intervals."""

    intervals: tuple


@dataclass(frozen=True)
class SphericalCap:
    """Open geodesic cap: center in (colatitude, longitude), angular radius."""

    center: tuple
    radius: float


# catalog isometries ---------------------------------------------------------


@dataclass(frozen=True)
class CircleRotation:
    angle: float


@dataclass(frozen=True)
class CircleReflection:
    axis: float


@dataclass(frozen=True)
class TorusTranslation:
    shift: tuple


@dataclass(frozen=True)
class TorusAxisReflection:
    axis: int
    center: float = 0.0


@dataclass(frozen=True)
class SphereAxialRotation:
    angle: float


@dataclass(frozen=True)
class SphereMeridianReflection:
    meridian: float


_ISOMETRY_KINDS = {
    CircleRotation: "circle",
    CircleReflection: "circle",
    TorusTranslation: "torus",
    TorusAxisReflection: "torus",
    SphereAxialRotation: "sphere",
    SphereMeridianReflection: "sphere",
}


# ---------------------------------------------------------------------------
# construction


def build_model(kind: str, truncation: int, *, radius: float = 1.0,
                edges=None, quadrature=None) -> SpectralModel:
    """Materialize a catalog model with its first `truncation` eigenvalues.

    quadrature overrides the default node counts: an int for the circle,
    an int or per-axis tuple for the torus, an (n_colat, n_lon) pair (or a
    single int meaning (n, 2n)) for the sphere. Defaults are chosen so that
    products of any two materialized basis functions integrate exactly.
    """
    if truncation < 1:
        raise ValueError("truncation must be a positive integer")
    if kind == "circle":
        return _build_circle(truncation, radius, quadrature)
    if kind == "torus":
        if edges is None:
            raise ValueError("torus model needs edge lengths")
        return _build_torus(truncation, tuple(float(e) for e in edges), quadrature)
    if kind == "sphere":
        return _build_sphere(truncation, radius, quadrature)
    raise ValueError(f"unknown model kind: {kind!r}")


def _build_circle(K, radius, quadrature):
    if radius <= 0:
        raise ValueError("radius must be positive")
    eigenvalues = np.array([(k / radius) ** 2 for k in range(K)])
    multiplicities = np.array([1] + [2] * (K - 1), dtype=int)
    freqs, kinds = [0], [0]
    for k in range(1, K):
        freqs += [k, k]
        kinds += [1, 2]
    n_nodes = int(quadrature) if quadrature is not None else max(4 * K, 64)
    theta = TWO_PI * np.arange(n_nodes) / n_nodes
    nodes = theta[:, None]
    weights = np.full(n_nodes, TWO_PI * radius / n_nodes)
    table = {"freqs": np.array(freqs), "kinds": np.array(kinds, dtype=np.int8)}
    return SpectralModel("circle", K, {"radius": float(radius)}, eigenvalues,
                         multiplicities, nodes, weights, (n_nodes,), table)


def _canonical_lattice(n, bound):
    """All canonical representatives j with |j_i| <= bound.

    Canonical means j = 0 or the first nonzero entry positive; the pair
    {j, -j} spans one cosine and one sine direction.
    """
    reps = []
    for j in itertools.product(range(-bound, bound + 1), repeat=n):
        arr = tuple(j)
        nz = next((v for v in arr if v != 0), 0)
        if nz > 0 or all(v == 0 for v in arr):
            reps.append(arr)
    return reps


def _build_torus(K, edges, quadrature):
    if any(e <= 0 for e in edges):
        raise ValueError("edges must be positive")
    n = len(edges)
    edges_arr = np.asarray(edges)
    bound = max(2, int(np.ceil(np.sqrt(K) * max(edges) / TWO_PI)) + 1)
    while True:
        reps = _canonical_lattice(n, bound)
        lam_of = {j: float(np.sum((TWO_PI * np.asarray(j) / edges_arr) ** 2)) for j in reps}
        distinct = sorted(set(round(v, 9) for v in lam_of.values()))
        # values below this threshold cannot be missed by the box
        complete_below = min((TWO_PI * (bound + 1) / e) ** 2 for e in edges)
        usable = [v for v in distinct if v < complete_below - 1e-9]
        if len(usable) >= K:
            break
        bound *= 2
    kept = usable[:K]
    eigenvalues = np.array(kept)
    lattice_rows, kinds, multiplicities = [], [], []
    for lam in kept:
        members = sorted(j for j in reps if abs(round(lam_of[j], 9) - lam) < 1e-9)
        count = 0
        for j in members:
            if all(v == 0 for v in j):
                lattice_rows.append(j)
                kinds.append(0)
                count += 1
            else:
                lattice_rows.append(j)
                kinds.append(1)
                lattice_rows.append(j)
                kinds.append(2)
                count += 2
        multiplicities.append(count)
    table = {"lattice": np.array(lattice_rows, dtype=int),
             "kinds": np.array(kinds, dtype=np.int8)}
    j_max = np.max(np.abs(table["lattice"]), axis=0)
    if quadrature is None:
        counts = tuple(int(max(4 * jm + 4, 16)) for jm in j_max)
    elif np.isscalar(quadrature):
        counts = (int(quadrature),) * n
    else:
        counts = tuple(int(c) for c in quadrature)
    axes = [edges[i] * np.arange(counts[i]) / counts[i] for i in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    cell = np.prod([edges[i] / counts[i] for i in range(n)])
    weights = np.full(nodes.shape[0], cell)
    multiplicities = np.array(multiplicities, dtype=int)
    return SpectralModel("torus", K, {"edges": tuple(edges)}, eigenvalues,
                         multiplicities, nodes, weights, counts, table)


def _build_sphere(K, radius, quadrature):
    if radius <= 0:
        raise ValueError("radius must be positive")
    degrees_distinct = np.arange(K)
    eigenvalues = degrees_distinct * (degrees_distinct + 1) / radius ** 2
    multiplicities = 2 * degrees_distinct + 1
    degs, orders, kinds = [], [], []
    for l in range(K):
        degs.append(l); orders.append(0); kinds.append(0)
        for m in range(1, l + 1):
            degs.append(l); orders.append(m); kinds.append(1)
            degs.append(l); orders.append(m); kinds.append(2)
    if quadrature is None:
        n_colat, n_lon = max(K + 2, 8), max(4 * K + 4, 16)
    elif np.isscalar(quadrature):
        n_colat, n_lon = int(quadrature), 2 * int(quadrature)
    else:
        n_colat, n_lon = int(quadrature[0]), int(quadrature[1])
    mu, wmu = np.polynomial.legendre.leggauss(n_colat)
    order = np.argsort(-mu)  # colatitude ascending
    mu, wmu = mu[order], wmu[order]
    colat = np.arccos(mu)
    lon = TWO_PI * np.arange(n_lon) / n_lon
    cg, lg = np.meshgrid(colat, lon, indexing="ij")
    nodes = np.column_stack([cg.ravel(), lg.ravel()])
    wg = np.repeat(wmu, n_lon) * (TWO_PI / n_lon) * radius ** 2
    table = {"degrees": np.array(degs), "orders": np.array(orders),
             "kinds": np.array(kinds, dtype=np.int8)}
    return SpectralModel("sphere", K, {"radius": float(radius)},
                         np.asarray(eigenvalues, dtype=float),
                         np.asarray(multiplicities, dtype=int),
                         nodes, wg, (n_colat, n_lon), table)


# ---------------------------------------------------------------------------
# basis evaluation


def as_points(points, coord_dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if coord_dim == 1:
            pts = pts[:, None]
        else:
            pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != coord_dim:
        raise ValueError(f"points must have shape (P, {coord_dim})")
    return pts


def _circle_values(pts, table, radius):
    theta = pts[:, 0]
    freqs, kinds = table["freqs"], table["kinds"]
    ang = theta[:, None] * freqs[None, :]
    out = np.where(kinds[None, :] == 2, np.sin(ang), np.cos(ang))
    norm = np.where(kinds == 0, 1.0 / np.sqrt(TWO_PI * radius), 1.0 / np.sqrt(np.pi * radius))
    return out * norm[None, :]


def _torus_values(pts, table, edges):
    lattice, kinds = table["lattice"], table["kinds"]
    xi = TWO_PI * lattice / np.asarray(edges)[None, :]
    phase = pts @ xi.T
    vol = float(np.prod(edges))
    out = np.where(kinds[None, :] == 2, np.sin(phase), np.cos(phase))
    norm = np.where(kinds == 0, 1.0 / np.sqrt(vol), np.sqrt(2.0 / vol))
    return out * norm[None, :]


def _sphere_values(pts, table, radius):
    colat, lon = pts[:, 0], pts[:, 1]
    x = np.cos(colat)
    degs, orders, kinds = table["degrees"], table["orders"], table["kinds"]
    out = np.empty((pts.shape[0], degs.size))
    legendre_cache = {}
    for col in range(degs.size):
        l, m, kind = int(degs[col]), int(orders[col]), int(kinds[col])
        key = (l, m)
        if key not in legendre_cache:
            legendre_cache[key] = sps.lpmv(m, l, x)
        plm = legendre_cache[key]
        lognorm = 0.5 * (np.log(2 * l + 1.0) - np.log(4.0 * np.pi)
                         + sps.gammaln(l - m + 1) - sps.gammaln(l + m + 1))
        norm = np.exp(lognorm) / radius
        if kind == 0:
            out[:, col] = norm * plm
        elif kind == 1:
            out[:, col] = np.sqrt(2.0) * norm * plm * np.cos(m * lon)
        else:
            out[:, col] = np.sqrt(2.0) * norm * plm * np.sin(m * lon)
    return out


def evaluate_eigenfunction(model: SpectralModel, k: int, ell: int, points) -> np.ndarray:
    """Values of the ell-th basis function of the k-th eigenspace."""
    if not 0 <= k < model.truncation:
        raise ValueError("eigenvalue index out of range")
    if not 0 <= ell < model.multiplicities[k]:
        raise ValueError("basis index exceeds the block multiplicity")
    col = int(model.block_offsets[k]) + ell
    return model.eigenfunction_values(points)[:, col]


def second_derivative_values(model: SpectralModel, points) -> np.ndarray:
    """Minus the flat Laplacian of every basis function, differentiated
    analytically from the frequency tables (circle and torus only).

    Deliberately avoids the stored eigenvalue array so it can serve as an
    independent consistency check of the catalog wiring.
    """
    pts = as_points(points, model.coord_dim)
    if model.kind == "circle":
        base = _circle_values(pts, model.basis_table, model.params["radius"])
        freqs = model.basis_table["freqs"]
        factors = (freqs / model.params["radius"]) ** 2
    elif model.kind == "torus":
        base = _torus_values(pts, model.basis_table, model.params["edges"])
        xi = TWO_PI * model.basis_table["lattice"] / np.asarray(model.params["edges"])[None, :]
        factors = np.sum(xi ** 2, axis=1)
    else:
        raise ValueError("analytic stencil only available for flat models")
    out = base * factors[None, :]
    if model.block_mixers is not None:
        out = out.copy()
        for k, mixer in enumerate(model.block_mixers):
            sl = model.block_slice(k)
            out[:, sl] = out[:, sl] @ mixer
    return out


# ---------------------------------------------------------------------------
# inner products and diagnostics


def inner_product(model: SpectralModel, f_values, g_values) -> float:
    """Quadrature realization of the L2 pairing of two node-sampled fields."""
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if f.shape != (model.nodes.shape[0],) or g.shape != f.shape:
        raise ValueError("samples must be given on the model quadrature nodes")
    return float(np.sum(model.weights * f * g))


def project_function(model: SpectralModel, f_values) -> np.ndarray:
    """Coefficients <f, phi_{k,l}> for every materialized basis function."""
    f = np.asarray(f_values, dtype=float)
    if f.shape != (model.nodes.shape[0],):
        raise ValueError("samples must be given on the model quadrature nodes")
    return model.node_basis().T @ (model.weights * f)


def _quadrature_resolves_products(model: SpectralModel) -> bool:
    if model.kind == "circle":
        max_freq = int(np.max(model.basis_table["freqs"]))
        return model.quadrature_spec[0] > 2 * max_freq
    if model.kind == "torus":
        j_max = np.max(np.abs(model.basis_table["lattice"]), axis=0)
        return all(c > 2 * j for c, j in zip(model.quadrature_spec, j_max))
    n_colat, n_lon = model.quadrature_spec
    lmax = int(np.max(model.basis_table["degrees"]))
    return 2 * n_colat - 1 >= 2 * lmax and n_lon > 2 * lmax


def verify_orthonormality(model: SpectralModel, tol: float = 1e-10) -> OrthonormalityReport:
    """Gram-matrix check of the basis under the model quadrature."""
    basis = model.node_basis()
    gram = basis.T @ (model.weights[:, None] * basis)
    defect = gram - np.eye(model.total_dim)
    max_diag = float(np.max(np.abs(np.diag(defect))))
    off = defect - np.diag(np.diag(defect))
    max_off = float(np.max(np.abs(off))) if defect.shape[0] > 1 else 0.0
    max_defect = max(max_diag, max_off)
    passed = max_defect <= tol
    aliasing = (not passed) and (not _quadrature_resolves_products(model))
    return OrthonormalityReport(passed, max_defect, max_diag, max_off, aliasing)


# ---------------------------------------------------------------------------
# observation sets


def descriptor_contains(model: SpectralModel, descriptor, points) -> np.ndarray:
    pts = as_points(points, model.coord_dim)
    if isinstance(descriptor, AngularInterval):
        theta = np.mod(pts[:, 0], TWO_PI)
        return (theta > descriptor.start) & (theta < descriptor.end)
    if isinstance(descriptor, TorusBox):
        edges = model.params["edges"]
        ok = np.ones(pts.shape[0], dtype=bool)
        for i, (a, b) in enumerate(descriptor.intervals):
            xi = np.mod(pts[:, i], edges[i])
            ok &= (xi > a) & (xi < b)
        return ok
    if isinstance(descriptor, SphericalCap):
        center = as_points(np.asarray(descriptor.center), 2)
        ang = _sphere_angle(pts, np.repeat(center, pts.shape[0], axis=0))
        return ang < descriptor.radius
    raise ValueError(f"unknown observation descriptor: {descriptor!r}")


def _validate_descriptor(model: SpectralModel, descriptor) -> None:
    kind_map = {AngularInterval: "circle", TorusBox: "torus", SphericalCap: "sphere"}
    want = kind_map.get(type(descriptor))
    if want is None:
        raise ValueError(f"unknown observation descriptor: {descriptor!r}")
    if model.kind != want:
        raise ValueError(f"{type(descriptor).__name__} does not apply to a {model.kind}")
    if isinstance(descriptor, AngularInterval):
        if not (0.0 <= descriptor.start < descriptor.end <= TWO_PI):
            raise ValueError("interval must satisfy 0 <= start < end <= 2 pi")
        if descriptor.end - descriptor.start >= TWO_PI - 1e-12:
            raise PreconditionError("observation arc must leave a nonempty complement")
    elif isinstance(descriptor, TorusBox):
        edges = model.params["edges"]
        if len(descriptor.intervals) != len(edges):
            raise ValueError("box needs one interval per torus axis")
        proper = False
        for (a, b), e in zip(descriptor.intervals, edges):
            if not (0.0 <= a < b <= e):
                raise ValueError("box intervals must satisfy 0 <= a < b <= edge")
            if b - a < e - 1e-12:
                proper = True
        if not proper:
            raise PreconditionError("observation box must leave a nonempty complement")
    else:
        if not (0.0 < descriptor.radius < np.pi - 1e-12):
            raise PreconditionError(
                "cap radius must lie in (0, pi) so the complement is nonempty")


def restrict_to_observation(model: SpectralModel, descriptor) -> ObservationSet:
    """Collect the quadrature nodes falling inside an open observation set."""
    _validate_descriptor(model, descriptor)
    inside = descriptor_contains(model, descriptor, model.nodes)
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        raise PreconditionError(
            "observation set contains no quadrature nodes; enlarge it or refine quadrature")
    if idx.size == model.nodes.shape[0]:
        raise PreconditionError("observation set must leave nodes in the complement")
    return ObservationSet(model, descriptor, idx, model.nodes[idx], model.weights[idx])


def interior_points(model: SpectralModel, descriptor, count: int) -> np.ndarray:
    """At least `count` points strictly inside the descriptor, on a regular
    chart grid. Used for sampling maps that should not be tied to quadrature."""
    _validate_descriptor(model, descriptor)
    if count < 1:
        raise ValueError("count must be positive")
    if isinstance(descriptor, AngularInterval):
        pts = np.linspace(descriptor.start, descriptor.end, count + 2)[1:-1]
        return pts[:, None]
    if isinstance(descriptor, TorusBox):
        n = len(descriptor.intervals)
        per_axis = int(np.ceil(count ** (1.0 / n)))
        axes = [np.linspace(a, b, per_axis + 2)[1:-1] for a, b in descriptor.intervals]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])
    n_rings = max(2, int(np.ceil(np.sqrt(count / 2.0))))
    n_az = int(np.ceil(count / n_rings))
    gammas = np.linspace(0.0, descriptor.radius, n_rings + 2)[1:-1]
    az = TWO_PI * np.arange(n_az) / n_az
    gg, aa = np.meshgrid(gammas, az, indexing="ij")
    return _cap_chart_to_sphere(descriptor.center, gg.ravel(), aa.ravel())


def _cap_chart_to_sphere(center, gamma, azimuth):
    """Map (angle-from-center, azimuth) pairs to (colatitude, longitude)."""
    tc, pc = float(center[0]), float(center[1])
    nhat = np.array([np.sin(tc) * np.cos(pc), np.sin(tc) * np.sin(pc), np.cos(tc)])
    e1 = np.array([np.cos(tc) * np.cos(pc), np.cos(tc) * np.sin(pc), -np.sin(tc)])
    e2 = np.array([-np.sin(pc), np.cos(pc), 0.0])
    vec = (np.cos(gamma)[:, None] * nhat[None, :]
           + np.sin(gamma)[:, None] * (np.cos(azimuth)[:, None] * e1[None, :]
                                       + np.sin(azimuth)[:, None] * e2[None, :]))
    colat = np.arccos(np.clip(vec[:, 2], -1.0, 1.0))
    lon = np.mod(np.arctan2(vec[:, 1], vec[:, 0]), TWO_PI)
    return np.column_stack([colat, lon])


# ---------------------------------------------------------------------------
# distances


def _sphere_angle(p, q):
    c = (np.cos(p[:, 0]) * np.cos(q[:, 0])
         + np.sin(p[:, 0]) * np.sin(q[:, 0]) * np.cos(p[:, 1] - q[:, 1]))
    return np.arccos(np.clip(c, -1.0, 1.0))


def geodesic_distance(model: SpectralModel, p, q) -> np.ndarray:
    """Geodesic distance between paired point lists."""
    pp = as_points(p, model.coord_dim)
    qq = as_points(q, model.coord_dim)
    if pp.shape != qq.shape:
        raise ValueError("point lists must pair up")
    if model.kind == "circle":
        r = model.params["radius"]
        d = np.abs(np.mod(pp[:, 0] - qq[:, 0], TWO_PI))
        return r * np.minimum(d, TWO_PI - d)
    if model.kind == "torus":
        edges = np.asarray(model.params["edges"])
        d = np.abs(np.mod(pp - qq, edges[None, :]))
        d = np.minimum(d, edges[None, :] - d)
        return np.sqrt(np.sum(d ** 2, axis=1))
    return model.params["radius"] * _sphere_angle(pp, qq)


# ---------------------------------------------------------------------------
# block mixing (basis-invariance helper)


def with_mixed_blocks(model: SpectralModel, seed: int) -> SpectralModel:
    """Copy of the model whose basis is rotated by a random orthogonal
    matrix inside every eigenspace. Spectrally identical, basis distinct."""
    rng = np.random.default_rng(seed)
    mixers = []
    for k in range(model.truncation):
        d = int(model.multiplicities[k])
        if d == 1:
            mixers.append(np.array([[-1.0 if rng.random() < 0.5 else 1.0]]))
            continue
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q = q * np.sign(np.diag(r))[None, :]
        mixers.append(q)
    return replace(model, block_mixers=mixers, _node_basis_cache=None,
                   _forward_map_cache=None)


# ---------------------------------------------------------------------------
# isometries


def apply_isometry(model: SpectralModel, isometry, points) -> np.ndarray:
    """Apply a catalog isometry to chart points."""
    want = _ISOMETRY_KINDS.get(type(isometry))
    if want is None:
        raise ValueError(f"unknown isometry: {isometry!r}")
    if want != model.kind:
        raise ValueError(f"{type(isometry).__name__} does not act on a {model.kind}")
    pts = as_points(points, model.coord_dim).copy()
    if isinstance(isometry, CircleRotation):
        pts[:, 0] = np.mod(pts[:, 0] + isometry.angle, TWO_PI)
    elif isinstance(isometry, CircleReflection):
        pts[:, 0] = np.mod(2.0 * isometry.axis - pts[:, 0], TWO_PI)
    elif isinstance(isometry, TorusTranslation):
        edges = np.asarray(model.params["edges"])
        pts = np.mod(pts + np.asarray(isometry.shift)[None, :], edges[None, :])
    elif isinstance(isometry, TorusAxisReflection):
        e = model.params["edges"][isometry.axis]
        pts[:, isometry.axis] = np.mod(2.0 * isometry.center - pts[:, isometry.axis], e)
    elif isinstance(isometry, SphereAxialRotation):
        pts[:, 1] = np.mod(pts[:, 1] + isometry.angle, TWO_PI)
    elif isinstance(isometry, SphereMeridianReflection):
        pts[:, 1] = np.mod(2.0 * isometry.meridian - pts[:, 1], TWO_PI)
    return pts


def isometry_fixes_pointwise(model: SpectralModel, isometry, obs: ObservationSet,
                             tol: float = 1e-12) -> bool:
    mapped = apply_isometry(model, isometry, obs.nodes)
    d = geodesic_distance(model, mapped, obs.nodes)
    return bool(np.max(d) <= tol)


def isometry_preserves_set(model: SpectralModel, isometry, obs: ObservationSet) -> bool:
    mapped = apply_isometry(model, isometry, obs.nodes)
    return bool(np.all(descriptor_contains(model, obs.descriptor, mapped)))
