"""Closed model manifolds with explicit Laplace-Beltrami eigendata.

Catalog: flat tori R^n modulo a rectangular lattice (the circle of radius r
is the 1-torus with period 2 pi and scale r) and round 2-spheres of radius
r. Each geometry is one class, `FlatTorus` or `RoundSphere`, owning all
that differs between manifolds: eigendata and quadrature, basis values,
geodesic distance, observation windows and isometries. A `SpectralModel`
holds one of them together with its first K distinct Laplace eigenvalues,
their multiplicities, a real orthonormal eigenbasis, and a quadrature rule
that integrates products of any two basis functions exactly up to roundoff.

Chart coordinates used throughout:
    circle  -- (theta,) with theta in [0, 2 pi)
    torus   -- (x_1, ..., x_n) with x_i in [0, edge_i)
    sphere  -- (colatitude, longitude)

Basis ordering is deterministic: eigenvalues ascending; inside a block the
torus (circle included) takes lexicographic canonical lattice vectors each
contributing (cos, sin), and the sphere order m = 0 then m = 1..l with
cosine before sine. Any fixed convention is as good as any other; nothing
downstream depends on signs, only on block spans.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import FieldError, PreconditionError

__all__ = [
    "SpectralModel",
    "FlatTorus",
    "RoundSphere",
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
    "WINDOWS",
    "ISOMETRIES",
    "Window",
    "Isometry",
    "make_manifold",
    "build_model",
    "project_function",
    "verify_orthonormality",
    "restrict_to_observation",
    "interior_points",
    "polar_cap_rings",
    "descriptor_contains",
    "geodesic_distance",
    "with_mixed_blocks",
    "apply_isometry",
    "isometry_preserves_set",
]

TWO_PI = 2.0 * np.pi
GOLDEN_ANGLE = 2.399963229728653


# ---------------------------------------------------------------------------
# model container


@dataclass
class SpectralModel:
    """Immutable-by-convention bundle of eigendata and quadrature.

    Do not mutate fields after construction; helpers that need a variant
    (block mixing, different truncation) build a new instance.
    """

    manifold: object  # FlatTorus or RoundSphere
    truncation: int
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
    def kind(self) -> str:
        return self.manifold.kind

    @property
    def params(self) -> dict:
        return self.manifold.params

    @property
    def dimension(self) -> int:
        """Manifold dimension, which is also the number of chart coordinates."""
        return self.manifold.dimension

    @property
    def total_dim(self) -> int:
        return int(np.sum(self.multiplicities))

    @property
    def block_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.multiplicities)])

    def block_slice(self, k: int) -> slice:
        off = self.block_offsets
        return slice(int(off[k]), int(off[k + 1]))

    def _mixed(self, mat: np.ndarray) -> np.ndarray:
        if self.block_mixers is None:
            return mat
        mat = mat.copy()
        for k, mixer in enumerate(self.block_mixers):
            sl = self.block_slice(k)
            mat[:, sl] = mat[:, sl] @ mixer
        return mat

    def eigenfunction_values(self, points) -> np.ndarray:
        """Matrix of all basis functions at the given points, (P, total_dim)."""
        pts = as_points(points, self.dimension)
        return self._mixed(self.manifold.basis_values(pts, self.basis_table))

    def node_basis(self) -> np.ndarray:
        if self._node_basis_cache is None:
            # row-major: the heat trace and the Gram assembly take node rows
            self._node_basis_cache = np.ascontiguousarray(
                self.eigenfunction_values(self.nodes))
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
# `name` is the "kind" tag of the JSON form in configs and artifacts.


@dataclass(frozen=True)
class AngularInterval:
    """Open arc (start, end) on the circle, angles in [0, 2 pi]."""

    start: float
    end: float
    name: ClassVar[str] = "interval"

    @property
    def intervals(self) -> tuple:
        """The arc as the one-axis box of the 1-torus chart."""
        return ((self.start, self.end),)

    def bound_field(self, axis: int, upper: bool) -> str:
        return "end" if upper else "start"


@dataclass(frozen=True)
class TorusBox:
    """Product of open per-axis intervals."""

    intervals: tuple[tuple[float, ...], ...]
    name: ClassVar[str] = "box"

    def bound_field(self, axis: int, upper: bool) -> str:
        return f"intervals[{axis}][{int(upper)}]"


@dataclass(frozen=True)
class SphericalCap:
    """Open geodesic cap: center in (colatitude, longitude), angular radius."""

    center: tuple[float, ...]
    radius: float
    name: ClassVar[str] = "cap"


# catalog isometries ---------------------------------------------------------
# Each manifold maps the isometry classes acting on it to their chart action,
# x -> signs * x + offsets (modulo the chart periods).


@dataclass(frozen=True)
class CircleRotation:
    angle: float
    name: ClassVar[str] = "circle_rotation"


@dataclass(frozen=True)
class CircleReflection:
    axis: float
    name: ClassVar[str] = "circle_reflection"


@dataclass(frozen=True)
class TorusTranslation:
    shift: tuple[float, ...]
    name: ClassVar[str] = "torus_translation"


@dataclass(frozen=True)
class TorusAxisReflection:
    axis: int
    center: float = 0.0
    name: ClassVar[str] = "torus_axis_reflection"


@dataclass(frozen=True)
class SphereAxialRotation:
    angle: float
    name: ClassVar[str] = "sphere_axial_rotation"


@dataclass(frozen=True)
class SphereMeridianReflection:
    meridian: float
    name: ClassVar[str] = "sphere_meridian_reflection"


WINDOWS = (AngularInterval, TorusBox, SphericalCap)
ISOMETRIES = (CircleRotation, CircleReflection, TorusTranslation,
              TorusAxisReflection, SphereAxialRotation, SphereMeridianReflection)
# annotations of window and isometry fields: JSON reads them by "kind"
Window = Union[WINDOWS]
Isometry = Union[ISOMETRIES]


def _has_shape(value, shape: tuple) -> bool:
    try:
        return np.shape(np.asarray(value, dtype=float)) == shape
    except (TypeError, ValueError):
        return False


def _check_family(manifold, obj, family) -> None:
    if type(obj) not in family:
        raise FieldError("kind", f"expected one of {[c.name for c in family]}, "
                                 f"found {getattr(obj, 'name', type(obj).__name__)!r}")


def _chart_affine(manifold, isometry, pts, inverse: bool) -> np.ndarray:
    _check_family(manifold, isometry, manifold.isometries)
    signs, offsets = manifold.isometries[type(isometry)](isometry, manifold.dimension)
    signs, offsets = np.asarray(signs), np.asarray(offsets, dtype=float)
    # signs are +-1, so the inverse of x -> s x + t is y -> s (y - t)
    return signs * (pts - offsets) if inverse else signs * pts + offsets


def _torus_translation(iso, n: int) -> tuple:
    if not _has_shape(iso.shift, (n,)):
        raise FieldError("shift", f"expected {n} entries, one per torus axis")
    return 1.0, iso.shift


def _torus_axis_reflection(iso, n: int) -> tuple:
    if not 0 <= iso.axis < n:
        raise FieldError("axis", f"expected a torus axis in [0, {n})")
    signs, offsets = np.ones(n), np.zeros(n)
    signs[iso.axis], offsets[iso.axis] = -1.0, 2.0 * iso.center
    return signs, offsets


# ---------------------------------------------------------------------------
# manifolds


def _canonical_lattice(n, bound):
    """All canonical representatives j with |j_i| <= bound, in lexicographic
    order: j = 0 or the first nonzero entry positive, since the pair {j, -j}
    spans one cosine and one sine direction."""
    return [j for j in itertools.product(range(-bound, bound + 1), repeat=n)
            if next((v for v in j if v), 1) > 0]


def _node_counts(quadrature, n: int) -> tuple:
    counts = ((int(quadrature),) * n if np.isscalar(quadrature)
              else tuple(int(c) for c in quadrature))
    if len(counts) != n or min(counts) < 1:
        raise FieldError("quadrature", f"expected {n} positive node counts")
    return counts


@dataclass(frozen=True, eq=False)
class FlatTorus:
    """R^n modulo a rectangular lattice, in chart coordinates.

    Axis i has chart coordinate x_i in [0, period_i) and metric length
    scale_i dx_i, so its edge is period_i * scale_i. A torus is built with
    `box(edges)` (unit scales); the circle of radius r is `circle(r)`, the
    1-torus with period 2 pi and scale r, whose chart coordinate is the angle.
    The default node count per axis is max(4 j_max + 4, node_floor).
    """

    kind: str
    params: dict
    periods: tuple
    scales: tuple
    window: type
    isometries: dict  # isometry class -> (isometry, n) -> (signs, offsets)
    node_floor: int
    angular: bool  # potential callables receive bare angles (P,), not rows

    @classmethod
    def circle(cls, radius=1.0) -> "FlatTorus":
        if not radius > 0:
            raise FieldError("radius", "must be positive")
        actions = {CircleRotation: lambda iso, n: (1.0, iso.angle),
                   CircleReflection: lambda iso, n: (-1.0, 2.0 * iso.axis)}
        return cls("circle", {"radius": float(radius)}, (TWO_PI,), (float(radius),),
                   AngularInterval, actions, 64, True)

    @classmethod
    def box(cls, edges) -> "FlatTorus":
        if edges is None:
            raise FieldError("edges", "torus model needs edge lengths")
        edges = tuple(float(e) for e in edges)
        if not edges or any(not e > 0 for e in edges):
            raise FieldError("edges", "expected a list of positive lengths")
        actions = {TorusTranslation: _torus_translation,
                   TorusAxisReflection: _torus_axis_reflection}
        return cls("torus", {"edges": edges}, edges, (1.0,) * len(edges), TorusBox,
                   actions, 16, False)

    @property
    def dimension(self) -> int:
        return len(self.periods)

    def _wavenumbers(self, lattice) -> np.ndarray:
        """Metric wavenumber vectors of lattice rows: j_i (2 pi / period_i) / scale_i."""
        freq = np.array([TWO_PI / p for p in self.periods])
        return np.asarray(lattice) * freq / np.asarray(self.scales)

    # eigendata and quadrature

    def build(self, K: int, quadrature) -> SpectralModel:
        n = self.dimension
        lengths = [p * s for p, s in zip(self.periods, self.scales)]
        bound = max(2, int(np.ceil(np.sqrt(K) * max(lengths) / TWO_PI)) + 1)
        while True:
            reps = _canonical_lattice(n, bound)
            lam_of = {j: float(v) for j, v in
                      zip(reps, np.sum(self._wavenumbers(reps) ** 2, axis=1))}
            # eigenvalues are grouped by their 9-decimal rounding and stored exact
            distinct = sorted(set(round(v, 9) for v in lam_of.values()))
            # values below this threshold cannot be missed by the box
            complete_below = float(np.min(self._wavenumbers([[bound + 1] * n]) ** 2))
            usable = [v for v in distinct if v < complete_below - 1e-9]
            if len(usable) >= K:
                break
            bound *= 2
        eigenvalues, lattice_rows, kinds, multiplicities = [], [], [], []
        for key in usable[:K]:
            members = [j for j in reps if round(lam_of[j], 9) == key]
            eigenvalues.append(lam_of[members[0]])
            start = len(kinds)
            for j in members:  # j = 0 gives the constant, others a (cos, sin) pair
                for kind in ((1, 2) if any(j) else (0,)):
                    lattice_rows.append(j)
                    kinds.append(kind)
            multiplicities.append(len(kinds) - start)
        table = {"lattice": np.array(lattice_rows, dtype=int),
                 "kinds": np.array(kinds, dtype=np.int8)}
        if quadrature is None:
            j_max = np.max(np.abs(table["lattice"]), axis=0)
            counts = tuple(int(max(4 * jm + 4, self.node_floor)) for jm in j_max)
        else:
            counts = _node_counts(quadrature, n)
        axes = [p * np.arange(c) / c for p, c in zip(self.periods, counts)]
        grids = np.meshgrid(*axes, indexing="ij")
        nodes = np.column_stack([g.ravel() for g in grids])
        cell = np.prod([p * s / c for p, s, c in zip(self.periods, self.scales, counts)])
        weights = np.full(nodes.shape[0], cell)
        return SpectralModel(self, K, np.array(eigenvalues),
                             np.array(multiplicities, dtype=int), nodes, weights,
                             counts, table)

    def basis_values(self, pts, table) -> np.ndarray:
        freq = np.array([TWO_PI / p for p in self.periods])
        phase = pts @ (table["lattice"] * freq).T
        vol = float(np.prod([p * s for p, s in zip(self.periods, self.scales)]))
        out = np.where(table["kinds"][None, :] == 2, np.sin(phase), np.cos(phase))
        norm = np.where(table["kinds"] == 0, 1.0 / np.sqrt(vol), np.sqrt(2.0 / vol))
        return out * norm[None, :]

    def resolves_products(self, spec, table) -> bool:
        j_max = np.max(np.abs(table["lattice"]), axis=0)
        return all(c > 2 * j for c, j in zip(spec, j_max))

    def natural_coordinates(self, pts) -> np.ndarray:
        return pts[:, 0] if self.angular else pts

    def distance(self, p, q) -> np.ndarray:
        periods = np.asarray(self.periods)
        d = np.abs(np.mod(p - q, periods))
        d = np.minimum(d, periods - d) * np.asarray(self.scales)
        return np.sqrt(np.sum(d ** 2, axis=1))

    # observation windows

    def check_window(self, desc) -> None:
        _check_family(self, desc, (self.window,))
        ivs = desc.intervals
        if not _has_shape(ivs, (self.dimension, 2)):
            raise FieldError("intervals", "expected one [start, end] pair per torus axis")
        for i, ((a, b), p) in enumerate(zip(ivs, self.periods)):
            if not 0.0 <= a < b <= p:
                raise FieldError(desc.bound_field(i, upper=a >= 0.0),
                                 f"bounds must satisfy 0 <= start < end <= {p:.6g}")
        if all(b - a >= p - 1e-12 for (a, b), p in zip(ivs, self.periods)):
            raise FieldError(desc.bound_field(0, upper=True),
                             "observation window must leave a nonempty complement")

    def window_contains(self, desc, pts) -> np.ndarray:
        x = np.mod(pts, self.periods)
        lows, highs = np.array(desc.intervals, dtype=float).T
        return np.all((x > lows) & (x < highs), axis=1)

    def window_points(self, desc, count: int) -> np.ndarray:
        per_axis = int(np.ceil(count ** (1.0 / self.dimension)))
        axes = [np.linspace(a, b, per_axis + 2)[1:-1] for a, b in desc.intervals]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def window_margin(self, desc, center) -> float:
        """Geodesic distance from `center` to the window boundary."""
        lows, highs = np.array(desc.intervals, dtype=float).T
        gaps = np.minimum(center - lows, highs - center) * np.asarray(self.scales)
        return float(np.min(gaps))

    def default_centers(self, desc, count: int, rng) -> list:
        """Evenly spaced along the box diagonal, jittered by <= 20% of the
        spacing when `rng` is given."""
        lows, highs = np.array(desc.intervals, dtype=float).T
        spacing = (highs - lows) / (count + 1)
        out = []
        for i in range(count):
            c = lows + spacing * (i + 1)
            if rng is not None:
                c = c + rng.uniform(-0.2, 0.2, size=c.size) * spacing
            out.append(c)
        return out

    # isometries

    def apply_isometry(self, isometry, pts, inverse: bool = False) -> np.ndarray:
        return np.mod(_chart_affine(self, isometry, pts, inverse), self.periods)


def _sphere_angle(p, q):
    c = (np.cos(p[:, 0]) * np.cos(q[:, 0])
         + np.sin(p[:, 0]) * np.sin(q[:, 0]) * np.cos(p[:, 1] - q[:, 1]))
    return np.arccos(np.clip(c, -1.0, 1.0))


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


@dataclass(frozen=True)
class RoundSphere:
    """Round 2-sphere of radius r in (colatitude, longitude)."""

    radius: float
    kind: ClassVar[str] = "sphere"
    dimension: ClassVar[int] = 2
    window: ClassVar[type] = SphericalCap
    isometries: ClassVar[dict] = {
        SphereAxialRotation: lambda iso, n: ((1.0, 1.0), (0.0, iso.angle)),
        SphereMeridianReflection: lambda iso, n: ((1.0, -1.0), (0.0, 2.0 * iso.meridian))}

    def __post_init__(self):
        if not self.radius > 0:
            raise FieldError("radius", "must be positive")

    @property
    def params(self) -> dict:
        return {"radius": float(self.radius)}

    # eigendata and quadrature

    def build(self, K: int, quadrature) -> SpectralModel:
        degrees_distinct = np.arange(K)
        eigenvalues = degrees_distinct * (degrees_distinct + 1) / self.radius ** 2
        multiplicities = 2 * degrees_distinct + 1
        degs, orders, kinds = [], [], []
        for l in range(K):
            for m, kind in [(0, 0)] + [(m, k) for m in range(1, l + 1) for k in (1, 2)]:
                degs.append(l); orders.append(m); kinds.append(kind)
        if quadrature is None:
            n_colat, n_lon = max(K + 2, 8), max(4 * K + 4, 16)
        elif np.isscalar(quadrature):
            n_colat, n_lon = int(quadrature), 2 * int(quadrature)
        else:
            n_colat, n_lon = _node_counts(quadrature, 2)
        mu, wmu = np.polynomial.legendre.leggauss(n_colat)
        order = np.argsort(-mu)  # colatitude ascending
        mu, wmu = mu[order], wmu[order]
        colat = np.arccos(mu)
        lon = TWO_PI * np.arange(n_lon) / n_lon
        cg, lg = np.meshgrid(colat, lon, indexing="ij")
        nodes = np.column_stack([cg.ravel(), lg.ravel()])
        wg = np.repeat(wmu, n_lon) * (TWO_PI / n_lon) * self.radius ** 2
        table = {"degrees": np.array(degs), "orders": np.array(orders),
                 "kinds": np.array(kinds, dtype=np.int8)}
        return SpectralModel(self, K, np.asarray(eigenvalues, dtype=float),
                             np.asarray(multiplicities, dtype=int),
                             nodes, wg, (n_colat, n_lon), table)

    def basis_values(self, pts, table) -> np.ndarray:
        """Real orthonormal harmonics divided by the radius.

        The fully normalised associated Legendre functions, Condon-Shortley
        sign included, come from the three-term recurrence in the degree
        (Holmes & Featherstone, J. Geodesy 2002): for each order m, seed
        P_mm from P_{m-1,m-1} and step up in l, writing each degree's
        cos/sin columns as it is reached. sin(colatitude) is taken from the
        colatitude itself: sqrt(1 - x^2) of the rounded x = cos(colatitude)
        loses accuracy near the poles. Each column is written as a
        contiguous row of a (D, P) buffer and the transpose is returned, a
        column-major (P, D) array.
        """
        colat, lon = pts[:, 0], pts[:, 1]
        x, s = np.cos(colat), np.sin(colat)
        degs, orders, kinds = table["degrees"], table["orders"], table["kinds"]
        column = {(int(l), int(m), int(k)): c
                  for c, (l, m, k) in enumerate(zip(degs, orders, kinds))}
        lmax = int(np.max(degs))
        out = np.empty((degs.size, pts.shape[0]))
        p_mm = np.full(pts.shape[0], 1.0 / (np.sqrt(4.0 * np.pi) * self.radius))
        for m in range(lmax + 1):
            if m == 0:
                trig = ((0, 1.0),)
            else:
                p_mm = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * p_mm
                trig = ((1, np.sqrt(2.0) * np.cos(m * lon)),
                        (2, np.sqrt(2.0) * np.sin(m * lon)))
            p_prev, p = np.zeros_like(p_mm), p_mm
            for l in range(m, lmax + 1):
                if l > m:
                    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                    b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                    p_prev, p = p, a * (x * p - b * p_prev)
                for kind, factor in trig:
                    np.multiply(p, factor, out=out[column[l, m, kind]])
        return out.T

    def resolves_products(self, spec, table) -> bool:
        n_colat, n_lon = spec
        lmax = int(np.max(table["degrees"]))
        return 2 * n_colat - 1 >= 2 * lmax and n_lon > 2 * lmax

    def natural_coordinates(self, pts) -> np.ndarray:
        return pts

    def distance(self, p, q) -> np.ndarray:
        return self.radius * _sphere_angle(p, q)

    # observation windows

    def check_window(self, desc) -> None:
        _check_family(self, desc, (self.window,))
        if not _has_shape(desc.center, (2,)):
            raise FieldError("center", "expected [colatitude, longitude]")
        if not desc.radius > 0.0:
            raise FieldError("radius", "must be > 0")
        if not desc.radius < np.pi - 1e-12:
            raise FieldError("radius", "must be < pi so the complement is nonempty")

    def _from_center(self, desc, pts) -> np.ndarray:
        center = np.repeat(as_points(desc.center, 2), pts.shape[0], axis=0)
        return _sphere_angle(pts, center)

    def window_contains(self, desc, pts) -> np.ndarray:
        return self._from_center(desc, pts) < desc.radius

    def _ring_grid(self, desc, count: int) -> tuple:
        """Angles from the cap center of the rings, and longitudes per ring."""
        n_rings = max(2, int(np.ceil(np.sqrt(count / 2.0))))
        n_az = int(np.ceil(count / n_rings))
        return np.linspace(0.0, desc.radius, n_rings + 2)[1:-1], n_az

    def window_points(self, desc, count: int) -> np.ndarray:
        gammas, n_az = self._ring_grid(desc, count)
        az = TWO_PI * np.arange(n_az) / n_az
        gg, aa = np.meshgrid(gammas, az, indexing="ij")
        return _cap_chart_to_sphere(desc.center, gg.ravel(), aa.ravel())

    def polar_rings(self, desc, count: int, table):
        """The `window_points` grid of a cap centred on the basis pole.

        For a cap at colatitude exactly 0 `_cap_chart_to_sphere` gives every
        point of a ring the colatitude arccos(cos gamma), so on this grid
        each basis column is a Legendre factor on the rings times a trig
        factor on the n_az equispaced longitudes. Returns the ring points at
        longitude 0, n_az, and for each order m the columns of its cosine
        kind (for m = 0 its only kind); at longitude 0 these hold the
        Legendre factors, which the order's sine columns share. None for any
        other cap.
        """
        if float(desc.center[0]) != 0.0:
            return None
        gammas, n_az = self._ring_grid(desc, count)
        rings = _cap_chart_to_sphere(desc.center, gammas, np.zeros_like(gammas))
        rings[:, 1] = 0.0  # where every cosine factor is 1
        even = table["kinds"] != 2
        columns = [np.flatnonzero(even & (table["orders"] == m))
                   for m in range(int(np.max(table["degrees"])) + 1)]
        return rings, n_az, columns

    def window_margin(self, desc, center) -> float:
        """Geodesic distance from `center` to the cap boundary."""
        gamma = float(self._from_center(desc, as_points(center, 2))[0])
        return float(self.radius * (desc.radius - gamma))

    def default_centers(self, desc, count: int, rng) -> list:
        """Walk outward from the cap center along a golden spiral, jittered
        when `rng` is given."""
        out = []
        for i in range(count):
            gamma = desc.radius * i / max(count, 2)
            azimuth = GOLDEN_ANGLE * i
            if rng is not None and count > 1:
                gamma = abs(gamma + rng.uniform(-0.2, 0.2) * desc.radius / count)
                azimuth = azimuth + rng.uniform(-0.2, 0.2)
            out.append(_cap_chart_to_sphere(desc.center, np.array([gamma]),
                                            np.array([azimuth]))[0])
        return out

    # isometries

    def apply_isometry(self, isometry, pts, inverse: bool = False) -> np.ndarray:
        out = _chart_affine(self, isometry, pts, inverse)
        out[:, 1] = np.mod(out[:, 1], TWO_PI)
        return out


_MANIFOLDS = {
    "circle": lambda radius, edges: FlatTorus.circle(radius),
    "torus": lambda radius, edges: FlatTorus.box(edges),
    "sphere": lambda radius, edges: RoundSphere(radius),
}


def make_manifold(kind: str, *, radius: float = 1.0, edges=None):
    """The catalog geometry named `kind`, without eigendata."""
    if not isinstance(kind, str) or kind not in _MANIFOLDS:
        raise FieldError("kind", f"unknown model kind {kind!r}")
    return _MANIFOLDS[kind](radius, edges)


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
    return make_manifold(kind, radius=radius, edges=edges).build(truncation, quadrature)


# ---------------------------------------------------------------------------
# basis evaluation


def as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (P, {dim})")
    return pts


# ---------------------------------------------------------------------------
# inner products and diagnostics


def project_function(model: SpectralModel, f_values) -> np.ndarray:
    """Coefficients <f, phi_{k,l}> for every materialized basis function."""
    f = np.asarray(f_values, dtype=float)
    if f.shape != (model.nodes.shape[0],):
        raise ValueError("samples must be given on the model quadrature nodes")
    return model.node_basis().T @ (model.weights * f)


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
    aliasing = (not passed) and (not model.manifold.resolves_products(
        model.quadrature_spec, model.basis_table))
    return OrthonormalityReport(passed, max_defect, max_diag, max_off, aliasing)


# ---------------------------------------------------------------------------
# observation sets


def descriptor_contains(model: SpectralModel, descriptor, points) -> np.ndarray:
    _check_family(model.manifold, descriptor, (model.manifold.window,))
    return model.manifold.window_contains(descriptor, as_points(points, model.dimension))


def restrict_to_observation(model: SpectralModel, descriptor) -> ObservationSet:
    """Collect the quadrature nodes falling inside an open observation set."""
    model.manifold.check_window(descriptor)
    inside = model.manifold.window_contains(descriptor, model.nodes)
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        raise PreconditionError(
            "observation set contains no quadrature nodes; enlarge it or refine quadrature")
    if idx.size == model.nodes.shape[0]:
        raise PreconditionError("observation set must leave nodes in the complement")
    return ObservationSet(model, descriptor, idx, model.nodes[idx], model.weights[idx])


def _check_sampling(model: SpectralModel, descriptor, count: int) -> None:
    model.manifold.check_window(descriptor)
    if count < 1:
        raise ValueError("count must be positive")


def interior_points(model: SpectralModel, descriptor, count: int) -> np.ndarray:
    """At least `count` points strictly inside the descriptor, on a regular
    chart grid. Used for sampling maps that should not be tied to quadrature."""
    _check_sampling(model, descriptor, count)
    return model.manifold.window_points(descriptor, count)


def polar_cap_rings(model: SpectralModel, descriptor, count: int):
    """`interior_points` split by azimuthal order, where the basis allows.

    That is an unmixed sphere basis and a cap centred on its pole; see
    `RoundSphere.polar_rings` for what is returned. None otherwise: block
    mixing rotates columns inside each eigenspace, so orders mix.
    """
    _check_sampling(model, descriptor, count)
    if model.kind != "sphere" or model.block_mixers is not None:
        return None
    return model.manifold.polar_rings(descriptor, count, model.basis_table)


# ---------------------------------------------------------------------------
# distances


def geodesic_distance(model: SpectralModel, p, q) -> np.ndarray:
    """Geodesic distance between paired point lists."""
    pp = as_points(p, model.dimension)
    qq = as_points(q, model.dimension)
    if pp.shape != qq.shape:
        raise ValueError("point lists must pair up")
    return model.manifold.distance(pp, qq)


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


def apply_isometry(model: SpectralModel, isometry, points,
                   inverse: bool = False) -> np.ndarray:
    """Apply a catalog isometry (or its inverse) to chart points."""
    return model.manifold.apply_isometry(isometry, as_points(points, model.dimension),
                                         inverse)


def isometry_preserves_set(model: SpectralModel, isometry, obs: ObservationSet) -> bool:
    mapped = apply_isometry(model, isometry, obs.nodes)
    return bool(np.all(descriptor_contains(model, obs.descriptor, mapped)))
