"""Closed model manifolds with explicit Laplace-Beltrami eigendata.

Catalog: flat tori R^n modulo a rectangular lattice, their subclass the
circle of radius r (period 2 pi, scale r) and round 2-spheres of radius r.
Each geometry is one class of the table `make_manifold` reads, owning all
that differs between manifolds as class data (kind tag, window, isometries)
and methods (eigendata, basis, distance, windows); its constructor takes
its geometry parameters. A `SpectralModel` holds one of them together with
its first K distinct Laplace eigenvalues, their multiplicities, a real
orthonormal eigenbasis, and a quadrature rule that integrates products of
any two basis functions exactly up to roundoff.

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

import inspect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .errors import FieldError, PreconditionError
from .fields import (as_floats, is_real, require, require_count, require_finite,
                     require_tolerance)

__all__ = [
    "SpectralModel",
    "FlatTorus",
    "Circle",
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
    "node_counts",
    "project_function",
    "verify_orthonormality",
    "restrict_to_observation",
    "check_window_of",
    "interior_points",
    "WindowSampling",
    "DenseSynthesis",
    "RingSynthesis",
    "certificate_sampling",
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
    transform: Optional[np.ndarray] = None  # (D0, D): basis columns in catalog columns

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

    def eigenfunction_values(self, points) -> np.ndarray:
        """All basis functions at the given points, (P, total_dim): the catalog
        basis of `basis_table`, times `transform` when one is set."""
        values = self.manifold.basis_values(as_points(points, self.dimension), self.basis_table)
        return values if self.transform is None else values @ self.transform

    def memo(self, slot: str, key, build):
        """`build()` for `key`, kept in `slot` until another key replaces it.
        Callers share it, so its arrays (the value, a tuple value's items or a
        dataclass value's fields) are made read-only.  Not a field: a
        `replace` copy starts empty."""
        store = self.__dict__.setdefault("_memo", {})
        held = store.get(slot)
        if held is not None and held[0] == key:
            return held[1]
        value = build()
        items = value if isinstance(value, tuple) else getattr(value, "__dict__", {}).values()
        for a in (value, *items):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        store[slot] = (key, value)
        return value

    def node_basis(self) -> np.ndarray:
        """All basis functions at the quadrature nodes, (N, D), read-only."""
        # row-major: the heat trace and the Gram assembly take node rows
        return self.memo("node_basis", None, lambda: np.ascontiguousarray(
            self.eigenfunction_values(self.nodes)))

    def window_synthesis(self, obs):
        """The basis on the window `obs` as two maps: `values(C)`, the
        (|O|, S) window samples of coefficient columns C, and `per_block(W)`,
        each eigenspace's part of them, (K, S, |O|).  An untransformed
        model's manifold may supply a structured route
        (`RoundSphere.window_synthesis`); a transform mixes the columns that
        route keeps apart, so it and every other window take the dense route,
        which holds the gather `node_basis()[idx]`.  The memo keeps one route,
        keyed by the bytes of the node indices."""
        check_window_of(self, obs)
        idx = np.asarray(obs.node_indices, dtype=np.intp)

        def build():
            rings = self.transform is None and self.manifold.window_synthesis(self, idx)
            return rings or DenseSynthesis(self.node_basis()[idx], self.block_offsets)

        return self.memo("window_synthesis", idx.tobytes(), build)

    def flat_eigenvalues(self) -> np.ndarray:
        """Eigenvalue per basis column (block value repeated d_k times)."""
        return np.repeat(self.eigenvalues, self.multiplicities)


@dataclass
class ObservationSet:
    """Open observation region, realized on the model's quadrature nodes."""

    descriptor: object
    node_indices: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return int(self.node_indices.size)


@dataclass(frozen=True)
class OrthonormalityReport:
    passed: bool
    max_defect: float


@dataclass(frozen=True)
class WindowSampling:
    """Where the continuation certificate samples a window and how it
    factors the samples B, the certificate's basis (the model's, a flat
    torus's window-centred parity basis or a cap's cap-centred basis) at
    `n_points` window points.  B's columns split into groups (column
    selector, how often the group's singular values count); `factors()`
    gives one (w x w) factor R per group of w columns, with R^T R = B^T B
    on the group, and the model's `certificate` memo keeps them under
    `key`."""

    n_points: int
    groups: tuple
    key: tuple
    factors: Callable[[], tuple]


@dataclass(frozen=True)
class DenseSynthesis:
    """`SpectralModel.window_synthesis` through the gather `node_basis()[idx]`."""

    rows: np.ndarray  # (|O|, D)
    offsets: np.ndarray  # block offsets

    def values(self, C: np.ndarray) -> np.ndarray:
        """The window samples of the coefficient columns C, (|O|, S)."""
        return self.rows @ C

    def per_block(self, W: np.ndarray) -> np.ndarray:
        """Each eigenspace's part of the window samples of W's columns,
        (K, S, |O|).  One mat-vec per (source, block) on a contiguous column:
        a matrix product per block sums in another order, moves the traces by
        ~3e-16 and flips `_block_rank`'s 1e-8 decision on the circle at K=8."""
        off = self.offsets
        out = np.empty((off.size - 1, W.shape[1], self.rows.shape[0]))
        for s, column in enumerate(np.ascontiguousarray(W.T)):
            for k in range(off.size - 1):
                out[k, s] = self.rows[:, off[k]:off[k + 1]] @ column[off[k]:off[k + 1]]
        return out


@dataclass(frozen=True)
class RingSynthesis:
    """`SpectralModel.window_synthesis` on whole sphere rings around the
    basis pole (`RoundSphere.window_synthesis`).  Degree l's column at slot
    g = column - l^2 takes at node (ring i, longitude j) the value
    legendre[g, i, l] * longitude[g, j]: slot 0 is order 0, slots 2m - 1
    and 2m are order m's cosine and sine, which share one Legendre factor."""

    legendre: np.ndarray  # (2K - 1, r, K)
    longitude: np.ndarray  # (2K - 1, n_lon): 1, then cos m phi_j, sin m phi_j
    degrees: np.ndarray  # (D,) degree l of each column
    slots: np.ndarray  # (D,) its slot g

    def values(self, C: np.ndarray) -> np.ndarray:
        """Sums over the degree per (slot, ring), then over the slots per
        longitude: (|O|, S), ring-major as the nodes are."""
        G, _, K = self.legendre.shape
        by_slot = np.zeros((G, K, C.shape[1]))
        by_slot[self.slots, self.degrees] = C
        rings = self.legendre @ by_slot  # (G, r, S)
        return (self.longitude.T @ rings.transpose(1, 0, 2)).reshape(-1, C.shape[1])

    def per_block(self, W: np.ndarray) -> np.ndarray:
        """Per degree, the Legendre factors weighted by W's columns times the
        longitude factors: one product per source, of one shape and one
        row-major layout, so that a source's part does not depend on what is
        stacked beside it (numpy picks its BLAS call by shape and strides)."""
        _, r, K = self.legendre.shape
        out = np.empty((K, W.shape[1], r, self.longitude.shape[1]))
        for k in range(K):
            w = 2 * k + 1
            scaled = np.multiply(self.legendre[:w, :, k].T, W[k * k:k * k + w].T[:, None, :],
                                 order="C")
            np.matmul(scaled, self.longitude[:w], out=out[k])
        return out.reshape(K, W.shape[1], -1)


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


def _has_shape(value, shape: tuple) -> bool:
    """Whether `value` has `shape`, whatever its entries: the caller checks
    them one by one and names the entry at fault."""
    try:
        return np.shape(value) == shape
    except ValueError:  # ragged
        return False


def _check_family(obj, family) -> None:
    if type(obj) not in family:
        raise FieldError("kind", f"expected one of {[c.name for c in family]}, "
                                 f"found {getattr(obj, 'name', type(obj).__name__)!r}")


def _chart_affine(manifold, isometry, pts, inverse: bool) -> np.ndarray:
    _check_family(isometry, manifold.isometries)
    signs, offsets = manifold.isometries[type(isometry)](isometry, manifold.dimension)
    signs, offsets = np.asarray(signs), np.asarray(offsets, dtype=float)
    # signs are +-1, so the inverse of x -> s x + t is y -> s (y - t)
    return signs * (pts - offsets) if inverse else signs * pts + offsets


def _torus_translation(iso, n: int) -> tuple:
    if not _has_shape(iso.shift, (n,)):
        raise FieldError("shift", f"expected {n} entries, one per torus axis")
    return 1.0, [require_finite(s, f"shift[{i}]") for i, s in enumerate(iso.shift)]


def _torus_axis_reflection(iso, n: int) -> tuple:
    axis = require_count(iso.axis, "axis", 0)
    if not axis < n:
        raise FieldError("axis", f"expected a torus axis in [0, {n})")
    signs, offsets = np.ones(n), np.zeros(n)
    signs[axis], offsets[axis] = -1.0, 2.0 * require_finite(iso.center, "center")
    return signs, offsets


# ---------------------------------------------------------------------------
# manifolds


def _canonical_lattice(n, bound):
    """All canonical representatives j with |j_i| <= bound, in lexicographic
    order: j = 0 or the first nonzero entry positive, since the pair {j, -j}
    spans one cosine and one sine direction."""
    return [j for j in itertools.product(range(-bound, bound + 1), repeat=n)
            if next((v for v in j if v), 1) > 0]


def node_counts(quadrature, n: int) -> tuple:
    """Per-axis quadrature node counts from one count or a list of n."""
    counts = (quadrature,) * n if np.isscalar(quadrature) else tuple(quadrature)
    require(len(counts) == n, "quadrature", f"expected {n} entries, one per chart axis")
    return tuple(require_count(c, "quadrature") for c in counts)


def _lengths(field: str, values) -> tuple:
    """`values` as a nonempty tuple of floats, each a number (not text or a
    bool), finite and > 0."""
    lengths = tuple(values) if np.iterable(values) else ()
    require(lengths and all(is_real(v) and 0 < v < np.inf for v in lengths), field,
            "expected finite lengths > 0")
    return tuple(float(v) for v in lengths)


class FlatTorus:
    """R^n modulo a rectangular lattice, in chart coordinates.

    Axis i has chart coordinate x_i in [0, period_i) and metric length
    scale_i dx_i, so its edge is period_i * scale_i: `FlatTorus(edges)` has
    unit scales. The default node count per axis is max(4 j_max + 4, node_floor).
    """

    kind: ClassVar[str] = "torus"
    window: ClassVar[type] = TorusBox
    isometries: ClassVar[dict] = {  # isometry class -> (isometry, n) -> (signs, offsets)
        TorusTranslation: _torus_translation, TorusAxisReflection: _torus_axis_reflection}
    node_floor: ClassVar[int] = 16

    def __init__(self, edges):
        self.periods = _lengths("edges", edges)
        self.scales = (1.0,) * len(self.periods)

    @property
    def params(self) -> dict:
        return {"edges": self.periods}

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
            reps = np.array(_canonical_lattice(n, bound))
            values = np.sum(self._wavenumbers(reps) ** 2, axis=1)
            # grouped by Python's 9-decimal round (np.round differs), stored exact;
            # the stable sort keeps each group in lexicographic order
            keys = np.array([round(v, 9) for v in values.tolist()])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            # values below this threshold cannot be missed by the box
            complete_below = float(np.min(self._wavenumbers([[bound + 1] * n]) ** 2))
            if np.count_nonzero(keys[starts] < complete_below - 1e-9) >= K:
                break
            bound *= 2
        ends = np.append(starts, order.size)[1:K + 1]
        # members[0] is j = 0, the constant; every other j gives a (cos, sin) pair
        members = reps[order[:ends[-1]]]
        multiplicities = 2 * (ends - starts[:K])
        multiplicities[0] = 1
        table = {"lattice": np.repeat(members, 2, axis=0)[1:],
                 "kinds": np.array([0] + [1, 2] * (len(members) - 1), dtype=np.int8)}
        # the parity of the window basis function in each column's place
        # (`window_values`): the sine bit on the first nonzero axis of j and
        # the sign bits of j on the others, one parity each per orbit column
        parities = (table["lattice"] < 0).astype(np.int8)
        first = np.argmax(table["lattice"] != 0, axis=1)
        parities[np.arange(first.size), first] = table["kinds"] == 2
        table["parities"] = parities
        if quadrature is None:
            j_max = np.max(np.abs(table["lattice"]), axis=0)
            counts = tuple(int(max(4 * jm + 4, self.node_floor)) for jm in j_max)
        else:
            counts = node_counts(quadrature, n)
        axes = [p * np.arange(c) / c for p, c in zip(self.periods, counts)]
        grids = np.meshgrid(*axes, indexing="ij")
        nodes = np.column_stack([g.ravel() for g in grids])
        cell = np.prod([p * s / c for p, s, c in zip(self.periods, self.scales, counts)])
        weights = np.full(nodes.shape[0], cell)
        return SpectralModel(self, K, values[order[starts[:K]]], multiplicities, nodes,
                             weights, counts, table)

    def basis_values(self, pts, table) -> np.ndarray:
        """Normalised cos and sin of the lattice phases, (P, D).

        `build` puts the constant in column 0 and, for each nonzero lattice
        vector, its cosine in an odd column and its sine in the next one, so
        each column takes cos or sin once, in place on the phase product.
        The product stays (P, D): its bits depend on the column count.
        """
        freq = np.array([TWO_PI / p for p in self.periods])
        out = pts @ (table["lattice"] * freq).T
        vol = float(np.prod([p * s for p, s in zip(self.periods, self.scales)]))
        for trig, cols in ((np.cos, out[:, :1]), (np.cos, out[:, 1::2]),
                           (np.sin, out[:, 2::2])):
            trig(cols, out=cols)
        out[:, :1] *= 1.0 / np.sqrt(vol)
        out[:, 1:] *= np.sqrt(2.0 / vol)
        return out

    def natural_coordinates(self, pts) -> np.ndarray:
        return pts

    def distance(self, p, q) -> np.ndarray:
        periods = np.asarray(self.periods)
        d = np.abs(np.mod(p - q, periods))
        d = np.minimum(d, periods - d) * np.asarray(self.scales)
        return np.sqrt(np.sum(d ** 2, axis=1))

    # observation windows

    def check_window(self, desc) -> None:
        _check_family(desc, (self.window,))
        ivs = desc.intervals
        if not _has_shape(ivs, (self.dimension, 2)):
            raise FieldError("intervals", "expected one [start, end] pair per torus axis")
        for i, ((a, b), p) in enumerate(zip(ivs, self.periods)):
            if not (is_real(a) and is_real(b) and 0.0 <= a < b <= p):
                raise FieldError(desc.bound_field(i, upper=is_real(a) and a >= 0.0),
                                 f"bounds must satisfy 0 <= start < end <= {p:.6g}")
        if all(b - a >= p - 1e-12 for (a, b), p in zip(ivs, self.periods)):
            raise FieldError(desc.bound_field(0, upper=True),
                             "observation window must leave a nonempty complement")

    def window_contains(self, desc, pts) -> np.ndarray:
        x = np.mod(pts, self.periods)
        lows, highs = np.array(desc.intervals, dtype=float).T
        return np.all((x > lows) & (x < highs), axis=1)

    def _centre(self, desc) -> np.ndarray:
        return np.array([0.5 * (a + b) for a, b in desc.intervals])

    def _centred_axes(self, desc, count: int) -> list:
        """Per-axis offsets from the window centre of the window grid for
        `count` points: n per axis, spaced length / (n + 1) and exactly
        symmetric about 0, so that they depend on the window's side lengths
        only."""
        n = int(np.ceil(count ** (1.0 / self.dimension)))
        return [(np.arange(n) - 0.5 * (n - 1)) * ((b - a) / (n + 1)) for a, b in desc.intervals]

    def window_points(self, desc, count: int) -> np.ndarray:
        axes = [c + y for c, y in zip(self._centre(desc), self._centred_axes(desc, count))]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def _axis_trig(self, axis: int, y, top: int) -> np.ndarray:
        """cos(k w y) for k = 0..top, then sin(k w y) for k = 1..top, at the
        offsets y along `axis`, w = 2 pi / period, each unit in L2 over the
        axis's length l: sqrt(1 / l) for k = 0, sqrt(2 / l) otherwise."""
        length = self.periods[axis] * self.scales[axis]
        phase = np.multiply.outer(y, np.arange(1, top + 1) * (TWO_PI / self.periods[axis]))
        norms = np.sqrt(np.r_[1.0, np.full(2 * top, 2.0)] / length)
        return np.hstack([np.ones((y.size, 1)), np.cos(phase), np.sin(phase)]) * norms

    def window_values(self, offsets, table) -> np.ndarray:
        """The window-centred parity basis at chart offsets y from the window
        centre, (P, D).

        Column d is prod_a t_{p_a}(k_a w_a y_a), t_0 = cos and t_1 = sin,
        with k = |j| of the column's lattice vector j and p its parity
        (`table["parities"]`).  The 2^s parities of an orbit {(+-k_1, ...,
        +-k_n)} with s nonzero k_a span what its model columns cos(j x) and
        sin(j x) span, and each is unit in L2, so the two bases differ by an
        orthogonal map inside each orbit, where L's multiplier is constant.
        """
        k, p = np.abs(table["lattice"]), table["parities"]
        out = np.ones((offsets.shape[0], k.shape[0]))
        for axis, top in enumerate(np.max(k, axis=0)):
            out *= self._axis_trig(axis, offsets[:, axis], top)[:, k[:, axis] + top * p[:, axis]]
        return out

    def window_sampling(self, model, desc, count: int, points) -> WindowSampling:
        """The certificate's samples in the window-centred parity basis
        (`window_values`), so that the report does not depend on where the
        window sits.  Explicit `points` evaluate it as one group of all
        columns; the `window_points` grid is factored without evaluating it.

        On the grid's exactly symmetric per-axis offsets each axis's even and
        odd columns are orthogonal, so the basis splits into 2^n orthogonal
        parity classes, one group each.  Per axis, one QR factors the even
        columns cos(k w y), k = 0..J_a, and one the odd ones sin(k w y), k =
        1..J_a; class p's factor is the rows and columns of R_1^{p_1} (x) ...
        (x) R_n^{p_n} at its band indices (Van Loan, J. Comput. Appl. Math.
        123, 2000).  R_a^p's column k is zero below row k and the band is a
        lower set in k (each eigenvalue grows with every k_a), so those rows
        carry the class, and in the band's row-major order the factor is
        upper triangular.  A coarse axis grid pads R_a^p with zero rows.
        """
        table = model.basis_table
        if points is not None:
            offsets = points - self._centre(desc)
            return _evaluated(lambda: self.window_values(offsets, table),
                              ("offsets", offsets.tobytes()), points.shape[0],
                              ((slice(None), 1),))
        axes = self._centred_axes(desc, count)
        k, p = np.abs(table["lattice"]), table["parities"]
        index = k - p  # row and column of R_a^p per axis
        cls = p @ (1 << np.arange(self.dimension)[::-1])  # p read as a binary number
        order = np.lexsort(index.T[::-1])  # row-major in the band
        groups = tuple((order[cls[order] == c], 1) for c in np.unique(cls))

        def factors():
            per_axis = []
            for axis, (y, top) in enumerate(zip(axes, np.max(k, axis=0))):
                E = self._axis_trig(axis, y, top)
                per_axis.append([_square(np.linalg.qr(part, mode="r"))
                                 for part in (E[:, :top + 1], E[:, top + 1:])])
            out = []
            for cols, _ in groups:
                R = np.ones((cols.size, cols.size))
                for axis, Rs in enumerate(per_axis):
                    i = index[cols, axis]
                    R *= Rs[p[cols[0], axis]][np.ix_(i, i)]
                out.append(R)
            return tuple(out)

        return WindowSampling(math.prod(y.size for y in axes), groups,
                              ("centred", *(y.tobytes() for y in axes)), factors)

    def window_synthesis(self, model, idx) -> None:
        """None: flat windows keep the dense products the probe's verdicts rest on."""
        return None

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


class Circle(FlatTorus):
    """The circle of radius r: the 1-torus with period 2 pi and scale r,
    whose chart coordinate is the angle."""

    kind = "circle"
    window = AngularInterval
    isometries = {CircleRotation: lambda iso, n: (1.0, require_finite(iso.angle, "angle")),
                  CircleReflection: lambda iso, n: (-1.0, 2.0 * require_finite(iso.axis, "axis"))}
    node_floor = 64

    def __init__(self, radius=1.0):
        self.periods, self.scales = (TWO_PI,), _lengths("radius", (radius,))

    @property
    def params(self) -> dict:
        return {"radius": self.scales[0]}

    def natural_coordinates(self, pts) -> np.ndarray:
        return pts[:, 0]  # potential callables receive bare angles (P,)


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

    radius: float = 1.0
    kind: ClassVar[str] = "sphere"
    dimension: ClassVar[int] = 2
    window: ClassVar[type] = SphericalCap
    isometries: ClassVar[dict] = {
        SphereAxialRotation: lambda iso, n: (
            (1.0, 1.0), (0.0, require_finite(iso.angle, "angle"))),
        SphereMeridianReflection: lambda iso, n: (
            (1.0, -1.0), (0.0, 2.0 * require_finite(iso.meridian, "meridian")))}

    def __post_init__(self):
        object.__setattr__(self, "radius", _lengths("radius", (self.radius,))[0])

    @property
    def params(self) -> dict:
        return {"radius": self.radius}

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
            n_colat, n_lon = node_counts((quadrature, 2 * quadrature), 2)
        else:
            n_colat, n_lon = node_counts(quadrature, 2)
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
        (Holmes & Featherstone, J. Geodesy 2002): one step per degree l
        advances every order m < l together, with a_lm and b_lm as vectors
        over m, and seeds P_ll from P_{l-1,l-1}; degree l then writes its
        2l + 1 cos/sin columns, rows l^2 to l^2 + 2l in `build`'s order.
        sin(colatitude) is taken from the colatitude itself:
        sqrt(1 - x^2) of the rounded x = cos(colatitude) loses accuracy
        near the poles. Each column is written as a contiguous row of a
        (D, P) buffer and the transpose is returned, a column-major (P, D)
        array.
        """
        colat, lon = pts[:, 0], pts[:, 1]
        x, s = np.cos(colat), np.sin(colat)
        lmax, n = int(np.max(table["degrees"])), pts.shape[0]
        out = np.empty((table["degrees"].size, n))
        angle = np.arange(1, lmax + 1)[:, None] * lon
        cos_m = np.cos(angle)
        sin_m = np.sin(angle, out=angle)
        cos_m *= np.sqrt(2.0)
        sin_m *= np.sqrt(2.0)
        # p holds P_{l,m} for m <= l, p_prev P_{l-1,m}; a row not yet
        # reached stays 0, which is P_{l-1,l} at the step to degree l + 1
        p, p_prev, xp = np.zeros((lmax + 1, n)), np.zeros((lmax + 1, n)), np.empty((lmax, n))
        p[0] = 1.0 / (np.sqrt(4.0 * np.pi) * self.radius)
        for l in range(lmax + 1):
            if l > 0:
                m = np.arange(l)[:, None]
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                # a (x p - b p_prev), in place over the buffer of degree l - 2
                np.multiply(x, p[:l], out=xp[:l])
                np.multiply(b, p_prev[:l], out=p_prev[:l])
                np.subtract(xp[:l], p_prev[:l], out=p_prev[:l])
                np.multiply(a, p_prev[:l], out=p_prev[:l])
                p, p_prev = p_prev, p
                p[l] = -np.sqrt((2 * l + 1) / (2.0 * l)) * s * p_prev[l - 1]  # P_ll
            row = l * l
            out[row] = p[0]
            np.multiply(p[1:l + 1], cos_m[:l], out=out[row + 1:row + 2 * l + 1:2])
            np.multiply(p[1:l + 1], sin_m[:l], out=out[row + 2:row + 2 * l + 2:2])
        return out.T

    def natural_coordinates(self, pts) -> np.ndarray:
        return pts

    def distance(self, p, q) -> np.ndarray:
        return self.radius * _sphere_angle(p, q)

    # observation windows

    def check_window(self, desc) -> None:
        _check_family(desc, (self.window,))
        center = as_floats(desc.center)
        if center is None or center.shape != (2,) or not np.all(np.isfinite(center)):
            raise FieldError("center", "expected [colatitude, longitude]")
        if not (is_real(desc.radius) and desc.radius > 0.0):
            raise FieldError("radius", "must be > 0")
        if not desc.radius < np.pi - 1e-12:
            raise FieldError("radius", "must be < pi so the complement is nonempty")

    def _from_center(self, desc, pts) -> np.ndarray:
        center = np.repeat(as_points(desc.center, 2, "center"), pts.shape[0], axis=0)
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

    def window_sampling(self, model, desc, count: int, points):
        """The `window_points` grid of any cap, one column group per
        azimuthal order; None for explicit `points`.

        The grid is R applied to the polar grid of the cap's radius, R the
        rotation that takes the basis pole to the cap centre, so in the
        cap-centred basis Y(R^-1 x), which spans each degree block (where
        L's multiplier is constant), every cap of one radius has the polar
        cap's samples.  There each column is a Legendre factor on the rings
        times a trig factor on the n_az > 2 lmax equispaced longitudes, and
        columns of distinct (order, kind) are orthogonal.  At longitude 0
        the cosine columns (for m = 0 the only kind) hold the Legendre
        factors the sine columns share, so each order m >= 1 counts twice.
        """
        if points is not None:
            return None
        gammas, n_az = self._ring_grid(desc, count)
        rings = np.column_stack([np.arccos(np.cos(gammas)), np.zeros_like(gammas)])
        table = model.basis_table
        even = table["kinds"] != 2
        groups = tuple((np.flatnonzero(even & (table["orders"] == m)), 1 if m == 0 else 2)
                       for m in range(int(np.max(table["degrees"])) + 1))
        return _evaluated(lambda: model.eigenfunction_values(rings), ("orders", rings.tobytes()),
                          rings.shape[0] * n_az, groups)

    def window_synthesis(self, model, idx) -> Optional[RingSynthesis]:
        """The ring route when the window's node indices `idx` are the first
        r whole rings of the grid, as on a cap centred on the basis pole;
        None for any other window.

        Every column is a Legendre factor on the ring times 1, cos m phi or
        sin m phi (Driscoll & Healy, Adv. Appl. Math. 15, 1994).  At
        longitude 0 each cosine column holds its Legendre factor, which the
        sine column of its order shares.  The tables hold 8(2K - 1)(rK +
        n_lon) bytes, where the gather held 8 r n_lon D.
        """
        n_lon = model.quadrature_spec[1]
        if idx.size % n_lon or not np.array_equal(idx, np.arange(idx.size)):
            return None
        K = model.truncation
        at_zero = model.eigenfunction_values(model.nodes[:idx.size:n_lon])  # (r, D)
        sine = np.flatnonzero(model.basis_table["kinds"] == 2)
        at_zero[:, sine] = at_zero[:, sine - 1]
        degrees = np.repeat(np.arange(K), 2 * np.arange(K) + 1)  # columns l^2 .. l^2 + 2l
        slots = np.arange(degrees.size) - degrees * degrees
        legendre = np.zeros((2 * K - 1, at_zero.shape[0], K))
        legendre[slots, :, degrees] = at_zero.T
        angle = np.arange(1, K)[:, None] * model.nodes[:n_lon, 1]
        longitude = np.ones((2 * K - 1, n_lon))
        longitude[1::2], longitude[2::2] = np.cos(angle), np.sin(angle)
        return RingSynthesis(legendre, longitude, degrees, slots)

    def window_margin(self, desc, center) -> float:
        """Geodesic distance from `center` to the cap boundary."""
        gamma = float(self._from_center(desc, as_points(center, 2, "center"))[0])
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


_MANIFOLDS = {cls.kind: cls for cls in (Circle, FlatTorus, RoundSphere)}
WINDOWS = tuple(cls.window for cls in _MANIFOLDS.values())
ISOMETRIES = tuple(iso for cls in _MANIFOLDS.values() for iso in cls.isometries)
# annotations of window and isometry fields: JSON reads them by "kind"
Window = Union[WINDOWS]
Isometry = Union[ISOMETRIES]


def make_manifold(kind: str, **geometry):
    """The catalog geometry named `kind`, without eigendata."""
    cls = _MANIFOLDS.get(kind) if isinstance(kind, str) else None
    require(cls is not None, "kind", f"unknown model kind {kind!r}")
    taken = inspect.signature(cls).parameters
    for name in geometry:
        require(name in taken, name, f"not a parameter of a {kind}")
    for name, param in taken.items():
        require(name in geometry or param.default is not param.empty, name,
                "missing required field")
    return cls(**geometry)


def build_model(kind: str, truncation: int, *, quadrature=None, **geometry) -> SpectralModel:
    """Materialize `make_manifold(kind, **geometry)` with its first `truncation` eigenvalues.

    quadrature overrides the default node counts: an int for the circle,
    an int or per-axis tuple for the torus, an (n_colat, n_lon) pair (or a
    single int meaning (n, 2n)) for the sphere. Defaults are chosen so that
    products of any two materialized basis functions integrate exactly.
    """
    truncation = require_count(truncation, "truncation")
    return make_manifold(kind, **geometry).build(truncation, quadrature)


# ---------------------------------------------------------------------------
# basis evaluation


def as_points(points, dim: int, field: str = "points") -> np.ndarray:
    """Chart points as (P, dim) floats, one point or a 1-d chart's points given
    flat; ragged, non-numeric or non-finite input raises FieldError(field)."""
    reason = f"expected finite chart points of shape (P, {dim})"
    pts = as_floats(points)
    require(pts is not None, field, reason)
    if pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    require(pts.ndim == 2 and pts.shape[1] == dim and np.all(np.isfinite(pts)), field, reason)
    return pts


# ---------------------------------------------------------------------------
# inner products and diagnostics


def project_function(model: SpectralModel, f_values) -> np.ndarray:
    """Coefficients <f, phi_{k,l}> for every materialized basis function."""
    f = as_floats(f_values)
    require(f is not None and f.shape == (model.nodes.shape[0],), "f_values",
            "samples must be given on the model quadrature nodes")
    return model.node_basis().T @ (model.weights * f)


def verify_orthonormality(model: SpectralModel, tol: float = 1e-10) -> OrthonormalityReport:
    """Gram-matrix check of the basis under the model quadrature."""
    tol = require_tolerance(tol, "tol")
    basis = model.node_basis()
    gram = basis.T @ (model.weights[:, None] * basis)
    max_defect = float(np.max(np.abs(gram - np.eye(model.total_dim))))
    return OrthonormalityReport(max_defect <= tol, max_defect)


# ---------------------------------------------------------------------------
# observation sets


def descriptor_contains(model: SpectralModel, descriptor, points) -> np.ndarray:
    _check_family(descriptor, (model.manifold.window,))
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
    return ObservationSet(descriptor, idx, model.nodes[idx], model.weights[idx])


def check_window_of(model: SpectralModel, obs: ObservationSet, field: str = "obs") -> None:
    """`obs` must be a window of `model`: an integer index array in range,
    and its nodes and weights the model's there.  Compared by value:
    `with_mixed_blocks` copies share the nodes, so one window serves them."""
    idx, n = obs.node_indices, model.nodes.shape[0]
    require(isinstance(idx, np.ndarray) and idx.dtype.kind in "iu"
            and (idx.size == 0 or idx.min() >= 0 and idx.max() < n)
            and np.array_equal(obs.nodes, np.take(model.nodes, idx, axis=0))
            and np.array_equal(obs.weights, np.take(model.weights, idx)), field,
            "expected a window restricted on this model (restrict_to_observation)")


def _check_sampling(model: SpectralModel, descriptor, count: int) -> None:
    model.manifold.check_window(descriptor)
    require_count(count, "count")


def interior_points(model: SpectralModel, descriptor, count: int) -> np.ndarray:
    """At least `count` points strictly inside the descriptor, on a regular
    chart grid. Used for sampling maps that should not be tied to quadrature."""
    _check_sampling(model, descriptor, count)
    return model.manifold.window_points(descriptor, count)


def _square(R: np.ndarray) -> np.ndarray:
    """A QR's triangular factor R with zero rows appended to make it square."""
    return np.pad(R, ((0, R.shape[1] - R.shape[0]), (0, 0)))


def _evaluated(values: Callable[[], np.ndarray], key: tuple, n_points: int,
               groups) -> WindowSampling:
    """The sampling that evaluates `values()` and takes one QR per group.
    The groups follow from the model and the route that `key` names, so the
    key need not hold them."""
    def factors():
        B = values()
        return tuple(np.linalg.qr(B[:, cols], mode="r") for cols, _ in groups)

    return WindowSampling(n_points, groups, key, factors)


def certificate_sampling(model: SpectralModel, descriptor, count: int,
                         points=None) -> WindowSampling:
    """Where the continuation certificate samples the window, in which basis
    and how it factors the samples.  An untransformed basis takes its
    manifold's `window_sampling`: on a flat torus the window-centred parity
    basis, per parity class on the `interior_points` grid for `count`
    (`FlatTorus.window_sampling`); on a sphere cap the cap-centred basis,
    per azimuthal order.  A transform, block mixing included, mixes what
    those routes keep apart; it and explicit points on a sphere evaluate
    the model's basis at the points as one group of all columns counted
    once.  Explicit `points` must lie in the window."""
    if points is None:
        _check_sampling(model, descriptor, count)
    else:
        points = as_points(points, model.dimension)
        outside = np.count_nonzero(~descriptor_contains(model, descriptor, points))
        if outside:
            raise PreconditionError(
                f"{outside} of {points.shape[0]} sample points lie outside the "
                "observation window; the certificate would be for another set")
    if model.transform is None:
        sampling = model.manifold.window_sampling(model, descriptor, count, points)
        if sampling is not None:
            return sampling
    if points is None:
        points = interior_points(model, descriptor, count)
    return _evaluated(lambda: model.eigenfunction_values(points), ("points", points.tobytes()),
                      points.shape[0], ((slice(None), 1),))


# ---------------------------------------------------------------------------
# distances


def geodesic_distance(model: SpectralModel, p, q) -> np.ndarray:
    """Geodesic distance between paired point lists."""
    pp = as_points(p, model.dimension, "p")
    qq = as_points(q, model.dimension, "q")
    require(pp.shape == qq.shape, "q", f"expected {pp.shape[0]} points, one per point of p")
    return model.manifold.distance(pp, qq)


# ---------------------------------------------------------------------------
# block mixing (basis-invariance helper)


def with_mixed_blocks(model: SpectralModel, seed: int) -> SpectralModel:
    """Copy of the model whose basis is rotated by a random orthogonal
    matrix inside every eigenspace, a block-diagonal orthogonal transform
    after the model's own. Spectrally identical, basis distinct."""
    rng = np.random.default_rng(require_count(seed, "seed", 0))
    mixer = np.zeros((model.total_dim, model.total_dim))
    for k in range(model.truncation):
        block = model.block_slice(k)
        d = int(model.multiplicities[k])
        if d == 1:
            mixer[block, block] = -1.0 if rng.random() < 0.5 else 1.0
            continue
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        mixer[block, block] = q * np.sign(np.diag(r))[None, :]
    transform = mixer if model.transform is None else model.transform @ mixer
    return replace(model, transform=transform)


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
