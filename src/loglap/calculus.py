"""Spectral functional calculus for the massive log-Laplacian.

With A = -Delta + m and m > 1, the operators A, log A, A log A and the heat
semigroup exp(-tA) all act diagonally on the materialized eigenbasis, as
multipliers (lam+m), log(lam+m), (lam+m)log(lam+m), exp(-t(lam+m)) per
block. The semigroup is therefore applied per eigenspace: a sum over basis
columns is contracted to one term per eigenspace before the time decay, so
sampling at T times costs T terms per eigenspace, not per column. Next to
this multiplier route the module provides the heat-kernel checks (kernel
equality between two models, the Gaussian off-diagonal bound, and the Weyl
and sup-norm growth laws) and an independent pointwise integral route for
A log A,

    integral over (0, inf) of (exp(-t) - exp(-tA)) A u (x) dt / t,

summed by one fixed exp-sinh rule whose 769 nodes are computed once at
import; the integrand is evaluated at all nodes in one numpy call. The two
routes agreeing is one of the package's core checks, so they deliberately
share no code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError, QuadratureConvergenceError
from .fields import (as_floats, is_real, require, require_count, require_finite,
                     require_indices, require_tolerance)
from .models import (ObservationSet, SpectralModel, as_points, check_window_of,
                     geodesic_distance, project_function)

__all__ = [
    "FieldCoefficients",
    "HeatTrace",
    "GrigoryanReport",
    "KernelMatchReport",
    "SanityReport",
    "check_mass",
    "check_times",
    "check_samples",
    "check_shared_nodes",
    "field_from_samples",
    "random_field",
    "apply_L",
    "l_multiplier",
    "decay",
    "heat_kernel",
    "heat_kernel_matrix",
    "heat_kernel_equality_check",
    "grigoryan_check",
    "weyl_sanity_check",
    "supnorm_sanity_check",
    "log_identity_quadrature",
    "pointwise_L",
]


def check_mass(m: float, field: str = "m") -> float:
    """A finite real mass > 1, so that log(lam + m) stays positive; faults name `field`."""
    m = require_finite(m, field)
    require(m > 1.0, field, "must be > 1")
    return m


def check_times(times) -> np.ndarray:
    """A nonempty 1-d grid of finite times > 0, as a float array."""
    times = as_floats(times)
    require(times is not None and times.ndim == 1 and times.size
            and np.all(np.isfinite(times) & (times > 0)),
            "times", "expected a nonempty list of positive times")
    return times


def check_samples(samples) -> int:
    """A time-grid sample count: an integer >= 2."""
    return require_count(samples, "samples", 2)


def check_shared_nodes(nodes_a, nodes_b, names: str) -> None:
    """Raise PreconditionError unless two node sets agree to 1e-12."""
    if np.shape(nodes_a) != np.shape(nodes_b) or np.max(np.abs(nodes_a - nodes_b)) > 1e-12:
        raise PreconditionError(f"{names} are sampled on different observation nodes")


@dataclass
class FieldCoefficients:
    """A field in the truncated eigenspace, stored blockwise-flat.

    values[j] multiplies the j-th basis column of the model; block k of the
    vector corresponds to the k-th distinct eigenvalue.
    """

    model: SpectralModel
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        require(self.values.shape == (self.model.total_dim,), "values",
                f"expected {self.model.total_dim} entries, one per basis function")

    def evaluate(self, points) -> np.ndarray:
        return self.model.eigenfunction_values(points) @ self.values

    def node_values(self) -> np.ndarray:
        return self.model.node_basis() @ self.values


@dataclass
class HeatTrace:
    """Columnar record of a time-evolved field: a row per time, a column per node index."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), number of nodes)
    node_indices: Optional[np.ndarray] = None
    source_id: Optional[str] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        require(self.values.ndim == 2 and self.values.shape[0] == self.times.size, "values",
                "expected one row per time")
        if self.node_indices is not None:
            require(np.shape(self.node_indices) == self.values.shape[1:], "node_indices",
                    f"expected {self.values.shape[1]} entries, one per value column")
            require_indices(self.node_indices, "node_indices")


@dataclass(frozen=True)
class GrigoryanReport:
    passed: bool
    rate: float
    prefactor: float
    violations: int
    n_checked: int
    max_log_ratio: float


@dataclass(frozen=True)
class KernelMatchReport:
    """Pointwise heat-kernel comparison on a shared node set."""

    passed: bool
    max_deviation: float
    deviations: np.ndarray
    times: np.ndarray
    tolerance: float


@dataclass(frozen=True)
class SanityReport:
    constant: float
    exponent: float
    violations: int
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


# ---------------------------------------------------------------------------
# field constructors


def field_from_samples(model: SpectralModel, samples) -> FieldCoefficients:
    """Project node samples onto the truncated eigenbasis."""
    return FieldCoefficients(model, project_function(model, samples))


def random_field(model: SpectralModel, seed: int) -> FieldCoefficients:
    rng = np.random.default_rng(require_count(seed, "seed", 0))
    return FieldCoefficients(model, rng.standard_normal(model.total_dim))


# ---------------------------------------------------------------------------
# multiplier route


def l_multiplier(eigenvalues, m: float) -> np.ndarray:
    """(lam+m) log(lam+m), evaluated in extended precision and rounded once."""
    mu = np.asarray(eigenvalues, dtype=np.longdouble) + np.longdouble(m)
    return np.asarray(mu * np.log(mu), dtype=float)


def apply_L(field: FieldCoefficients, m: float) -> FieldCoefficients:
    """Multiplier route for the log-Schrodinger principal part."""
    check_mass(m)
    return FieldCoefficients(field.model,
                             field.values * l_multiplier(field.model.flat_eigenvalues(), m))


# ---------------------------------------------------------------------------
# heat kernel


def decay(exponents) -> np.ndarray:
    """e^{-exponents}, with every value below the smallest normal float set
    to 0.  Subnormal factors slow the products they enter several-fold, and
    beside the normal terms of a sum they round away."""
    out = np.exp(-np.asarray(exponents, dtype=float))
    out[out < np.finfo(float).tiny] = 0.0
    return out


def _kernel(rows_a: np.ndarray, rows_b: np.ndarray, mu: np.ndarray, t: float) -> np.ndarray:
    """(rows_a diag(e^{-t mu})) rows_b^T from basis rows at two point sets."""
    return (rows_a * decay(t * mu)[None, :]) @ rows_b.T


def heat_kernel_matrix(model: SpectralModel, m: float, t: float, points_a, points_b) -> np.ndarray:
    """Truncated kernel of exp(-tA) on a grid of point pairs."""
    check_mass(m)
    require(is_real(t) and 0 < t < np.inf, "t",
            f"kernel evaluation needs a finite t > 0, got {t!r}")
    return _kernel(model.eigenfunction_values(points_a), model.eigenfunction_values(points_b),
                   model.flat_eigenvalues() + m, t)


def heat_kernel(model: SpectralModel, m: float, t: float, x, y) -> float:
    """Truncated kernel of exp(-tA) at one point pair."""
    val = heat_kernel_matrix(model, m, t, as_points(x, model.dimension, "x"),
                             as_points(y, model.dimension, "y"))[0, 0]
    return float(val)


def heat_kernel_equality_check(model_a: SpectralModel, model_b: SpectralModel,
                               m: float, obs_a: ObservationSet,
                               obs_b: ObservationSet, times, *,
                               tolerance: float = 1e-10) -> KernelMatchReport:
    """Compare both kernels on all window node pairs over the time grid.

    Each model's basis rows on the window are gathered from `node_basis()`
    once per call, outside the memo; only the decay changes per time.
    """
    check_mass(m)
    tolerance = require_tolerance(tolerance, "tolerance")
    times = check_times(times)
    check_window_of(model_a, obs_a, "obs_a")
    check_window_of(model_b, obs_b, "obs_b")
    check_shared_nodes(obs_a.nodes, obs_b.nodes, "obs_a and obs_b")
    rows_a = model_a.node_basis()[obs_a.node_indices]
    rows_b = model_b.node_basis()[obs_b.node_indices]
    mu_a = model_a.flat_eigenvalues() + m
    mu_b = model_b.flat_eigenvalues() + m
    devs = np.array([np.max(np.abs(_kernel(rows_a, rows_a, mu_a, t)
                                   - _kernel(rows_b, rows_b, mu_b, t))) for t in times])
    worst = float(np.max(devs))
    return KernelMatchReport(passed=worst <= tolerance, max_deviation=worst,
                             deviations=devs, times=times, tolerance=tolerance)


# ---------------------------------------------------------------------------
# off-diagonal Gaussian bound


def grigoryan_check(model: SpectralModel, m: float, times, pairs=None,
                    n_pairs: int = 20, seed: int = 0) -> GrigoryanReport:
    """Fit and verify a Gaussian off-diagonal bound for the massless kernel,

        |P(t, x, y)| <= C t^(-n/2) exp(-c d(x,y)^2 / t).

    The pair (C, c) is fitted by least squares in log scale on the probe
    grid, C is then inflated so the probe grid shows no violation, and the
    bound is re-verified on a time-refined grid. The mass only contributes
    the factor exp(-mt) on both sides, so the check runs massless.
    """
    check_mass(m)
    times = np.sort(check_times(times))
    if pairs is None:
        require_count(n_pairs, "n_pairs")
        rng = np.random.default_rng(require_count(seed, "seed", 0))
        idx_a = rng.integers(0, model.nodes.shape[0], size=n_pairs)
        idx_b = rng.integers(0, model.nodes.shape[0], size=n_pairs)
        idx_b[0] = idx_a[0]  # keep one on-diagonal probe
        pa, pb = model.nodes[idx_a], model.nodes[idx_b]
    else:
        pairs = list(pairs)
        require(pairs and all(hasattr(pair, "__len__") and len(pair) == 2 for pair in pairs),
                "pairs", "expected a nonempty list of point pairs (x, y)")
        pa, pb = (np.vstack([as_points(pair[i], model.dimension, "pairs") for pair in pairs])
                  for i in (0, 1))
        require(pa.shape == pb.shape == (len(pairs), model.dimension), "pairs",
                "expected one point on each side of every pair")
    dists = geodesic_distance(model, pa, pb)
    n = model.dimension
    phi_a = model.eigenfunction_values(pa)
    phi_b = model.eigenfunction_values(pb)
    # one decay rate per eigenspace, so each block's products are summed first.
    # The fit reads values down to 1e-13 of the largest, so this summation
    # order is part of the result: `_kernel`'s order moves the prefactor.
    per_block = np.add.reduceat(phi_a * phi_b, model.block_offsets[:-1], axis=1)

    def kernel_rows(ts):
        return decay(np.outer(ts, model.eigenvalues)) @ per_block.T

    probe = kernel_rows(times)
    floor = 1e-13 * np.max(np.abs(probe))

    def scored(ts, values):
        """log(|P| t^(n/2)), d^2 and t at the (time, pair) entries above the floor."""
        values = values.ravel()
        keep = np.abs(values) > floor
        tt = np.repeat(ts, dists.size)[keep]
        return (np.log(np.abs(values[keep])) + (n / 2.0) * np.log(tt),
                np.tile(dists, ts.size)[keep] ** 2, tt)

    # the fit rounds rate * (d^2 / t), the check (rate * d^2) / t
    logs, d2, tt = scored(times, probe)
    xfeat = d2 / tt
    design = np.column_stack([np.ones(logs.size), -xfeat])
    sol, *_ = np.linalg.lstsq(design, logs, rcond=None)
    rate = max(float(sol[1]), 0.0)
    log_pref = float(np.max(logs + rate * xfeat))

    fine = np.sort(np.concatenate([times, 0.5 * (times[:-1] + times[1:])]))
    logs, d2, tt = scored(fine, kernel_rows(fine))
    ratios = logs + rate * d2 / tt - log_pref
    violations = int(np.sum(ratios > 1e-9))
    max_ratio = float(np.max(ratios)) if ratios.size else -np.inf
    return GrigoryanReport(violations == 0, rate, float(np.exp(log_pref)),
                           violations, int(ratios.size), max_ratio)


# ---------------------------------------------------------------------------
# growth laws


def _growth_report(values: np.ndarray, power: np.ndarray, exponent: float) -> SanityReport:
    """C is the largest values/power ratio; a violation exceeds C power (1 + 1e-12)."""
    C = float(np.max(values / power))
    violations = int(np.sum(values > C * power * (1 + 1e-12)))
    return SanityReport(constant=C, exponent=exponent, violations=violations,
                        n_checked=int(values.size))


def weyl_sanity_check(model: SpectralModel) -> SanityReport:
    """Counting-function growth: N(lambda) <= C lambda^{n/2} on positive blocks.

    The zero eigenvalue is excluded (N(0) >= 1 defeats any finite constant);
    the fitted constant should stay stable as the truncation grows.
    """
    lam = model.eigenvalues
    mask = lam > 0
    require(mask.any(), "model", "the counting bound needs a positive eigenvalue; "
                                 f"truncation {model.truncation} holds only lambda = 0")
    counts = np.cumsum(model.multiplicities).astype(float)
    expo = model.dimension / 2.0
    return _growth_report(counts[mask], lam[mask] ** expo, expo)


def supnorm_sanity_check(model: SpectralModel, m: float) -> SanityReport:
    """Eigenfunction growth: node sup |phi| <= C (lambda+m)^{(n-1)/4} per block."""
    check_mass(m)
    B = model.node_basis()
    expo = (model.dimension - 1) / 4.0
    sups = np.maximum.reduceat(np.abs(B), model.block_offsets[:-1], axis=1).max(axis=0)
    return _growth_report(sups, (model.eigenvalues + m) ** expo, expo)


# ---------------------------------------------------------------------------
# logarithm as a time integral

# Exp-sinh rule on (0, inf) (Takahasi & Mori 1974): t = exp(pi/2 sinh x) at
# x = k/64 for |x| <= 6. The weights carry dt/dx and the step 1/64.
_X = np.arange(-384, 385) / 64.0
_NODES = np.exp(0.5 * np.pi * np.sinh(_X))
_WEIGHTS = _NODES * np.cosh(_X) * (0.5 * np.pi / 64.0)


def _exp_sinh(values: np.ndarray, tol: float) -> tuple:
    """Sum the rule over integrand values at _NODES.

    The error estimate is the change from step 1/32 (the even-k half of the
    terms at twice the weight) to step 1/64, plus the roundoff of the sum.
    Returns (value, error_estimate).
    """
    terms = _WEIGHTS * values
    value = float(np.sum(terms))
    err = float(abs(2.0 * np.sum(terms[::2]) - value)
                + np.finfo(float).eps * np.sum(np.abs(terms)))
    if not err <= tol:
        raise QuadratureConvergenceError(
            f"integral error estimate {err:.3e} exceeds the budget {tol:.3e}")
    return value, err


def log_identity_quadrature(lam: float, tol: float = 1e-9) -> tuple:
    """Evaluate log(lam) through its exponential-difference time integral."""
    tol = require_tolerance(tol, "tol")
    require(is_real(lam) and 0.0 < lam < np.inf, "lam",
            f"the logarithm integral needs a finite lam > 0, got {lam!r}")
    lam = float(lam)
    # (e^-t - e^-(t lam)) / t, factored so that neither cancellation near
    # t = 0 nor overflow at large t occurs on either side of lam = 1
    d = lam - 1.0
    g = -np.sign(d) * np.exp(-min(1.0, lam) * _NODES) * np.expm1(-abs(d) * _NODES) / _NODES
    return _exp_sinh(g, tol)


# ---------------------------------------------------------------------------
# pointwise operator route


def pointwise_L(field: FieldCoefficients, m: float, point, tol: Optional[float] = None) -> tuple:
    """Evaluate (A log A) u at one point through the time integral.

    Independent of the multiplier table: only the heat decay rates enter.
    Returns (value, error_estimate); raises QuadratureConvergenceError when
    the requested budget is out of reach.
    """
    check_mass(m)
    model = field.model
    pts = as_points(point, model.dimension, "point")
    require(pts.shape[0] == 1, "point", "pointwise evaluation takes a single point")
    phi = model.eigenfunction_values(pts)[0]
    mu = model.flat_eigenvalues() + m
    b = mu * field.values * phi
    tol = 1e-10 * (1.0 + float(np.sum(np.abs(b)))) if tol is None else require_tolerance(tol, "tol")
    g = -np.exp(-_NODES) / _NODES * (np.expm1(-np.outer(_NODES, mu - 1.0)) @ b)
    return _exp_sinh(g, tol)
