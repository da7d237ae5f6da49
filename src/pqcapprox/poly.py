"""Polynomial containers and the classical approximation-theory toolbox.

Everything here is plain numerics: univariate polynomials in power or
Chebyshev basis, multivariate polynomials as sparse coefficient maps,
Bernstein evaluation, sign/step/localization approximants built from
Chebyshev truncations of scaled error functions, local Taylor expansion
with a finite-difference fallback, and the closed-form error bounds used
by the experiment harness.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly
from scipy import fft as _fft
from scipy import special

logger = logging.getLogger(__name__)

MultiIndex = tuple[int, ...]
Point = Sequence[float]

_COEFF_TRIM = 0.0  # exact trimming only; callers prune noise explicitly


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    cs = list(float(c) for c in coeffs)
    while len(cs) > 1 and cs[-1] == _COEFF_TRIM:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial.

    ``coeffs[k]`` multiplies ``x**k`` when ``basis == "power"`` and the
    Chebyshev polynomial ``T_k(x)`` when ``basis == "chebyshev"``.  The
    Chebyshev basis exists because the step/localization approximants reach
    degrees in the hundreds, far beyond what power-basis coefficients can
    represent in double precision.
    """

    coeffs: tuple[float, ...]
    basis: str = "power"

    def __post_init__(self) -> None:
        if self.basis not in ("power", "chebyshev"):
            raise ValueError(f"unknown basis {self.basis!r}")
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        if self.basis == "power":
            return _poly.polyval(x, self.coeffs)
        return _cheb.chebval(x, self.coeffs)

    def to_power(self) -> "Polynomial":
        """Convert to power basis. Ill-conditioned beyond degree ~30."""
        if self.basis == "power":
            return self
        return Polynomial(tuple(_cheb.cheb2poly(self.coeffs)), "power")

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs), self.basis)

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


@dataclass(frozen=True)
class ParityPolynomial:
    """Polynomial with definite parity: only even or only odd coefficients."""

    base: Polynomial
    parity: int  # 0 = even, 1 = odd

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 (even) or 1 (odd)")
        for k, c in enumerate(self.base.coeffs):
            if k % 2 != self.parity and c != 0.0:
                raise ValueError(
                    f"coefficient of index {k} nonzero in parity-{self.parity} polynomial"
                )

    @property
    def degree(self) -> int:
        return self.base.degree

    def __call__(self, x):
        return self.base(x)

    def sup_norm(self, npts: int = 1000) -> float:
        grid = chebyshev_grid(max(npts, 10 * (self.degree + 1)))
        return float(np.max(np.abs(self.base(grid))))


def chebyshev_grid(n: int) -> np.ndarray:
    """n Chebyshev-spaced points in [-1, 1], the default verification grid."""
    k = np.arange(n)
    return np.cos((2 * k + 1) * np.pi / (2 * n))


def _cheb_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m first-kind Chebyshev nodes cos(theta_k) and their sin(theta_k)."""
    theta = np.pi * (np.arange(m) + 0.5) / m
    return np.cos(theta), np.sin(theta)


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the m first-kind nodes, taken
    along the last axis by a DCT-II.  They are exact for any polynomial of
    degree below m, so a caller may sample at more nodes than the degree
    needs, at a length the FFT handles fast."""
    m = values.shape[-1]
    out = _fft.dct(values, type=2, axis=-1)
    out /= m
    out[..., 0] /= 2.0
    return out


def _cheb_refit(fn: Callable[[np.ndarray], np.ndarray], deg: int) -> np.ndarray:
    """Chebyshev coefficients of the degree-deg interpolant of fn at deg + 1
    first-kind nodes.  The DCT keeps rounding near machine precision at
    degrees in the thousands; numpy's Vandermonde-based ``chebinterpolate``
    reproduces a degree-2216 series only to about 1e-10."""
    return _cheb_coeffs(fn(_cheb_nodes(deg + 1)[0]))


def parity_split(p: Polynomial) -> tuple[ParityPolynomial, ParityPolynomial]:
    """Split into (even, odd) halves; the halves sum back to ``p`` exactly."""
    even = [c if k % 2 == 0 else 0.0 for k, c in enumerate(p.coeffs)]
    odd = [c if k % 2 == 1 else 0.0 for k, c in enumerate(p.coeffs)]
    return (
        ParityPolynomial(Polynomial(tuple(even), p.basis), 0),
        ParityPolynomial(Polynomial(tuple(odd), p.basis), 1),
    )


def one_norm(alpha: MultiIndex) -> int:
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return int(sum(alpha))


def multi_indices(d: int, s: int) -> list[MultiIndex]:
    """All multi-indices of length d with 1-norm at most s, graded order."""
    out: list[MultiIndex] = []
    for total in range(s + 1):
        out.extend(_indices_with_norm(d, total))
    return out


def _indices_with_norm(d: int, total: int) -> list[MultiIndex]:
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _indices_with_norm(d - 1, total - first))
    return out


def factorial_of(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclass(frozen=True)
class MultivariatePolynomial:
    """Sparse multivariate polynomial: multi-index -> coefficient."""

    terms: Mapping[MultiIndex, float]
    dims: int

    def __post_init__(self) -> None:
        clean = {}
        for alpha, c in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.dims:
                raise ValueError(f"multi-index {alpha} has wrong length for d={self.dims}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative entry in multi-index {alpha}")
            if c != 0.0:
                clean[alpha] = float(c)
        object.__setattr__(self, "terms", clean)

    def __call__(self, x: Point) -> float:
        xs = np.asarray(x, dtype=float)
        val = 0.0
        for alpha, c in self.terms.items():
            val += c * float(np.prod(xs ** np.asarray(alpha)))
        return val

    def max_abs_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())


@dataclass(frozen=True)
class MultivariateTrigPolynomial:
    """Sparse trigonometric polynomial sum_n c_n exp(i n . x), n in Z^d."""

    terms: Mapping[tuple[int, ...], complex]
    dims: int

    def __post_init__(self) -> None:
        clean = {}
        for n, c in self.terms.items():
            n = tuple(int(v) for v in n)
            if len(n) != self.dims:
                raise ValueError(f"frequency {n} has wrong length for d={self.dims}")
            if c != 0:
                clean[n] = complex(c)
        object.__setattr__(self, "terms", clean)

    def __call__(self, x: Point) -> complex:
        xs = np.asarray(x, dtype=float)
        return complex(
            sum(c * np.exp(1j * float(np.dot(n, xs))) for n, c in self.terms.items())
        )


@dataclass(frozen=True)
class TargetFunctionSpec:
    """Target function on [0,1]^d with certified smoothness constants.

    ``holder`` is a pair (beta, B0) certifying membership in the beta-smooth
    class with constant B0; ``lipschitz`` certifies a Lipschitz constant in
    the sup-norm on inputs.  ``derivative_oracle(alpha, x)`` returns the
    mixed partial of order ``alpha`` at ``x``; when absent, central finite
    differences are used up to total order 4.
    """

    dims: int
    evaluator: Callable[[Point], float]
    derivative_oracle: Optional[Callable[[MultiIndex, Point], float]] = None
    holder: Optional[tuple[float, float]] = None
    lipschitz: Optional[float] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.holder is not None:
            beta, b0 = self.holder
            if beta <= 0 or b0 <= 0:
                raise ValueError("holder constants must be positive")

    def __call__(self, x: Point) -> float:
        return float(self.evaluator(x))

    @property
    def holder_s(self) -> int:
        """Truncation order s with beta = s + r, r in (0, 1]."""
        if self.holder is None:
            raise ValueError("no holder smoothness certified")
        beta = self.holder[0]
        return int(math.ceil(beta)) - 1

    def derivative(self, alpha: MultiIndex, x: Point) -> float:
        if self.derivative_oracle is not None:
            return float(self.derivative_oracle(tuple(alpha), tuple(x)))
        return finite_difference(self.evaluator, tuple(alpha), tuple(x))


@dataclass(frozen=True)
class LocalizationSpec:
    """Band structure of [0,1]: K bands of width 1/K with gaps of width delta."""

    K: int
    delta: float
    eps: float

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be a positive integer")
        # delta < 1/K keeps every band nonempty; delta < 1/(3K) is the
        # conservative range of the underlying analysis, but the acceptance
        # sweeps use delta up to 0.4/K, so only geometric validity is enforced
        if not 0 < self.delta < 1 / self.K:
            raise ValueError(f"delta must lie in (0, 1/K) = (0, {1/self.K:.6g})")
        if not 0 < self.eps < 1 / self.K:
            raise ValueError(f"eps must lie in (0, 1/K) = (0, {1/self.K:.6g})")

    def band(self, k: int) -> tuple[float, float]:
        """Closed interval of band k (the last band keeps its right edge)."""
        lo = k / self.K
        hi = (k + 1) / self.K - (self.delta if k < self.K - 1 else 0.0)
        return lo, hi

    def band_of(self, x: float) -> Optional[int]:
        """Band index containing x, or None if x is in a gap."""
        for k in range(self.K):
            lo, hi = self.band(k)
            if lo <= x <= hi:
                return k
        return None

    @cached_property
    def _band_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every band, as band() computes them."""
        ks = np.arange(self.K)
        return ks / self.K, (ks + 1) / self.K - np.where(ks < self.K - 1, self.delta, 0.0)

    def bands_of(self, x: np.ndarray) -> np.ndarray:
        """Array form of band_of: each entry's band index, or -1 in a gap.

        Band k is the last band starting at or below x, found by comparing x
        with band_of's own band starts, so no rounded x*K can put x in the
        wrong band.  Where a gap is too small to survive the subtraction,
        band k-1 ends on the start of band k; band_of returns the lower band
        there, so k-1 is tested first.
        """
        x = np.asarray(x, dtype=float)
        lo, hi = self._band_edges
        k = np.searchsorted(lo, x, side="right") - 1
        out = np.where(x <= hi[np.maximum(k, 0)], k, -1)
        return np.where((k >= 1) & (x <= hi[np.maximum(k - 1, 0)]), k - 1, out)


# ---------------------------------------------------------------------------
# Bernstein polynomials
# ---------------------------------------------------------------------------

_LOG_BINOM_CUTOFF = 50


def _bernstein_basis(n: int, x: float) -> np.ndarray:
    """Values of the n+1 degree-n Bernstein basis polynomials at x."""
    k = np.arange(n + 1)
    if n <= _LOG_BINOM_CUTOFF:
        binom = special.comb(n, k, exact=False)
        return binom * x**k * (1.0 - x) ** (n - k)
    # log space: avoids binomial overflow for large n
    with np.errstate(divide="ignore"):
        logx = np.where(k > 0, k * np.log(np.maximum(x, 1e-300)), 0.0)
        log1mx = np.where(n - k > 0, (n - k) * np.log(np.maximum(1.0 - x, 1e-300)), 0.0)
    logb = special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    vals = np.exp(logb + logx + log1mx)
    if x == 0.0:
        vals = np.zeros(n + 1)
        vals[0] = 1.0
    elif x == 1.0:
        vals = np.zeros(n + 1)
        vals[n] = 1.0
    return vals


def bernstein_eval(f: TargetFunctionSpec, n: int, x: Point) -> float:
    """Degree-n multivariate Bernstein polynomial of f, evaluated at x.

    Direct summation over the (n+1)^d uniform grid values f(k/n).
    """
    if n < 1:
        raise ValueError("Bernstein degree n must be >= 1")
    xs = tuple(float(c) for c in x)
    if len(xs) != f.dims:
        raise ValueError(f"point has {len(xs)} coordinates, expected {f.dims}")
    if any(c < -1e-12 or c > 1 + 1e-12 for c in xs):
        raise ValueError("Bernstein evaluation requires x in [0,1]^d")
    bases = [_bernstein_basis(n, c) for c in xs]
    values = _grid_values(f, n)
    acc = values
    for axis in range(f.dims):
        acc = np.tensordot(acc, bases[axis], axes=([0], [0]))
    return float(acc)


@cache
def _grid_values(f: TargetFunctionSpec, n: int) -> np.ndarray:
    """f sampled on the uniform (n+1)^d grid, cached per (f, n)."""
    vals = np.empty((n + 1,) * f.dims)
    for k in product(range(n + 1), repeat=f.dims):
        vals[k] = f.evaluator(tuple(ki / n for ki in k))
    return vals


def lipschitz_bernstein_bound(d: int, ell: float, gamma: float, n: int, eps: float) -> float:
    """Sup-norm error bound for the degree-n Bernstein approximation of a
    Lipschitz function: eps + 2*Gamma*((1 + ell^2/(4 n eps^2))^d - 1)."""
    if ell < 0 or gamma < 0 or n < 1 or eps <= 0:
        raise ValueError("need ell >= 0, gamma >= 0, n >= 1, eps > 0")
    return eps + 2.0 * gamma * ((1.0 + ell**2 / (4.0 * n * eps**2)) ** d - 1.0)


# ---------------------------------------------------------------------------
# Sign / step / localization approximants
# ---------------------------------------------------------------------------


class ConstructionError(RuntimeError):
    """A constructed polynomial failed its verification grid."""


def _erf_chebyshev(kappa: float, n_interp: int) -> np.ndarray:
    """Chebyshev coefficients (odd entries) of erf(kappa * x) on [-1, 1]."""
    coef = _cheb_refit(lambda t: special.erf(kappa * t), n_interp)
    coef[::2] = 0.0  # erf is odd; kill even-index interpolation noise
    return coef


def _refined_sup(
    coef: np.ndarray, grid: np.ndarray, vals: np.ndarray, spacing: float, peaks: int = 8
) -> float:
    """True sup of |series| via local refinement around the top grid peaks.

    All peaks are refined together: each of 3 rounds evaluates a 33-point
    window around every peak with one ``chebval`` call, then narrows each
    window 8x around its own maximum.
    """
    best = float(np.max(vals))
    x0 = grid[np.argsort(vals)[-peaks:]]
    h = np.full(len(x0), spacing)
    for _ in range(3):
        xs = np.clip(np.linspace(x0 - h, x0 + h, 33, axis=-1), -1.0, 1.0)
        local = np.abs(_cheb.chebval(xs, coef))
        j = np.argmax(local, axis=1)
        best = max(best, float(np.max(local)))
        x0, h = xs[np.arange(len(x0)), j], h / 8.0
    return best


# Bytes per (degree + 1)^2 of angle synthesis at that degree.  The peak is
# in qsp._half_chain_grad, over n = degree // 2 + 1 free angles x m nodes:
# the complex prefix rows (32) and the real gradient (8); the suffix is one
# column per node, and the previous Jacobian is released before the next is
# built.  The DCT output (8), the n x n Jacobian and the LU copy that
# np.linalg.solve makes are allocated after the prefix is freed, so they
# stay under that peak.  n <= (degree + 2) / 2 and m = next_fast_len(degree
# + 1) <= 8/7 (degree + 1) from degree 13 on, so the peak of 40 n m bytes
# is at most 40 * 4/7 * (degree + 2) * (degree + 1), which is at most
# 24 (degree + 1)^2 from degree 19 on.
_SYNTHESIS_BYTES_PER_ENTRY = 24


def _physical_memory_bytes() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def _check_degree_fits(degree: int) -> None:
    """Reject a construction whose synthesis system cannot fit in memory,
    before anything of that size is allocated."""
    need = _SYNTHESIS_BYTES_PER_ENTRY * float(degree + 1) ** 2
    have = _physical_memory_bytes()
    if need > have:
        raise ValueError(
            f"predicted polynomial degree {degree} needs {need / 2**30:.1f} GiB"
            f" for angle synthesis, more than the {have / 2**30:.1f} GiB of"
            " physical memory; raise delta or eps"
        )


def _sign_cheb_series(delta: float, eps: float, R: float) -> np.ndarray:
    """Chebyshev series (in the scaled variable v = u/R) approximating sgn(u)
    for u in [-R, R], accurate to eps outside (-delta/2, delta/2), |.| <= 1.

    Built as a truncation of erf(kappa*v) with kappa chosen so the smoothed
    sign contributes eps/2 of the error budget; the truncation degree is the
    smallest that passes a dense-grid verification of both bounds.  A cheap
    recurrence screen (``_screen_start``) picks where the exact walk over
    degrees starts, so the walk usually makes two exact checks.
    """
    if delta <= 0 or not 0 < eps < 1:
        raise ValueError("need delta > 0 and eps in (0,1)")
    kappa = float(special.erfcinv(eps / 2.0)) * 2.0 * R / delta
    # Chebyshev coefficients of erf(kappa x) decay like exp(-n^2/(4 kappa^2)),
    # so resolving a tail of size eps needs n ~ 2 kappa sqrt(log(1/eps)).
    n_interp = int(max(64, 2.2 * kappa * math.sqrt(math.log(64.0 / eps)) + 64))
    n_interp += n_interp % 2
    _check_degree_fits(n_interp)
    coef_full = _erf_chebyshev(kappa, n_interp)

    edge = (delta / 2.0) / R
    n_grid = max(1000, 10 * n_interp)
    # mix Chebyshev and uniform spacing and saturate the transition edges,
    # where the truncation error rings hardest
    grid = np.sort(
        np.concatenate(
            [
                chebyshev_grid(n_grid),
                np.linspace(-1.0, 1.0, n_grid),
                np.linspace(edge, min(1.0, edge + 2.0 / max(kappa, 1.0)), 400),
                -np.linspace(edge, min(1.0, edge + 2.0 / max(kappa, 1.0)), 400),
            ]
        )
    )
    target = np.sign(grid)
    outside = np.abs(grid) >= edge
    spacing = 2.0 / n_grid
    eps_check = eps * (1.0 - 1e-3)  # margin for downstream evaluation grids

    checks = 0

    def candidate(deg: int) -> Optional[np.ndarray]:
        nonlocal checks
        checks += 1
        coef = coef_full[: deg + 1].copy()
        vals = np.abs(_cheb.chebval(grid, coef))
        m = _refined_sup(coef, grid, vals, spacing)
        if m > 1.0:
            coef = coef / (m * (1.0 + 1e-12))
        errs = np.abs(_cheb.chebval(grid, coef) - target)
        if np.max(errs[outside]) <= eps_check:
            return coef
        return None

    # the tail-bound degree usually passes; the screen moves the start of the
    # exact walk down to where its own run of passes ending there begins
    tails = np.cumsum(np.abs(coef_full[::-1]))[::-1]
    for deg in range(1, len(coef_full), 2):
        if deg + 1 < len(tails) and tails[deg + 1] <= eps / 4.0:
            top = deg
            break
    else:
        top = len(coef_full) - 1
    start = _screen_start(coef_full, grid, target, outside, eps_check, top)
    # walk up to the first exact pass, then down to the smallest
    best = None
    for deg in range(start, len(coef_full), 2):
        best = candidate(deg)
        if best is not None:
            break
    if best is None:
        raise ConstructionError(
            f"sign approximant failed verification for delta={delta}, eps={eps}"
        )
    deg = len(best) - 1
    while deg > 2:
        lower = candidate(deg - 2)
        if lower is None:
            break
        best, deg = lower, deg - 2
    logger.debug(
        "sign series delta=%g eps=%g R=%g: top %d, screen start %d, degree %d,"
        " %d exact checks", delta, eps, R, top, start, deg, checks,
    )
    return best


def _screen_start(
    coef: np.ndarray,
    grid: np.ndarray,
    target: np.ndarray,
    outside: np.ndarray,
    eps_check: float,
    top: int,
) -> int:
    """Degree at which the exact walk of ``_sign_cheb_series`` starts.

    One upward sweep of T_{k+1} = 2x T_k - T_{k-1} over the verification
    grid keeps the odd partial sum S_d and, at each odd d <= top, applies
    the exact check's test with the grid maximum in place of the refined
    sup.  Returns the lowest degree of the run of screen passes that ends
    at top, or top itself if the screen fails there.  The exact walk still
    decides the degree, so a wrong screen costs exact checks, not accuracy.
    The degree matches that of a walk down from top unless the exact check
    fails somewhere inside that run.
    """
    # outside points first, so their errors are a view of the partial sum
    x = np.concatenate([grid[outside], grid[~outside]])
    t_out = target[outside]
    n_out = len(t_out)
    two_x = 2.0 * x
    t_prev, t_cur = np.ones_like(x), x.copy()  # T_0, T_1
    partial = coef[1] * t_cur
    # every step works in these buffers: a grid-sized temporary per step
    # would be mapped and unmapped by malloc each time, page faults included
    buf = np.empty_like(x)
    err = np.empty(n_out)
    run_start = None
    for d in range(1, top + 1, 2):
        if d > 1:
            # even coefficients are zero, so S_d = S_{d-2} + c_d T_d
            np.multiply(two_x, t_cur, out=buf)
            buf -= t_prev  # T_{d-1}
            np.multiply(two_x, buf, out=t_prev)
            t_prev -= t_cur  # T_d
            t_prev, t_cur, buf = buf, t_prev, t_cur
            np.multiply(t_cur, coef[d], out=buf)
            partial += buf
        m = float(np.max(np.abs(partial, out=buf)))
        s_out = partial[:n_out]
        if m > 1.0:
            np.divide(s_out, m * (1.0 + 1e-12), out=err)
            s_out = err
        np.subtract(s_out, t_out, out=err)
        if np.max(np.abs(err, out=err)) > eps_check:
            run_start = None
        elif run_start is None:
            run_start = d
    return top if run_start is None else run_start


def sign_approx_poly(delta: float, eps: float) -> ParityPolynomial:
    """Odd polynomial P with |P| <= 1 on [-1,1] and |sgn(x) - P(x)| <= eps
    for |x| >= delta/2, at the smallest verified Chebyshev-truncation degree.

    Raises ConstructionError if no truncation passes the dense-grid checks.
    """
    coef = _sign_cheb_series(delta, eps, R=1.0)
    return ParityPolynomial(Polynomial(tuple(coef), "chebyshev"), 1)


def sign_degree_constant(delta: float, eps: float, degree: int) -> float:
    """Implied constant C in degree <= C * (1/delta) * ln(1/eps)."""
    return degree * delta / math.log(1.0 / eps)


@dataclass(frozen=True)
class _StepApproximant:
    """Smoothed step 1/2 + erf(kappa u)/2 truncated to a Chebyshev series.

    The series lives in the scaled variable u/R so it can be evaluated for
    |u| <= R; ``center`` positions the step at u = x - center.
    """

    coef: tuple[float, ...]  # Chebyshev series of (1 + P_sgn)(u/R) / 2
    R: float
    center: float

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.R
        return 0.5 + 0.5 * _cheb.chebval(u, self.coef)


def localization_poly(spec: LocalizationSpec) -> Polynomial:
    """Even polynomial mapping band k of [0,1] into (k/K, k/K + eps).

    Sums K-1 evenized step approximants at the band edges, then shifts and
    rescales so the residual against the staircase is strictly positive and
    below eps on every band, with |P| <= 1 on [-1, 1].  Verification runs on
    a dense grid; failure raises ConstructionError.
    """
    K, delta, eps = spec.K, spec.delta, spec.eps
    if K == 1:
        # single band: the zero polynomial shifted into (0, eps)
        return Polynomial((eps / 2.0,), "chebyshev")

    # per-step accuracy: the band shift argument needs a*(K+1) < eps
    a_target = eps / (2.0 * (K + 1))
    step_eps = a_target
    attempts = 0
    while attempts < 4:
        try:
            poly = _build_localization(spec, step_eps)
            return poly
        except ConstructionError as exc:
            logger.debug(
                "localization %s: step_eps %g failed (%s); halving", spec, step_eps, exc
            )
            step_eps /= 2.0
            attempts += 1
    raise ConstructionError(f"localization polynomial failed for {spec}")


def _build_localization(spec: LocalizationSpec, step_eps: float) -> Polynomial:
    K, delta, eps = spec.K, spec.delta, spec.eps
    R = 2.0  # shifted arguments x -/+ c stay within [-2, 2] for x in [-1,1]
    sgn_coef = _sign_cheb_series(delta, step_eps, R)
    sgn_degree = len(sgn_coef) - 1
    centers = [k / K - delta / 2.0 for k in range(1, K)]
    steps = [_StepApproximant(tuple(sgn_coef), R, c) for c in centers]

    grid = chebyshev_grid(max(2000, 10 * (sgn_degree + 1)))

    def raw(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for st in steps:
            # evenized: st(x) + st(-x), each step ~0 on the mirrored side
            total += (st(x) + st(-x)) / K
        return total

    vals = raw(grid)
    # staircase target on the bands of [0, 1]
    band_err = []
    for k in range(K):
        lo, hi = spec.band(k)
        mask = (grid >= lo) & (grid <= hi)
        if not mask.any():
            continue
        band_err.append(np.max(np.abs(vals[mask] - k / K)))
    a = max(band_err)
    shift = max(K * a * 1.5, a + 1e-12)
    scale = 1.0 / (1.0 + shift)
    if (a + shift) * scale >= eps:
        raise ConstructionError("band residual too large after shift")

    shifted = (vals + shift) * scale
    if np.max(np.abs(shifted)) > 1.0:
        raise ConstructionError("shifted localization exceeds 1 in sup norm")
    for k in range(K):
        lo, hi = spec.band(k)
        mask = (grid >= lo) & (grid <= hi)
        if not mask.any():
            continue
        r = shifted[mask] - k / K
        if r.min() <= 0.0 or r.max() >= eps:
            raise ConstructionError(f"band {k} residual outside (0, eps)")

    # assemble coefficients: evenized steps are Chebyshev series of bounded
    # degree, so refit the verified function on a Chebyshev grid
    deg = sgn_degree + 2
    coef = _cheb_refit(lambda t: (raw(t) + shift) * scale, deg + (deg % 2))
    coef[1::2] = 0.0  # construction is exactly even; remove interpolation noise
    # final dense check of the fitted series itself
    fit_vals = _cheb.chebval(grid, coef)
    if np.max(np.abs(fit_vals - shifted)) > min(1e-10, eps * 1e-4):
        raise ConstructionError("chebyshev refit of localization drifted")
    return Polynomial(tuple(coef), "chebyshev")


# ---------------------------------------------------------------------------
# Taylor expansion
# ---------------------------------------------------------------------------

_FD_BASE_STEP = 1e-5  # first-order central-difference step


def _fd_step(order: int) -> float:
    # roundoff-vs-truncation balance: eps_mach^(1/(order+2))
    if order <= 1:
        return _FD_BASE_STEP
    return float(np.finfo(float).eps ** (1.0 / (order + 2)))


def _central_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of the minimal central stencil for d^order/dx^order."""
    if order == 0:
        return np.array([0.0]), np.array([1.0])
    if order == 1:
        return np.array([-1.0, 1.0]), np.array([-0.5, 0.5])
    if order == 2:
        return np.array([-1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0])
    if order == 3:
        return np.array([-2.0, -1.0, 1.0, 2.0]), np.array([-0.5, 1.0, -1.0, 0.5])
    if order == 4:
        return np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    raise ValueError("finite differences support total order <= 4; provide an oracle")


def finite_difference(fn: Callable[[Point], float], alpha: MultiIndex, x: Point) -> float:
    """Mixed partial of order alpha via tensor-product central differences."""
    total = one_norm(alpha)
    if total > 4:
        raise ValueError("finite differences support total order <= 4; provide an oracle")
    x = np.asarray(x, dtype=float)
    h = _fd_step(total)
    axes = [(j, a) for j, a in enumerate(alpha) if a > 0]

    def recurse(point: np.ndarray, remaining: list[tuple[int, int]]) -> float:
        if not remaining:
            return float(fn(tuple(point)))
        (j, a), rest = remaining[0], remaining[1:]
        offsets, weights = _central_weights(a)
        acc = 0.0
        for off, w in zip(offsets, weights):
            shifted = point.copy()
            shifted[j] += off * h
            acc += w * recurse(shifted, rest)
        return acc / h**a

    return recurse(x.copy(), axes)


def taylor_expand(f: TargetFunctionSpec, x0: Point, s: int) -> MultivariatePolynomial:
    """Truncated Taylor expansion of f at x0, as a polynomial in (x - x0).

    Coefficient of (x-x0)^alpha is the order-alpha partial at x0 divided by
    alpha!.  When f carries a unit smoothness certificate, coefficients must
    lie in [-1, 1]; a violation means the certificate is wrong and raises.
    """
    x0 = tuple(float(c) for c in x0)
    if len(x0) != f.dims:
        raise ValueError("expansion point has wrong dimension")
    terms: dict[MultiIndex, float] = {}
    check_unit = f.holder is not None and f.holder[1] <= 1.0
    for alpha in multi_indices(f.dims, s):
        xi = f.derivative(alpha, x0) / factorial_of(alpha)
        if check_unit and abs(xi) > 1.0 + 1e-9:
            raise ValueError(
                f"taylor coefficient {xi:.6g} for alpha={alpha} violates the unit bound"
            )
        terms[alpha] = xi
    return MultivariatePolynomial(terms, f.dims)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def thm_bounds(kind: str, **params: float) -> float:
    """Closed-form approximation error bounds.

    kind="thm2": global Lipschitz bound  eps + 2((1 + ell^2/(n eps^2))^d - 1)
    kind="thm3": local smooth bound      d^(s + beta/2) * K^(-beta)
    kind="l2corollary": whole-cube L2    (d^(s+beta/2) K^-beta)^2 + 4 d K^(1-d)
    """
    if kind == "thm2":
        d, ell, n, eps = params["d"], params["ell"], params["n"], params["eps"]
        return eps + 2.0 * ((1.0 + ell**2 / (n * eps**2)) ** d - 1.0)
    if kind == "thm3":
        d, s, beta, K = params["d"], params["s"], params["beta"], params["K"]
        return d ** (s + beta / 2.0) * K ** (-beta)
    if kind == "l2corollary":
        d, s, beta, K = params["d"], params["s"], params["beta"], params["K"]
        main = d ** (s + beta / 2.0) * K ** (-beta)
        return main**2 + 4.0 * d * K ** (1.0 - d)
    raise ValueError(f"unknown bound kind {kind!r}")
