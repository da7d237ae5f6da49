"""Polynomial containers and the classical approximation-theory toolbox.

Everything here is plain numerics: univariate polynomials as Chebyshev
series, multivariate polynomials as sparse coefficient maps,
Bernstein evaluation, sign/step/localization approximants built from
Chebyshev truncations of scaled error functions, local Taylor expansion
with a finite-difference fallback, and the closed-form error bounds used
by the experiment harness.
"""

from __future__ import annotations

import cmath
import logging
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from numpy import fft as _fft  # at import: numpy would load it lazily, inside a report
from numpy.polynomial import chebyshev as _cheb

from . import sim

logger = logging.getLogger(__name__)

MultiIndex = tuple[int, ...]
Point = Sequence[float]


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    cs = list(float(c) for c in coeffs)
    while len(cs) > 1 and cs[-1] == 0.0:  # exact zeros only; callers prune noise
        cs.pop()
    if not all(map(math.isfinite, cs)):
        k = [math.isfinite(c) for c in cs].index(False)
        raise ValueError(f"coefficient {cs[k]} of index {k} is not finite")
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial as a Chebyshev series: ``coeffs[k]``
    multiplies ``T_k(x)``.  The step/localization approximants reach degrees
    in the hundreds, far beyond what power-basis coefficients can represent
    in double precision; power coefficients enter once, by ``from_power``.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @classmethod
    def from_power(cls, coeffs: Sequence[float]) -> "Polynomial":
        """The series of sum_k coeffs[k] x^k.  Degrees 0 and 1 pass through
        unchanged; higher ones take the rounding of numpy's ``poly2cheb``."""
        return cls(tuple(_cheb.poly2cheb(_trimmed(coeffs))))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _chebval(x, self.coeffs)

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))

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

    def sup_norm(self) -> float:
        """max |p| on [-1, 1]: the exact value at the ends, |p(1)| = |sum c_k|
        (|p| is even), and the top peaks of a Chebyshev grid, which holds
        neither end, refined between its nodes (_refined_sup)."""
        c = np.asarray(self.base.coeffs)
        m = max(1000, 10 * (self.degree + 1))
        peak = _refined_sup(c, chebyshev_grid(m), np.abs(_cheb_values(c, m)), math.pi / m)
        return max(abs(float(np.sum(c))), peak)


def _chebval(x, coef):
    """Values of the Chebyshev series coef at x, of x's shape (a scalar for
    a scalar), by Paterson and Stockmeyer's baby-step/giant-step scheme in
    its Chebyshev form: with B odd, near sqrt(len(coef)), and y = T_B(x),

        sum_k c_k T_k(x) = sum_j T_j(y) R_j(x),  R_j = sum_{i<B} a_ji T_i(x).

    The coefficients fold once, top block down, into the (J + 1, B) matrix
    a by T_i T_jB = (T_jB+i + T_jB-i) / 2.  Per chunk of points whose
    tables fit in sim.BATCH_BYTES, T_0..T_B come from the three-term
    recurrence, the R_j from one stacked product, and the sum over j from
    Clenshaw's recurrence in y: about 2B + 3J vector passes where a
    Clenshaw loop over k makes about 3 len(coef).

    Each point's value depends on that point alone: the passes are
    elementwise, and the product is stacked, (m, 1, B) @ (B, J + 1), so
    BLAS forms each point's row alone, which a (m, B) @ (B, J + 1) product
    does not (its rows moved by up to 5e-15 with the slice).  A point
    alone, in any batch and in any chunk has the same bits.  B is odd so
    that T_B(0) = 0: with B even every point near 0 sits where |y| = 1, at
    the edge of the giant steps, and the K=8 sign series at degree 977 was
    6.0e-15 off a 40-digit sum near 0, against 2.2e-16 with B odd."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(coef, dtype=float)
    if len(c) <= 2:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    n = len(c)
    B = 2 * int(math.sqrt(n) / 2) + 1
    J = (n - 1) // B  # at least 1 for n >= 3
    a = np.zeros((J + 1) * B)
    a[:n] = c
    a = a.reshape(J + 1, B)
    for j in range(J, 0, -1):
        # c_k T_jB+i = 2 c_k T_i T_jB - c_k T_(j-1)B+(B-i), for 0 < i < B
        a[j - 1, :0:-1] -= a[j, 1:]
        a[j, 1:] *= 2.0
    a_t = np.ascontiguousarray(a.T)
    xs = x.reshape(-1)
    out = np.empty(xs.shape)
    rows = max(1, sim.BATCH_BYTES // (8 * (2 * B + 2 * J + 8)))
    for lo in range(0, len(xs), rows):
        u = xs[lo : lo + rows]
        t = np.empty((B + 1, len(u)))  # T_0..T_B, one row each
        t[0] = 1.0
        t[1] = u
        u2 = 2.0 * u
        for k in range(2, B + 1):
            np.multiply(u2, t[k - 1], out=t[k])
            t[k] -= t[k - 2]
        # R_j in row j, from each point's row of baby steps in C order
        r = (np.ascontiguousarray(t[:B].T)[:, None, :] @ a_t)[:, 0, :].T.copy()
        y = t[B]
        y2 = 2.0 * y
        b1, b2, tmp = r[J], np.zeros(len(u)), np.empty(len(u))
        for j in range(J - 1, 0, -1):
            np.multiply(y2, b1, out=tmp)
            tmp -= b2
            tmp += r[j]
            b2, b1, tmp = b1, tmp, b2
        np.multiply(y, b1, out=tmp)
        tmp -= b2
        tmp += r[0]
        out[lo : lo + len(u)] = tmp
    return out.reshape(x.shape)[()]


def chebyshev_grid(n: int) -> np.ndarray:
    """n Chebyshev-spaced points in [-1, 1], the default verification grid."""
    k = np.arange(n)
    return np.cos((2 * k + 1) * np.pi / (2 * n))


@cache
def _twiddles(m: int) -> np.ndarray:
    """exp(-i pi k / 2m) for k = 0..m // 2, the twiddles of both transforms."""
    w = np.exp(-0.5j * np.pi / m * np.arange(m // 2 + 1))
    w.flags.writeable = False
    return w


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the m first-kind nodes, taken
    along the last axis by a DCT-II.  They are exact for any polynomial of
    degree below m, so a caller may sample at more nodes than the degree
    needs, at a length the FFT handles fast.

    The DCT-II is Makhoul's: the even-indexed values, then the odd-indexed
    ones reversed, go through one real FFT, and twiddle k of spectrum
    entry k gives coefficient k in its real part and coefficient m - k in
    its imaginary part."""
    m = values.shape[-1]
    v = np.concatenate([values[..., ::2], values[..., 1::2][..., ::-1]], axis=-1)
    t = _fft.rfft(v, axis=-1, norm="forward")
    del v  # freed before the output: the synthesis memory bound counts on it
    t *= _twiddles(m)
    out = np.concatenate([t.real, -t.imag[..., (m - 1) // 2 : 0 : -1]], axis=-1)
    out *= 2.0
    out[..., 0] *= 0.5
    return out


def _cheb_values(coef: np.ndarray, m: int) -> np.ndarray:
    """Values of the Chebyshev series coef at chebyshev_grid(m), in its order:
    the inverse of _cheb_coeffs, by one DCT-III of the zero-padded series.
    More coefficients than nodes would alias, so that raises.

    Makhoul's DCT-III undoes the DCT-II above: it rebuilds the half
    spectrum from coefficients k and m - k, takes one inverse real FFT and
    interleaves its front half with its reversed back half."""
    if len(coef) > m:
        raise ValueError(f"{len(coef)} Chebyshev coefficients alias on {m} nodes")
    h = m // 2
    c = np.zeros(m + 1)  # c[m] = 0 pairs with c[0]
    c[: len(coef)] = coef
    z = (c[: h + 1] - 1j * c[m : m - h - 1 : -1]) * np.conj(_twiddles(m))
    z[1:] *= 0.5
    v = _fft.irfft(z, m, norm="forward")
    out = np.empty(m)
    out[::2] = v[: (m + 1) // 2]
    out[1::2] = v[: (m - 1) // 2 : -1]
    return out


def _mirrored(half: np.ndarray, m: int, parity: int) -> np.ndarray:
    """Values of a series of definite parity at chebyshev_grid(m), along the
    last axis, from its values at the first ceil(m / 2) nodes, those with
    x >= 0.  Node m - 1 - k is node k mirrored, where the series takes
    (-1)^parity times its value."""
    h = (m + 1) // 2
    out = np.empty(half.shape[:-1] + (m,))
    out[..., :h] = half
    tail = half[..., : m - h][..., ::-1]
    if parity:
        np.negative(tail, out=out[..., h:])
    else:
        out[..., h:] = tail
    return out


def _cheb_refit(fn: Callable[[np.ndarray], np.ndarray], deg: int) -> np.ndarray:
    """Chebyshev coefficients of the degree-deg interpolant of fn at deg + 1
    first-kind nodes.  The DCT keeps rounding near machine precision at
    degrees in the thousands; numpy's Vandermonde-based ``chebinterpolate``
    reproduces a degree-2216 series only to about 1e-10."""
    return _cheb_coeffs(fn(chebyshev_grid(deg + 1)))


def parity_split(p: Polynomial) -> tuple[ParityPolynomial, ParityPolynomial]:
    """Split into (even, odd) halves; the halves sum back to ``p`` exactly."""
    even = [c if k % 2 == 0 else 0.0 for k, c in enumerate(p.coeffs)]
    odd = [c if k % 2 == 1 else 0.0 for k, c in enumerate(p.coeffs)]
    return (
        ParityPolynomial(Polynomial(tuple(even)), 0),
        ParityPolynomial(Polynomial(tuple(odd)), 1),
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
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c} of {alpha} is not finite")
            if c != 0.0:
                clean[alpha] = float(c)
        object.__setattr__(self, "terms", clean)

    def __call__(self, x: Point) -> float:
        xs = np.asarray(x, dtype=float)
        val = 0.0
        for alpha, c in self.terms.items():
            val += c * float(np.prod(xs ** np.asarray(alpha)))
        return val


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
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of frequency {n} is not finite")
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
        binom = np.array([float(math.comb(n, j)) for j in range(n + 1)])
        return binom * x**k * (1.0 - x) ** (n - k)
    # log space: avoids binomial overflow for large n
    with np.errstate(divide="ignore"):
        logx = np.where(k > 0, k * np.log(np.maximum(x, 1e-300)), 0.0)
        log1mx = np.where(n - k > 0, (n - k) * np.log(np.maximum(1.0 - x, 1e-300)), 0.0)
    lg = np.array([math.lgamma(j + 1) for j in range(n + 1)])  # log j!
    logb = lg[n] - lg - lg[::-1]
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


# ---------------------------------------------------------------------------
# Sign / step / localization approximants
# ---------------------------------------------------------------------------


class ConstructionError(RuntimeError):
    """A constructed polynomial failed its verification grid."""


def _erfcinv(y: float) -> float:
    """The x with erfc(x) = y, for 0 < y < 1, by Newton's method on
    log erfc(x) = log y.  log erfc is concave and decreasing, and erfc(x) <=
    exp(-x^2) for x >= 0, so the iterates fall monotonically to the root from
    sqrt(-log y); six steps reach it within 1 ulp for y from 5e-7 to 0.25."""
    x = math.sqrt(-math.log(y))
    for _ in range(20):
        e = math.erfc(x)
        step = math.log(e / y) * e * math.exp(x * x) * (0.5 * math.sqrt(math.pi))
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return x


def _erf_chebyshev(kappa: float, n_interp: int) -> np.ndarray:
    """Chebyshev coefficients (odd entries) of erf(kappa * x) on [-1, 1]."""
    coef = _cheb_refit(lambda t: np.fromiter(map(math.erf, kappa * t), float, len(t)), n_interp)
    coef[::2] = 0.0  # erf is odd; kill even-index interpolation noise
    return coef


def _refined_sup(coef: np.ndarray, grid: np.ndarray, vals: np.ndarray, spacing: float) -> float:
    """True sup of |series| via local refinement around the top 8 grid peaks.

    All peaks are refined together: each of 3 rounds evaluates a 33-point
    window around every peak, an (8, 33) array, with one ``_chebval`` call,
    then narrows each window 8x around its own maximum.  ``_chebval`` gives
    a point the bits it has alone, so the sup is the one a refinement of
    each peak by its own calls finds.
    """
    best = float(np.max(vals))
    x0 = grid[np.argsort(vals)[-8:]]
    h = np.full(len(x0), spacing)
    for _ in range(3):
        xs = np.clip(np.linspace(x0 - h, x0 + h, 33, axis=-1), -1.0, 1.0)
        local = np.abs(_chebval(xs, coef))
        j = np.argmax(local, axis=1)
        best = max(best, float(np.max(local)))
        x0, h = xs[np.arange(len(x0)), j], h / 8.0
    return best


# Bytes per (degree + 1)^2 that _check_degree_fits reserves before the sign
# search, the first step of every sign or localization construction.  No
# report synthesizes angles, and a construction holds O(degree): the
# search keeps a few 10 (degree + 1)-point grid arrays, the step sum its
# (K - 1, 2, nodes) step arguments, and _chebval chunks of
# sim.BATCH_BYTES.  The value 24 bounded the 28 n m bytes of the dense
# Jacobian that angle synthesis once built; it stays, an upper bound that
# rejects no degree it accepted before, until the guard is derived again
# from the O(degree) footprint.
_SYNTHESIS_BYTES_PER_ENTRY = 24


def _physical_memory_bytes() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


def _check_degree_fits(degree: float) -> None:
    """Reject a sign or localization construction whose predicted degree
    is past the guard's reservation, or not finite, before anything of
    that size is allocated."""
    need = _SYNTHESIS_BYTES_PER_ENTRY * (degree + 1.0) * (degree + 1.0)  # inf past the floats
    have = _physical_memory_bytes()
    if not need < have:
        raise ValueError(
            f"predicted polynomial degree {degree:.4g} is past the construction"
            f" guard, which reserves {need / 2**30:.1f} GiB at that degree,"
            f" more than the {have / 2**30:.1f} GiB of physical memory;"
            " raise delta or eps"
        )


def _sign_cheb_series(delta: float, eps: float, R: float) -> np.ndarray:
    """Chebyshev series (in the scaled variable v = u/R) approximating sgn(u)
    for u in [-R, R], accurate to eps outside (-delta/2, delta/2), |.| <= 1.

    Built as a truncation of erf(kappa*v) with kappa chosen so the smoothed
    sign contributes eps/2 of the error budget; the truncation degree is the
    smallest that passes a dense-grid verification of both bounds, found by
    one walk over the odd degrees from the tail-bound degree ``top``.  The
    series is evaluated in full once, at top; one ``_OddPartialSums`` then
    steps it down while the grid test passes, the check with the grid
    maximum in place of the refined sup, and back up from the lowest pass
    until the refined sup passes too, which is usually at once.
    """
    if delta <= 0 or not 0 < eps < 1:
        raise ValueError("need delta > 0 and eps in (0,1)")
    try:
        root = _erfcinv(eps / 2.0)
    except (OverflowError, ValueError):  # a Newton step's exp(x^2) overflows, or erfc(x) is 0
        raise ValueError(f"eps is too small: erfc cannot be inverted in floating point at half"
                         f" the step accuracy eps/(2(K+1)) = {eps:.4g}; raise eps") from None
    kappa = root * 2.0 * R / delta
    # Chebyshev coefficients of erf(kappa x) decay like exp(-n^2/(4 kappa^2)),
    # so resolving a tail of size eps needs n ~ 2 kappa sqrt(log(1/eps)).
    n_interp = max(64, 2.2 * kappa * math.sqrt(math.log(64.0 / eps)) + 64)
    _check_degree_fits(n_interp)  # before the int, as a tiny delta makes it inf
    n_interp = int(n_interp)
    n_interp += n_interp % 2
    coef_full = _erf_chebyshev(kappa, n_interp)

    edge = (delta / 2.0) / R
    n_grid = max(1000, 10 * n_interp)
    # mix Chebyshev and uniform spacing and saturate the transition edges,
    # where the truncation error rings hardest.  Every series checked is odd
    # (its even entries are exactly 0.0) and its target is sgn, so its size
    # and its error are even in x: the grid is the x >= 0 half of one that
    # is symmetric about 0, where sgn is 1 at every point outside the gap.
    # Only the peak refinement reads the order of the points (its argsort
    # breaks ties by it), and it reads them in this order.
    ramp = np.linspace(edge, min(1.0, edge + 2.0 / max(kappa, 1.0)), 400)
    nodes = chebyshev_grid(n_grid)[: (n_grid + 1) // 2]
    rest = np.concatenate([np.linspace(-1.0, 1.0, n_grid)[n_grid // 2 :], ramp])
    grid = np.concatenate([nodes, rest])
    outside = grid >= edge
    spacing = 2.0 / n_grid
    eps_check = eps * (1.0 - 1e-3)  # margin for downstream evaluation grids

    # the tail-bound degree usually passes, and the walk starts there
    tails = np.cumsum(np.abs(coef_full[::-1]))[::-1]
    for deg in range(1, len(coef_full) - 1, 2):
        if tails[deg + 1] <= eps / 4.0:
            top = deg
            break
    else:
        top = len(coef_full) - 2  # the last odd degree
    # the one full evaluation: the Chebyshev part of the grid by a DCT, the
    # rest by _chebval
    coef_top = coef_full[: top + 1]
    vals = np.concatenate([_cheb_values(coef_top, n_grid)[: len(nodes)], _chebval(rest, coef_top)])
    # the walk holds the outside points first, so their values are a view of
    # the partial sum
    order = np.concatenate([np.flatnonzero(outside), np.flatnonzero(~outside)])
    n_out = int(np.count_nonzero(outside))
    sums = _OddPartialSums(coef_full, grid[order], vals[order], top)

    # down from top while the grid test passes; low is the lowest pass, or
    # top + 2 if top fails.  The refined sup is at least the grid maximum,
    # and a larger sup only moves every outside value further below 1, so a
    # degree that fails here fails the refined test too (_outside_error).
    low = top + 2
    while low > 1:
        s = sums.at(low - 2)
        if _outside_error(s[:n_out], max(float(np.max(s)), -float(np.min(s)))) > eps_check:
            break
        low -= 2
    if sums.deg < low <= top:
        sums.back()  # S_low as the walk down computed it, which the sup is read from
    for deg in range(low, len(coef_full), 2):  # then up until the refined sup passes too
        s = sums.at(deg)
        size = np.empty_like(s)
        size[order] = np.abs(s)  # in grid order, where _refined_sup's argsort breaks ties
        m = _refined_sup(coef_full[: deg + 1], grid, size, spacing)
        if _outside_error(s[:n_out], m) <= eps_check:
            break
    else:
        raise ConstructionError(
            f"sign approximant failed verification for delta={delta}, eps={eps}"
        )
    logger.debug(
        "sign series delta=%g eps=%g R=%g: top %d, up from %d, degree %d",
        delta, eps, R, top, low, deg,
    )
    # rescaled by the refined sup m if m > 1, which divides the checked values
    # by the same factor
    coef = coef_full[: deg + 1]
    return coef / (m * (1.0 + 1e-12)) if m > 1.0 else coef.copy()


class _OddPartialSums:
    """Partial sums S_d = sum over k <= d of c_k T_k(x) of an odd Chebyshev
    series on the points x, moved one odd degree at a time:

        down  S_{d-2} = S_d - c_d T_d,          T_{d-2} = 2 T_2 T_d - T_{d+2}
        up    S_{d+2} = S_d + c_{d+2} T_{d+2},  T_{d+4} = 2 T_2 T_{d+2} - T_d

    from S_d = vals (taken, not copied) at the starting degree d, where
    T_d and T_{d+2} are cos(k arccos x); no later step evaluates a cosine.
    Every step works in the same buffers: a grid-sized temporary per step
    would be mapped and unmapped by malloc each time, page faults included.
    A step down writes S_{d-2} beside S_d, so ``back`` can undo it.
    """

    def __init__(self, coef: np.ndarray, x: np.ndarray, vals: np.ndarray, deg: int) -> None:
        theta = np.arccos(x)
        self.coef, self.deg = coef, deg
        self._sums, self._spare = vals, np.empty_like(x)
        self._t, self._t_up = np.cos(deg * theta), np.cos((deg + 2) * theta)  # T_d, T_{d+2}
        self._two_t2 = 4.0 * x * x - 2.0
        self._buf = np.empty_like(x)

    def at(self, deg: int) -> np.ndarray:
        """S_deg on the points; the array is overwritten by the next move."""
        c, buf = self.coef, self._buf
        while self.deg > deg:
            np.multiply(self._t, c[self.deg], out=buf)
            np.subtract(self._sums, buf, out=self._spare)
            self._sums, self._spare = self._spare, self._sums
            np.multiply(self._two_t2, self._t, out=buf)
            buf -= self._t_up
            self._t_up, self._t, buf = self._t, buf, self._t_up
            self.deg -= 2
        while self.deg < deg:
            np.multiply(self._t_up, c[self.deg + 2], out=buf)
            self._sums += buf
            np.multiply(self._two_t2, self._t_up, out=buf)
            buf -= self._t
            self._t, self._t_up, buf = self._t_up, buf, self._t
            self.deg += 2
        self._buf = buf
        return self._sums

    def back(self) -> None:
        """Undo the last step, a step down that no move has followed: S_{d+2}
        and T_{d+2} are still in the buffers it left, so nothing is computed."""
        self._sums, self._spare = self._spare, self._sums
        self._t, self._t_up, self._buf = self._t_up, self._buf, self._t
        self.deg += 2


def _outside_error(s_out: np.ndarray, m: float) -> float:
    """max |S/m' - 1| over the values s_out of an odd series S at the
    outside points x >= edge, where m' = m (1 + 1e-12) rescales a series of
    sup m > 1 to fit |.| <= 1 and m' = 1 otherwise.

    S -> fl(fl(S/m') - 1) is monotone, so the largest error is that of the
    smallest or the largest S, as the same float; a NaN in s_out gives NaN.
    At every outside point S <= m < m' (or S <= m <= 1 = m'), so the error
    is 1 - S/m', which only grows with m' (and is at least 1 for S <= 0).
    Correctly rounded division and subtraction keep that order, so a
    series that fails here with the grid maximum for m fails with any
    larger sup."""
    lo, hi = float(np.min(s_out)), float(np.max(s_out))
    if m > 1.0:
        scale = m * (1.0 + 1e-12)
        lo, hi = lo / scale, hi / scale
    return max(abs(lo - 1.0), abs(hi - 1.0))


def _evenized_steps(
    x: np.ndarray, sgn_coef: np.ndarray, R: float, centers: np.ndarray
) -> np.ndarray:
    """Sum over the K - 1 centers c of (st_c(x) + st_c(-x)) / K, in order,
    where st_c(x) = 1/2 + P_sgn((x - c)/R)/2 is the smoothed step at c and
    the Chebyshev series sgn_coef of P_sgn is evaluated for |u| <= 1.

    One ``_chebval`` call evaluates every step at x and at -x, on stacked
    (K - 1, 2, len(x)) arguments; it chunks the points itself, and a
    point's value does not depend on the others, so each value is the one
    a per-step evaluation gives."""
    K = len(centers) + 1
    u = (np.stack((x, -x)) - centers[:, None, None]) / R
    total = np.zeros_like(x)
    for pos, neg in 0.5 + 0.5 * _chebval(u, sgn_coef):
        # each evenized step is ~0 on the mirrored side
        total += (pos + neg) / K
    return total


def localization_poly(spec: LocalizationSpec) -> Polynomial:
    """Even polynomial mapping band k of [0,1] into (k/K, k/K + eps).

    Sums K-1 evenized step approximants at the band edges, each accurate
    to eps / (2(K + 1)), then shifts and rescales so the residual against
    the staircase is strictly positive and below eps on every band, with
    |P| <= 1 on [-1, 1].  Verification runs on a dense grid; a step series
    or a polynomial that fails it raises ConstructionError, which says
    which check failed.
    """
    K, delta, eps = spec.K, spec.delta, spec.eps
    if K == 1:
        # single band: the zero polynomial shifted into (0, eps)
        return Polynomial((eps / 2.0,))

    R = 2.0  # shifted arguments x -/+ c stay within [-2, 2] for x in [-1,1]
    # per-step accuracy: the band shift argument needs a*(K+1) < eps
    sgn_coef = _sign_cheb_series(delta, eps / (2.0 * (K + 1)), R)
    sgn_degree = len(sgn_coef) - 1
    centers = np.array([k / K - delta / 2.0 for k in range(1, K)])
    # the evenized steps are exactly an even Chebyshev series of degree
    # sgn_degree, so interpolation at a few more first-kind nodes gives its
    # coefficients, and the nodes with x >= 0 give its values at all of them
    deg = sgn_degree + 2
    m = deg + (deg % 2) + 1
    steps = _evenized_steps(chebyshev_grid(m)[: (m + 1) // 2], sgn_coef, R, centers)
    c_raw = _cheb_coeffs(_mirrored(steps, m, 0))
    c_raw[1::2] = 0.0  # construction is exactly even; remove interpolation noise
    # the series' own values on the dense verification grid
    n_grid = max(2000, 10 * (sgn_degree + 1))
    grid = chebyshev_grid(n_grid)
    vals = _cheb_values(c_raw, n_grid)
    # staircase target k / K on the grid points of each band k of [0, 1]
    bands = spec.bands_of(grid)
    inside = bands >= 0
    bands, target = bands[inside], bands[inside] / K
    a = np.max(np.abs(vals[inside] - target))
    shift = max(K * a * 1.5, a + 1e-12)
    scale = 1.0 / (1.0 + shift)
    if (a + shift) * scale >= eps:
        raise ConstructionError("band residual too large after shift")

    shifted = (vals + shift) * scale
    if np.max(np.abs(shifted)) > 1.0:
        raise ConstructionError("shifted localization exceeds 1 in sup norm")
    r = shifted[inside] - target
    outside = (r <= 0.0) | (r >= eps)
    if outside.any():
        raise ConstructionError(f"band {np.min(bands[outside])} residual outside (0, eps)")

    # shift and scale are affine, so up to rounding the returned series takes
    # the values checked above
    coef = scale * c_raw
    coef[0] += shift * scale
    return Polynomial(tuple(coef))


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
        try:  # a tiny eps takes eps^2 to 0 or the power past the floats
            bound = eps + 2.0 * ((1.0 + ell**2 / (n * eps**2)) ** d - 1.0)
        except (ZeroDivisionError, OverflowError):
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(f"eps {eps} is too small: the thm2 bound is not finite")
        return bound
    if kind == "thm3":
        d, s, beta, K = params["d"], params["s"], params["beta"], params["K"]
        return d ** (s + beta / 2.0) * K ** (-beta)
    if kind == "l2corollary":
        d, s, beta, K = params["d"], params["s"], params["beta"], params["K"]
        main = d ** (s + beta / 2.0) * K ** (-beta)
        return main**2 + 4.0 * d * K ** (1.0 - d)
    raise ValueError(f"unknown bound kind {kind!r}")
