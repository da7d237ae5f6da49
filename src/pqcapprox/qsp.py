"""Phase-angle synthesis for single-qubit data re-uploading circuits.

Two circuit families are handled:

* X-basis encoding ``S(x) = exp(i arccos(x) X)`` interleaved with Z
  rotations, whose plus-state block value realizes real polynomials with
  definite parity (degree = layer count, parity = layers mod 2, sup norm
  at most 1).
* Z-basis encoding ``S(x) = diag(exp(ix/2), exp(-ix/2))`` interleaved with
  Y and Z rotations, whose zero-state block value realizes complex
  trigonometric (Laurent) polynomials.  These are not synthesized: each
  monomial ``c exp(i n x)`` has exact parameters (``trig_monomial_params``)
  and a trigonometric polynomial is the LCU sum of its monomials.

X-basis synthesis solves for symmetric angles by fixed-point iteration on
the Chebyshev coefficients of the realized block value, started from an
exact zero-block seed and, if that stage fails, continued in target
scale; it stays reliable into the thousands of layers.
The palindrome lets half of each chain stand for the whole one in the
residual (_half_chain_values); the final grid check (_verified) evaluates
the full chain.

The iteration needs no Jacobian build.  At phi = 0 the angles are
(-pi, 0, .., 0), so U = iZ S(x)^L, and moving the paired angle phi_j moves
the real block value by T_{L-2j}: J(0) is the anti-diagonal map with 1 at
(h - j, j), h = L // 2, and 1/2 at (0, h) for an even L, whose centre
angle enters once.  Its step is the negated, reversed residual
(_zero_seed_step).  Taking that step at every phi is fixed-point QSP
iteration (Dong, Lin, Ni and Wang, arXiv:2209.10162), and Anderson mixing
over the last iterates accelerates it (_fixed_point_solve), so a stage
holds O(L) numbers and no Jacobian.  Degrees 0 and 1 need no stage: one
angle gives cos(theta_0 / 2), and phi = (t,) gives sin(t) x.

Parity halves the nodes as well.  S(-x) = -Z S(x) Z and Z commutes with
R_Z, so U(-x) = (-1)^L Z U(x) Z for any angles, and the block value obeys
f(-x) = (-1)^L conj(f(x)).  The Chebyshev nodes are symmetric about 0, so
every series evaluated on them is taken at the nodes with x >= 0 only:
* the residual is the real part of f for symmetric angles, so it has the
  parity of L and the other half is filled in by poly._mirrored;
* the final grid check reads |f - p| for a target p of parity L, which is
  even for any angles, so its maximum is reached at x >= 0.
The sign and step series of the localization polynomial follow the same
rule in poly (_sign_cheb_series, localization_poly).

The dense layer-by-layer unitaries and an independent completion
synthesizer that check this module live with the tests (tests/oracles.py).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sim
from .poly import ParityPolynomial, _cheb_coeffs, _cheb_values, _mirrored, chebyshev_grid

logger = logging.getLogger(__name__)


class QspSynthesisError(RuntimeError):
    """Synthesis did not converge; carries the best residual achieved."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class QspAngleSequence:
    """Z-rotation angles theta_0..theta_L of an L-layer X-encoding circuit."""

    angles: tuple[float, ...]
    residual: float = 0.0


@dataclass(frozen=True)
class TrigQspParams:
    """Parameters (omega, thetas, phis) of an L-layer Z-encoding circuit."""

    omega: float
    thetas: tuple[float, ...]
    phis: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thetas) != len(self.phis):
            raise ValueError("thetas and phis must have equal length")


# ---------------------------------------------------------------------------
# X-basis circuit evaluation
# ---------------------------------------------------------------------------


def qsp_block_values(angles: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """Plus-state block values <+|U(x)|+> for a batch of inputs."""
    xs = sim.acos_argument(np.asarray(xs, dtype=float))
    a, b = _transfer_top_rows(np.asarray(angles, dtype=float), xs)
    # U = [[a, b], [-conj(b), conj(a)]], so <+|U|+> = Re(a) + i Im(b)
    return a.real + 1j * b.imag


def _transfer_top_rows(thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top row (a, b) of U(x) = R_Z(t0) prod_j [S(x) R_Z(tj)] for each x.

    Every factor is in SU(2), so every partial product is [[a, b], [-b*, a*]]
    and is fixed by its top row.  The L layers are split into q blocks of m
    layers, vectorized over (blocks x points), plus a leading block that
    starts from R_Z(t0) and takes the r = L - q*m leftover layers.  The block
    products are then folded pairwise into the leading row.
    """
    n, L = xs.shape[0], len(thetas) - 1
    isx = 1j * np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    e0 = np.exp(-0.5j * thetas)
    e1 = np.exp(0.5j * thetas)
    a0 = np.full(n, e0[0])
    b0 = np.zeros(n, dtype=complex)
    if L == 0:
        return a0, b0
    m, q, r = _layer_blocks(L, n)
    _sweep_top_rows(a0, b0, xs, isx, e0[1 : r + 1], e1[1 : r + 1])
    e0_blocks = e0[r + 1 :].reshape(q, m)
    e1_blocks = e1[r + 1 :].reshape(q, m)
    a = e0_blocks[:, :1] * xs
    b = e1_blocks[:, :1] * isx
    _sweep_top_rows(a, b, xs, isx, e0_blocks[:, 1:], e1_blocks[:, 1:])
    while q > 1:
        if q % 2:
            a0, b0 = _su2_product(a0, b0, a[0], b[0])
            a, b, q = a[1:], b[1:], q - 1
        a, b = _su2_product(a[0::2], b[0::2], a[1::2], b[1::2])
        q //= 2
    return _su2_product(a0, b0, a[0], b[0])


def _layer_blocks(L: int, n: int) -> tuple[int, int, int]:
    """(m, q, r) with L = q*m + r: about W / n blocks, r < m, where W =
    sim.BATCH_BYTES / 64 is the 2x2 layer products per numpy call.  A
    product holds four complex temporaries (a, b, t and u of
    ``_sweep_top_rows``), 64 bytes.  Smaller batches split the layers into
    more blocks; at 2^19 bytes (W = 8192) no batch size runs slower than a
    plain layer-by-layer sweep."""
    m = L // min(L, -(-(sim.BATCH_BYTES // 64) // max(n, 1)))
    q, r = divmod(L, m)
    return m, q, r


def _sweep_top_rows(a, b, xs, isx, e0, e1) -> None:
    """Right-multiply top rows (a, b) in place by S(x) R_Z(t_k), k along e0's
    last axis: (a, b) -> ((a x + i s b) e0_k, (i s a + x b) e1_k)."""
    t = np.empty_like(a)
    u = np.empty_like(a)
    for k in range(e0.shape[-1]):
        np.multiply(a, xs, out=t)
        np.multiply(b, isx, out=u)
        t += u
        np.multiply(a, isx, out=u)
        b *= xs
        b += u
        b *= e1[..., k, None]
        np.multiply(t, e0[..., k, None], out=a)


def _su2_product(a1, b1, a2, b2) -> tuple[np.ndarray, np.ndarray]:
    """Top row of [[a1, b1], [-b1*, a1*]] @ [[a2, b2], [-b2*, a2*]]."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


# ---------------------------------------------------------------------------
# Synthesis: fixed-point iteration on Chebyshev coefficients
# ---------------------------------------------------------------------------


def _symmetric_angles(phi: np.ndarray, L: int) -> np.ndarray:
    """theta_0..theta_L from phi = (theta_L, theta_1..theta_h), h = L // 2:
    the interior is a palindrome and theta_0 = theta_L - pi, which makes the
    block value real.  phi = 0 gives the zero block."""
    thetas = np.empty(L + 1)
    thetas[0] = phi[0] - np.pi
    thetas[L] = phi[0]
    thetas[1 : len(phi)] = phi[1:]
    thetas[L - len(phi) + 1 : L] = phi[:0:-1]
    return thetas


def _half_chain_values(thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Real part Re U_00 of the block value of a symmetric sequence, from
    half its chain (see _symmetric_angles).

    With (r0, r1) the top row of P_h R_Z(t_h), h = L // 2, the palindrome
    gives S_h = P_{L-h}^T R_Z(pi), whose first column is -i (a, b) for the
    top row (a, b) of P_{L-h}.  So U_00 = -i (r0 a + r1 b), and (a, b) is
    one more S(x) layer from (r0, r1) when L is odd, R_Z(-t_h) when even.
    """
    L = len(thetas) - 1
    h = L // 2
    r0, r1 = _transfer_top_rows(thetas[: h + 1], xs)
    if L % 2:
        isx = 1j * np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
        a, b = r0 * xs + r1 * isx, r0 * isx + r1 * xs
    else:
        a, b = r0 * np.exp(0.5j * thetas[h]), r1 * np.exp(-0.5j * thetas[h])
    return (r0 * a + r1 * b).imag


def _coeff_residual(phi: np.ndarray, xs, a_slots, target) -> np.ndarray:
    """Synthesis residual from the block values alone: the parity-L Chebyshev
    coefficients of the (real) block value at the first-kind nodes xs minus
    the target.  a_slots ends at L.  The block value is evaluated at the
    x >= 0 half of xs and mirrored (see the module docstring)."""
    L, m = a_slots[-1], len(xs)
    b = _half_chain_values(_symmetric_angles(phi, L), xs[: (m + 1) // 2])
    return _cheb_coeffs(_mirrored(b, m, L % 2))[a_slots] - target


def _zero_seed_step(res: np.ndarray, L: int) -> np.ndarray:
    """The step -J(0)^-1 res, the Newton step at phi = 0 and the fixed-point
    step everywhere, with no Jacobian built: J(0) has 1 at (h - j, j),
    h = L // 2, and 1/2 at (0, h) for an even L (see the module docstring),
    so the step is the negated, reversed residual, with its last entry
    doubled for an even L."""
    step = -res[::-1]
    if L % 2 == 0:
        step[-1] *= 2.0
    return step


# Iterates whose differences fit each step of _fixed_point_solve, and the
# largest condition (estimated from the QR factor's diagonal) their
# difference matrix may have; the steps a stage may go without halving its
# best norm: before that norm is within tol, and after, where the steps
# polish it to the rounding floor; and the steps a stage may take at most.
_ANDERSON_DEPTH = 20
_ANDERSON_COND = 1e3
_STALL_STEPS = 50
_POLISH_STEPS = 6
_MAX_STEPS = 400


def _fixed_point_solve(phi, xs, a_slots, target, tol):
    """Fixed-point iteration phi <- g(phi) = phi - J(0)^-1 r(phi) on the
    coefficient residual r, with Anderson mixing.

    Each step takes one residual and one _zero_seed_step.  Its iterate is
    g_k - dG gamma, where the columns of dD and dG are the differences of
    d_j = g(phi_j) - phi_j and of g(phi_j) over the last steps, and gamma is
    the least-squares fit of d_k by dD (Anderson mixing of type II, Walker
    and Ni, SIAM J. Numer. Anal. 49(4), 2011).  The window keeps at most
    min(_ANDERSON_DEPTH, n) columns, and, as Walker and Ni do, drops its
    oldest while dD is ill-conditioned (_anderson_step), so the fit stays
    determined and its steps stay small near the rounding floor.  The stage
    ends when its best norm has not halved in _STALL_STEPS steps, or in
    _POLISH_STEPS once it is within tol, so it polishes to the rounding
    floor; at a non-finite residual; and after _MAX_STEPS steps.  Returns
    (best phi, its residual norm, steps).
    """
    L, depth = a_slots[-1], min(_ANDERSON_DEPTH, len(phi))
    dd, dg = [], []  # difference columns, oldest first
    best_phi, best, mark = phi, np.inf, np.inf
    steps = stalled = 0
    while True:
        res = _coeff_residual(phi, xs, a_slots, target)
        norm = np.linalg.norm(res)
        if not np.isfinite(norm):
            break
        if norm < best:
            best_phi, best = phi, norm
            if norm <= 0.5 * mark:
                mark, stalled = norm, 0
        if stalled >= (_POLISH_STEPS if best <= tol else _STALL_STEPS) or steps == _MAX_STEPS:
            break
        d = _zero_seed_step(res, L)
        g = phi + d
        if steps:
            dd.append(d - d_prev)
            dg.append(g - g_prev)
            del dd[:-depth], dg[:-depth]
            phi = _anderson_step(g, d, dd, dg)
        else:
            phi = g
        d_prev, g_prev = d, g
        steps += 1
        stalled += 1
    return best_phi, best, steps


def _anderson_step(g, d, dd, dg):
    """The mixed iterate g - dG gamma, with gamma the least-squares fit of d
    by dD from dD = QR.  Drops the oldest columns of dd and dg in place
    while the diagonal of R spans more than _ANDERSON_COND (or has a zero),
    and takes the plain step g if none is left."""
    while dd:
        q, r = np.linalg.qr(np.column_stack(dd))
        diag = np.abs(np.diagonal(r))
        if 0.0 < diag.max() <= _ANDERSON_COND * diag.min():
            return g - np.column_stack(dg) @ np.linalg.solve(r, q.T @ d)
        del dd[0], dg[0]
    return g


def _fast_len(n: int) -> int:
    """The smallest m >= n with no prime factor above 5, a length the FFT
    factors into its fastest radices."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def qsp_synthesize(p: ParityPolynomial, tol: float = 1e-8) -> QspAngleSequence:
    """Find angles whose plus-state block value reproduces p on [-1, 1].

    The angles are symmetric (_symmetric_angles), so the realized block
    value is real and is matched to p in Chebyshev coefficient space: a
    square system of its L // 2 + 1 parity-L coefficients in as many free
    angles.  Anderson-accelerated fixed-point iteration on the closed-form
    J(0) (_fixed_point_solve) from the exact zero-block seed phi = 0, at
    scale 1 and then, if that stage fails, along the scale continuation
    0.25, 0.5, 0.75, 0.9, 1; its memory is O(L), since no Jacobian is
    built.  Degrees 0 and 1 take their one free angle in closed form.
    Every result passes the grid check _verified.  The coefficients are
    taken at _fast_len(L + 1) first-kind nodes: any m >= L + 1 nodes give
    coefficients 0..L of a degree-L block value exactly, and a length the
    FFT factors well makes the transforms several times faster.

    Raises QspSynthesisError with the best residual on failure.
    """
    L = p.degree
    sup = p.sup_norm()
    if sup > 1.0 + 1e-12:
        raise ValueError(f"target sup norm {sup:.6g} exceeds 1 on [-1, 1]")

    if L == 0:
        c = float(np.clip(p.base.coeffs[0], -1.0, 1.0))
        return QspAngleSequence((2.0 * math.acos(c),), residual=0.0)
    if L == 1:
        # phi = (t,) gives the block value sin(t) x
        t = math.asin(float(np.clip(p.base.coeffs[1], -1.0, 1.0)))
        return _verified(_symmetric_angles(np.array([t]), 1), p, tol)

    xs = chebyshev_grid(_fast_len(L + 1))
    a_slots = np.arange(L % 2, L + 1, 2)
    target = np.asarray(p.base.coeffs)[a_slots]  # p has L + 1 coefficients
    coeff_tol = tol / (4.0 * (L + 1))

    best_norm = np.inf
    for schedule in ([1.0], [0.25, 0.5, 0.75, 0.9, 1.0]):
        if len(schedule) > 1:
            logger.debug("degree %d: falling back to scale schedule %s", L, schedule)
        phi = np.zeros(len(a_slots))
        for scale in schedule:
            phi, norm, steps = _fixed_point_solve(phi, xs, a_slots, scale * target, coeff_tol)
            logger.debug(
                "degree %d fixed-point stage at scale %g: %d steps, coefficient norm %.3e",
                L, scale, steps, norm,
            )
            if norm > math.sqrt(coeff_tol):  # stage failed; no point continuing
                break
        best_norm = min(best_norm, norm)
        if norm <= coeff_tol:
            return _verified(_symmetric_angles(phi, L), p, tol)
    raise QspSynthesisError("qsp synthesis did not converge", best_norm)


def _verified(thetas: np.ndarray, p: ParityPolynomial, tol: float) -> QspAngleSequence:
    # |block value - p| is even for any angles (see the module docstring),
    # so the x >= 0 half of the m nodes, the first m // 2, gives its maximum
    m = 4 * (p.degree + 1)
    h = m // 2
    b = qsp_block_values(thetas, chebyshev_grid(m)[:h])
    resid = float(np.max(np.abs(b - _cheb_values(p.base.coeffs, m)[:h])))
    if resid > tol:
        raise QspSynthesisError("converged in coefficients but grid residual high", resid)
    return QspAngleSequence(tuple(float(t) for t in thetas), residual=resid)


# ---------------------------------------------------------------------------
# Z-basis (trigonometric) circuits
# ---------------------------------------------------------------------------


def trig_monomial_params(c: complex, n: int) -> TrigQspParams:
    """Exact parameters realizing <0|U(x)|0> = c * exp(i n x), |c| <= 1.

    Positive frequencies ride the top-left diagonal of the encoding product;
    negative frequencies are reached by flipping into the bottom-right
    diagonal with a single Y rotation by pi in the last layer.
    """
    mag, arg = abs(c), float(np.angle(c))
    if mag > 1.0 + 1e-12:
        raise ValueError("coefficient magnitude exceeds 1")
    mag = min(mag, 1.0)
    layers = 2 * abs(n)
    if n == 0:
        return TrigQspParams(-2.0 * arg, (2.0 * math.acos(mag),), (0.0,))
    thetas = [0.0] * (layers + 1)
    phis = [0.0] * (layers + 1)
    if n > 0:
        thetas[0] = 2.0 * math.acos(mag)
        omega = -2.0 * arg
    else:
        thetas[0] = 2.0 * math.asin(mag)
        thetas[layers] = math.pi
        omega = 2.0 * (math.pi - arg)
    return TrigQspParams(omega, tuple(thetas), tuple(phis))
