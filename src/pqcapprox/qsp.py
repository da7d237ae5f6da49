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

X-basis synthesis solves for symmetric angles by Newton iteration on the
Chebyshev coefficients of the realized block value, warm-started from an
exact zero-block seed and continued in target scale; this stays reliable
into the high hundreds of layers, where the localization polynomials live.
An independent completion backend (spectral factorization of 1 - p^2 by
root pairing, then layer stripping) cross-checks low degrees.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _np_poly
from scipy import fft as _fft

from .poly import ParityPolynomial, _cheb_coeffs, _cheb_nodes

logger = logging.getLogger(__name__)

_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


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

    @property
    def layers(self) -> int:
        return len(self.angles) - 1


@dataclass(frozen=True)
class TrigQspParams:
    """Parameters (omega, thetas, phis) of an L-layer Z-encoding circuit."""

    omega: float
    thetas: tuple[float, ...]
    phis: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thetas) != len(self.phis):
            raise ValueError("thetas and phis must have equal length")

    @property
    def layers(self) -> int:
        return len(self.thetas) - 1


# ---------------------------------------------------------------------------
# X-basis circuit evaluation
# ---------------------------------------------------------------------------


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


def _encoding(x: float) -> np.ndarray:
    s = math.sqrt(max(0.0, 1.0 - x * x))
    return np.array([[x, 1j * s], [1j * s, x]], dtype=complex)


def qsp_unitary(a: QspAngleSequence, x: float) -> np.ndarray:
    """The 2x2 unitary R_Z(t0) * prod_j [S(x) R_Z(tj)] at input x.

    Dense and layer by layer: the reference that qsp_block_values is tested
    against.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"encoding input {x} outside [-1, 1]")
    u = _rz(a.angles[0])
    s = _encoding(x)
    for theta in a.angles[1:]:
        u = u @ s @ _rz(theta)
    return u


def qsp_block_values(angles: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """Plus-state block values <+|U(x)|+> for a batch of inputs."""
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + 1e-12):  # NaN fails this too
        raise ValueError("encoding inputs outside [-1, 1]")
    xs = np.clip(xs, -1.0, 1.0)
    a, b = _transfer_top_rows(np.asarray(angles, dtype=float), xs)
    # U = [[a, b], [-conj(b), conj(a)]], so <+|U|+> = Re(a) + i Im(b)
    return a.real + 1j * b.imag


# 2x2 layer products per numpy call in _transfer_top_rows.  Smaller batches
# split the layers into more blocks; tuned so that no batch size runs slower
# than a plain layer-by-layer sweep.
_BLOCK_WIDTH = 8192


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
    """(m, q, r) with L = q*m + r: about _BLOCK_WIDTH / n blocks, r < m."""
    m = L // min(L, -(-_BLOCK_WIDTH // max(n, 1)))
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


def _half_chain_grad(thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Gradient of the real block value of a symmetric sequence, (n, points).

    The sequence is theta_0 = theta_L - pi with a palindromic interior, and
    row k is the derivative along phi_k (see _symmetric_angles).  With P_j
    the product before R_Z(t_j) and S_j the one after it, the palindrome gives
    S_j^T = R_Z(pi) P_{L-j}, so the terms of t_j and t_{L-j} sum to
    tr(P_j R_Z'(t_j) S_j) = Im(r0 u - r1 v), where (r0, r1) is the top row
    of P_j R_Z(t_j) and (u, v) the first column of S_j.  So only the prefix
    up to P_{L-h}, h = L // 2, is swept, then the suffix columns backwards
    from S_h = P_{L-h}^T R_Z(pi), whose first column is -i (top row of
    P_{L-h}).  The centre angle of an even L has one term: half the trace.
    """
    nx, L = xs.shape[0], len(thetas) - 1
    h = L // 2
    isx = 1j * np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    e0 = np.exp(-0.5j * thetas)
    e1 = np.exp(0.5j * thetas)

    rows = np.empty((h + 1, 2, nx), dtype=complex)  # top row of P_j R_Z(t_j)
    a, b = np.ones(nx, dtype=complex), np.zeros(nx, dtype=complex)
    for j in range(h + 1):
        r0, r1 = rows[j]
        np.multiply(a, e0[j], out=r0)
        np.multiply(b, e1[j], out=r1)
        if j < L - h:
            a, b = r0 * xs + r1 * isx, r0 * isx + r1 * xs
    u, v = -1j * a, -1j * b

    grad = np.empty((h + 1, nx))
    t = np.empty(nx, dtype=complex)
    w = np.empty(nx, dtype=complex)
    for j in range(h, -1, -1):
        np.multiply(rows[j, 0], u, out=t)
        np.multiply(rows[j, 1], v, out=w)
        t -= w
        grad[j] = t.imag
        if j:
            # first column of S_{j-1} = S(x) R_Z(t_j) S_j
            u *= e0[j]
            v *= e1[j]
            np.multiply(isx, v, out=t)
            np.multiply(isx, u, out=w)
            u *= xs
            u += t
            v *= xs
            v += w
    if L % 2 == 0:
        grad[h] *= 0.5
    return grad


# ---------------------------------------------------------------------------
# Synthesis: Newton on Chebyshev coefficients
# ---------------------------------------------------------------------------


def _target_cheb(p: ParityPolynomial) -> np.ndarray:
    if p.base.basis == "chebyshev":
        return np.asarray(p.base.coeffs, dtype=float)
    return np.asarray(_cheb.poly2cheb(p.base.coeffs), dtype=float)


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


def _coeff_residual(phi: np.ndarray, xs, a_slots, target) -> np.ndarray:
    """Newton residual from the block values alone: the parity-L Chebyshev
    coefficients of the (real) block value at the first-kind nodes xs minus
    the target.  a_slots ends at L."""
    b = qsp_block_values(_symmetric_angles(phi, a_slots[-1]), xs)
    return _cheb_coeffs(b.real)[a_slots] - target


def _coeff_jacobian(phi: np.ndarray, xs, a_slots) -> np.ndarray:
    """d(residual)/d(phi), square: |a_slots| = L // 2 + 1 = len(phi)."""
    grad = _half_chain_grad(_symmetric_angles(phi, a_slots[-1]), xs)
    return _cheb_coeffs(grad)[:, a_slots].T


def _newton_solve(phi, xs, a_slots, target, tol, max_iter=60):
    """Damped Newton on the coefficient residual.

    A line-search candidate is scored from its residual alone; the Jacobian
    is rebuilt only after a step is accepted, so a stage builds accepted
    steps + 1 Jacobians.  A singular Jacobian ends the stage like an
    exhausted line search.  Once the norm is within tol, up to two polish
    steps are tried at full length only.  Returns (phi, residual norm,
    accepted steps, rejected line-search candidates).
    """
    res = _coeff_residual(phi, xs, a_slots, target)
    jac = _coeff_jacobian(phi, xs, a_slots)
    norm = np.linalg.norm(res)
    steps = halvings = 0
    polish = 2  # extra steps after convergence push toward the machine floor
    while steps < max_iter:
        if norm <= tol:
            if polish == 0:
                break
            polish -= 1
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        # a polish step that does not help at full length has met the
        # rounding floor, where halving it only searches noise
        for _ in range(25 if norm > tol else 1):
            cand = phi + scale * step
            cres = _coeff_residual(cand, xs, a_slots, target)
            cnorm = np.linalg.norm(cres)
            if cnorm < norm:
                phi, res, norm = cand, cres, cnorm
                break
            scale *= 0.5
            halvings += 1
        else:
            break
        steps += 1
        jac = None  # release the old Jacobian before the new one is built
        jac = _coeff_jacobian(phi, xs, a_slots)
    return phi, norm, steps, halvings


def qsp_synthesize(
    p: ParityPolynomial,
    tol: float = 1e-8,
    max_restarts: int = 32,
    rng_seed: int = 20240811,
) -> QspAngleSequence:
    """Find angles whose plus-state block value reproduces p on [-1, 1].

    The angles are symmetric (_symmetric_angles), so the realized block
    value is real and is matched to p in Chebyshev coefficient space: a
    square system of its L // 2 + 1 parity-L coefficients in as many free
    angles.  Damped Newton from the exact zero-block seed phi = 0, with
    scale continuation and seeded random restarts as fallbacks.  The
    coefficients are taken at next_fast_len(L + 1) first-kind nodes: any
    m >= L + 1 nodes give coefficients 0..L of a degree-L block value
    exactly, and a length the FFT factors well makes the transforms
    several times faster.

    Raises QspSynthesisError with the best residual on failure.
    """
    target_full = _target_cheb(p)
    L = p.degree
    if p.degree % 2 != p.parity and not p.base.is_zero():
        raise ValueError("degree and parity of the target disagree")
    sup = p.sup_norm()
    if sup > 1.0 + 1e-12:
        raise ValueError(f"target sup norm {sup:.6g} exceeds 1 on [-1, 1]")

    if L == 0:
        c = float(np.clip(target_full[0], -1.0, 1.0))
        return QspAngleSequence((2.0 * math.acos(c),), residual=0.0)

    xs = _cheb_nodes(_fft.next_fast_len(L + 1, real=True))[0]
    a_slots = np.arange(L % 2, L + 1, 2)
    target = np.zeros(L + 1)
    target[: len(target_full)] = target_full
    target = target[a_slots]
    coeff_tol = tol / (4.0 * (L + 1))

    def attempt(phi: np.ndarray, scales: Sequence[float]) -> tuple[np.ndarray, float]:
        norm = np.inf
        for scale in scales:
            phi, norm, steps, halvings = _newton_solve(
                phi, xs, a_slots, scale * target, coeff_tol
            )
            logger.debug(
                "degree %d newton stage at scale %g: %d iterations, %d halvings,"
                " %d jacobian builds, coefficient norm %.3e",
                L, scale, steps, halvings, steps + 1, norm,
            )
            if norm > math.sqrt(coeff_tol):  # stage failed; no point continuing
                break
        return phi, norm

    best_norm = np.inf
    schedules = [[1.0], [0.25, 0.5, 0.75, 0.9, 1.0]]
    rng = np.random.default_rng(rng_seed)
    for i, sched in enumerate(schedules):
        if i:
            logger.debug("degree %d: falling back to scale schedule %s", L, sched)
        phi, norm = attempt(np.zeros(len(a_slots)), sched)
        best_norm = min(best_norm, norm)
        if norm <= coeff_tol:
            return _verified(_symmetric_angles(phi, L), p, tol, best_norm)
    for restart in range(max_restarts):
        logger.debug("degree %d: random restart %d of %d", L, restart + 1, max_restarts)
        phi, norm = attempt(rng.normal(0.0, 0.2, len(a_slots)), [0.25, 0.5, 0.75, 0.9, 1.0])
        best_norm = min(best_norm, norm)
        if norm <= coeff_tol:
            return _verified(_symmetric_angles(phi, L), p, tol, best_norm)
    raise QspSynthesisError("qsp synthesis did not converge", best_norm)


def _verified(thetas: np.ndarray, p: ParityPolynomial, tol: float, norm: float) -> QspAngleSequence:
    grid = _cheb_nodes(4 * (p.degree + 1))[0]
    b = qsp_block_values(thetas, grid)
    resid = float(np.max(np.abs(b - p(grid))))
    if resid > tol:
        raise QspSynthesisError("converged in coefficients but grid residual high", resid)
    return QspAngleSequence(tuple(float(t) for t in thetas), residual=resid)


# ---------------------------------------------------------------------------
# Completion backend: spectral factorization + layer stripping
# ---------------------------------------------------------------------------


def qsp_synthesize_completion(p: ParityPolynomial, tol: float = 1e-7) -> QspAngleSequence:
    """Independent synthesis by completing p to a full unitary.

    Writes 1 - p(x)^2 = A(x)^2 + (1-x^2) B(x)^2 by pairing the roots of its
    Laurent lift (Fejer-Riesz factorization), sets P = p + iA, Q = iB, and
    strips layers from the top degree.  Reliable for degree up to ~16 in
    double precision; used as a test oracle against the Newton backend.
    """
    pw = p.base.to_power()
    L = p.degree
    if L == 0:
        c = float(np.clip(pw.coeffs[0], -1.0, 1.0))
        return QspAngleSequence((2.0 * math.acos(c),), residual=0.0)
    pc = np.zeros(L + 1)
    pc[: len(pw.coeffs)] = pw.coeffs

    r_power = -_np_poly.polymul(pc, pc)
    r_power[0] += 1.0  # 1 - p^2
    r_cheb = _cheb.poly2cheb(r_power)

    # Laurent lift H(z) = z^{2L} * R((z + 1/z)/2); coefficients from the
    # Chebyshev expansion of R: T_k contributes (z^k + z^-k)/2
    h = np.zeros(4 * L + 1)
    h[2 * L] = r_cheb[0]
    for k in range(1, len(r_cheb)):
        h[2 * L + k] += r_cheb[k] / 2.0
        h[2 * L - k] += r_cheb[k] / 2.0
    roots = _np_poly.polyroots(h)
    inside = list(roots[np.abs(roots) < 1.0 - 1e-7])
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= 1e-7]
    # |p| = 1 at isolated points puts even-multiplicity roots on the circle;
    # take half of each cluster at its centroid.  Clusters are found by
    # distance on the circle, not by np.angle order: a double root at z = -1
    # can come back as a conjugate pair split across the +-pi branch cut.
    # Conjugate clusters have conjugate centroids, so the selection stays
    # conjugate-closed (raw members of a split pair would not be).
    if len(on_circle) % 2 != 0:
        raise QspSynthesisError("odd number of unit-circle roots", np.inf)
    remaining = on_circle
    while len(remaining):
        near = np.abs(np.angle(remaining / remaining[0])) < 1e-5
        cluster = remaining[near]
        remaining = remaining[~near]
        if len(cluster) % 2 != 0:
            raise QspSynthesisError("unpaired unit-circle root cluster", np.inf)
        inside.extend([np.mean(cluster)] * (len(cluster) // 2))
    inside = np.asarray(inside)
    if len(inside) != 2 * L:
        raise QspSynthesisError(
            f"root pairing failed: {len(inside)} roots selected for degree {L}", np.inf
        )
    g = _np_poly.polyfromroots(inside)
    # normalize |G|^2 = H / z^{2L} on the unit circle
    zs = np.exp(1j * np.linspace(0.3, 2 * np.pi + 0.3, 37)[:-1])
    f_vals = _np_poly.polyval(zs, h) / zs ** (2 * L)
    g_vals = _np_poly.polyval(zs, g)
    ratio = np.real(f_vals) / np.abs(g_vals) ** 2
    kappa = math.sqrt(float(np.mean(ratio)))
    # conjugate-closed roots give real coefficients; anything else is a fault
    imag = float(np.max(np.abs(np.imag(g))))
    if imag > 1e-9:
        raise QspSynthesisError("root selection not conjugate-closed", imag)
    gamma = np.real(g) * kappa

    a_cheb = np.zeros(L + 1)
    b_u = np.zeros(L)  # coefficients in the second-kind basis U_{k-1}
    a_cheb[0] = gamma[L]
    for k in range(1, L + 1):
        a_cheb[k] = gamma[L + k] + gamma[L - k]
        b_u[k - 1] = gamma[L + k] - gamma[L - k]
    a_power = _cheb.cheb2poly(a_cheb) if L > 0 else a_cheb
    b_power = _second_kind_to_power(b_u)

    big_p = pc.astype(complex) + 1j * np.asarray(a_power, dtype=complex).copy()
    big_p = _padded(big_p, L + 1)
    big_q = 1j * _padded(np.asarray(b_power, dtype=complex), L)

    phis = _strip_layers(big_p, big_q, L)
    thetas = tuple(-2.0 * phi for phi in phis)
    grid = _cheb_nodes(4 * (L + 1))[0]
    resid = float(np.max(np.abs(qsp_block_values(thetas, grid) - p(grid))))
    if resid > tol:
        raise QspSynthesisError("completion synthesis residual too high", resid)
    return QspAngleSequence(thetas, residual=resid)


def _padded(arr: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    out[: min(len(arr), n)] = arr[:n]
    return out


def _second_kind_to_power(b_u: np.ndarray) -> np.ndarray:
    """Power coefficients of sum_k b_u[k] * U_k(x)."""
    if len(b_u) == 0:
        return np.zeros(1)
    basis = [np.array([1.0]), np.array([0.0, 2.0])]
    while len(basis) < len(b_u):
        nxt = 2.0 * np.concatenate([[0.0], basis[-1]])
        nxt[: len(basis[-2])] -= basis[-2]
        basis.append(nxt)
    out = np.zeros(len(b_u))
    for k, c in enumerate(b_u):
        out[: k + 1] += c * basis[k][: k + 1]
    return out


def _strip_layers(big_p: np.ndarray, big_q: np.ndarray, L: int) -> list[float]:
    """Peel angles off (P, Q) from the top layer down."""
    phis = [0.0] * (L + 1)
    P, Q = big_p.copy(), big_q.copy()
    for layer in range(L, 0, -1):
        lead_p = P[layer]
        lead_q = Q[layer - 1]
        if abs(lead_q) < 1e-13 or abs(lead_p) < 1e-13:
            raise QspSynthesisError(
                f"degenerate leading coefficients at layer {layer}", np.inf
            )
        phi = 0.5 * np.angle(lead_p / lead_q)
        em, ep = np.exp(-1j * phi), np.exp(1j * phi)
        # P' = x P e^{-i phi} + (1 - x^2) Q e^{i phi}; Q' = x Q e^{i phi} - P e^{-i phi}
        newP = np.zeros(layer + 2, dtype=complex)
        newP[1 : layer + 2] += em * P[: layer + 1]
        newP[: layer] += ep * Q[:layer]
        newP[2 : layer + 2] -= ep * Q[:layer]
        newQ = np.zeros(layer + 1, dtype=complex)
        newQ[1 : layer + 1] += ep * Q[:layer]
        newQ[: layer + 1] -= em * P[: layer + 1]
        P = newP[:layer]
        Q = newQ[: max(layer - 1, 1)] if layer > 1 else np.zeros(1, dtype=complex)
        phis[layer] = float(phi)
    phis[0] = float(np.angle(P[0]))
    return phis


# ---------------------------------------------------------------------------
# Z-basis (trigonometric) circuits
# ---------------------------------------------------------------------------


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _z_encoding(x: float) -> np.ndarray:
    return np.array([[np.exp(0.5j * x), 0.0], [0.0, np.exp(-0.5j * x)]], dtype=complex)


def trig_qsp_unitary(params: TrigQspParams, x: float) -> np.ndarray:
    """R_Z(w) R_Y(t0) R_Z(p0) * prod_j [S(x) R_Y(tj) R_Z(pj)] at input x."""
    u = _rz(params.omega) @ _ry(params.thetas[0]) @ _rz(params.phis[0])
    s = _z_encoding(x)
    for theta, phi in zip(params.thetas[1:], params.phis[1:]):
        u = u @ s @ _ry(theta) @ _rz(phi)
    return u


def trig_block_values(params: TrigQspParams, xs: np.ndarray) -> np.ndarray:
    """Zero-state block values <0|U(x)|0> for a batch of inputs."""
    return np.array([trig_qsp_unitary(params, float(x))[0, 0] for x in xs])


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
