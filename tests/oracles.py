"""Independent references the package is tested against.

These are deliberately slow and direct: a dense unitary built gate by gate,
the block values <psi|U|psi> read from it, circuit placement with every
copy and every level validated, the ancilla's <X> + i<Y> of a
final state, a compiled program's slotted op matrices bound one slot
factor at a time, the layer-by-layer 2x2 products of the X- and
Z-encoding lines, a second angle synthesizer (Fejer-Riesz completion)
that cross-checks the fixed-point one at low degree, the localization's
evenized step sum evaluated one step and one sign at a time, and the sign
series' screen as an upward sweep over every odd degree.  None of them
shares code with the paths under test beyond the gate matrices and, for
the op matrices, the program's compiled chains of fixed products.

It also holds two whole-state views of a compiled program's run:
``dense_run`` scatters the states ``run`` returns on each start's support
into (N, 2**width) amplitudes, and ``unstored_run`` runs every op in turn
on the whole state, with no stored prefix state and no layers.  And it
holds the lowering of controlled gates to one-control X's and
single-qubit rotations (``decompose_mcu``, ``lowered``), which checks that
the simulator's native controlled gates are elementary up to global phase.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _np_poly

from pqcapprox.poly import ParityPolynomial, chebyshev_grid
from pqcapprox.qsp import (
    QspAngleSequence,
    QspSynthesisError,
    TrigQspParams,
    qsp_block_values,
)
from pqcapprox.sim import (
    _GENERATORS,
    _ROTATIONS,
    Circuit,
    Gate,
    GateProgram,
    _apply,
    cnot,
    encoding_angles,
    gate_matrix_1q,
    run,
    rz,
    xg,
)


def ry(q: int, angle: float, trainable: bool = False) -> Gate:
    return Gate("Ry", q, angle=angle, trainable=trainable)


# ---------------------------------------------------------------------------
# Dense circuit unitary
# ---------------------------------------------------------------------------


def _apply_gate(amps: np.ndarray, g: Gate, width: int) -> np.ndarray:
    """Reference kernel: one bound gate on the first axis of amps (a state,
    or the columns of a matrix), masks rebuilt from scratch.  The gate acts
    where the bits of its controls and zero-controls (cmask) read its
    controls' bits set and its zero-controls' clear (cval).

    Kept independent of ``GateProgram`` so ``circuit_unitary`` can serve as
    the test oracle for the compiled path.
    """
    if g.slot is not None:
        raise ValueError("cannot simulate a circuit with unbound encoding slots")
    mat = gate_matrix_1q(g.kind, g.angle)
    tbit = 1 << (width - 1 - g.target)
    idx = np.arange(2**width)
    if g.controls or g.zeros:
        cmask = cval = 0
        for c in g.controls:
            cmask |= 1 << (width - 1 - c)
            cval |= 1 << (width - 1 - c)
        for z in g.zeros:
            cmask |= 1 << (width - 1 - z)
        sel = (idx & cmask) == cval
    else:
        sel = None
    lower = (idx & tbit) == 0
    mask0 = lower if sel is None else (lower & sel)
    i0 = idx[mask0]
    i1 = i0 | tbit
    a0, a1 = amps[i0], amps[i1]
    amps = amps.copy()
    amps[i0] = mat[0, 0] * a0 + mat[0, 1] * a1
    amps[i1] = mat[1, 0] * a0 + mat[1, 1] * a1
    return amps


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit; test oracle for width <= 10."""
    if c.width > 10:
        raise ValueError("dense unitary restricted to width <= 10")
    dim = 2**c.width
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        u = _apply_gate(u, g, c.width)
    return u


def block_values(u: Circuit, prep: Circuit, starts=(0,)) -> np.ndarray:
    """<psi|U|psi> with |psi> = prep|s> for each start index s, from the
    dense unitaries of the bound circuits u and prep."""
    psi = circuit_unitary(prep)[:, list(starts)]
    return np.einsum("in,ij,jn->n", psi.conj(), circuit_unitary(u), psi)


def ancilla_values(amps: np.ndarray) -> np.ndarray:
    """<X> + i<Y> of qubit 0 in each row of an (N, 2**width) amplitude
    array: 2 <a0|a1>, with a0 and a1 the halves where qubit 0 reads 0 and 1."""
    half = amps.shape[1] // 2
    return np.array([2.0 * np.vdot(a[:half], a[half:]) for a in amps])


# ---------------------------------------------------------------------------
# Whole-state runs
# ---------------------------------------------------------------------------


def dense_run(c, x=None, start=None) -> np.ndarray:
    """The (N, 2**width) final amplitudes of run(c, x, start), one row per
    point: each start's states on its support scattered into the whole
    state, 0 off it."""
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    groups = run(program, x=x, start=start)
    size = sum(states.shape[1] if states.ndim > 1 else 1 for _, _, states in groups)
    amps = np.zeros((2**program.width, size), dtype=complex)
    for cols, entry, states in groups:
        amps[entry.support[:, None], np.arange(size)[cols]] = states.reshape(len(entry.support), -1)
    return amps.T


def unstored_run(prog: GateProgram, xs, starts) -> np.ndarray:
    """The final amplitudes of a batch run with no stored prefix state and
    no layers: every op in turn from op 0 on the whole state, each pair
    updated as a layer updates it, op k from row k - prefix of op_matrices
    from prefix on."""
    amps = np.zeros((2**prog.width, len(starts)), dtype=complex)
    amps[starts, np.arange(len(starts))] = 1.0
    mats = prog.op_matrices(xs) if prog.layers else None  # (len(pairs) - prefix, N, 2, 2)
    for k, pair in enumerate(prog.pairs):
        if k < prog.prefix:
            _apply(amps, pair, prog.heads[k][:, :, None, None])
        else:
            _apply(amps, pair, mats[k - prog.prefix].transpose(1, 2, 0)[:, :, None])
    return amps.T


# ---------------------------------------------------------------------------
# Placement with every copy and every level validated
# ---------------------------------------------------------------------------


def placed_reference(c: Circuit, offset: int, width: int, controls, zeros) -> Circuit:
    """c's gates on qubits offset..offset+c.width-1 of a width-qubit
    register, each also controlled on ``controls`` and zero-controlled on
    ``zeros``: a validated Gate per copy in a validated Circuit, as each
    nesting level built them when every level checked every gate."""
    return Circuit(width, tuple(
        Gate(g.kind, g.target + offset,
             tuple(sorted(set(controls).union(q + offset for q in g.controls))),
             g.angle, g.trainable, g.slot,
             tuple(sorted(set(zeros).union(q + offset for q in g.zeros))))
        for g in c.gates
    ), c.label)


def composed_reference(width: int, parts, label: str) -> Circuit:
    """The (circuit, offset, controls, zeros) parts placed by
    placed_reference in turn, joined into a validated Circuit."""
    return Circuit(width, tuple(g for c, offset, controls, zeros in parts
                                for g in placed_reference(c, offset, width, controls, zeros).gates),
                   label)


# ---------------------------------------------------------------------------
# Slotted op matrices, stage by stage
# ---------------------------------------------------------------------------


def stages(program: GateProgram) -> list[tuple]:
    """Stage j: every slotted op with more than j slots takes its j-th
    slot factor R = cos I + sin G, then the fixed product A up to its next
    slot, so the stage multiplies by cos A + sin AG.  Stage 0 also folds in
    the head H: cos AH + sin AGH, linear in the slot's cos and sin, so an
    op with one slot needs no matrix product per point."""
    chains = [chain for _, chain in program.chains]
    out = []
    for j in range(max(map(len, chains), default=0)):
        pos = [p for p, chain in enumerate(chains) if len(chain) > j]
        after = np.array([chains[p][j][1] for p in pos])
        gens = np.array([_GENERATORS[chains[p][j][0]] for p in pos])
        first = program.heads[program.slotted] if j == 0 else np.eye(2)
        out.append((np.array(pos), (after @ first)[:, None], (after @ gens @ first)[:, None]))
    return out


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of 2x2 matrices, as a sum of two outer
    products: numpy's matmul makes one small product per stack element."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def stage_op_matrices(program: GateProgram, x: np.ndarray) -> np.ndarray:
    """The (len(slotted), N, 2, 2) matrices of a program's slotted ops at
    the (N, d) points x, one 2x2 product per slot and point: the reference
    for GateProgram.op_matrices."""
    xs = np.asarray(x, dtype=float)
    if not program.chains:  # no slotted op
        return np.zeros((0, len(xs), 2, 2), dtype=complex)
    half = np.array([
        encoding_angles(slot.xform, xs[:, slot.coord] * slot.scale - slot.shift) / 2.0
        for slot, _ in program.chains
    ]).reshape(len(program.chains), len(xs))
    cos, sin = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    (pos, a, ag), *later = stages(program)
    mats = cos[pos] * a + sin[pos] * ag
    for pos, a, ag in later:
        mats[pos] = _mul2(cos[pos] * a + sin[pos] * ag, mats[pos])
    return mats


# ---------------------------------------------------------------------------
# Localization steps, one at a time, and the sign screen, swept upward
# ---------------------------------------------------------------------------


def per_step_evenized_steps(x, sgn_coef, R, centers) -> np.ndarray:
    """poly._evenized_steps with one Clenshaw evaluation per step and sign:
    (st_c(x) + st_c(-x)) / K summed over the centers in order, where
    st_c(x) = 1/2 + P_sgn((x - c)/R)/2."""
    x = np.asarray(x, dtype=float)
    K = len(centers) + 1
    total = np.zeros_like(x)
    for c in centers:
        pos = 0.5 + 0.5 * _cheb.chebval((x - c) / R, sgn_coef)
        neg = 0.5 + 0.5 * _cheb.chebval((-x - c) / R, sgn_coef)
        total += (pos + neg) / K
    return total


def upward_screen_start(coef, grid, outside, eps_check, top) -> int:
    """poly._screen_start as one upward sweep over every odd degree d <= top:
    T_{k+1} = 2x T_k - T_{k-1} from T_0 and T_1 builds each partial sum
    S_d, which takes the exact check's test with the grid maximum in place
    of the refined sup.  Returns the lowest degree of the run of passes that
    ends at top, or top itself if the test fails there."""
    x = np.asarray(grid, dtype=float)
    t_prev, t_cur = np.ones_like(x), x.copy()  # T_{d-1}, T_d
    partial = coef[1] * t_cur
    run_start = None
    for d in range(1, top + 1, 2):
        if d > 1:
            t_mid = 2.0 * x * t_cur - t_prev
            t_prev, t_cur = t_mid, 2.0 * x * t_mid - t_cur
            partial = partial + coef[d] * t_cur
        m = float(np.max(np.abs(partial)))
        s_out = partial[outside] / (m * (1.0 + 1e-12)) if m > 1.0 else partial[outside]
        if np.max(np.abs(s_out - 1.0)) > eps_check:
            run_start = None
        elif run_start is None:
            run_start = d
    return top if run_start is None else run_start


def scalar_band_draws(spec, seed: int, n: int) -> tuple[list[float], list[int]]:
    """The first n draws of default_rng(seed) that fall in a band of spec,
    drawn one at a time and placed by spec.band_of, with their bands."""
    rng = np.random.default_rng(seed)
    xs, ks = [], []
    while len(xs) < n:
        x = float(rng.random())
        k = spec.band_of(x)
        if k is not None:
            xs.append(x)
            ks.append(k)
    return xs, ks


# ---------------------------------------------------------------------------
# Single-qubit lines, layer by layer
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

# ---------------------------------------------------------------------------
# Completion synthesis: spectral factorization + layer stripping
# ---------------------------------------------------------------------------


def qsp_synthesize_completion(p: ParityPolynomial, tol: float = 1e-7) -> QspAngleSequence:
    """Independent synthesis by completing p to a full unitary.

    Writes 1 - p(x)^2 = A(x)^2 + (1-x^2) B(x)^2 by pairing the roots of its
    Laurent lift (Fejer-Riesz factorization), sets P = p + iA, Q = iB, and
    strips layers from the top degree.  Reliable for degree up to ~16 in
    double precision; used as a test oracle against qsp_synthesize.
    """
    pw = _cheb.cheb2poly(p.base.coeffs)
    L = p.degree
    if L == 0:
        c = float(np.clip(pw[0], -1.0, 1.0))
        return QspAngleSequence((2.0 * math.acos(c),), residual=0.0)
    pc = np.zeros(L + 1)
    pc[: len(pw)] = pw

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
    grid = chebyshev_grid(4 * (L + 1))
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
# Lowering controlled gates to one-control X's and single-qubit rotations
# ---------------------------------------------------------------------------


def _zyz_angles(mat: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, a, b, c) with mat = e^{i delta} Rz(a) Ry(b) Rz(c)."""
    det = np.linalg.det(mat)
    delta = 0.5 * float(np.angle(det))
    m = mat * np.exp(-1j * delta)
    b = 2.0 * math.atan2(abs(m[1, 0]), abs(m[0, 0]))
    if abs(m[0, 0]) > 1e-12 and abs(m[1, 0]) > 1e-12:
        apc = 2.0 * float(np.angle(m[1, 1]))
        amc = 2.0 * float(np.angle(m[1, 0]))
        a, c = (apc + amc) / 2.0, (apc - amc) / 2.0
    elif abs(m[0, 0]) > 1e-12:  # diagonal
        a, c = 2.0 * float(np.angle(m[1, 1])), 0.0
    else:  # anti-diagonal
        a, c = 2.0 * float(np.angle(m[1, 0])), 0.0
    return delta, a, b, c


def _ucr(axis: str, controls: tuple[int, ...], target: int, angles: np.ndarray) -> list[Gate]:
    """Uniformly controlled rotation sum_j |j><j| R_axis(angles[j])."""
    if not controls:
        if abs(angles[0]) < 1e-15:
            return []
        return [Gate(axis, target, angle=float(angles[0]))]
    half = len(angles) // 2
    plus = (angles[:half] + angles[half:]) / 2.0
    minus = (angles[:half] - angles[half:]) / 2.0
    first, rest = controls[0], controls[1:]
    out = _ucr(axis, rest, target, plus)
    out.append(cnot(first, target))
    out.extend(_ucr(axis, rest, target, minus))
    out.append(cnot(first, target))
    return out


def _controlled_phase(qubits: tuple[int, ...], delta: float) -> list[Gate]:
    """Phase e^{i delta} on basis states with all the given qubits set."""
    if abs(delta) < 1e-15 or not qubits:
        return []
    if len(qubits) == 1:
        return [rz(qubits[0], delta)]  # equals the phase gate up to global phase
    pattern = np.zeros(2 ** (len(qubits) - 1))
    pattern[-1] = delta
    gates = _ucr("Rz", qubits[:-1], qubits[-1], pattern)
    gates.extend(_controlled_phase(qubits[:-1], delta / 2.0))
    return gates


def decompose_mcu(g: Gate) -> list[Gate]:
    """Lower a bound gate to one-control X's and uncontrolled rotations.

    The composed unitary equals the native gate up to global phase; no
    ancilla qubits are used.  Each zero-control becomes a control between
    two X's.  A gate without controls, or a one-control X, is its own
    lowering.
    """
    if g.slot is not None:
        raise ValueError("bind encoding slots before lowering")
    if g.zeros:
        flips = [xg(q) for q in g.zeros]
        opened = replace(g, controls=tuple(sorted(g.controls + g.zeros)), zeros=())
        return flips + decompose_mcu(opened) + flips
    if not g.controls or g.kind == "X" and len(g.controls) == 1:
        return [g]
    target, controls, m = g.target, g.controls, len(g.controls)

    if g.kind in _ROTATIONS:
        pattern = np.zeros(2**m)
        pattern[-1] = g.angle
        if g.kind == "Rx":  # conjugate the Z-axis multiplexor onto the X axis
            gates = [ry(target, -math.pi / 2.0)]
            gates.extend(_ucr("Rz", controls, target, pattern))
            gates.append(ry(target, math.pi / 2.0))
            return gates
        return _ucr(g.kind, controls, target, pattern)

    delta, a, b, c = _zyz_angles(gate_matrix_1q(g.kind, g.angle))
    gates: list[Gate] = []
    for axis, angle in (("Rz", c), ("Ry", b), ("Rz", a)):
        if abs(angle) > 1e-15:
            pattern = np.zeros(2**m)
            pattern[-1] = angle
            gates.extend(_ucr(axis, controls, target, pattern))
    gates.extend(_controlled_phase(controls, delta))
    return gates


def lowered(c: Circuit) -> Circuit:
    """Expand every controlled gate except a one-control X into one-control
    X's and single-qubit rotations (``decompose_mcu``); the circuit must be
    bound."""
    return Circuit(c.width, tuple(x for g in c.gates for x in decompose_mcu(g)), c.label)
