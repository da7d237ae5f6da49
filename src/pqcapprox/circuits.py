"""Assembly of the explicit function-approximating circuits.

Every polynomial block is a weighted Chebyshev SELECT
(``_chebyshev_select``) with no synthesized angle: the Bernstein circuit,
the localization block, the Taylor series block and the polynomial block.
A weighted prep holds the Chebyshev coefficients of the polynomial, a sign
diagonal their signs, and the SELECT applies powers of the encoding gate,
whose <0|.|0> entries are Chebyshev polynomials.  The localization block's
registers hold the bits of each power, so its encoding gates number the
polynomial's degree.  The series block's prep and signs are controlled on
an address register, so one block holds every cell's polynomial.

The paper's monomial and the trigonometric circuits use three
combinators.  ``line_block`` puts one QSP line, a single-qubit angle
sequence realizing a univariate polynomial, on |+>.  ``tensor`` places
blocks side by side, so its block value is the product of theirs: a
monomial is a tensor of lines and a trigonometric monomial a tensor of
Z-encoding lines.  ``lcu_combine``, a uniform linear-combination-of-unitaries
(LCU) wrapper, sums the terms of a trigonometric polynomial.  Its selection
H's sit in the block's prep, which the Hadamard test runs uncontrolled once
per start, so the circuit is the bare SELECT.  Each level places the gates
of its parts once, shifted and controlled in one copy (``sim._composed``).
The uniform LCU produces the sum divided by the padded term count, and a
SELECT its sum divided by R, so every BlockCircuit carries an explicit
classical ``rescale`` factor that restores normalization at readout.
Every report counts prep followed by circuit; ``localization_resources``
gives that count of the localization block with no gate built.

Every selection runs a gate where a register holds a value: controlled on
the register's 1 bits and zero-controlled on its 0 bits (``_holding``),
with no X's around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from . import qsp, sim
from .poly import (
    LocalizationSpec,
    MultiIndex,
    MultivariatePolynomial,
    MultivariateTrigPolynomial,
    ParityPolynomial,
    Polynomial,
    TargetFunctionSpec,
    _grid_values,
    localization_poly,
    multi_indices,
    taylor_expand,
)
from .sim import Circuit, EncodingSlot, Gate, encoding_gate, h, rz, xg, zg


@dataclass(frozen=True)
class BlockCircuit:
    """A circuit whose Hadamard-test block value encodes a function value.

    ``evaluate_block(self, x)`` returns rescale * <psi|U(x)|psi> with
    |psi> = prep|0..0>; ``tol`` is an upper estimate of the synthesis error
    already expressed at readout scale.
    """

    circuit: Circuit
    prep: Circuit
    rescale: float
    block_value_is_real: bool = True
    tol: float = 0.0

    def __post_init__(self) -> None:
        # written as "not >=" so that a NaN is rejected too
        if not (math.isfinite(self.rescale) and self.rescale >= 1.0 - 1e-12):
            raise ValueError(f"rescale must be finite and >= 1, got {self.rescale}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.circuit.width != self.prep.width:
            raise ValueError("circuit and prep widths differ")

    @property
    def width(self) -> int:
        return self.circuit.width

    @cached_property
    def program(self) -> sim.GateProgram:
        """The compiled Hadamard test, which reads both parts of the block
        value from one run."""
        return sim.GateProgram(sim.hadamard_test_circuit(self.circuit, self.prep))


def evaluate_block(
    bc: BlockCircuit,
    x: Optional[Sequence[float] | np.ndarray] = None,
    start: Optional[np.ndarray] = None,
):
    """Represented value: Hadamard-test block value times the rescale factor.

    One point x (shape (d,), or None for a block without encoding slots)
    gives one value.  An (N, d) array x, or N ``start`` indices, gives the
    (N,) values of a batch run.  ``start`` holds each point's initial
    basis-state index of the work register, on which prep then acts
    (default |0..0>).  One point runs as a batch of one.  A block declared
    real gives real values, and raises ValueError where its value is not;
    a batch of one, a lone point or one start, reads its value for that
    check as a Python number, without numpy's dispatch.
    """
    xs = None if x is None else np.asarray(x, dtype=float)
    if xs is not None and xs.ndim not in (1, 2):
        raise ValueError(f"a point takes shape (d,) and a batch shape (N, d), got {xs.shape}")
    one = start is None and (xs is None or xs.ndim == 1)
    if one and xs is not None:
        xs = xs[None]
    # the ancilla is qubit 0 and starts in |0>, so a work-register index is
    # also the index of the whole Hadamard-test state
    values = sim.hadamard_values(bc.program, xs, start)
    first = values[0].item() if len(values) == 1 else None  # with or without start
    if one:
        values = first
    if bc.block_value_is_real:
        # at block scale: real constructions leave at most about 3e-15
        leak = abs(first.imag) if first is not None else float(np.abs(values.imag).max(initial=0.0))
        if leak > 1e-9:
            raise ValueError(f"block declared real has an imaginary part of {leak:.3g}")
        values = values.real
    return values * bc.rescale


# ---------------------------------------------------------------------------
# Line circuits, line blocks and their tensor product
# ---------------------------------------------------------------------------


def qsp_line(angles: Sequence[float], slot: EncodingSlot) -> tuple[Gate, ...]:
    """Gate list (application order) of the X-encoding angle sequence."""
    q = 0  # lines are built on qubit 0 and placed by callers
    enc = encoding_gate(q, slot)  # one gate object serves every layer
    gates: list[Gate] = []
    for theta in reversed(angles[1:]):
        gates.append(rz(q, float(theta), trainable=True))
        gates.append(enc)
    gates.append(rz(q, float(angles[0]), trainable=True))
    return tuple(gates)


def trig_line(params: qsp.TrigQspParams, slot: EncodingSlot) -> tuple[Gate, ...]:
    """Gate list (application order) of the Z-encoding parameter sequence."""
    q = 0
    enc = encoding_gate(q, slot)
    gates: list[Gate] = []
    for theta, phi in zip(reversed(params.thetas[1:]), reversed(params.phis[1:])):
        gates.append(rz(q, float(phi), trainable=True))
        gates.append(Gate("Ry", q, angle=float(theta), trainable=True))
        gates.append(enc)
    gates.append(rz(q, float(params.phis[0]), trainable=True))
    gates.append(Gate("Ry", q, angle=float(params.thetas[0]), trainable=True))
    gates.append(rz(q, float(params.omega), trainable=True))
    return tuple(gates)


@cache
def synthesize_cached(p: ParityPolynomial, tol: float) -> qsp.QspAngleSequence:
    return qsp.qsp_synthesize(p, tol=tol)


def _monomial_target(coeff: float, power: int) -> ParityPolynomial:
    return ParityPolynomial(Polynomial.from_power([0.0] * power + [coeff]), power % 2)


def line_block(angles: qsp.QspAngleSequence, slot: EncodingSlot, label: str) -> BlockCircuit:
    """The X-encoding line of the angles on |+>, whose block value is the
    synthesized polynomial; its tol is the synthesis residual."""
    return BlockCircuit(
        Circuit(1, qsp_line(angles.angles, slot), label=label),
        Circuit(1, (h(0),), label="plus-prep"),
        rescale=1.0,
        tol=angles.residual,
    )


def tensor(blocks: Sequence[BlockCircuit], label: str) -> BlockCircuit:
    """Blocks side by side on consecutive qubits, the first from qubit 0.

    The preps and circuits act on disjoint qubits, so the block value is
    the product of the blocks' values and the rescale the product of their
    rescales.  Each block value lies in the unit disk and is off by at most
    tol_i / rescale_i, so the product is off by at most their sum, and tol
    is rescale * sum tol_i / rescale_i.  The prep keeps the first block's
    label.
    """
    if not blocks:
        raise ValueError("tensor needs at least one block")
    width = sum(b.width for b in blocks)
    offsets = np.cumsum([0] + [b.width for b in blocks]).tolist()
    rescale = math.prod(b.rescale for b in blocks)
    return BlockCircuit(
        sim._composed(width, [(b.circuit, o, (), ()) for b, o in zip(blocks, offsets)], label),
        sim._composed(width, [(b.prep, o, (), ()) for b, o in zip(blocks, offsets)],
                      blocks[0].prep.label),
        rescale=rescale,
        block_value_is_real=all(b.block_value_is_real for b in blocks),
        tol=rescale * sum(b.tol / b.rescale for b in blocks),
    )


# ---------------------------------------------------------------------------
# Monomial circuits
# ---------------------------------------------------------------------------


def build_monomial_pqc(c: float, alpha: MultiIndex) -> BlockCircuit:
    """Tensor product of d lines realizing c * prod_j x_j^alpha_j.

    The coefficient rides the first line with a nonzero power (coordinate
    0's if none), so each other power-0 line is exactly I and compiles to
    no op.  Width d, depth at most 2*|alpha| + 1, parameters |alpha| + d.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("negative monomial exponent")
    if not abs(c) <= 1.0 + 1e-12:  # NaN fails this too
        raise ValueError("monomial coefficient must satisfy |c| <= 1")
    rider = next((j for j, power in enumerate(alpha) if power), 0)
    lines = []
    for j, power in enumerate(alpha):
        coeff = min(max(c, -1.0), 1.0) if j == rider else 1.0
        angles = synthesize_cached(_monomial_target(coeff, power), 1e-11)
        lines.append(line_block(angles, EncodingSlot(j, "acos"), ""))
    return tensor(lines, label=f"monomial c={c:.6g} alpha={alpha}")


# ---------------------------------------------------------------------------
# LCU combination
# ---------------------------------------------------------------------------


def _prep_kinds(prep: Circuit) -> list[str]:
    kinds = ["zero"] * prep.width
    for g in prep.gates:
        q = g.target
        if g.kind == "H" and not (g.controls or g.zeros) and kinds[q] == "zero":
            kinds[q] = "plus"
        else:  # any other gate, and a controlled one, leaves its target in no known state
            kinds[q] = "other"
    return kinds


def _pad_gate(prep: Circuit) -> Gate:
    """A single gate with exactly zero block value under the given prep."""
    kinds = _prep_kinds(prep)
    for q, k in enumerate(kinds):
        if k == "plus":
            return zg(q)  # <+|Z|+> = 0
    for q, k in enumerate(kinds):
        if k == "zero":
            return xg(q)  # <0|X|0> = 0
    raise ValueError("no qubit with a known zero-block pad under this prep")


def _holding(register: Sequence[int], value: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The controls and the zero-controls under which a gate acts where the
    register holds value (big-endian): the register qubits whose bit of
    value is 1, and those whose bit is 0."""
    shift = len(register)
    ones: list[int] = []
    zeros: list[int] = []
    for q in register:
        shift -= 1
        (ones if (value >> shift) & 1 else zeros).append(q)
    return tuple(ones), tuple(zeros)


def lcu_combine(units: Sequence[BlockCircuit], label: str = "lcu") -> BlockCircuit:
    """Uniform linear combination of unit blocks: every unit weighs the
    same, so the sum carries no coefficients (``_chebyshev_select`` weighs
    its terms).

    Pads the unit count to a power of two with zero-block units, prepends a
    selection register, and applies each unit controlled on its selection
    pattern, the pads first.  The selection H's open the prep, ahead of the placed unit
    prep, and the circuit is the bare SELECT: with |psi> the unit prep's
    state, <0, psi|H SEL H|0, psi> = <H0, psi|SEL|H0, psi>, so the block
    value is (1/T_pad) * sum of unit block values as with an H frame in
    the circuit, but the Hadamard test runs the H's once per start, not
    controlled at every point.  The rescale factor absorbs T_pad times the
    (shared) unit rescale.
    """
    if not units:
        raise ValueError("lcu_combine needs at least one unit")
    w = units[0].width
    prep = units[0].prep
    rescale = units[0].rescale
    real = all(u.block_value_is_real for u in units)
    for u in units[1:]:
        if u.width != w or u.prep != prep:
            raise ValueError("all units must share width and prep")
        if abs(u.rescale - rescale) > 1e-9 * rescale:
            raise ValueError("mixed rescale factors among units")

    t = len(units)
    a = (t - 1).bit_length()
    t_pad = 1 << a
    width = a + w
    pad = Circuit(w, (_pad_gate(prep),), label="pad") if t_pad > t else None

    # pads and units without a slot (a constant term) first, so they run in the
    # stored prefix: each part acts on its own selection value, so order is free
    slotted = [any(g.slot is not None for g in u.circuit.gates) for u in units]
    order = [*range(t, t_pad), *sorted(range(t), key=slotted.__getitem__)]
    parts = [(units[j].circuit if j < t else pad, a, *_holding(range(a), j)) for j in order]
    selection = Circuit(a, tuple(h(i) for i in range(a)))
    return BlockCircuit(
        sim._composed(width, parts, label),
        sim._composed(width, [(selection, 0, (), ()), (prep, a, (), ())], prep.label),
        rescale=rescale * t_pad,
        block_value_is_real=real,
        tol=sum(u.tol for u in units),
    )


# ---------------------------------------------------------------------------
# Weighted Chebyshev SELECTs: Bernstein circuits and polynomial blocks
# ---------------------------------------------------------------------------


def _bernstein_factor(n: int, k: int) -> Polynomial:
    """binom(n, k) x^k (1 - x)^(n - k) at x = (1 + w)/2 as a Chebyshev series
    in w: binom(n, k) (1 + w)^k (1 - w)^(n - k) / 2^n.

    Each factor (1 +- w), doubled, multiplies the series in integers by
    T_1 T_0 = T_1 and T_1 T_j = (T_{j+1} + T_{j-1}) / 2, so 4^n times the
    product has integer coefficients.  Each coefficient is rounded once, so
    the coefficients that cancel are exact zeros and B_{n-k}(w) = B_k(-w)
    holds bit for bit.
    """
    coeffs = [1]
    for sign in [1] * k + [-1] * (n - k):  # times 2 (1 + sign T_1)
        up = [0, 2 * coeffs[0]] + coeffs[1:]  # 2 T_1 T_0 and the T_{j+1} of 2 T_1 T_j
        down = coeffs[1:] + [0, 0]  # the T_{j-1} of 2 T_1 T_j
        coeffs = [2 * c + sign * (u + d) for c, u, d in zip(coeffs + [0], up, down)]
    return Polynomial(tuple(math.comb(n, k) * c / 4**n for c in coeffs))


def _bernstein_chebyshev(f: TargetFunctionSpec, n: int) -> np.ndarray:
    """The (n+1)^d Chebyshev coefficients b_m of B_n f in w = 2x - 1:
    b_m = sum_k f(k/n) prod_j beta_{k_j, m_j}, with beta_{k, m} the T_m
    coefficient of ``_bernstein_factor(n, k)``, one contraction per axis."""
    beta = np.array([_bernstein_factor(n, k).coeffs for k in range(n + 1)])
    b = _grid_values(f, n)
    for _ in range(f.dims):  # each contraction moves its axis to the end
        b = np.tensordot(b, beta, axes=([0], [0]))
    return b


def _tree_angles(probs: np.ndarray) -> list[np.ndarray]:
    """The angles of each level l of ``_amplitude_prep``'s tree: node v
    splits the mass of the prefix v between its two halves."""
    levels = []
    for level in range(len(probs).bit_length() - 1):
        mass = probs.reshape(1 << level, 2, -1).sum(axis=2)  # (prefix, next bit)
        levels.append(2.0 * np.arctan2(np.sqrt(mass[:, 1]), np.sqrt(mass[:, 0])))
    return levels


def _amplitude_prep(probs: np.ndarray, ones: tuple[int, ...], zeros: tuple[int, ...]) -> list[Gate]:
    """Ry tree (Mottonen et al., quant-ph/0404089) taking |0..0> to
    sum_i sqrt(probs[i]) |i> on log2(len(probs)) qubits, qubit 0 the most
    significant, where the qubits ``ones`` read 1 and ``zeros`` read 0.
    Node v of level l is one Ry on qubit l, controlled on qubits 0..l-1
    holding v (``_holding``), at its ``_tree_angles`` angle.  A node with
    angle 0 moves no mass and is left out, so the nodes of one level touch
    each amplitude pair of its qubit at most once.  The angles carry the
    probabilities, so they are trainable."""
    gates = []
    for level, angles in enumerate(_tree_angles(probs)):
        for v in np.flatnonzero(angles).tolist():
            v_ones, v_zeros = _holding(range(level), v)
            gates.append(Gate("Ry", level, v_ones + ones, angle=float(angles[v]), trainable=True,
                              zeros=v_zeros + zeros))
    return gates


def _select_weights(
    powers: Sequence[Sequence[MultiIndex]], cells: Mapping[int, np.ndarray]
) -> tuple[list[int], float, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """The index registers' sizes in qubits, R and, cell by cell, the
    weights of ``_chebyshev_select``: the signed c / R, indexed by the
    registers' values, and the prep's probabilities, their magnitudes with
    the spare mass on the pad value (register 0 holding len(powers[0]), 0
    elsewhere).  The cells' weights are made one at a time, as read."""
    sizes = [len(powers[0]).bit_length()] + [(len(v) - 1).bit_length() for v in powers[1:]]
    totals = {cell: float(np.abs(c).sum()) for cell, c in cells.items()}
    rescale = max(1.0, *totals.values())
    pad = len(powers[0]) << (sum(sizes) - sizes[0])

    def weights() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        for cell, c in cells.items():
            signed = np.zeros([1 << size for size in sizes])
            signed[tuple(slice(0, k) for k in c.shape)] = c / rescale
            probs = np.abs(signed).ravel()
            probs[pad] = max(0.0, 1.0 - totals[cell] / rescale)
            yield cell, signed, probs

    return sizes, rescale, weights()


def _chebyshev_select(
    powers: Sequence[Sequence[MultiIndex]],
    cells: Mapping[int, np.ndarray],
    address_bits: int,
    slots: Sequence[EncodingSlot],
    labels: tuple[str, str],
) -> BlockCircuit:
    """The weighted LCU sum_m c_m prod_j T_{k_j}(u_j), (k_j) = powers[r][m],
    of the cell that the address register holds; u_j is slots[j]'s argument.

    Index register r holds a value m; the len(slots) data qubits follow the
    registers and the address register of ``address_bits`` qubits comes
    last.  ``cells`` maps each address value to its coefficient tensor,
    indexed by the registers' values.  With R = max(1, max_cell sum |c|):

    - The prep writes sum_m sqrt(|c_m| / R) |m> by an Ry tree
      (``_amplitude_prep``) controlled on the address register holding the
      cell: a weighted LCU prep (Childs and Wiebe, arXiv:1202.5822).
    - The circuit negates every |m> with c_m < 0: between two X's on data
      qubit 0, a Z on it where the registers hold m and the address holds
      the cell.  The data qubits start in |0>, where XZX = -Z reads -1.
    - Register 0 also holds the pad value len(powers[0]), which takes the
      spare mass 1 - sum |c| / R; its op, an X on data qubit 0, reads 0.
    - Then, where register r holds m, k_j encoding gates e^{i theta X} on
      data qubit j, u_j = cos theta, so <0|e^{i k theta X}|0> = T_k(u): QSP
      with trivial phases (Low and Chuang, arXiv:1606.02685).

    The rescale R restores the sum, and tol is 0.  The prep, the signs and
    the pad are fixed, so the Hadamard test runs them once per start.
    """
    sizes, rescale, weights = _select_weights(powers, cells)
    offsets = np.cumsum([0] + sizes).tolist()
    a = offsets[-1]  # index qubits; data qubit j is qubit a + j
    width = a + len(slots) + address_bits
    prep, signs = [], []
    for cell, signed, probs in weights:
        ones, zeros = _holding(range(width - address_bits, width), cell)
        prep += _amplitude_prep(probs, ones, zeros)
        signs += [Gate("Z", a, m_ones + ones, zeros=m_zeros + zeros) for m_ones, m_zeros in
                  (_holding(range(a), m) for m in np.flatnonzero(signed.ravel() < 0.0).tolist())]
    registers = [range(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    gates = [xg(a), *signs, xg(a)] if signs else []
    ones, zeros = _holding(registers[0], len(powers[0]))
    gates.append(Gate("X", a, ones, zeros=zeros))
    for reg, values in zip(registers, powers):
        for m, p in enumerate(values):
            ones, zeros = _holding(reg, m)
            for j, k in enumerate(p):
                gates += [Gate("Rx", a + j, ones, slot=slots[j], zeros=zeros)] * k
    return BlockCircuit(
        Circuit(width, tuple(gates), label=labels[0]),
        Circuit(width, tuple(prep), label=labels[1]),
        rescale=rescale,
    )


@cache
def _power_chebyshev(n: int) -> np.ndarray:
    """The (n, n) matrix whose row k holds the Chebyshev coefficients of u^k."""
    rows = np.array([Polynomial.from_power([0.0] * k + [1.0]).coeffs + (0.0,) * (n - 1 - k)
                     for k in range(n)])
    rows.setflags(write=False)  # cached, so every caller shares it
    return rows


def _chebyshev_of_powers(c: np.ndarray) -> np.ndarray:
    """The Chebyshev tensor coefficients of sum_k c[k] prod_j u_j^k_j: one
    contraction per axis with ``_power_chebyshev`` of the axis length."""
    for _ in range(c.ndim):  # each contraction moves its axis to the end
        c = np.tensordot(c, _power_chebyshev(c.shape[0]), axes=([0], [0]))
    return c


def _nonzero_select(c: np.ndarray, slots: Sequence[EncodingSlot],
                    labels: tuple[str, str]) -> BlockCircuit:
    """``_chebyshev_select`` of sum_m c[m] prod_j T_{m_j}(u_j) over the
    multi-indices m with c[m] nonzero, held by one index register, with no
    address register."""
    terms = np.argwhere(c)
    return _chebyshev_select([[tuple(m) for m in terms.tolist()]], {0: c[tuple(terms.T)]}, 0,
                             slots, labels)


def build_poly_pqc(p: MultivariatePolynomial) -> BlockCircuit:
    """The block of p on [-1, 1]^d: ``_nonzero_select`` of its Chebyshev
    tensor coefficients c, so R = max(1, sum |c|), tol is 0 and nothing is
    synthesized."""
    if not p.terms:
        raise ValueError("cannot build a circuit for the empty polynomial")
    power = np.zeros([1 + max(alpha[j] for alpha in p.terms) for j in range(p.dims)])
    for alpha, c in p.terms.items():
        power[alpha] = c
    return _nonzero_select(_chebyshev_of_powers(power),
                           [EncodingSlot(j, "acos") for j in range(p.dims)],
                           (f"poly d={p.dims} terms={len(p.terms)}", "poly-prep"))


def build_parity_pair_pqc(p: Polynomial, slot: EncodingSlot) -> BlockCircuit:
    """``_nonzero_select`` of the Chebyshev series p on the slot.  No
    construction calls it; the benchmark's tracer looks up the name of the
    even-and-odd line pair it replaced."""
    return _nonzero_select(np.array(p.coeffs, dtype=float), [slot],
                           (f"parity-pair deg={p.degree}", "parity-pair-prep"))


def build_bernstein_pqc(f: TargetFunctionSpec, n: int) -> BlockCircuit:
    """Circuit evaluating the degree-n Bernstein polynomial B_n f on [0, 1]^d.

    The polynomial is the paper's, so its error bound holds unchanged; the
    circuit is this package's own: ``_chebyshev_select`` of
    B_n f = sum_m b_m prod_j T_{m_j}(w_j), w = 2x - 1, over m in {0..n}^d
    (``_bernstein_chebyshev``), with one index register per coordinate
    holding m_j and no address register.  Ops on distinct values of one
    register touch disjoint amplitudes, so a point runs one layer per
    coordinate.  A build whose Hadamard test would be wider than
    ``sim.MAX_WIDTH`` raises before f is sampled.
    """
    d = f.dims
    width = (n + 1).bit_length() + (d - 1) * n.bit_length() + d
    if width + 1 > sim.MAX_WIDTH:  # the Hadamard test adds an ancilla
        raise ValueError(
            f"bernstein d={d}, n={n} has {(n + 1) ** d} terms, so its Hadamard test needs"
            f" {width + 1} qubits, more than the {sim.MAX_WIDTH}-qubit cap"
        )
    powers = [[tuple(m if i == j else 0 for i in range(d)) for m in range(n + 1)]
              for j in range(d)]
    slots = [EncodingSlot(j, "acos", shift=1.0, scale=2.0) for j in range(d)]  # w = 2x - 1
    return _chebyshev_select(powers, {0: _bernstein_chebyshev(f, n)}, 0, slots,
                             (f"bernstein d={d} n={n}", "bernstein-prep"))


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

@cache
def localization_chebyshev(spec: LocalizationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of the even localization polynomial P of degree L = 2h
    (``localization_poly``), sum_m c_m T_2m over m = 0..h:

    - folded, the (B, J) matrix a[i, j] = c_(jB+i), 0 past h, with
      B = ceil(sqrt(h + 1)) and J = ceil((h + 1) / B);
    - steps, the B + J exponents 2i*i for i < B, then 2i*jB for j < J, of
      ``localization_values``' baby and giant steps;
    - coeffs, the c_m, which the block's prep holds.

    folded and steps are complex, so no call casts them."""
    coeffs = np.array(localization_poly(spec).coeffs[::2])
    n = len(coeffs)
    B = math.isqrt(n - 1) + 1
    J = -(-n // B)
    folded = np.zeros(B * J, dtype=complex)
    folded[:n] = coeffs
    folded = np.ascontiguousarray(folded.reshape(J, B).T)
    steps = 2j * np.concatenate([np.arange(B), np.arange(0, B * J, B)])
    for a in (folded, steps, coeffs):  # cached, so every caller shares them
        a.setflags(write=False)
    return folded, steps, coeffs


def _localization_layout(coeffs: np.ndarray) -> tuple[list[list[MultiIndex]], np.ndarray]:
    """The registers' powers and the coefficient tensor, indexed [t, l], of
    ``build_localization_pqc``'s SELECT of sum_m coeffs[m] T_2m."""
    h = len(coeffs) - 1
    bits = max(1, h.bit_length())
    top = 1 << (bits - 1)  # the values of l
    step = h - top + 1  # the m that t = 1 adds
    cell = np.concatenate([coeffs[:top], np.zeros(top - step), coeffs[top:]])
    powers = [[(0,), (2 * step,)]] + [[(0,), (2 << b,)] for b in reversed(range(bits - 1))]
    return powers, cell.reshape((2,) * bits)


def build_localization_pqc(spec: LocalizationSpec) -> BlockCircuit:
    """The block of coordinate 0 whose value is P(x_0), mapping band k into
    (k/K, k/K + eps): ``_chebyshev_select`` of P = sum_m c_2m T_2m, m = 0..h.
    Every coordinate's block is this one reading its own coordinate.

    With h = L/2 and B = max(1, h.bit_length()), each m is l + t (h - 2^(B-1)
    + 1) for one pair t in {0, 1}, l < 2^(B-1), t = 0 where both reach it.
    Register 0 holds t, with power 2 (h - 2^(B-1) + 1), and registers 1..B-1
    the bits b of l, most significant first, with powers 2 * 2^b: exactly L
    encoding gates, as in the paper's line, on B + 2 qubits.  Reports count
    the block by ``localization_resources`` and sum it by
    ``localization_values``; it is built for circuit output.
    """
    powers, cell = _localization_layout(localization_chebyshev(spec)[2])
    return _chebyshev_select(powers, {0: cell}, 0, [EncodingSlot(0, "acos")],
                             (f"localization K={spec.K} x0", "localization-prep"))


def localization_resources(spec: LocalizationSpec) -> sim.ResourceCount:
    """The prep-first resources of ``build_localization_pqc(spec)``, from its
    weights alone (``_select_weights``, ``_tree_angles``): no gate is built.

    The prep is one trainable Ry per nonzero tree angle; the circuit a sign
    Z per negative weight, between an X pair if there is any, the pad X
    and L encoding gates, none trainable.  Every prep node touches qubit 0
    and every circuit gate the data qubit, so each half runs in series,
    and only the X that opens a sign pair, on the data qubit alone, runs
    beside the prep: depth is gates - 1 if both are there, else gates.
    """
    powers, cell = _localization_layout(localization_chebyshev(spec)[2])
    _, _, ((_, signed, probs),) = _select_weights(powers, {0: cell})
    prep = sum(np.count_nonzero(angles) for angles in _tree_angles(probs))
    signs = np.count_nonzero(signed < 0.0)
    encodings = sum(k for values in powers for (k,) in values)
    gates = int(prep + signs + 2 * (signs > 0) + 1 + encodings)
    return sim.ResourceCount(width=cell.ndim + 2, depth=gates - bool(signs and prep),
                             trainable_params=int(prep), gate_total=gates)


def localization_values(spec: LocalizationSpec, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Fast block values of every coordinate, in x's shape; x is one point or
    an (N, d) array of points.

    Each value is P = sum_m c_m cos(2 m theta), theta = arccos u, equal up
    to rounding to the block's Hadamard test and to localization_poly's
    Clenshaw sum.  It is summed by angle addition over the folded matrix a
    of ``localization_chebyshev`` (Paterson and Stockmeyer's baby and giant
    steps): P = Re sum_j e^(2i jB theta) sum_i a[i, j] e^(2i i theta), B + J
    complex exponentials a point where a cosine per coefficient took h + 1.
    Points run in chunks whose exponentials fit in sim.BATCH_BYTES.  Both
    sums are stacked products, (1, B) @ (B, J) and (1, J) @ (J, 1) per
    point, so a point gives bit-identical values alone, in a batch and in
    any chunk."""
    folded, steps, _ = localization_chebyshev(spec)
    B = len(folded)
    xs = np.asarray(x, dtype=float)
    u = xs.ravel()
    edge = np.maximum.reduce(np.abs(u), axis=None, initial=0.0)  # the ufunc's own: no wrapper
    if not edge <= 1.0 + sim.ENCODING_SLACK:  # NaN fails this too
        raise ValueError("encoding inputs outside [-1, 1]")
    if edge > 1.0:  # within the slack, so clipped; a lone point pays no clip otherwise
        u = np.minimum(np.maximum(u, -1.0), 1.0)
    theta = np.arccos(u)[:, None, None]
    size = max(1, sim.BATCH_BYTES // steps.nbytes)  # a point's exponentials
    if len(u) <= size:  # one chunk: the products themselves
        e = np.exp(theta * steps)  # (N, 1, B + J): the baby steps, then the giant ones
        return ((e[..., :B] @ folded) @ e[..., B:].transpose(0, 2, 1)).real.reshape(xs.shape)
    out = np.empty(len(u))
    for lo in range(0, len(u), size):
        e = np.exp(theta[lo:lo + size] * steps)
        out[lo:lo + size] = ((e[..., :B] @ folded) @ e[..., B:].transpose(0, 2, 1))[:, 0, 0].real
    return out.reshape(xs.shape)


def round_to_eta(values: Sequence[float] | np.ndarray, K: int) -> MultiIndex | np.ndarray:
    """Per-coordinate floor(K * value), clamped into {0, ..., K-1}.  The
    range check admits values down to -1e-9, and at every admitted value
    K * value truncated is that clamped floor: 0 on [-1e-9, 0).

    One point's values give a tuple; an (N, d) array gives an integer array.
    """
    v = np.asarray(values, dtype=float)
    # the range check as two reductions, the offending value looked up only
    # when it fails; NaN fails too, since both reductions return it
    low, high = ((np.minimum.reduce(v, axis=None), np.maximum.reduce(v, axis=None))
                 if v.size else (0.0, 0.0))
    if not (low >= -1e-9 and high <= 1.0 + 1e-9):
        bad = v[~((v >= -1e-9) & (v <= 1.0 + 1e-9))][0]
        raise ValueError(f"localization output {bad} outside [0, 1]")
    cells = (K * v).astype(int)
    # below 1, K * value stays below K once rounded (the largest double
    # below 1 is 1 - 2^-53, and K - K 2^-53 lies at least half an ulp of K
    # under K), so its floor is at most K - 1: only a value from 1 on is clamped
    if high >= 1.0:
        cells = np.minimum(cells, K - 1)
    return tuple(int(c) for c in cells) if v.ndim == 1 else cells


# ---------------------------------------------------------------------------
# Taylor series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorCoeffTable:
    """Scaled derivatives xi[(eta, alpha)] = d^alpha f(eta/K) / alpha!."""

    K: int
    s: int
    d: int
    xi: Mapping[tuple[MultiIndex, MultiIndex], float]

    def __post_init__(self) -> None:
        for (eta, alpha), v in self.xi.items():
            if not math.isfinite(v):
                raise ValueError(f"coefficient {v} at cell {eta}, order {alpha} is not finite")

    @classmethod
    def from_target(cls, f: TargetFunctionSpec, K: int, s: int) -> "TaylorCoeffTable":
        xi = {}
        for eta in product(range(K), repeat=f.dims):
            expansion = taylor_expand(f, tuple(e / K for e in eta), s)
            for alpha in multi_indices(f.dims, s):
                xi[(eta, alpha)] = float(expansion.terms.get(alpha, 0.0))
        return cls(K, s, f.dims, xi)

    @property
    def address_bits(self) -> int:
        return self.d * max(1, (self.K - 1).bit_length()) if self.K > 1 else 0

    @cached_property
    def address_weights(self) -> np.ndarray:
        """The place value of each coordinate's cell in the address (see
        ``series_start``)."""
        m = self.address_bits // self.d
        return 1 << (m * np.arange(self.d - 1, -1, -1))


def series_start(table: TaylorCoeffTable, eta: MultiIndex | np.ndarray) -> int | np.ndarray:
    """Work-register basis index of a series block with the address register
    holding cell eta and every other qubit in |0>, or of each row of an
    (N, d) array of cells.  The address register is the block's last
    qubits, so the index is the address value: each coordinate takes
    address_bits // d bits, big-endian, coordinate 0 first.
    """
    cells = np.asarray(eta, dtype=int)
    # viewed unsigned, a negative cell lies above K too, so one pass checks both ends
    if (cells.shape[-1:] != (table.d,)
            or cells.size and np.maximum.reduce(cells.view(np.uint64), axis=None) >= table.K):
        raise ValueError(f"invalid address {eta}")
    return cells.dot(table.address_weights)


def build_taylor_coeff_pqc(table: TaylorCoeffTable, shifts: Sequence[float]) -> BlockCircuit:
    """The series block of every cell at once, its coefficients in a prep
    controlled on the address register (``_chebyshev_select``, with one
    term register holding m).

    In u = x - shifts, cell eta's sum_alpha xi[eta, alpha] u^alpha is
    sum_m c_m(eta) prod_j T_{m_j}(u_j) over |m| <= s.  Each u^k has
    non-negative Chebyshev coefficients summing to 1, so sum |c(eta)| <=
    sum_alpha |xi[eta, alpha]|, and R = max(1, max_eta sum |c(eta)|).
    """
    d, s = table.d, table.s
    terms = multi_indices(d, s)
    cells = {}
    for eta in product(range(table.K), repeat=d):
        c = np.zeros((s + 1,) * d)  # indexed by the power of each coordinate
        for alpha in terms:
            c[alpha] = table.xi[(eta, alpha)]
        c = _chebyshev_of_powers(c)
        cells[int(series_start(table, eta))] = np.array([c[m] for m in terms])
    slots = [EncodingSlot(j, "acos", shift) for j, shift in enumerate(shifts)]
    return _chebyshev_select([terms], cells, table.address_bits, slots,
                             (f"taylor-series s={s}", "taylor-coeff"))


def build_taylor_series_pqc(table: TaylorCoeffTable, eta: MultiIndex) -> BlockCircuit:
    """The block of cell eta: its prep writes eta on the address register
    ahead of ``build_taylor_coeff_pqc``'s, and its slots read x - eta/K.

    Only the prep and the data shifts depend on eta: ``NestedTaylorModel``
    reads every cell from the block of cell 0 (see ``series_start``).
    """
    eta = tuple(int(e) for e in eta)
    bc = build_taylor_coeff_pqc(table, [e / table.K for e in eta])
    address = range(bc.width - table.address_bits, bc.width)
    writes = _holding(address, int(series_start(table, eta)))[0]  # the qubits whose bit is 1
    return replace(bc, prep=Circuit(bc.width, (*map(xg, writes), *bc.prep.gates),
                                    label=f"eta-prep {eta}"))


class NestedTaylorModel:
    """Localization nested with local Taylor series.

    Evaluation localizes x (per-coordinate block values, rounded to the cell
    index eta) and reads one shared Taylor-series block, the block of cell
    0, with its Hadamard test started from |eta> on the address register at
    input x - eta/K.  That equals the block of cell eta, whose prep writes
    eta and whose data slots are shifted by eta/K.  A call takes one point
    or an (N, d) array of points; a point of another length than f's d
    raises ValueError.  A batch localizes each distinct coordinate value
    once: the block reads one coordinate, and a value is the same bits
    alone or in a batch (``localization_values``).  The model builds no
    localization block: each coordinate's is ``build_localization_pqc``'s,
    which reports count by ``localization_resources``.
    """

    def __init__(self, f: TargetFunctionSpec, spec: LocalizationSpec, s: int):
        if f.holder is None or f.holder[1] > 1.0 + 1e-12:
            raise ValueError("nested construction needs a unit smoothness certificate")
        self.f = f
        self.spec = spec
        self.s = s
        self.table = TaylorCoeffTable.from_target(f, spec.K, s)
        self.series = build_taylor_series_pqc(self.table, (0,) * f.dims)

    @property
    def tol_agg(self) -> float:
        """The series block's tol: a localization block synthesizes nothing,
        so its tol is 0."""
        return self.series.tol

    def __call__(self, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """The value at one point, or the values at the rows of an (N, d) array.

        A lone point is a batch of one: it localizes its own coordinates
        (no np.unique), and then takes the calls of a batch, ``round_to_eta``,
        ``series_start`` and one ``evaluate_block`` from its cell's start,
        each of whose range checks is a reduction or two."""
        xs = np.asarray(x, dtype=float)
        pts = xs.reshape(1, -1) if xs.ndim < 2 else xs
        if pts.shape[-1] != self.f.dims:
            raise ValueError(f"the model takes points of {self.f.dims} coordinates,"
                             f" got {pts.shape[-1]}")
        if len(pts) > 1:  # each distinct coordinate value once, scattered back
            coords, at = np.unique(pts, return_inverse=True)
            loc = localization_values(self.spec, coords)[at].reshape(pts.shape)
        else:
            loc = localization_values(self.spec, pts)
        eta = round_to_eta(loc, self.spec.K)
        values = evaluate_block(
            self.series, pts - eta / self.spec.K, start=series_start(self.table, eta)
        )
        return float(values[0]) if xs.ndim == 1 else values


# ---------------------------------------------------------------------------
# Trigonometric circuits
# ---------------------------------------------------------------------------


def build_trig_monomial_pqc(c: complex, n: Sequence[int]) -> BlockCircuit:
    """Tensor product of d Z-encoding lines realizing c * exp(i n . x).

    Exact parameters (no optimization): positive and negative frequencies
    use the diagonal of the encoding product.  The coefficient rides the
    first line with a nonzero frequency (coordinate 0's if none), so each
    other frequency-0 line is exactly I and compiles to no op.  Depth is at
    most 6|n| + 3, parameters 4|n| + 3d.
    """
    n = tuple(int(v) for v in n)
    if not abs(c) <= 1.0 + 1e-12:  # NaN fails this too
        raise ValueError("trig coefficient must satisfy |c| <= 1")
    zero = Circuit(1, (), label="zero-prep")
    rider = next((j for j, freq in enumerate(n) if freq), 0)
    lines = []
    for j, freq in enumerate(n):
        params = qsp.trig_monomial_params(c if j == rider else 1.0, freq)
        line = Circuit(1, trig_line(params, EncodingSlot(j, "zrot", 0.0)))
        lines.append(BlockCircuit(line, zero, rescale=1.0, block_value_is_real=False))
    return tensor(lines, label=f"trig-monomial c={c:.6g} n={n}")


def build_trig_poly_pqc(t: MultivariateTrigPolynomial) -> BlockCircuit:
    """LCU over trigonometric monomial units realizing t(x)."""
    if not t.terms:
        raise ValueError("cannot build a circuit for the empty polynomial")
    units = [build_trig_monomial_pqc(cn, n) for n, cn in sorted(t.terms.items())]
    return lcu_combine(units, label=f"trig-poly d={t.dims} terms={len(units)}")
