"""Exact statevector simulation, Hadamard-test readout, and resource counts.

Qubit 0 is the most significant bit of the basis-state index.  Circuits are
ordered gate lists; a gate either carries a concrete angle or an encoding
slot that is bound to a data point before simulation.  ``GateProgram``
compiles a circuit once, so each run only binds the slots.  Multi-controlled
single-qubit gates (MCU) are native simulator primitives; ``decompose_mcu``
lowers them to CNOT plus single-qubit rotations for the depth/gate-count
claims and equivalence tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

MAX_WIDTH = 24

_SINGLE_KINDS = ("H", "X", "Z", "Rx", "Ry", "Rz")
_ROTATIONS = ("Rx", "Ry", "Rz")


@dataclass(frozen=True)
class EncodingSlot:
    """Deferred data-dependent angle.

    xform "acos": angle = -2*arccos(x[coord] - shift), the X-basis encoding.
    xform "zrot": angle = -(x[coord] - shift), the Z-basis encoding.
    """

    coord: int
    xform: str
    shift: float = 0.0

    def angle_for(self, x: Sequence[float]) -> float:
        return float(encoding_angles(self.xform, np.array([float(x[self.coord]) - self.shift]))[0])


def encoding_angles(xform: str, u: np.ndarray) -> np.ndarray:
    """Angles of an encoding transform at arguments u = x[coord] - shift."""
    if xform == "acos":
        if not np.all(np.abs(u) <= 1.0 + 1e-9):  # NaN is out of range too
            bad = u[~(np.abs(u) <= 1.0 + 1e-9)]
            raise ValueError(f"encoding argument {bad[0]} outside [-1, 1]")
        return -2.0 * np.arccos(np.minimum(np.maximum(u, -1.0), 1.0))
    if xform == "zrot":
        return -u
    raise ValueError(f"unknown encoding xform {xform!r}")


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: Optional[float] = None
    trainable: bool = False
    sub: Optional[str] = None
    slot: Optional[EncodingSlot] = None

    def __post_init__(self) -> None:
        if set(self.targets) & set(self.controls):
            raise ValueError("targets and controls must be disjoint")
        if self.kind in _SINGLE_KINDS:
            if len(self.targets) != 1 or self.controls:
                raise ValueError(f"{self.kind} takes one target and no controls")
        elif self.kind == "CNOT":
            if len(self.targets) != 1 or len(self.controls) != 1:
                raise ValueError("CNOT takes one control and one target")
        elif self.kind == "MCU":
            if self.sub not in _SINGLE_KINDS:
                raise ValueError(f"MCU wraps a single-qubit kind, got {self.sub!r}")
            if len(self.targets) != 1:
                raise ValueError("MCU takes one target")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        rot = self.sub if self.kind == "MCU" else self.kind
        if rot in _ROTATIONS:
            if self.angle is None and self.slot is None:
                raise ValueError(f"{rot} needs an angle or an encoding slot")
        elif self.angle is not None or self.slot is not None:
            raise ValueError(f"{self.kind} does not take an angle")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def bound(self, x: Sequence[float]) -> "Gate":
        if self.slot is None:
            return self
        return replace(self, angle=self.slot.angle_for(x), slot=None)


def h(q: int) -> Gate:
    return Gate("H", (q,))


def xg(q: int) -> Gate:
    return Gate("X", (q,))


def zg(q: int) -> Gate:
    return Gate("Z", (q,))


def rx(q: int, angle: float, trainable: bool = False) -> Gate:
    return Gate("Rx", (q,), angle=angle, trainable=trainable)


def ry(q: int, angle: float, trainable: bool = False) -> Gate:
    return Gate("Ry", (q,), angle=angle, trainable=trainable)


def rz(q: int, angle: float, trainable: bool = False) -> Gate:
    return Gate("Rz", (q,), angle=angle, trainable=trainable)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (target,), (control,))


def encoding_gate(q: int, slot: EncodingSlot) -> Gate:
    kind = "Rx" if slot.xform == "acos" else "Rz"
    return Gate(kind, (q,), slot=slot)


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        for g in self.gates:
            if any(q < 0 or q >= self.width for q in g.qubits):
                raise ValueError(f"gate {g.kind} addresses qubits outside width {self.width}")
        object.__setattr__(self, "gates", tuple(self.gates))

    def bound(self, x: Optional[Sequence[float]]) -> "Circuit":
        """Substitute data point x into every encoding slot."""
        if x is None:
            if any(g.slot is not None for g in self.gates):
                raise ValueError("circuit has unbound encoding slots; pass x")
            return self
        return Circuit(self.width, tuple(g.bound(x) for g in self.gates), self.label)

    def shifted(self, offset: int, new_width: int) -> "Circuit":
        """Same gates on qubits offset..offset+width-1 of a wider register."""
        gates = tuple(
            replace(
                g,
                targets=tuple(q + offset for q in g.targets),
                controls=tuple(q + offset for q in g.controls),
            )
            for g in self.gates
        )
        return Circuit(new_width, gates, self.label)

    def controlled_on(self, controls: Sequence[int]) -> "Circuit":
        """Every gate additionally controlled on the given qubits."""
        extra = tuple(controls)
        out = []
        for g in self.gates:
            allc = tuple(sorted(set(g.controls) | set(extra)))
            if g.kind == "MCU":
                out.append(replace(g, controls=allc))
            elif g.kind == "CNOT":
                out.append(Gate("MCU", g.targets, allc, sub="X"))
            elif g.kind == "X" and len(allc) == 1:
                out.append(Gate("CNOT", g.targets, allc))
            else:
                out.append(
                    Gate(
                        "MCU",
                        g.targets,
                        allc,
                        angle=g.angle,
                        trainable=g.trainable,
                        sub=g.kind,
                        slot=g.slot,
                    )
                )
        return Circuit(self.width, tuple(out), self.label)

    def concat(self, other: "Circuit") -> "Circuit":
        if other.width != self.width:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.width, self.gates + other.gates, self.label)


@dataclass(frozen=True)
class Statevector:
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = len(amps)
        if n == 0 or (n & (n - 1)) != 0:
            raise ValueError("amplitude count must be a power of two")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} deviates from 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, width: int) -> "Statevector":
        if width > MAX_WIDTH:
            raise ValueError(f"width {width} exceeds the {MAX_WIDTH}-qubit cap")
        amps = np.zeros(2**width, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    @property
    def width(self) -> int:
        return int(len(self.amplitudes)).bit_length() - 1


def gate_matrix_1q(kind: str, angle: Optional[float] = None) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "Z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if kind == "Rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "Ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "Rz":
        return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex)
    raise ValueError(f"no matrix for kind {kind!r}")


# R(t) = cos(t/2) I + sin(t/2) G for each rotation kind, with G = -i times
# its Pauli matrix (cf. gate_matrix_1q)
_GENERATORS = {
    "Rx": np.array([[0, -1j], [-1j, 0]]),
    "Ry": np.array([[0, -1], [1, 0]], dtype=complex),
    "Rz": np.array([[-1j, 0], [0, 1j]]),
}


def _gate_kind(g: Gate) -> str:
    """The single-qubit kind a gate applies to its target."""
    return g.sub if g.kind == "MCU" else ("X" if g.kind == "CNOT" else g.kind)


def _apply_gate(amps: np.ndarray, g: Gate, width: int) -> np.ndarray:
    """Reference kernel: one bound gate, masks rebuilt from scratch.

    Kept independent of ``GateProgram`` so ``circuit_unitary`` can serve as
    the test oracle for the compiled path.
    """
    if g.slot is not None:
        raise ValueError("cannot simulate a circuit with unbound encoding slots")
    mat = gate_matrix_1q(_gate_kind(g), g.angle)
    target = g.targets[0]
    tbit = 1 << (width - 1 - target)
    idx = np.arange(2**width)
    if g.controls:
        cmask = 0
        for c in g.controls:
            cmask |= 1 << (width - 1 - c)
        sel = (idx & cmask) == cmask
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


class GateProgram:
    """A circuit compiled once; running it at x only binds encoding angles.

    Every maximal run of consecutive gates on one target under one control
    set becomes a single op: a 2x2 matrix applied to the amplitude pairs
    ``(i0, i1)`` that differ in the target bit and have every control bit
    set.  The fixed gates of a run are multiplied together here.  An op
    without encoding slots is fixed: its ``heads`` matrix serves every
    point.  Only the ops listed in ``slotted`` are bound per point, from the
    slot factors and the fixed products between them.  Ops that address the
    same (target, controls) share one index-pair array.  ``width`` and
    ``gates`` are those of the source circuit.
    """

    def __init__(self, c: Circuit):
        if c.width > MAX_WIDTH:
            raise ValueError(f"width {c.width} exceeds the {MAX_WIDTH}-qubit cap")
        self.width = c.width
        self.gates = c.gates
        idx = np.arange(2**c.width)
        eye = np.eye(2, dtype=complex)
        pair_of: dict[tuple[int, int], np.ndarray] = {}
        slot_of: dict[tuple[str, EncodingSlot], int] = {}
        self.pairs: list[np.ndarray] = []
        heads: list[np.ndarray] = []  # fixed product before an op's first slot
        chains: list[list[list]] = []  # per op: [slot index, fixed product after it]
        prev = None
        for g in c.gates:
            tbit = 1 << (c.width - 1 - g.targets[0])
            cmask = sum(1 << (c.width - 1 - q) for q in g.controls)
            if (tbit, cmask) != prev:
                if (tbit, cmask) not in pair_of:
                    i0 = idx[((idx & tbit) == 0) & ((idx & cmask) == cmask)]
                    pair_of[tbit, cmask] = np.stack([i0, i0 | tbit])
                self.pairs.append(pair_of[tbit, cmask])
                heads.append(eye)
                chains.append([])
                prev = (tbit, cmask)
            kind = _gate_kind(g)
            chain = chains[-1]
            if g.slot is not None:
                chain.append([slot_of.setdefault((kind, g.slot), len(slot_of)), eye])
            elif chain:
                chain[-1][1] = gate_matrix_1q(kind, g.angle) @ chain[-1][1]
            else:
                heads[-1] = gate_matrix_1q(kind, g.angle) @ heads[-1]
        self.slots = tuple(slot_of)
        # slots bound together: one group per xform, with the slot indices,
        # coordinates and shifts of its members
        groups: dict[str, list[int]] = {}
        for i, (_, slot) in enumerate(self.slots):
            groups.setdefault(slot.xform, []).append(i)
        self.slot_groups = [
            (xform, np.array(idx),
             np.array([self.slots[i][1].coord for i in idx]),
             np.array([self.slots[i][1].shift for i in idx]))
            for xform, idx in groups.items()
        ]
        self.heads = np.array(heads, dtype=complex).reshape(len(heads), 2, 2)
        self.slotted = np.array([k for k, chain in enumerate(chains) if chain], dtype=int)
        # Stage j: every slotted op with more than j slots takes its j-th
        # slot factor R = cos I + sin G, then the fixed product A up to its
        # next slot, so the stage multiplies by cos A + sin AG.  Stage 0 also
        # folds in the head H: cos AH + sin AGH, linear in the slot's cos and
        # sin, so an op with one slot needs no matrix product per point.
        slotted_chains = [chains[k] for k in self.slotted]
        self.stages = []
        for j in range(max(map(len, slotted_chains), default=0)):
            pos = [p for p, chain in enumerate(slotted_chains) if len(chain) > j]
            slot_idx = [slotted_chains[p][j][0] for p in pos]
            after = np.array([slotted_chains[p][j][1] for p in pos])
            gens = np.array([_GENERATORS[self.slots[i][0]] for i in slot_idx])
            first = self.heads[self.slotted] if j == 0 else np.eye(2)
            self.stages.append((
                np.array(pos), np.array(slot_idx), (after @ first)[:, None],
                (after @ gens @ first)[:, None],
            ))

    def op_matrices(self, x: Optional[np.ndarray]) -> np.ndarray:
        """The (len(slotted), N, 2, 2) matrices of the slotted ops, bound at
        each row of the (N, d) point array x."""
        if x is None:
            raise ValueError("circuit has unbound encoding slots; pass x")
        xs = np.asarray(x, dtype=float)
        half = np.empty((len(self.slots), len(xs)))
        for xform, idx, coords, shifts in self.slot_groups:
            half[idx] = encoding_angles(xform, (xs[:, coords] - shifts).T) / 2.0
        cos, sin = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
        (_, slot_idx, a, ag), *later = self.stages
        mats = cos[slot_idx] * a + sin[slot_idx] * ag
        for pos, slot_idx, a, ag in later:
            mats[pos] = _mul2(cos[slot_idx] * a + sin[slot_idx] * ag, mats[pos])
        return mats


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of 2x2 matrices, as a sum of two outer
    products: numpy's matmul makes one small product per stack element."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def run(
    c: Circuit | GateProgram,
    init: Optional[Statevector] = None,
    x: Optional[Sequence[float] | np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> Statevector | np.ndarray:
    """Apply the circuit to one initial state or to a batch of basis states.

    One point: ``x`` of shape (d,), or None for a circuit without encoding
    slots, runs from ``init`` (default all-zeros) and returns a Statevector.
    A batch: ``x`` of shape (N, d) and/or ``start``, the N initial
    basis-state indices (default 0), returns the (N, 2**width) final
    amplitudes, one row per point.  A plain circuit is compiled first.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    dim = 2**program.width
    xs = None if x is None else np.asarray(x, dtype=float)
    if start is None and (xs is None or xs.ndim == 1):
        state = init if init is not None else Statevector.zero(program.width)
        if len(state.amplitudes) != dim:
            raise ValueError("initial state dimension does not match circuit width")
        amps = state.amplitudes.reshape(dim, 1).copy()
        _evolve(program, amps, None if xs is None else xs[None])
        return Statevector(amps[:, 0])
    if init is not None:
        raise ValueError("a batch starts from basis states: pass start, not init")
    if xs is not None and xs.ndim != 2:
        raise ValueError("a batch takes an (N, d) point array")
    starts = np.zeros(len(xs), dtype=int) if start is None else np.asarray(start)
    if xs is not None and len(xs) != len(starts):
        raise ValueError(f"{len(xs)} points but {len(starts)} start indices")
    if len(starts) and (starts.min() < 0 or starts.max() >= dim):
        raise ValueError(f"start indices must lie in [0, {dim})")
    amps = np.zeros((dim, len(starts)), dtype=complex)
    amps[starts, np.arange(len(starts))] = 1.0
    _evolve(program, amps, xs)
    return amps.T


def _evolve(program: GateProgram, amps: np.ndarray, xs: Optional[np.ndarray]) -> None:
    """Apply the program in place to the (2**width, N) amplitudes, column n
    with the encoding angles of point xs[n]; check each column's norm."""
    n = amps.shape[1]
    mats = program.op_matrices(xs) if program.slots else None
    if n == 1:
        # one point: the state drops its batch axis, so numpy takes its fast
        # 1-D fancy-index path, and each op's matrix, shared or bound at the
        # point, applies to a plain (2, pairs) slice
        state, matrices = amps[:, 0], program.heads.copy()
        if mats is not None:
            matrices[program.slotted] = mats[:, 0]
        for pair, m in zip(program.pairs, matrices):
            state[pair] = m @ state[pair]
    else:
        bound = {} if mats is None else dict(zip(program.slotted.tolist(), mats))
        for k, (pair, head) in enumerate(zip(program.pairs, program.heads)):
            a = amps[pair]
            if k not in bound:  # one matrix for all N points
                amps[pair] = (head @ a.reshape(2, -1)).reshape(a.shape)
            else:  # point n's matrix on its (2, pairs) slice
                amps[pair] = (bound[k] @ a.transpose(2, 0, 1)).transpose(1, 2, 0)
    norms = np.linalg.norm(amps, axis=0)
    if not np.all(np.abs(norms - 1.0) <= 1e-10):  # NaN fails too
        bad = norms[~(np.abs(norms - 1.0) <= 1e-10)]
        raise RuntimeError(f"simulation lost unitarity: norm {bad[0]}")


# Bytes of state one batch run holds; larger batches run in chunks of points.
BATCH_BYTES = 1 << 19


def expectation_z0(s: Statevector | np.ndarray) -> float | np.ndarray:
    """Expectation of Pauli Z on qubit 0 (the most significant bit), of one
    state or of each row of an (N, 2**width) amplitude array."""
    amps = s.amplitudes if isinstance(s, Statevector) else s
    probs = np.abs(amps) ** 2
    half = probs.shape[-1] // 2
    z = np.sum(probs[..., :half], axis=-1) - np.sum(probs[..., half:], axis=-1)
    return float(z) if z.ndim == 0 else z


def expectations_z0(
    c: Circuit | GateProgram,
    x: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """expectation_z0 of each final state of a batch run (see run).

    The batch runs in chunks of points whose states fit in BATCH_BYTES.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    x = None if x is None else np.asarray(x, dtype=float)
    n = len(x) if x is not None else len(start)
    rows = max(1, BATCH_BYTES // (np.dtype(complex).itemsize * 2**program.width))
    out = np.empty(n)
    for lo in range(0, n, rows):
        part = slice(lo, lo + rows)
        out[part] = expectation_z0(run(
            program,
            x=None if x is None else x[part],
            start=None if start is None else start[part],
        ))
    return out


def hadamard_test_circuit(u: Circuit, prep: Circuit, part: str = "real") -> Circuit:
    """Composed circuit whose qubit-0 Z expectation reads the block value.

    A fresh ancilla is prepended as qubit 0; prep acts unconditionally on
    the work register, u is applied controlled on the ancilla.
    """
    if u.width != prep.width:
        raise ValueError("u and prep must act on the same width")
    if part not in ("real", "imaginary"):
        raise ValueError("part must be 'real' or 'imaginary'")
    w = u.width + 1
    gates: list[Gate] = list(prep.shifted(1, w).gates)
    gates.append(h(0))
    gates.extend(u.shifted(1, w).controlled_on((0,)).gates)
    if part == "imaginary":
        gates.append(rz(0, -math.pi / 2.0))
    gates.append(h(0))
    return Circuit(w, tuple(gates), label=f"hadamard_test[{part}] {u.label}")


def hadamard_test(u: Circuit, prep: Circuit, part: str = "real") -> float:
    """Exact Re (or Im) of <psi|U|psi> with |psi> = prep|0...0>."""
    circ = hadamard_test_circuit(u, prep, part)
    return expectation_z0(run(circ))


def sample_shots(c: Circuit, shots: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of expectation_z0 after running c.

    Samples the qubit-0 measurement ``shots`` times with a seeded generator;
    returns (estimate, standard error).  Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    state = run(c)
    probs = np.abs(state.amplitudes) ** 2
    p_one = float(np.sum(probs[len(probs) // 2 :]))
    rng = np.random.default_rng(seed)
    ones = rng.random(shots) < p_one
    vals = 1.0 - 2.0 * ones.astype(float)
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(shots)) if shots > 1 else 0.0
    return estimate, stderr


# ---------------------------------------------------------------------------
# MCU lowering
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
        return [Gate(axis, (target,), angle=float(angles[0]), trainable=False)]
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
    """Lower a multi-controlled single-qubit gate to CNOTs and rotations.

    The composed unitary equals the native gate up to global phase; no
    ancilla qubits are used.
    """
    if g.kind != "MCU":
        raise ValueError("decompose_mcu expects an MCU gate")
    if g.slot is not None:
        raise ValueError("bind encoding slots before lowering")
    if not g.controls:
        return [Gate(g.sub, g.targets, angle=g.angle, trainable=g.trainable)]
    target = g.targets[0]
    controls = tuple(g.controls)
    m = len(controls)

    if g.sub in _ROTATIONS:
        pattern = np.zeros(2**m)
        pattern[-1] = g.angle
        if g.sub == "Rx":  # conjugate the Z-axis multiplexor onto the X axis
            gates = [ry(target, -math.pi / 2.0)]
            gates.extend(_ucr("Rz", controls, target, pattern))
            gates.append(ry(target, math.pi / 2.0))
            return gates
        return _ucr(g.sub, controls, target, pattern)

    delta, a, b, c = _zyz_angles(gate_matrix_1q(g.sub, g.angle))
    gates: list[Gate] = []
    for axis, angle in (("Rz", c), ("Ry", b), ("Rz", a)):
        if abs(angle) > 1e-15:
            pattern = np.zeros(2**m)
            pattern[-1] = angle
            gates.extend(_ucr(axis, controls, target, pattern))
    gates.extend(_controlled_phase(controls, delta))
    return gates


def lowered(c: Circuit) -> Circuit:
    """Expand every MCU into CNOT + single-qubit rotations."""
    gates: list[Gate] = []
    for g in c.gates:
        if g.kind == "MCU":
            gates.extend(decompose_mcu(g))
        else:
            gates.append(g)
    return Circuit(c.width, tuple(gates), c.label)


# ---------------------------------------------------------------------------
# Resource accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceCount:
    width: int
    depth: int
    trainable_params: int
    gate_total: int

    def __post_init__(self) -> None:
        if min(self.width, self.depth, self.trainable_params, self.gate_total) < 0:
            raise ValueError("resource counts must be nonnegative")
        if self.trainable_params > self.gate_total:
            raise ValueError("trainable parameter count exceeds gate count")


def resource_count(c: Circuit) -> ResourceCount:
    """Width, greedy-ASAP depth, trainable-parameter and gate tallies.

    ``resource_count(lowered(c))`` tallies the elementary gate set, with the
    MCU gates expanded to CNOT plus single-qubit rotations.
    """
    level = [0] * c.width
    depth = 0
    params = 0
    for g in c.gates:
        qs = g.qubits
        layer = 1 + max((level[q] for q in qs), default=0)
        for q in qs:
            level[q] = layer
        depth = max(depth, layer)
        if g.trainable:
            params += 1
    return ResourceCount(c.width, depth, params, len(c.gates))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit; test oracle for width <= 10."""
    if c.width > 10:
        raise ValueError("dense unitary restricted to width <= 10")
    dim = 2**c.width
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        cols = [_apply_gate(u[:, j].copy(), g, c.width) for j in range(dim)]
        u = np.stack(cols, axis=1)
    return u


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def circuit_to_text(c: Circuit) -> str:
    """Line-oriented format: header (width, label), then one gate per line."""
    lines = [f"width {c.width}", f"label {c.label}"]
    for g in c.gates:
        kind = f"MCU.{g.sub}" if g.kind == "MCU" else g.kind
        parts = [kind, ",".join(str(q) for q in g.targets)]
        if g.controls:
            parts.append("c=" + ",".join(str(q) for q in g.controls))
        if g.angle is not None:
            parts.append(f"a={g.angle!r}")
        if g.slot is not None:
            parts.append(f"enc={g.slot.xform}:{g.slot.coord}:{g.slot.shift!r}")
        if g.trainable:
            parts.append("train")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("width ") or not lines[1].startswith("label"):
        raise ValueError("malformed circuit text: expected width/label header")
    width = int(lines[0].split()[1])
    label = lines[1][len("label") :].strip()
    gates = []
    for ln in lines[2:]:
        parts = ln.split()
        kind = parts[0]
        sub = None
        if kind.startswith("MCU."):
            kind, sub = "MCU", kind[4:]
        targets = tuple(int(t) for t in parts[1].split(","))
        controls: tuple[int, ...] = ()
        angle = None
        slot = None
        trainable = False
        for tok in parts[2:]:
            if tok.startswith("c="):
                controls = tuple(int(q) for q in tok[2:].split(","))
            elif tok.startswith("a="):
                angle = float(tok[2:])
            elif tok.startswith("enc="):
                xform, coord, shift = tok[4:].split(":")
                slot = EncodingSlot(int(coord), xform, float(shift))
            elif tok == "train":
                trainable = True
            else:
                raise ValueError(f"unknown token {tok!r} in circuit text")
        gates.append(Gate(kind, targets, controls, angle, trainable, sub, slot))
    return Circuit(width, tuple(gates), label)
