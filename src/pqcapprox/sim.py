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

    The transform reads the affine argument u = scale*x[coord] - shift.
    xform "acos": angle = -2*arccos(u), the X-basis encoding.
    xform "zrot": angle = -u, the Z-basis encoding.
    """

    coord: int
    xform: str
    shift: float = 0.0
    scale: float = 1.0

    def angle_for(self, x: Sequence[float]) -> float:
        u = float(x[self.coord]) * self.scale - self.shift
        return float(encoding_angles(self.xform, np.array([u]))[0])


def encoding_angles(xform: str, u: np.ndarray) -> np.ndarray:
    """Angles of an encoding transform at arguments u = scale*x[coord] - shift."""
    if xform == "acos":
        if not np.all(np.abs(u) <= 1.0 + 1e-9):  # NaN is out of range too
            bad = u[~(np.abs(u) <= 1.0 + 1e-9)]
            raise ValueError(f"encoding argument {bad[0]} outside [-1, 1]")
        return -2.0 * np.arccos(np.minimum(np.maximum(u, -1.0), 1.0))
    if xform == "zrot":
        if not np.all(np.isfinite(u)):
            bad = u[~np.isfinite(u)]
            raise ValueError(f"encoding argument {bad[0]} is not finite")
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
_PAULI_X = gate_matrix_1q("X")


def _gate_kind(g: Gate) -> str:
    """The single-qubit kind a gate applies to its target."""
    return g.sub if g.kind == "MCU" else ("X" if g.kind == "CNOT" else g.kind)


class GateProgram:
    """A circuit compiled once; running it at x only binds encoding angles.

    Every maximal run of consecutive gates on one target under one control
    set becomes a single op: a 2x2 matrix applied to the amplitude pairs
    ``(i0, i1)`` that differ in the target bit and have every control bit
    set.  The fixed gates of a run are multiplied together here.  An op
    without encoding slots is fixed: its ``heads`` matrix serves every
    point.  Only the ops listed in ``slotted`` are bound per point, from the
    slot factors and the fixed products between them.

    A fixed run whose product is exactly X (an X, CNOT or multi-controlled
    X flip) is not an op: it relabels the amplitudes it swaps, and a run
    that is exactly I is dropped.  The ops after a flip address the
    relabelled pairs, and ``run`` gathers the state by ``perm`` once at the
    end (``perm`` is None where the flips cancel).  Only indices change,
    never a product, so every value is bit-identical to applying the flips
    as ops.  ``width`` and ``gates`` are those of the source circuit.

    Ops that touch disjoint amplitudes commute, so they run as one layer
    (``layers``, with each op's index in ``layer_of``): one gather of the
    layer's pairs, an elementwise 2x2 update and one scatter, with the
    coefficients of the fixed members taken at compile time and those of
    the slotted members from ``op_matrices`` in a second sub-apply.

    ``prefix`` is the index of the first slotted op (``len(pairs)`` when
    there is none).  The ops before it are fixed, so from a basis start the
    state before op ``prefix`` is one fixed vector: a batch run takes it
    from ``stored``, a dict on the program keyed by start index, and runs
    only the layers from ``prefix`` on.  No layer crosses ``prefix``.  A
    start not stored yet runs the prefix through the same layer loop first;
    it is stored while ``stored`` holds at most PREFIX_BYTES.  The stored
    states are those of the relabelled indices, before the ``perm`` gather.

    On the Hadamard test of the d=2, n=4 Bernstein block this leaves 220 of
    430 ops in 20 layers: 9 before the prefix ends and 11 after it, which
    make 15 sub-applies per point (211 ops before layering).  The d=2, K=4,
    s=1 Taylor series block, which starts from one of K^d cells, leaves 58
    of 262 ops in 10 layers: 6 before the prefix ends and 4 after it, which
    make 5 sub-applies per point (21 ops before layering).
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
        runs: list[np.ndarray] = []  # per run: its (i0, i1) pairs
        heads: list[np.ndarray] = []  # fixed product before a run's first slot
        chains: list[list[list]] = []  # per run: [slot index, fixed product after it]
        prev = None
        for g in c.gates:
            tbit = 1 << (c.width - 1 - g.targets[0])
            cmask = sum(1 << (c.width - 1 - q) for q in g.controls)
            if (tbit, cmask) != prev:
                if (tbit, cmask) not in pair_of:
                    i0 = idx[((idx & tbit) == 0) & ((idx & cmask) == cmask)]
                    pair_of[tbit, cmask] = np.stack([i0, i0 | tbit])
                runs.append(pair_of[tbit, cmask])
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
        # A fixed run that is exactly X only swaps amplitudes, and one that
        # is exactly I does nothing: neither becomes an op.  The true state
        # is t[j] = stored[perm[j]]; an X run swaps perm at its pairs, and
        # every kept op addresses the stored pairs perm[pair].
        perm = idx.copy()
        self.pairs: list[np.ndarray] = []
        kept = []
        for pair, head, chain in zip(runs, heads, chains):
            if not chain and np.array_equal(head, _PAULI_X):
                perm[pair] = perm[pair[::-1]]
            elif chain or not np.array_equal(head, eye):
                self.pairs.append(perm[pair])
                kept.append((head, chain))
        heads, chains = [head for head, _ in kept], [chain for _, chain in kept]
        self.perm = None if np.array_equal(perm, idx) else perm
        self.slots = tuple(slot_of)
        # slots bound together: one group per xform, with the slot indices,
        # coordinates, scales and shifts of its members
        groups: dict[str, list[int]] = {}
        for i, (_, slot) in enumerate(self.slots):
            groups.setdefault(slot.xform, []).append(i)
        self.slot_groups = [
            (xform, np.array(idx),
             np.array([self.slots[i][1].coord for i in idx]),
             np.array([self.slots[i][1].scale for i in idx]),
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
        self.prefix = int(self.slotted[0]) if len(self.slotted) else len(self.pairs)
        self.stored: dict[int, np.ndarray] = {}
        # Each op joins the layer after the last layer that touches any of
        # its amplitudes, so a layer's members touch disjoint amplitudes and
        # commute, and overlapping ops keep their order.  The ops before
        # prefix and those from it on are scheduled apart: no layer crosses
        # prefix, and layer_at maps the op bounds 0, prefix and len(pairs)
        # to layer bounds.
        self.layer_of = np.empty(len(self.pairs), dtype=int)
        self.layer_at = {0: 0}
        for lo, hi in ((0, self.prefix), (self.prefix, len(self.pairs))):
            last = np.full(2**c.width, self.layer_at[lo] - 1)  # per amplitude
            for k in range(lo, hi):
                self.layer_of[k] = last[self.pairs[k]].max() + 1
                last[self.pairs[k]] = self.layer_of[k]
            self.layer_at[hi] = int(last.max()) + 1
        # the row of each slotted op's matrix in op_matrices, -1 for a fixed op
        row = np.full(len(self.pairs), -1)
        row[self.slotted] = np.arange(len(self.slotted))
        self.layers = [
            self._layer(ks[row[ks] < 0], ks[row[ks] >= 0], row)
            for ks in (np.flatnonzero(self.layer_of == layer)
                       for layer in range(self.layer_at[len(self.pairs)]))
        ]

    def _layer(self, fixed: np.ndarray, slotted: np.ndarray, row: np.ndarray) -> tuple:
        """One layer as two sub-applies, None where it has no such members:
        the fixed members' concatenated (i0, i1) pairs with the (2, 2, P, 1)
        coefficients of each pair (one (2, 2, 1, 1) matrix for a single
        member), and the slotted members' pairs with the row in
        ``op_matrices`` of each pair's matrix."""
        def joined(ks):  # the members' pairs, and the op of each pair
            return (np.concatenate([self.pairs[k] for k in ks], axis=1),
                    np.repeat(ks, [self.pairs[k].shape[1] for k in ks]))

        fixed_part = slotted_part = None
        if len(fixed):
            pair, op = joined(fixed)
            if len(fixed) == 1:
                coef = self.heads[fixed[0]][:, :, None, None]
            else:
                coef = np.ascontiguousarray(self.heads[op].transpose(1, 2, 0)[..., None])
            fixed_part = (pair, coef)
        if len(slotted):
            pair, op = joined(slotted)
            slotted_part = (pair, row[op])
        return fixed_part, slotted_part

    def prefix_states(self, starts: np.ndarray) -> np.ndarray:
        """The (2**width, N) states before op ``prefix`` from the basis
        states ``starts``, one column per start, taken from the store."""
        keys = starts.tolist()
        found = {s: self.stored.get(s) for s in keys}
        missing = [s for s, col in found.items() if col is None]
        if missing:
            cols = np.zeros((2**self.width, len(missing)), dtype=complex)
            cols[missing, np.arange(len(missing))] = 1.0
            _evolve(self, cols, None, 0, self.prefix)
            room = PREFIX_BYTES // cols[:, 0].nbytes - len(self.stored)
            for j, s in enumerate(missing):
                found[s] = cols[:, j].copy()
                if j < room:
                    self.stored[s] = found[s]
        return np.stack([found[s] for s in keys], axis=1)

    def op_matrices(self, x: Optional[np.ndarray]) -> np.ndarray:
        """The (len(slotted), N, 2, 2) matrices of the slotted ops, bound at
        each row of the (N, d) point array x."""
        if x is None:
            raise ValueError("circuit has unbound encoding slots; pass x")
        xs = np.asarray(x, dtype=float)
        half = np.empty((len(self.slots), len(xs)))
        for xform, idx, coords, scales, shifts in self.slot_groups:
            half[idx] = encoding_angles(xform, (xs[:, coords] * scales - shifts).T) / 2.0
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
    x: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The (N, 2**width) final amplitudes of a batch run, one row per point.

    ``x`` is an (N, d) point array, or None for a circuit without encoding
    slots, and ``start`` holds the N initial basis-state indices (default
    0); with neither it is a batch of one from |0..0>.  Each point starts
    from the program's stored state after its fixed prefix.  A plain
    circuit is compiled first.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    dim = 2**program.width
    xs = None if x is None else np.asarray(x, dtype=float)
    if xs is not None and xs.ndim != 2:
        raise ValueError("a batch takes an (N, d) point array")
    if start is None:
        starts = np.zeros(1 if xs is None else len(xs), dtype=int)
    else:
        starts = np.asarray(start)
    if xs is not None and len(xs) != len(starts):
        raise ValueError(f"{len(xs)} points but {len(starts)} start indices")
    if len(starts) and (starts.min() < 0 or starts.max() >= dim):
        raise ValueError(f"start indices must lie in [0, {dim})")
    amps = program.prefix_states(starts)
    _evolve(program, amps, xs, program.prefix, len(program.pairs))
    return _readout(program, amps).T


def _evolve(
    program: GateProgram, amps: np.ndarray, xs: Optional[np.ndarray], lo: int, hi: int
) -> None:
    """Apply ops lo..hi-1 of the program in place to the (2**width, N)
    amplitudes, column n with the encoding angles of point xs[n], one layer
    at a time.  lo and hi are op bounds that end a layer: 0, ``prefix`` or
    ``len(pairs)``."""
    # one point: the state and the coefficients drop their batch axis, so
    # numpy takes its fast 1-D fancy-index path
    tail = 0 if amps.shape[1] == 1 else slice(None)
    state = amps[:, tail]
    if hi > program.prefix:  # (2, 2, len(slotted), N), entry by entry
        mats = program.op_matrices(xs).transpose(2, 3, 0, 1)[..., tail]
    for fixed, slotted in program.layers[program.layer_at[lo]:program.layer_at[hi]]:
        if fixed is not None:
            _apply(state, fixed[0], fixed[1][..., tail])
        if slotted is not None:
            _apply(state, slotted[0], mats[:, :, slotted[1]])


def _apply(state: np.ndarray, pair: np.ndarray, coef: np.ndarray) -> None:
    """a0' = c00 a0 + c01 a1 and a1' = c10 a0 + c11 a1 at every amplitude
    pair (a0, a1) = state[pair], elementwise with the coefficients
    coef[:, :, p] of pair p."""
    a = state[pair]
    out = coef[:, 0] * a[0]
    out += coef[:, 1] * a[1]  # in place: one temporary of a's size fewer
    state[pair] = out


def _readout(program: GateProgram, amps: np.ndarray) -> np.ndarray:
    """The true final amplitudes of an evolved (2**width, N) array: gathered
    by ``perm``, each column's norm checked."""
    if program.perm is not None:  # the X runs, applied as one relabelling
        amps = amps[program.perm]
    norms = np.linalg.norm(amps, axis=0)
    if not np.all(np.abs(norms - 1.0) <= 1e-10):  # NaN fails too
        bad = norms[~(np.abs(norms - 1.0) <= 1e-10)]
        raise RuntimeError(f"simulation lost unitarity: norm {bad[0]}")
    return amps


# Bytes of state one batch run holds; larger batches run in chunks of points.
BATCH_BYTES = 1 << 19
# Bytes of prefix states one program stores: every start of the d=3, K=4
# Taylor series block (64 states of 2**13 amplitudes).
PREFIX_BYTES = 1 << 23


def hadamard_values(
    c: Circuit | GateProgram,
    x: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The complex values <psi|U|psi> that a Hadamard test (see
    hadamard_test_circuit) holds after each point of a batch run (see run).

    With a0 and a1 the halves of a final state where the ancilla, qubit 0,
    reads 0 and 1, the ancilla's <X> + i<Y> is 2 sum conj(a0) a1, so one
    run gives both parts.  With neither x nor start it is a batch of one
    from |0..0>.  The batch runs in chunks of points whose states fit in
    BATCH_BYTES.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    x = None if x is None else np.asarray(x, dtype=float)
    if x is None and start is None:
        start = np.zeros(1, dtype=int)
    n = len(x) if x is not None else len(start)
    rows = max(1, BATCH_BYTES // (np.dtype(complex).itemsize * 2**program.width))
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, rows):
        chunk = slice(lo, lo + rows)
        amps = run(
            program,
            x=None if x is None else x[chunk],
            start=None if start is None else start[chunk],
        )
        half = amps.shape[1] // 2
        out[chunk] = 2.0 * np.einsum("ij,ij->i", amps[:, :half].conj(), amps[:, half:])
    return out


def hadamard_test_circuit(u: Circuit, prep: Circuit) -> Circuit:
    """Composed circuit whose ancilla holds the block value <psi|U|psi>.

    A fresh ancilla is prepended as qubit 0; prep acts unconditionally on
    the work register, the ancilla is put in |+>, and u is applied
    controlled on the ancilla.  hadamard_values reads the value.
    """
    if u.width != prep.width:
        raise ValueError("u and prep must act on the same width")
    w = u.width + 1
    gates: list[Gate] = list(prep.shifted(1, w).gates)
    gates.append(h(0))
    gates.extend(u.shifted(1, w).controlled_on((0,)).gates)
    return Circuit(w, tuple(gates), label=f"hadamard_test {u.label}")


def sample_shots(
    c: Circuit | GateProgram,
    shots: int,
    seed: int,
    x: Optional[Sequence[float] | np.ndarray] = None,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the real part of a Hadamard test's value.

    Samples the ancilla's X measurement ``shots`` times with a seeded
    generator, reading -1 with probability (1 - Re v)/2 for the exact value
    v of hadamard_values at the point x; returns (estimate, standard error).
    Deterministic for a fixed seed.  ``x``, one point of shape (d,), binds
    the encoding slots.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    value = hadamard_values(c, None if x is None else np.asarray(x, dtype=float)[None])[0]
    p_one = (1.0 - value.real) / 2.0
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
            slot = g.slot
            parts.append(f"enc={slot.xform}:{slot.coord}:{slot.shift!r}:{slot.scale!r}")
        if g.trainable:
            parts.append("train")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(lines) < 2 or len(head) != 2 or head[0] != "width" or not lines[1].startswith("label"):
        raise ValueError("malformed circuit text: expected width/label header")
    width = int(head[1])
    label = lines[1][len("label") :].strip()
    gates = []
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) < 2:
            raise ValueError(f"gate line {ln!r} has no targets")
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
                # xform:coord:shift:scale; a token without the scale has scale 1
                fields = tok[4:].split(":")
                if len(fields) not in (3, 4):
                    raise ValueError(f"encoding token {tok!r} is not xform:coord:shift:scale")
                xform, coord, *affine = fields
                slot = EncodingSlot(int(coord), xform, *map(float, affine))
            elif tok == "train":
                trainable = True
            else:
                raise ValueError(f"unknown token {tok!r} in circuit text")
        gates.append(Gate(kind, targets, controls, angle, trainable, sub, slot))
    return Circuit(width, tuple(gates), label)
