"""Exact statevector simulation, Hadamard-test readout, and resource counts.

Qubit 0 is the most significant bit of the basis-state index.  Circuits are
ordered gate lists; a gate is a single-qubit kind on one target, acting
where each of its controls reads 1 and each of its zero-controls reads 0
(either set may be empty), so a gate runs under one value of a register
with no X's around it.  It carries a concrete angle or an encoding slot
that is bound to a data point before simulation.  ``GateProgram`` compiles
a circuit once, so each run only binds the slots.  Controlled gates are
native simulator primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

MAX_WIDTH = 24
ENCODING_SLACK = 1e-9  # how far past [-1, 1] an acos argument may lie; it is clipped

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


def encoding_angles(xform: str, u: np.ndarray) -> np.ndarray:
    """Angles of an encoding transform at arguments u = scale*x[coord] - shift.

    The acos range check is one reduction, and the offending argument is
    looked up only when it fails.  An argument within the slack past
    [-1, 1] is clipped; the clip moves no argument inside [-1, 1], so it
    runs only when one lies in the slack."""
    if xform == "acos":
        edge = np.maximum.reduce(np.abs(u), axis=None, initial=0.0)
        if not edge <= 1.0 + ENCODING_SLACK:  # NaN fails this too
            bad = u[~(np.abs(u) <= 1.0 + ENCODING_SLACK)][0]
            raise ValueError(f"encoding argument {bad} outside [-1, 1]")
        if edge > 1.0:
            u = np.minimum(np.maximum(u, -1.0), 1.0)
        return -2.0 * np.arccos(u)
    if xform == "zrot":
        ok = np.isfinite(u)
        if not ok.all():
            raise ValueError(f"encoding argument {u[~ok][0]} is not finite")
        return -u
    raise ValueError(f"unknown encoding xform {xform!r}")


@dataclass(frozen=True)
class Gate:
    """A single-qubit gate on ``target``, applied where every qubit in
    ``controls`` reads 1 and every qubit in ``zeros`` reads 0; a rotation
    carries an angle or an encoding slot."""

    kind: str
    target: int
    controls: tuple[int, ...] = ()
    angle: Optional[float] = None
    trainable: bool = False
    slot: Optional[EncodingSlot] = None
    zeros: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _SINGLE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("target, controls and zeros must be distinct qubits")
        if self.kind in _ROTATIONS:
            if self.angle is None and self.slot is None:
                raise ValueError(f"{self.kind} needs an angle or an encoding slot")
            if self.angle is not None and not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} angle {self.angle} is not finite")
        elif self.angle is not None or self.slot is not None:
            raise ValueError(f"{self.kind} does not take an angle")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,) + self.controls + self.zeros

    def bound(self, x: Sequence[float]) -> "Gate":
        if self.slot is None:
            return self
        u = np.array([float(x[self.slot.coord]) * self.slot.scale - self.slot.shift])
        return replace(self, angle=float(encoding_angles(self.slot.xform, u)[0]), slot=None)


def h(q: int) -> Gate:
    return Gate("H", q)


def xg(q: int) -> Gate:
    return Gate("X", q)


def zg(q: int) -> Gate:
    return Gate("Z", q)


def rz(q: int, angle: float, trainable: bool = False) -> Gate:
    return Gate("Rz", q, angle=angle, trainable=trainable)


def encoding_gate(q: int, slot: EncodingSlot) -> Gate:
    kind = "Rx" if slot.xform == "acos" else "Rz"
    return Gate(kind, q, slot=slot)


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        for g in self.gates:
            qs = g.qubits
            if min(qs) < 0 or max(qs) >= self.width:
                raise ValueError(f"gate {g.kind} addresses qubits outside width {self.width}")
        object.__setattr__(self, "gates", tuple(self.gates))

    def bound(self, x: Optional[Sequence[float]]) -> "Circuit":
        """Substitute data point x into every encoding slot."""
        if x is None:
            if any(g.slot is not None for g in self.gates):
                raise ValueError("circuit has unbound encoding slots; pass x")
            return self
        return Circuit(self.width, tuple(g.bound(x) for g in self.gates), self.label)


def _composed(width: int, parts: Sequence[tuple[Circuit, int, Sequence[int], Sequence[int]]],
              label: str) -> Circuit:
    """The width-qubit circuit that runs each (circuit, offset, controls,
    zeros) part in turn: every gate copied once, its target shifted by
    offset, its controls the sorted union of its shifted controls and
    ``controls`` and its zeros likewise with ``zeros``.  Each placement is
    checked once: the part fits in the register, and the added controls and
    zeros are distinct register qubits off it.  The parts' gates were
    checked when their circuits were built, so no copy is."""
    gates: list[Gate] = []
    set_field = object.__setattr__  # bypasses the frozen dataclasses' guard
    for c, offset, ones, zeros in parts:
        ones, zeros = tuple(ones), tuple(zeros)
        extra = ones + zeros
        if offset < 0 or offset + c.width > width:
            raise ValueError(
                f"a {c.width}-qubit part at offset {offset} does not fit width {width}")
        if len(set(extra)) != len(extra):
            raise ValueError(f"repeated control in {extra}")
        for q in extra:
            if not 0 <= q < width or offset <= q < offset + c.width:
                where = "on a placed qubit" if 0 <= q < width else f"outside width {width}"
                raise ValueError(f"control {q} lies {where}")
        if not offset and not extra:  # unmoved: the gates themselves
            gates += c.gates
            continue
        shifted: dict[tuple, tuple] = {}  # each (controls, zeros) pair once
        for g in c.gates:
            key = g.controls, g.zeros
            if key not in shifted:
                shifted[key] = (tuple(sorted(ones + tuple(q + offset for q in g.controls))),
                                tuple(sorted(zeros + tuple(q + offset for q in g.zeros))))
            copy = object.__new__(Gate)  # field by field: no __post_init__, compact layout
            set_field(copy, "kind", g.kind)
            set_field(copy, "target", g.target + offset)
            set_field(copy, "controls", shifted[key][0])
            set_field(copy, "angle", g.angle)
            set_field(copy, "trainable", g.trainable)
            set_field(copy, "slot", g.slot)
            set_field(copy, "zeros", shifted[key][1])
            gates.append(copy)
    out = object.__new__(Circuit)  # no Circuit.__post_init__
    vars(out).update(width=width, gates=tuple(gates), label=label)
    return out


_FIXED = {"H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
          "X": np.array([[0, 1], [1, 0]], dtype=complex),
          "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
for _m in _FIXED.values():
    _m.flags.writeable = False  # shared by every H, X and Z


def gate_matrix_1q(kind: str, angle: Optional[float] = None) -> np.ndarray:
    if kind in _FIXED:
        return _FIXED[kind]
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
# entry (i, j) of a 2x2 op sits at 2i + j of its four (see GateProgram._coefficients)
_ENTRIES = np.arange(4).reshape(2, 2, 1)


class FinalStates(NamedTuple):
    """A batch run's final states on the simulated register: the sorted
    indices ``support`` there that a point's amplitudes can reach, the
    (len(support), N) states, one column per point (a lone point's
    (len(support),) state), and per group of points whose starts share a
    support, their columns and the (2, M) positions in ``support`` of the
    readout pairs (qubit 0 reading 0, then 1) with both ends on theirs."""

    support: np.ndarray
    states: np.ndarray
    readout: list[tuple[int | slice | np.ndarray, np.ndarray]]


class GateProgram:
    """A circuit compiled once; running it at x only binds encoding angles.

    Every maximal run of consecutive gates on one target under one control
    set becomes a single op: a 2x2 matrix applied to the amplitude pairs
    ``(i0, i1)`` that differ in the target bit, with every control bit set
    and every zero-control bit clear, except that a run splits where a
    second slot block would begin.  So an op holds fixed gates, then at
    most one block of consecutive gates of one encoding slot and one
    rotation kind, then more fixed gates.  Every SELECT op (Bernstein,
    series, poly and localization blocks) is one slot block, so none
    splits; a QSP or trig line splits into one op per encoding gate.  The
    fixed gates of an op are multiplied together here: ``heads`` holds the
    product H before its slot block, and a fixed run whose product is
    exactly I is dropped.  An op without encoding slots is fixed: its
    ``heads`` matrix serves every point.  ``chains`` holds, per op in
    ``slotted``, its slot, its rotation kind, its slot count m and the
    fixed product A after its block.  Such an op is A R(t)^m H =
    cos(mt/2) AH + sin(mt/2) AGH, so it takes one cosine and one sine row
    of the block table (see _compile_tables), and ``_coefficients`` (of
    which ``op_matrices`` is a view) binds every slotted op with one affine
    map of the point per table row (none where every map is the identity,
    ``affine``), one table of their cosines and sines and one product.
    ``width`` and ``gates`` are those of the source circuit, and ``coords``
    is the number of point coordinates its slots read.

    ``prefix`` is the number of fixed ops before the first slotted op,
    which run once per start.  Every construction in the package places its
    fixed ops there, so its points run only slotted ops; a fixed op after
    the first slotted op, as a hand-written circuit may hold, runs at every
    point.

    A qubit is classical (the bits ``classical``) when no op targets it, no
    op from ``prefix`` on reads it, and it is not qubit 0, which the
    Hadamard test reads out.  Its bit keeps its start value, so an op whose
    controls or zero-controls on it disagree with that value does nothing
    there: an LCU prep controlled on one address value acts on no other
    (Childs and Wiebe, arXiv:1202.5822).  The other qubits, ``qubits``,
    make up the simulated register, qubit 0 its most significant bit.
    ``pairs`` keep circuit order and lie on that register.  ``patterns``
    holds each op's classical controls and zero-controls and the value they
    select (both 0 from ``prefix`` on), and ``branches`` the prefix ops by
    that pattern, so a start runs only the prefix ops that match its
    classical bits, with no compile of its own.  Bernstein, localization,
    poly and trig programs have no classical qubit.

    The ops from ``prefix`` on run at every point, op k with row
    k - prefix of ``op_matrices``.  Ops that touch disjoint amplitudes
    commute, so they run as one layer (``layers``: the members' pairs and
    the row of each pair's op): one gather, an elementwise 2x2 update and
    one scatter.  Each pair sees the products of running the ops one by
    one, in the same order, so every value is bit-identical to that.

    ``targeted`` is the bit mask of the simulated qubits that the ops from
    ``prefix`` on target.  They change no other qubit, so an amplitude
    whose other bits (``conserved``) match no nonzero amplitude of the
    state after the prefix stays exactly 0, and a start's support is every
    index whose conserved bits do.  ``stored``, keyed by start index, holds
    each start's support, its state after the prefix there and the bytes of
    its support's boolean mask, and ``schedules``, keyed by the masks of a
    batch's starts, the union of those supports, the layers' pairs on it
    and each support's readout pairs there.  Each holds at most
    PREFIX_BYTES.

    On the Hadamard test of the d=2, n=4 Bernstein block this leaves 19 ops
    of 31 gates on 9 simulated qubits: 11 in the prefix, and 8 from it on
    in 2 layers of 128 pairs, of which a point from start 0 updates 8 on a
    support of 48 of 512 amplitudes and reads 24 pairs.  The d=2, K=4, s=1
    Taylor series block, which starts from one of K^d cells, leaves 56 ops
    of 64 gates.  Its 4 address qubits are classical, so it simulates 5
    qubits: a start runs the 6 to 9 of the 54 prefix ops that match its
    address, and its 2 slotted ops run in 1 layer of 4 pairs on a support
    of 24 or 32 amplitudes.  A QSP line of L angles leaves its two H's in
    the prefix and L slotted ops in L layers, bound from a 2-row table.

    The compile checks no gate (the circuit checked its gates, or its
    placements, when it was built), and masks each (target, controls,
    zeros) once.  The pairs of an op are those of its target under all-ones
    controls on the union of its simulated controls and zero-controls,
    found once per such (target, union), with the zero-control bits
    cleared.
    """

    def __init__(self, c: Circuit):
        if c.width > MAX_WIDTH:
            raise ValueError(f"width {c.width} exceeds the {MAX_WIDTH}-qubit cap")
        self.width = c.width
        self.gates = c.gates
        eye = np.eye(2, dtype=complex)
        masks: dict[tuple, tuple[int, int, int]] = {}  # (target, controls, zeros) -> bits
        keys: list[tuple[int, int, int]] = []  # per op: its bits
        runs: list[list] = []  # per op: H, its slot block [slot, kind, m] or None, A
        for g in c.gates:
            key = masks.get((g.target, g.controls, g.zeros))
            if key is None:  # (target bit, control and zero-control bits, zero-control bits)
                bits = [sum(1 << (c.width - 1 - q) for q in qs) for qs in (g.qubits[1:], g.zeros)]
                key = masks[g.target, g.controls, g.zeros] = (1 << (c.width - 1 - g.target), *bits)
            op = runs[-1] if keys and key == keys[-1] else None
            # A is eye until a fixed gate follows the op's slot block
            if g.slot is not None and op and op[1] and op[2] is eye and op[1][:2] == [g.slot, g.kind]:
                op[1][2] += 1
                continue
            if op is None or (g.slot is not None and op[1]):  # a new run, or a second slot block
                keys.append(key)
                op = [eye, None, eye]
                runs.append(op)
            if g.slot is not None:
                op[1] = [g.slot, g.kind, 1]
            else:
                at = 2 if op[1] else 0
                op[at] = gate_matrix_1q(g.kind, g.angle) @ op[at]
        # a fixed run that is exactly I does nothing, so it is no op
        kept = [k for k, (head, block, _) in enumerate(runs) if block or not np.array_equal(head, eye)]
        keys, runs = [keys[k] for k in kept], [runs[k] for k in kept]
        self.prefix = next((p for p, op in enumerate(runs) if op[1]), len(runs))
        busy = 1 << c.width >> 1  # qubit 0, which the readout reads
        for p, (tbit, cbits, _) in enumerate(keys):
            busy |= tbit | (cbits if p >= self.prefix else 0)
        self.classical = (1 << c.width) - 1 & ~busy
        self.qubits = [q for q in range(c.width) if busy >> (c.width - 1 - q) & 1]
        size = len(self.qubits)
        places = [(1 << (c.width - 1 - q), 1 << (size - 1 - i)) for i, q in enumerate(self.qubits)]
        idx = np.arange(1 << size)
        pair_of: dict[tuple[int, int, int], np.ndarray] = {}  # bits off the classical qubits -> pairs
        ones: dict[tuple[int, int], np.ndarray] = {}  # simulated (target, control) bits -> pairs
        self.pairs: list[np.ndarray] = []
        self.patterns: list[tuple[int, int]] = []
        self.branches: dict[int, dict[int, list[int]]] = {}  # the prefix ops by pattern
        for p, (tbit, cbits, zbits) in enumerate(keys):
            held = cbits & self.classical
            self.patterns.append((held, held & ~zbits))
            if p < self.prefix:
                self.branches.setdefault(held, {}).setdefault(self.patterns[-1][1], []).append(p)
            own = (tbit, cbits & ~held, zbits & ~held)
            if own not in pair_of:
                t, cm, zm = (sum(s for f, s in places if bits & f) for bits in own)
                if (t, cm) not in ones:  # the pairs with every control and zero-control bit set
                    i0 = idx[(idx & (t | cm)) == cm]
                    ones[t, cm] = np.stack([i0, i0 | t])
                pair_of[own] = ones[t, cm] ^ zm if zm else ones[t, cm]  # zero-control bits cleared
            self.pairs.append(pair_of[own])
        # Every op from prefix on joins the layer after the last layer that
        # touches any of its amplitudes, so a layer's members touch disjoint
        # amplitudes and commute, and overlapping ops keep their order.
        layer_of = []
        last = np.full(1 << size, -1)  # per amplitude: its last op's layer
        for pair in self.pairs[self.prefix:]:
            layer = int(last[pair].max()) + 1
            layer_of.append(layer)
            last[pair] = layer
        self.heads = np.array([op[0] for op in runs], dtype=complex).reshape(len(runs), 2, 2)
        self.slotted = np.array([p for p, op in enumerate(runs) if op[1]], dtype=int)
        self.chains = [(*runs[p][1], runs[p][2]) for p in self.slotted]
        self.coords = 1 + max((slot.coord for slot, *_ in self.chains), default=-1)
        layer_of = np.array(layer_of, dtype=int)
        ops = self.pairs[self.prefix:]
        self.layers = [  # the members' pairs, and the row of each pair's op
            (np.concatenate([ops[r] for r in rows], axis=1),
             np.repeat(rows, [ops[r].shape[1] for r in rows]))
            for rows in (np.flatnonzero(layer_of == layer) for layer in range(last.max() + 1))
        ]
        # each op's target bit: a pair differs in it alone
        self.targeted = sum({int(pair[0, 0] ^ pair[1, 0]) for pair in ops})
        self.conserved = idx & ~self.targeted
        self.stored: dict[int, tuple[np.ndarray, np.ndarray, bytes]] = {}
        self.schedules: dict[tuple[bytes, ...], tuple] = {}
        self._held = [0, 0]  # bytes in stored and in schedules
        self._compile_tables()
        # bytes per point of a chunk in hadamard_values: its state on the
        # simulated register, or its row of the block table's cosines and sines
        self.row_bytes = max(np.dtype(complex).itemsize << size, self.row_half.nbytes)

    def _compile_tables(self) -> None:
        """Compile the slotted ops into the block table that op_matrices
        binds.  Slotted op p, A R(t)^m H with R(t) = cos(t/2) I + sin(t/2) G
        and t its slot's angle, is cos(mt/2) AH + sin(mt/2) AGH, since G^2
        = -I makes R(t)^m = R(mt).  So every distinct (slot, m) holds one
        cosine row and one sine row, every cosine row first and the slots
        sorted by xform: row r takes cos or sin of row_half[r] = m/2 times
        the angle of its slot, and column 8p + e holds entry e of op p in
        its two rows, real and imaginary parts interleaved.  Each row holds
        its slot's affine map (``row_coords``, ``row_scales``,
        ``row_shifts``), and ``xforms`` each xform's rows (every row for one
        xform)."""
        rows = sorted(dict.fromkeys((slot, m) for slot, _, m, _ in self.chains),
                      key=lambda row: row[0].xform)  # stable: each xform's rows in order
        self.cosines = len(rows)
        at = {row: r for r, row in enumerate(rows)}
        afters = np.array([after for *_, after in self.chains]).reshape(-1, 2, 2)
        gens = np.array([_GENERATORS[kind] for _, kind, _, _ in self.chains]).reshape(-1, 2, 2)
        heads = self.heads[self.slotted]
        row = [at[slot, m] for slot, _, m, _ in self.chains]
        table = np.zeros((2, len(rows), len(row), 2, 2), dtype=complex)
        table[:, row, range(len(row))] = afters @ heads, afters @ gens @ heads
        self.table = np.stack([table.real, table.imag], axis=-1).reshape(2 * len(rows), 8 * len(row))
        self.row_half = np.array([m for _, m in rows] * 2) / 2.0
        row_slots = [slot for slot, _ in rows] * 2
        self.row_coords = np.array([slot.coord for slot in row_slots], dtype=int)
        self.row_scales = np.array([slot.scale for slot in row_slots])
        self.row_shifts = np.array([slot.shift for slot in row_slots])
        # whether a row's map moves x: x * 1.0 and x - (+0.0) are x, bit for
        # bit, so the identity map is skipped (a -0.0 shift turns -0.0 to +0.0)
        self.affine = bool((self.row_scales != 1.0).any()
                           or self.row_shifts.tobytes() != bytes(self.row_shifts.nbytes))
        xforms = np.array([slot.xform for slot in row_slots])
        # None, which _coefficients encodes whole with no gather or scatter,
        # when one xform has every row
        self.xforms = [(xf, np.flatnonzero(xforms == xf) if len(set(xforms)) > 1 else None)
                       for xf in dict.fromkeys(xforms.tolist())]

    def prefix_states(self, keys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, bytes]]:
        """The state after the prefix from each distinct start index in
        ``keys``: its support on the simulated register, the state there and
        the bytes of its support's boolean mask.  A start not stored yet
        runs the prefix ops that match its classical bits (``branches``)
        and is stored while the store holds at most PREFIX_BYTES.  A start
        outside [0, 2**width) raises ValueError."""
        found = [self.stored.get(s) for s in keys.tolist()]
        missing = [j for j, entry in enumerate(found) if entry is None]
        if missing:  # a stored start was checked when it was stored
            new = keys[missing]
            dim = 1 << self.width
            if not (new.min() >= 0 and new.max() < dim):
                raise ValueError(f"start indices must lie in [0, {dim})")
            states = self._run_prefix(new)
            # the conserved values that carry mass, and the support they span
            marks = np.zeros(states.T.shape, dtype=bool)
            amps, cols = np.nonzero(states)
            marks[cols, self.conserved[amps]] = True
            for j, s, state, mask in zip(missing, new.tolist(), states.T, marks[:, self.conserved]):
                support = np.flatnonzero(mask)
                found[j] = entry = (support, state[support], mask.tobytes())
                size = support.nbytes + entry[1].nbytes
                if self._held[0] + size <= PREFIX_BYTES:
                    self.stored[s] = entry
                    self._held[0] += size
        return found

    def _run_prefix(self, starts: np.ndarray) -> np.ndarray:
        """The (2**len(qubits), len(starts)) states after the prefix from
        the distinct start indices, one column each: each prefix op in
        circuit order on the columns whose classical bits match its
        pattern."""
        at = np.zeros(len(starts), dtype=int)  # each start's index on the simulated register
        for i, q in enumerate(reversed(self.qubits)):
            at |= (starts >> (self.width - 1 - q) & 1) << i
        states = np.zeros((1 << len(self.qubits), len(starts)), dtype=complex)
        states[at, np.arange(len(starts))] = 1.0
        todo = []  # (op, the columns it acts on)
        for held, ops in self.branches.items():
            cols: dict[int, list[int]] = {}
            for j, value in enumerate((starts & held).tolist()):
                cols.setdefault(value, []).append(j)
            for value, where in cols.items():
                todo += [(k, where) for k in ops.get(value, ())]
        todo.sort(key=lambda op: op[0])
        for k, cols in todo:
            pair, head = self.pairs[k], self.heads[k]
            if len(cols) == 1:  # a view: no gather
                _apply(states[:, cols[0]], pair, head[:, :, None])
            else:
                part = states[:, cols]
                _apply(part, pair, head[:, :, None, None])
                states[:, cols] = part
        return states

    def schedule(self, supports: tuple[bytes, ...]) -> tuple:
        """For the support masks of a batch's starts, given as bytes: the
        sorted indices of their union, each layer's pairs that lie there as
        positions on it with the (2, 2, P) columns of ``_coefficients`` that
        hold each pair's op entries, and per support the (2, M) positions
        there of its readout pairs, both ends on it."""
        entry = self.schedules.get(supports)
        if entry is None:
            masks = [np.frombuffer(m, dtype=bool) for m in supports]
            union = np.logical_or.reduce(masks)
            support = np.flatnonzero(union)
            at = np.full(len(union), -1)  # each amplitude's position on the support
            at[support] = np.arange(len(support))
            layers = []
            for pair, rows in self.layers:
                pos = at[pair]
                on = pos[0] >= 0  # a pair lies on the support or off it whole
                if on.any():
                    layers.append((pos[:, on], 4 * rows[on] + _ENTRIES))
            half = len(union) // 2  # where qubit 0 reads 0, then 1
            readouts = [at[np.stack([lo, lo + half])] for lo in
                        (np.flatnonzero(m[:half] & m[half:2 * half]) for m in masks)]
            entry = support, layers, readouts
            size = (support.nbytes + sum(r.nbytes for r in readouts)
                    + sum(pair.nbytes + cols.nbytes for pair, cols in layers))
            if self._held[1] + size <= PREFIX_BYTES:
                self.schedules[supports] = entry
                self._held[1] += size
        return entry

    def op_matrices(self, x: Optional[np.ndarray]) -> np.ndarray:
        """The (len(pairs) - prefix, N, 2, 2) matrices of the ops from
        ``prefix`` on, op k in row k - prefix, at each row of the (N, d)
        point array x: a fixed op's ``heads`` matrix, and the slotted ops'
        (N, 1, K) table of cos(mt/2) and sin(mt/2) times the block table.
        A view of ``_coefficients``, which ``run`` reads."""
        coef = self._coefficients(x)
        return coef.reshape(len(coef), len(self.pairs) - self.prefix, 2, 2).swapaxes(0, 1)

    def _coefficients(self, x: Optional[np.ndarray]) -> np.ndarray:
        """The entries of ``op_matrices`` per point: an (N, 4 (len(pairs) -
        prefix)) array whose column 4 (k - prefix) + 2i + j holds entry
        (i, j) of op k, so a layer gathers its pairs' entries with one index
        (``schedule``)."""
        if x is None:
            raise ValueError("circuit has unbound encoding slots; pass x")
        xs = np.asarray(x, dtype=float)
        # per point and row, u = scale x[coord] - shift, in C order (take's
        # own): a gather in F order makes the stacked product below round a
        # point differently alone and in a batch
        u = xs.take(self.row_coords, axis=1)
        if self.affine:
            u *= self.row_scales
            u -= self.row_shifts
        for xform, rows in self.xforms:
            if rows is None:  # every row, with no gather or scatter
                u = encoding_angles(xform, u)
            else:
                u[:, rows] = encoding_angles(xform, u[:, rows])
        half = np.multiply(u, self.row_half, out=u)  # mt/2 per row
        cos, sin = half[:, :self.cosines], half[:, self.cosines:]
        np.cos(cos, out=cos)
        np.sin(sin, out=sin)
        # stacked, so a point's row is the same product alone or in a batch
        parts = (half[:, None] @ self.table).view(complex)[:, 0]
        if len(self.slotted) == len(self.pairs) - self.prefix:  # no fixed row to copy
            return parts
        ops = len(self.pairs) - self.prefix
        mats = np.empty((len(xs), ops, 4), dtype=complex)
        mats[:] = self.heads[self.prefix:].reshape(ops, 4)  # the slotted rows are bound below
        mats[:, self.slotted - self.prefix] = parts.reshape(len(xs), len(self.chains), 4)
        return mats.reshape(len(xs), 4 * ops)


def run(
    c: Circuit | GateProgram,
    x: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> FinalStates:
    """The final states of a batch run, as one group on the simulated
    register (see GateProgram and FinalStates).

    ``x`` is an (N, d) point array, or None for a circuit without encoding
    slots, and ``start`` holds the N initial basis-state indices (default
    0); with neither it is a batch of one from |0..0>.  Each point starts
    from its start's state after the prefix, on the union of the supports
    of the batch's starts, and every amplitude off its own start's support
    is exactly 0.  A final state whose norm is off 1 by more than 1e-10
    raises.  A plain circuit is compiled first.

    One point or many take the same calls: ``_batch`` checks x and start
    once, the coefficients of every op are bound in one
    ``GateProgram._coefficients`` call, and each layer gathers its pairs'
    entries with the one index that ``schedule`` stored.  A batch of one
    has one start, which is its own group (no set, no sort); its state and
    coefficients drop the point axis, so numpy takes its 1-D fancy-index
    path, and its norm is a Python float.  The arithmetic is the same, so
    a point gives the same bits alone and in a batch.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    xs, starts, size = _batch(program, x, start)
    if starts is None or not size:  # an empty batch runs as from start 0
        keys = np.zeros(1, dtype=int)
    elif size == 1:
        keys = starts
    else:
        keys, inverse = np.unique(starts, return_inverse=True)
    entries = program.prefix_states(keys)  # checks the start indices
    # one start is one group, with no set to build or sort
    groups = [entries[0][2]] if len(entries) == 1 else sorted({mask for _, _, mask in entries})
    support, layers, readouts = program.schedule(tuple(groups))
    if len(keys) == 1:  # its support is the union
        block = entries[0][1].copy() if size == 1 else entries[0][1][:, None].repeat(size, axis=1)
    else:  # each start's state scattered onto the register, the union gathered
        full = np.zeros((len(keys), 1 << len(program.qubits)), dtype=complex)
        full[np.repeat(np.arange(len(keys)), [len(s) for s, _, _ in entries]),
             np.concatenate([s for s, _, _ in entries])] = np.concatenate([a for _, a, _ in entries])
        block = full[:, support].T[:, inverse]
    if program.layers:  # the op entries by column, then point
        coef = program._coefficients(xs)
        coef = coef[0] if size == 1 else coef.T
        for pair, cols in layers:  # each (2, 2, P[, N]) gather of entries is one index
            _apply(block, pair, coef[cols])
    if size == 1:  # a Python float, without numpy's dispatch
        norm = math.sqrt(np.vdot(block, block).real)
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
            raise RuntimeError(f"simulation lost unitarity: norm {norm}")
    else:  # np.linalg.norm's own sum, without its dispatch
        norms = np.sqrt(np.add.reduce((block.conj() * block).real, axis=0))
        ok = np.abs(norms - 1.0) <= 1e-10
        if not ok.all():
            raise RuntimeError(f"simulation lost unitarity: norm {norms[~ok][0]}")
    if len(groups) == 1:
        readout = [(0 if size == 1 else slice(None), readouts[0])]
    else:  # the points of each start support
        group = np.array([groups.index(mask) for _, _, mask in entries])[inverse]
        readout = [(np.flatnonzero(group == g), r) for g, r in enumerate(readouts)]
    return FinalStates(support, block, readout)


def _batch(program: GateProgram, x: Optional[np.ndarray],
           start: Optional[np.ndarray]) -> tuple[Optional[np.ndarray], Optional[np.ndarray], int]:
    """x as an (N, d) float array, ``start`` as N integer indices (each
    None if not given) and N.  Another shape, too few coordinates for the
    slots (``GateProgram.coords``) or N mismatched starts raise ValueError."""
    xs = None if x is None else np.asarray(x, dtype=float)
    if xs is not None and xs.ndim != 2:
        raise ValueError("a batch takes an (N, d) point array")
    if xs is not None and xs.shape[1] < program.coords:
        raise ValueError(
            f"the circuit reads {program.coords} coordinates, but the point has {xs.shape[1]}")
    starts = None if start is None else np.asarray(start)
    if starts is not None and (starts.ndim != 1 or (starts.dtype.kind not in "iu" and starts.size)):
        raise ValueError(f"start takes a 1-D array of integer basis-state indices,"
                         f" got {starts.dtype} of shape {starts.shape}")
    size = len(xs) if xs is not None else 1 if starts is None else len(starts)
    if starts is not None and len(starts) != size:
        raise ValueError(f"{size} points but {len(starts)} start indices")
    return xs, starts, size


def _apply(state: np.ndarray, pair: np.ndarray, coef: np.ndarray) -> None:
    """a0' = c00 a0 + c01 a1 and a1' = c10 a0 + c11 a1 at every amplitude
    pair (a0, a1) = state[pair], elementwise with the coefficients
    coef[:, :, p] of pair p."""
    terms = coef * state[pair]  # c_ij a_j, every product in one call
    state[pair] = terms[:, 0] + terms[:, 1]


# Bytes of per-point working arrays per chunk of points: the states and
# table rows of hadamard_values, the baby- and giant-step exponentials of
# circuits.localization_values and the recurrence tables of poly._chebval.
# Each reads it at call time.  Smaller chunks pay the per-chunk numpy calls
# more often, larger ones fall out of the core's cache: on 4,900 points of
# the K=8 sign series (892 coefficients) _chebval budgets of 2^16, 2^18,
# 2^19, 2^21 and 2^23 bytes took 8.1, 3.1, 2.2, 3.0 and 3.7 ms (best of 9,
# one BLAS thread, a 2-vCPU Xeon).
BATCH_BYTES = 1 << 19
# Bytes of the states after the prefix, and of the schedules, that one
# program stores: every start of the d=4, K=8 Taylor series block takes
# 4 KiB, start 0 of the d=3, n=16 Bernstein test 8 MiB.
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
    run gives both parts.  A point takes one np.vdot over its start's
    readout pairs (``FinalStates.readout``), since a pair with one end off
    its support adds exactly 0; it reads them as contiguous vectors, so a
    point reads the same bits alone, in a batch and in any chunking.
    With neither x nor start it is a batch of one from |0..0>.  The batch
    runs in chunks of points whose states, and whose rows of the block
    table, fit in BATCH_BYTES (``GateProgram.row_bytes`` per point), in
    order of start, so a start's prefix runs in few chunks.  One chunk,
    which a lone point always is, goes to run as it came and is checked by
    run alone; an array's batch size is read off its shape.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    rows = max(1, BATCH_BYTES // program.row_bytes)
    given = start if x is None else x
    shape = given.shape if isinstance(given, np.ndarray) else np.shape(given)
    if (shape[0] if shape else 1) <= rows:
        return _ancilla_values(run(program, x=x, start=start))
    xs, starts, size = _batch(program, x, start)  # before chunking, as run words it
    order = np.arange(size) if starts is None else np.argsort(starts, kind="stable")
    out = np.empty(size, dtype=complex)
    for lo in range(0, size, rows):
        chunk = order[lo:lo + rows]
        out[chunk] = _ancilla_values(run(
            program,
            x=None if xs is None else xs[chunk],
            start=None if starts is None else starts[chunk],
        ))
    return out


def _ancilla_values(final: FinalStates) -> np.ndarray:
    """2 <a0|a1> of each point of a run, over its readout pairs."""
    states = final.states
    if states.ndim == 1:  # both ends in one gather, each row contiguous
        a0, a1 = states[final.readout[0][1]]
        return np.array([2.0 * np.vdot(a0, a1)])
    out = np.empty(states.shape[1], dtype=complex)
    for cols, (a0, a1) in final.readout:  # one contiguous row per point
        out[cols] = list(map(np.vdot, states[a0][:, cols].T.copy(), states[a1][:, cols].T.copy()))
    out *= 2.0
    return out


def hadamard_test_circuit(u: Circuit, prep: Circuit) -> Circuit:
    """Composed circuit whose ancilla holds the block value <psi|U|psi>.

    A fresh ancilla is prepended as qubit 0; prep acts unconditionally on
    the work register, the ancilla is put in |+>, and u is applied
    controlled on the ancilla.  hadamard_values reads the value.
    """
    if u.width != prep.width:
        raise ValueError("u and prep must act on the same width")
    parts = [(prep, 1, (), ()), (Circuit(1, (h(0),)), 0, (), ()), (u, 1, (0,), ())]
    return _composed(u.width + 1, parts, f"hadamard_test {u.label}")


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
    The count k of -1 readings is one binomial draw, so memory does not
    grow with N = ``shots``: the estimate is m = 1 - 2k/N and its standard
    error sqrt((1 - m^2)/(N - 1)).  Deterministic for a fixed seed.  ``x``,
    one point of shape (d,), binds the encoding slots.
    """
    if not 1 <= shots <= np.iinfo(np.int64).max:
        raise ValueError(f"shots must lie in [1, 2**63 - 1], got {shots}")
    value = hadamard_values(c, None if x is None else np.asarray(x, dtype=float)[None])[0]
    p_one = min(max((1.0 - value.real) / 2.0, 0.0), 1.0)
    ones = int(np.random.default_rng(seed).binomial(shots, p_one))
    estimate = 1.0 - 2.0 * ones / shots
    stderr = math.sqrt((1.0 - estimate**2) / (shots - 1)) if shots > 1 else 0.0
    return estimate, stderr


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

    def to_dict(self) -> dict:
        """The JSON keys of the counts, as reports and ``build`` print them."""
        return {"width": self.width, "depth": self.depth,
                "params": self.trainable_params, "gates": self.gate_total}


def resource_count(c: Circuit) -> ResourceCount:
    """Width, greedy-ASAP depth, trainable-parameter and gate tallies."""
    level = [0] * c.width
    depth = 0
    params = 0
    for g in c.gates:
        qs = g.qubits
        layer = 1 + max(map(level.__getitem__, qs))
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
    """Line-oriented format: header (width, label), then one gate per line.
    A controlled gate lists its controls in a c= token and its zero-controls
    in a z= token.  It is spelled CNOT if it is an X with one control and no
    zero-control, and MCU.<kind> otherwise."""
    lines = [f"width {c.width}", f"label {c.label}"]
    for g in c.gates:
        parts = [g.kind, str(g.target)]
        if g.controls or g.zeros:
            cnot = g.kind == "X" and len(g.controls) == 1 and not g.zeros
            parts[0] = "CNOT" if cnot else f"MCU.{g.kind}"
        for key, qs in (("c", g.controls), ("z", g.zeros)):
            if qs:
                parts.append(f"{key}=" + ",".join(str(q) for q in qs))
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
        if "," in parts[1]:
            raise ValueError(f"gate line {ln!r} has more than one target")
        target = int(parts[1])
        controls: tuple[int, ...] = ()
        zeros: tuple[int, ...] = ()
        angle = None
        slot = None
        trainable = False
        keys: set[str] = set()
        for tok in parts[2:]:
            key, eq, _ = tok.partition("=")
            if eq:
                if key in keys:
                    raise ValueError(f"gate line {ln!r} repeats its {key}= token")
                keys.add(key)
            if tok.startswith("c="):
                controls = tuple(int(q) for q in tok[2:].split(","))
            elif tok.startswith("z="):
                zeros = tuple(int(q) for q in tok[2:].split(","))
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
        kind = parts[0]
        if kind == "CNOT":
            if len(controls) != 1 or zeros:
                raise ValueError(f"CNOT line {ln!r} needs exactly one control and no zero-control")
            kind = "X"
        elif kind.startswith("MCU."):
            kind = kind[4:]
            if kind not in _SINGLE_KINDS:
                raise ValueError(f"unknown controlled kind {parts[0]!r} in line {ln!r}")
        elif controls or zeros:
            raise ValueError(f"{kind} line {ln!r} has controls: spell it CNOT or MCU.{kind}")
        gates.append(Gate(kind, target, controls, angle, trainable, slot, zeros))
    return Circuit(width, tuple(gates), label)
