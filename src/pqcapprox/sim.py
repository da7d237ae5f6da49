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
    """Angles of an encoding transform at arguments u = scale*x[coord] - shift."""
    if xform == "acos":
        ok = np.abs(u) <= 1.0 + 1e-9
        if not ok.all():  # NaN is out of range too
            raise ValueError(f"encoding argument {u[~ok][0]} outside [-1, 1]")
        return -2.0 * np.arccos(np.minimum(np.maximum(u, -1.0), 1.0))
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


def cnot(control: int, target: int) -> Gate:
    return Gate("X", target, (control,))


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


class StartState(NamedTuple):
    """A start's state after a program's prefix, kept on its support: the
    sorted indices of the amplitudes that the ops from ``prefix`` on can
    reach from it, the amplitudes there, each layer's pairs that lie there
    as positions on the support with the row of each pair's op, and the
    (2, M) positions of the readout pairs (qubit 0 reading 0, then 1) with
    both ends on it."""

    support: np.ndarray
    state: np.ndarray
    layers: list[tuple[np.ndarray, np.ndarray]]
    readout: np.ndarray

    @property
    def nbytes(self) -> int:
        return (self.support.nbytes + self.state.nbytes + self.readout.nbytes
                + sum(pair.nbytes + rows.nbytes for pair, rows in self.layers))


class GateProgram:
    """A circuit compiled once; running it at x only binds encoding angles.

    Every maximal run of consecutive gates on one target under one control
    set becomes a single op: a 2x2 matrix applied to the amplitude pairs
    ``(i0, i1)`` that differ in the target bit, with every control bit set
    and every zero-control bit clear, except that a run splits where its
    encoding slot changes, so an op binds one slot.  No circuit the package
    builds splits a run.  The fixed gates of an op are multiplied together
    here, and a fixed run whose product is exactly I is dropped.  An op
    without encoding slots is fixed: its ``heads`` matrix serves every
    point.  ``chains`` holds the slot of each op in ``slotted`` and, per
    slot factor, its rotation kind and the fixed product after it.  With h
    the slot's half angle, such an op is a trigonometric polynomial in h of
    degree its slot count, so each slot's ops compile into their Fourier
    coefficients (``slot_tables``), and the slots' tables into one block
    table, every slot's cosine rows first and every slot's sine rows after.
    ``op_matrices`` binds every slotted op with one affine map of the
    point per table row, one table of cos hk and sin hk and one product.
    ``width`` and ``gates`` are those of the source circuit, and ``coords``
    is the number of point coordinates its slots read.

    ``prefix`` is the number of ops run once per start, ``pairs[:prefix]``:
    the fixed ops before the first slotted op, and every later fixed op
    that touches no amplitude of an earlier kept op.  The other ops from
    the first slotted op on are kept, and run at every point.  A hoisted op
    acts on amplitudes disjoint from every kept op before it, so it
    commutes with them, and each amplitude still sees its ops in circuit
    order.

    The ops from ``prefix`` on run at every point, op k with row
    k - prefix of ``op_matrices``.  Ops that touch disjoint amplitudes
    commute, so they run as one layer (``layers``: the members' pairs and
    the row of each pair's op): one gather, an elementwise 2x2 update and
    one scatter.  Each pair sees the products of running the ops one by
    one, in the same order, so every value is bit-identical to that.

    ``targeted`` is the bit mask of the qubits that the ops from ``prefix``
    on target.  They change no other qubit, so an amplitude whose bits
    outside ``targeted`` match no nonzero amplitude of the state after the
    prefix stays exactly 0.  An LCU's SELECT never targets its selection
    register (Childs and Wiebe, arXiv:1202.5822), nor does the Hadamard
    test's controlled U target the ancilla, so a point runs on a small
    support.  From a basis start the state after the prefix is one fixed
    vector, and ``stored``, a dict on the program keyed by start index,
    holds a ``StartState`` per start: the support, the state on it, the
    layers' pairs on it and the readout pairs on it.  The starts not
    stored yet run the prefix op by op, in one batch, once; an entry is
    stored while ``stored`` holds at most PREFIX_BYTES.

    On the Hadamard test of the d=2, n=4 Bernstein block this leaves 19 ops
    of 31 gates: 11 in the prefix, and 8 from it on in 2 layers of 128
    pairs, of which a point from start 0 updates 8 on a support of 48 of
    512 amplitudes and reads 24 pairs.  The d=2, K=4, s=1 Taylor series
    block, which starts from one of K^d cells, leaves 56 ops of 64 gates:
    54 in the prefix, and its 2 slotted ops in 1 layer of 128 pairs, of
    which a start updates 8 on a support of 44 of 1024 amplitudes.

    The compile checks no gate (the circuit checked its gates, or its
    placements, when it was built), and masks each (target, controls,
    zeros) once.  The pairs of an op are those of its target under all-ones
    controls on the union of its controls and zero-controls, found once per
    such (target, union), with the zero-control bits cleared.
    """

    def __init__(self, c: Circuit):
        if c.width > MAX_WIDTH:
            raise ValueError(f"width {c.width} exceeds the {MAX_WIDTH}-qubit cap")
        self.width = c.width
        self.gates = c.gates
        idx = np.arange(2**c.width)
        eye = np.eye(2, dtype=complex)
        masks: dict[tuple, tuple[int, int, int]] = {}  # (target, controls, zeros) -> bits
        pair_of: dict[tuple[int, int, int], np.ndarray] = {}  # bits -> pairs
        runs: list[np.ndarray] = []  # per op: its (i0, i1) pairs
        heads: list[np.ndarray] = []  # fixed product before an op's first slot
        slots: list[Optional[EncodingSlot]] = []  # per op: its slot, if any
        chains: list[list[list]] = []  # per op: [kind, fixed product after it] per slot
        prev = None
        for g in c.gates:
            key = masks.get((g.target, g.controls, g.zeros))
            if key is None:  # (target bit, control and zero-control bits, zero-control bits)
                bits = [sum(1 << (c.width - 1 - q) for q in qs) for qs in (g.qubits[1:], g.zeros)]
                key = masks[g.target, g.controls, g.zeros] = (1 << (c.width - 1 - g.target), *bits)
            # a run splits where its slot changes, so every op has one slot
            if key != prev or (g.slot is not None and slots[-1] not in (None, g.slot)):
                if key not in pair_of:
                    # the pairs with every control and zero-control bit set, those bits cleared
                    tbit, cmask, zmask = key
                    if (tbit, cmask, 0) not in pair_of:
                        i0 = idx[(idx & (tbit | cmask)) == cmask]
                        pair_of[tbit, cmask, 0] = np.stack([i0, i0 | tbit])
                    if zmask:
                        pair_of[key] = pair_of[tbit, cmask, 0] ^ zmask
                runs.append(pair_of[key])
                heads.append(eye)
                slots.append(None)
                chains.append([])
                prev = key
            chain = chains[-1]
            if g.slot is not None:
                slots[-1] = g.slot
                chain.append([g.kind, eye])
            elif chain:
                chain[-1][1] = gate_matrix_1q(g.kind, g.angle) @ chain[-1][1]
            else:
                heads[-1] = gate_matrix_1q(g.kind, g.angle) @ heads[-1]
        # a fixed run that is exactly I does nothing, so it is no op
        kept = [k for k, (head, chain) in enumerate(zip(heads, chains))
                if chain or not np.array_equal(head, eye)]
        # From the first slotted op on, a fixed op that no kept op before it
        # touches joins the prefix; every other op is kept and joins the
        # layer after the last layer that touches any of its amplitudes, so
        # a layer's members touch disjoint amplitudes and commute, and
        # overlapping ops keep their order.
        first = next((p for p, k in enumerate(kept) if chains[k]), len(kept))
        order, suffix, layer_of = kept[:first], [], []
        last = np.full(2**c.width, -1)  # per amplitude: its last kept op's layer
        for k in kept[first:]:
            layer = int(last[runs[k]].max()) + 1
            if layer or chains[k]:
                suffix.append(k)
                layer_of.append(layer)
                last[runs[k]] = layer
            else:
                order.append(k)
        self.prefix = len(order)
        order += suffix
        self.pairs: list[np.ndarray] = [runs[k] for k in order]
        self.heads = np.array([heads[k] for k in order], dtype=complex).reshape(len(order), 2, 2)
        self.slotted = np.array([p for p, k in enumerate(order) if chains[k]], dtype=int)
        self.chains = [(slots[order[p]], chains[order[p]]) for p in self.slotted]
        self.coords = 1 + max((slot.coord for slot, _ in self.chains), default=-1)
        layer_of = np.array(layer_of, dtype=int)
        ops = self.pairs[self.prefix:]
        self.layers = [  # the members' pairs, and the row of each pair's op
            (np.concatenate([ops[r] for r in rows], axis=1),
             np.repeat(rows, [ops[r].shape[1] for r in rows]))
            for rows in (np.flatnonzero(layer_of == layer) for layer in range(last.max() + 1))
        ]
        self.targeted = 0  # a pair differs in its op's target bit alone
        for pair in ops:
            self.targeted |= int(pair[0, 0] ^ pair[1, 0])
        self.stored: dict[int, StartState] = {}
        self._compile_tables()

    def _compile_tables(self) -> None:
        """Compile each slot's ops into its Fourier table (``slot_tables``:
        per slot, its ops' indices in ``chains``, their powers, how many are
        cosines, and the table), and the tables into the block table that
        op_matrices binds.  Row r of the block table takes cos or sin of
        row_half[r] = k/2 times the angle of its slot, for the power k of
        the half angle h (angle k/2 and h k round alike, as both halvings
        are exact), every cosine row first, the slots sorted by xform, and
        column 8p + e holds entry e of slotted op p, real and imaginary parts
        interleaved.  Each row holds its slot's affine map (``row_coords``,
        ``row_scales``, ``row_shifts``), and ``xforms`` each xform's rows
        (every row for one xform)."""
        groups: dict[EncodingSlot, list[int]] = {}
        for p in sorted(range(len(self.chains)), key=lambda p: -len(self.chains[p][1])):
            groups.setdefault(self.chains[p][0], []).append(p)  # longest chains first
        slots = sorted(groups, key=lambda slot: slot.xform)
        self.slot_tables = [
            (slot, ps, *_fourier_table(self.heads[self.slotted[ps]],
                                       [self.chains[p][1] for p in ps]))
            for slot, ps in ((slot, groups[slot]) for slot in slots)
        ]
        rows = [(s, j) for s, (_, _, powers, _, _) in enumerate(self.slot_tables)
                for j in range(len(powers))]
        rows.sort(key=lambda r: r[1] >= self.slot_tables[r[0]][3])  # stable: cosines first
        self.cosines = sum(cosines for _, _, _, cosines, _ in self.slot_tables)
        row_slot = np.array([s for s, _ in rows], dtype=int)
        row_power = np.zeros(len(rows), dtype=int)
        self.table = np.zeros((len(rows), 8 * len(self.chains)))
        index = np.array([j for _, j in rows], dtype=int)
        for s, (_, ps, powers, _, table) in enumerate(self.slot_tables):
            mine = np.flatnonzero(row_slot == s)
            row_power[mine] = powers[index[mine]]
            cols = 8 * np.array(ps)[:, None] + np.arange(8)
            self.table[np.ix_(mine, cols.ravel())] = table[index[mine]]
        self.row_half = row_power / 2.0
        row_slots = [slots[s] for s in row_slot]
        self.row_coords = np.array([slot.coord for slot in row_slots], dtype=int)
        self.row_scales = np.array([slot.scale for slot in row_slots])
        self.row_shifts = np.array([slot.shift for slot in row_slots])
        xforms = np.array([slot.xform for slot in row_slots])
        # a slice, which op_matrices reads and writes without a gather, when
        # one xform has every row
        self.xforms = [(xf, np.flatnonzero(xforms == xf) if len(set(xforms)) > 1 else slice(None))
                       for xf in dict.fromkeys(xforms.tolist())]
        # bytes per point of a chunk in hadamard_values: its state or its row
        # of the block table's cos hk and sin hk
        self.row_bytes = max(np.dtype(complex).itemsize * 2**self.width, self.row_half.nbytes)

    def start_states(self, keys: list[int]) -> dict[int, StartState]:
        """The StartState of each start index in ``keys``, from the store.
        The starts not stored yet run the prefix in one batch, and each
        entry is stored while the store holds at most PREFIX_BYTES.  A start
        outside [0, 2**width) raises ValueError."""
        found = {s: self.stored.get(s) for s in keys}
        missing = [s for s, entry in found.items() if entry is None]
        if not missing:  # a stored start was checked when it was stored
            return found
        dim = 2**self.width
        if not all(0 <= s < dim for s in missing):
            raise ValueError(f"start indices must lie in [0, {dim})")
        cols = np.zeros((dim, len(missing)), dtype=complex)
        cols[missing, np.arange(len(missing))] = 1.0
        for pair, head in zip(self.pairs[:self.prefix], self.heads):
            _apply(cols, pair, head[:, :, None, None])  # once per start: no schedule
        conserved = np.arange(dim) & ~self.targeted  # the bits no op from prefix on changes
        held = sum(entry.nbytes for entry in self.stored.values())
        for j, s in enumerate(missing):
            col = cols[:, j]
            mark = np.zeros(dim, dtype=bool)  # the conserved values that carry mass
            mark[conserved[col != 0]] = True
            support = np.flatnonzero(mark[conserved])
            at = np.full(dim, -1)  # each amplitude's position on the support
            at[support] = np.arange(len(support))
            layers = []
            for pair, rows in self.layers:
                pos = at[pair]
                on = pos[0] >= 0  # a pair lies on the support or off it whole
                if on.any():
                    layers.append((pos[:, on], rows[on]))
            pos = at[:dim // 2 * 2].reshape(2, -1)  # where qubit 0 reads 0, then 1
            readout = pos[:, (pos >= 0).all(axis=0)]
            found[s] = entry = StartState(support, col[support], layers, readout)
            if held + entry.nbytes <= PREFIX_BYTES:
                self.stored[s] = entry
                held += entry.nbytes
        return found

    def op_matrices(self, x: Optional[np.ndarray]) -> np.ndarray:
        """The (len(pairs) - prefix, N, 2, 2) matrices of the ops from
        ``prefix`` on, op k in row k - prefix, at each row of the (N, d)
        point array x: a fixed op's ``heads`` matrix, and the slotted ops'
        (N, 1, K) table of cos hk and sin hk times the block table."""
        if x is None:
            raise ValueError("circuit has unbound encoding slots; pass x")
        xs = np.asarray(x, dtype=float)
        # per point and row, u = scale x[coord] - shift, in C order: the
        # gather alone can come back in F order, and the stacked product
        # below then rounds a point differently alone and in a batch
        u = np.multiply(xs[:, self.row_coords], self.row_scales, order="C")
        u -= self.row_shifts
        for xform, rows in self.xforms:
            u[:, rows] = encoding_angles(xform, u[:, rows])
        hk = np.multiply(u, self.row_half, out=u)
        np.cos(hk[:, :self.cosines], out=hk[:, :self.cosines])
        np.sin(hk[:, self.cosines:], out=hk[:, self.cosines:])
        # stacked, so a point's row is the same product alone or in a batch
        parts = (hk[:, None] @ self.table).view(complex)
        parts = parts.reshape(len(xs), len(self.chains), 2, 2)
        if len(self.slotted) == len(self.pairs) - self.prefix:  # no fixed row to copy
            return parts.swapaxes(0, 1)
        mats = np.empty((len(self.pairs) - self.prefix, len(xs), 2, 2), dtype=complex)
        mats[:] = self.heads[self.prefix:, None]  # the slotted rows are bound below
        mats[self.slotted - self.prefix] = parts.swapaxes(0, 1)
        return mats


def _fourier_table(heads: np.ndarray, chains: list[list[list]]) -> tuple:
    """Ops of one slot, compiled for op_matrices: the powers k of the table
    [cos hk (k >= 0), sin hk (k > 0)], how many are cosines, and the real
    (K, 8 ops) matrix that maps the table to the ops' entries, real and
    imaginary parts interleaved.

    An op with head H and m slot factors, each followed by its fixed
    product A_j, is A_m R_m(h) ... A_1 R_1(h) H with
    R_j = cos h I + sin h G_j = e^{ih} (I - iG_j)/2 + e^{-ih} (I + iG_j)/2,
    so it is sum_k c_k e^{ihk} over k = -m, -m+2, ..., m.  Stage j
    multiplies every op with more than j factors by A_j R_j; the chains come
    longest first, so those ops lead, and each holds the j+1 coefficients
    of powers -j, -j+2, ..., j.  Then c_k e^{ihk} + c_-k e^{-ihk} is
    (c_k + c_-k) cos hk + i (c_k - c_-k) sin hk.  The stages share two
    buffers (live packs each column's powers), so none allocates."""
    m = len(chains[0])
    coef = np.zeros((len(chains), 2, 2, 2 * m + 1), dtype=complex)  # power k at m + k
    live_buf = np.empty((len(chains), 2, 2 * m + 2), dtype=complex)
    both_buf = np.empty((len(chains), 4, 2 * m + 2), dtype=complex)
    live = live_buf[..., :2].reshape(len(chains), 2, 2, 1)
    live[..., 0] = heads
    eye = np.eye(2)
    for j in range(m + 1):
        n = sum(len(chain) > j for chain in chains)
        coef[n:len(live), ..., m - j:m + j + 1:2] = live[n:]  # the ops with j factors
        if not n:
            break
        after = np.array([chain[j][1] for chain in chains[:n]])
        gens = np.array([_GENERATORS[chain[j][0]] for chain in chains[:n]])
        # A_j (I - iG)/2 e^{ih} and A_j (I + iG)/2 e^{-ih}, stacked
        halves = np.concatenate([after @ (eye - 1j * gens), after @ (eye + 1j * gens)], axis=1)
        both = np.matmul(halves / 2.0, live_buf[:n, :, :2 * j + 2], out=both_buf[:n, :, :2 * j + 2])
        both = both.reshape(n, 2, 2, 2, j + 1)
        live = live_buf[:n, :, :2 * j + 4].reshape(n, 2, 2, j + 2)
        live[..., :-1] = both[:, 1]  # e^{-ih} takes power -j+2q to -(j+1)+2q
        live[..., -1] = 0.0
        live[..., 1:] += both[:, 0]  # and e^{ih} to -(j+1)+2(q+1)
    # when every op has m's parity the other powers vanish and stay out of the table
    step = 2 if len({len(chain) % 2 for chain in chains}) == 1 else 1
    powers = np.arange(m % step, m + 1, step)
    sines = powers[powers > 0]
    rows = np.concatenate([coef[..., m + powers] + coef[..., m - powers] * (powers > 0),
                           1j * (coef[..., m + sines] - coef[..., m - sines])], axis=-1)
    rows = np.moveaxis(rows, -1, 0)
    return (np.concatenate([powers, sines]), len(powers),
            np.stack([rows.real, rows.imag], axis=-1).reshape(len(rows), -1))


def run(
    c: Circuit | GateProgram,
    x: Optional[np.ndarray] = None,
    start: Optional[np.ndarray] = None,
) -> list[tuple[int | slice | np.ndarray, StartState, np.ndarray]]:
    """The final states of a batch run on each distinct start's support.

    ``x`` is an (N, d) point array, or None for a circuit without encoding
    slots, and ``start`` holds the N initial basis-state indices (default
    0); with neither it is a batch of one from |0..0>.  The points of each
    distinct start run together on its support, from its stored state
    after the prefix (``StartState``), and every amplitude off the support
    is exactly 0.  Per distinct start the result holds its columns of the
    batch (every column for one start), its StartState and its
    (len(support), n) states, one column per point; a lone point has
    column 0 and a (len(support),) state.  A final state whose norm is off
    1 by more than 1e-10 raises.  A plain circuit is compiled first.
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    xs, starts, size = _batch(program, x, start)
    groups = _by_start(starts, size)
    found = program.start_states([s for s, _, _ in groups])  # checks the start indices
    if program.layers:  # (2, 2, len(pairs) - prefix, N), entry by entry
        mats = program.op_matrices(xs).transpose(2, 3, 0, 1)
    out = []
    for s, cols, n in groups:
        entry = found[s]
        if size == 1:  # a lone point drops the batch axis of its state and
            # its coefficients, so numpy takes its fast 1-D fancy-index path
            cols, block = 0, entry.state.copy()
        else:
            block = entry.state[:, None].repeat(n, axis=1)
        if entry.layers:
            coef = mats[..., cols]
        for pair, rows in entry.layers:
            _apply(block, pair, coef[:, :, rows])
        if size == 1:  # a Python float, without numpy's dispatch
            norm = math.sqrt(np.vdot(block, block).real)
            if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
                raise RuntimeError(f"simulation lost unitarity: norm {norm}")
        else:  # np.linalg.norm's own sum, without its dispatch
            norms = np.sqrt(np.add.reduce((block.conj() * block).real, axis=0))
            ok = np.abs(norms - 1.0) <= 1e-10
            if not ok.all():
                raise RuntimeError(f"simulation lost unitarity: norm {norms[~ok][0]}")
        out.append((cols, entry, block))
    return out


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


def _by_start(starts: Optional[np.ndarray], size: int) -> list[tuple[int, slice | np.ndarray, int]]:
    """Each distinct start index of a batch of ``size`` points (all 0 for
    None), the columns that start from it in order (every column when
    there is one start), and their count."""
    if starts is None:
        return [(0, slice(None), size)]
    if size < 2:
        return [(s, slice(None), 1) for s in starts.tolist()]
    order = np.argsort(starts, kind="stable")
    ranked = starts[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    if not len(cuts):
        return [(int(ranked[0]), slice(None), len(starts))]
    cols = np.split(order, cuts)
    return [(s, c, len(c)) for s, c in zip(ranked[np.r_[0, cuts]].tolist(), cols)]


def _apply(state: np.ndarray, pair: np.ndarray, coef: np.ndarray) -> None:
    """a0' = c00 a0 + c01 a1 and a1' = c10 a0 + c11 a1 at every amplitude
    pair (a0, a1) = state[pair], elementwise with the coefficients
    coef[:, :, p] of pair p."""
    terms = coef * state[pair]  # c_ij a_j, every product in one call
    state[pair] = terms[:, 0] + terms[:, 1]


# Bytes of states, or of table rows, per chunk of points in hadamard_values.
BATCH_BYTES = 1 << 19
# Bytes of StartState entries one program stores: every start of the d=3,
# K=4 Taylor series block takes 0.18 MB, start 0 of the d=3, n=16 Bernstein
# test 1.7 MB.
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
    readout pairs (``StartState.readout``) on its support, since a pair
    with one end off it adds exactly 0; it reads them as contiguous
    vectors, so a point reads the same bits alone, in a batch and in any
    chunking.
    With neither x nor start it is a batch of one from |0..0>.  The batch runs in chunks of
    points whose states, and whose rows of the block table, fit in
    BATCH_BYTES (``GateProgram.row_bytes`` per point).
    """
    program = c if isinstance(c, GateProgram) else GateProgram(c)
    xs, starts, size = _batch(program, x, start)  # before chunking, as run words it
    rows = max(1, BATCH_BYTES // program.row_bytes)
    out = np.empty(size, dtype=complex)
    for lo in range(0, size, rows):
        chunk = slice(lo, lo + rows)
        values = out[chunk]
        groups = run(
            program,
            x=None if xs is None else xs[chunk],
            start=None if starts is None else starts[chunk],
        )
        for cols, entry, states in groups:
            a0, a1 = entry.readout
            if states.ndim == 1:
                values[cols] = np.vdot(states[a0], states[a1])
            else:  # one contiguous row per point
                values[cols] = list(map(np.vdot, states[a0].T.copy(), states[a1].T.copy()))
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
