import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqcapprox import circuits as C
from pqcapprox import poly as P
from pqcapprox import sim as S
from pqcapprox import targets

from oracles import (
    _apply_gate,
    ancilla_values,
    block_values,
    circuit_unitary,
    cnot,
    decompose_mcu,
    dense_run,
    lowered,
    ry,
    stage_op_matrices,
    unstored_run,
)


def rx(q, angle, trainable=False):
    return S.Gate("Rx", q, angle=angle, trainable=trainable)


def random_circuit(rng, width, n_gates, mcu=False):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 7 if width > 1 else 5)
        q = int(rng.integers(0, width))
        if kind == 0:
            gates.append(S.h(q))
        elif kind == 1:
            gates.append(rx(q, float(rng.normal())))
        elif kind == 2:
            gates.append(ry(q, float(rng.normal())))
        elif kind == 3:
            gates.append(S.rz(q, float(rng.normal()), trainable=True))
        elif kind == 4:
            gates.append(S.zg(q))
        elif kind == 5:
            other = int(rng.integers(0, width))
            if other != q:
                gates.append(cnot(other, q))
        else:
            if mcu and width >= 3:
                ctrls = tuple(c for c in range(width) if c != q)[:2]
                gates.append(S.Gate("Ry", q, ctrls, angle=float(rng.normal())))
    return S.Circuit(width, tuple(gates))


# ---------------------------------------------------------------------------
# run / readout
# ---------------------------------------------------------------------------


def test_empty_circuit_preserves_state():
    out = dense_run(S.Circuit(1, ()), start=np.arange(2))
    assert np.array_equal(out, np.eye(2))


def test_hadamard_on_zero():
    out = dense_run(S.Circuit(1, (S.h(0),)))
    assert out.shape == (1, 2)
    assert np.allclose(out[0], [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_cnot_textbook_action():
    out = dense_run(S.Circuit(2, (S.h(0), cnot(0, 1))))[0]
    expected = np.zeros(4)
    expected[0b00] = expected[0b11] = 1 / math.sqrt(2)
    assert np.allclose(out, expected)


def test_hadamard_values_of_basis_states():
    """|+> reads 1, |-> reads -1 and a basis state of the ancilla reads 0."""
    assert S.hadamard_values(S.Circuit(1, (S.h(0),)))[0] == pytest.approx(1.0)
    assert S.hadamard_values(S.Circuit(2, (S.xg(0), S.h(0))))[0] == pytest.approx(-1.0)
    assert S.hadamard_values(S.Circuit(1, ()))[0] == pytest.approx(0.0, abs=1e-15)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_after_every_gate(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    circ = random_circuit(rng, width, 12, mcu=True)
    amps = np.zeros(2**width, dtype=complex)
    amps[0] = 1.0
    for g in circ.gates:
        amps = _apply_gate(amps, g, width)
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-10


@pytest.mark.parametrize("width", [2, 4, 6])
def test_run_matches_dense_unitary(width):
    rng = np.random.default_rng(width)
    circ = random_circuit(rng, width, 20, mcu=True)
    dense = circuit_unitary(circ)
    out = dense_run(circ, start=np.arange(2**width))
    assert np.max(np.abs(out - dense.T)) <= 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_placed_circuit_is_controlled_identity_tensor_u(seed):
    """Placed at an offset under extra controls and zero-controls, a bound
    circuit acts as I where a control bit is 0 or a zero-control bit is 1,
    and as I (x) U (x) I elsewhere."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 4))
    offset, after = (int(v) for v in rng.integers(0, 3, size=2))
    total = offset + width + after
    outside = [q for q in range(total) if not offset <= q < offset + width]
    extra = rng.choice(outside, int(rng.integers(0, len(outside) + 1)), replace=False).tolist()
    split = int(rng.integers(0, len(extra) + 1))
    controls, zeros = extra[:split], extra[split:]
    x = rng.uniform(-0.5, 0.5, size=2)
    u = S.Circuit(width, selected_circuit(rng, width, 4).bound(x).gates
                  + random_circuit(rng, width, 8, mcu=True).gates
                  + tuple(S.xg(int(q)) for q in rng.integers(0, width, size=2)))
    placed = S._composed(total, [(u, offset, controls, zeros)], "")
    assert len(placed.gates) == len(u.gates) and placed.width == total
    idx = np.arange(2**total)
    on = np.ones(len(idx), dtype=bool)
    for q in extra:
        on &= (idx >> (total - 1 - q)) & 1 == (q in controls)
    block = np.kron(np.kron(np.eye(2**offset), circuit_unitary(u)), np.eye(2**after))
    want = np.where(np.outer(on, on), block, np.diag(~on).astype(complex))
    assert np.max(np.abs(circuit_unitary(placed) - want)) <= 1e-12


@pytest.mark.parametrize("offset, width, controls, zeros, message", [
    (-1, 4, (), (), "at offset -1 does not fit width 4"),
    (3, 4, (), (), "at offset 3 does not fit width 4"),
    (1, 4, (4,), (), "control 4 lies outside width 4"),
    (1, 4, (-1,), (), "control -1 lies outside width 4"),
    (1, 4, (2,), (), "control 2 lies on a placed qubit"),
    (1, 4, (0, 3, 0), (), "repeated control"),
    (1, 4, (), (4,), "control 4 lies outside width 4"),
    (1, 4, (0,), (2,), "control 2 lies on a placed qubit"),
    (1, 4, (0,), (3, 0), "repeated control"),
], ids=["negative-offset", "past-width", "control-past-width", "negative-control",
        "control-on-placed-qubit", "repeated-control", "zero-past-width", "zero-on-placed-qubit",
        "control-repeated-as-zero"])
def test_a_bad_placement_raises_a_named_error(offset, width, controls, zeros, message):
    """Copies are not checked gate by gate, so _composed checks each
    placement itself, alone or after another part."""
    u = S.Circuit(2, (S.h(0), cnot(0, 1), S.rz(1, 0.3)))
    with pytest.raises(ValueError, match=message):
        S._composed(width, [(u, offset, controls, zeros)], "")
    with pytest.raises(ValueError, match=message):
        S._composed(width, [(S.Circuit(1, (S.h(0),)), 0, (), ()), (u, offset, controls, zeros)], "")


@pytest.mark.parametrize(
    "gate", [S.h(2), S.rz(-1, 0.3), cnot(2, 0), S.Gate("Ry", 1, (0, 5), 0.2)],
    ids=["target-past-width", "negative-target", "control-past-width", "second-control-past-width"],
)
def test_a_circuit_of_outside_gates_is_still_checked_per_gate(gate):
    with pytest.raises(ValueError, match="addresses qubits outside width 2"):
        S.Circuit(2, (S.h(0), gate))


def test_placement_shifts_each_control_set_once_and_keeps_unmoved_gates():
    """Gates with equal control sets share one shifted tuple, and an
    unmoved part keeps its gate objects."""
    u = S.Circuit(2, (cnot(0, 1), S.rz(1, 0.2), cnot(0, 1), S.h(0)))
    placed = S._composed(4, [(u, 1, (0,), ())], "")
    assert [g.controls for g in placed.gates] == [(0, 1), (0,), (0, 1), (0,)]
    assert placed.gates[0].controls is placed.gates[2].controls
    assert all(a is b for a, b in zip(S._composed(3, [(u, 0, (), ())], "").gates, u.gates))
    # an added control past the part sorts after its own, and offset 0 with controls copies
    assert [g.controls for g in S._composed(3, [(u, 0, (2,), ())], "").gates] == [(0, 2), (2,)] * 2
    assert placed == S.Circuit(4, placed.gates)
    # added zero-controls join the shifted zero-controls of each gate, sorted
    v = S.Circuit(2, (S.Gate("X", 1, zeros=(0,)), S.h(0)))
    zeroed = S._composed(5, [(v, 2, (4,), (1, 0))], "")
    assert [(g.controls, g.zeros) for g in zeroed.gates] == [((4,), (0, 1, 2)), ((4,), (0, 1))]
    assert zeroed == S.Circuit(5, zeroed.gates)


def random_slotted_circuit(rng, width, n_runs):
    """Runs of 3-6 gates on one target under one control set, controlled and
    X/Z-encoding slots on coordinates 0 and 1 mixed among fixed gates."""
    gates = []
    for _ in range(n_runs):
        q = int(rng.integers(0, width))
        others = [c for c in range(width) if c != q]
        ctrls = tuple(sorted(rng.choice(others, int(rng.integers(0, len(others) + 1)),
                                        replace=False).tolist()))
        for _ in range(int(rng.integers(3, 7))):
            choice = int(rng.integers(0, 8))
            slot = None
            angle = None
            if choice < 3:
                kind = ("H", "X", "Z")[choice]
            elif choice < 6:
                kind = ("Rx", "Ry", "Rz")[choice - 3]
                angle = float(rng.normal())
            else:  # |scale x - shift| <= 1 on random_batch's range
                slot = S.EncodingSlot(choice - 6, ("acos", "zrot")[choice - 6],
                                      float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.5, 1.0)))
                kind = "Rx" if slot.xform == "acos" else "Rz"
            gates.append(S.Gate(kind, q, ctrls, angle=angle, slot=slot))
    return S.Circuit(width, tuple(gates))


def slot_splits(circ):
    """Places where a run of gates on one target under one control set
    changes its encoding slot: each starts one more op, since an op binds
    one slot."""
    count, prev, slot = 0, None, None
    for g in circ.gates:
        if (g.target, set(g.controls), set(g.zeros)) != prev:
            prev, slot = (g.target, set(g.controls), set(g.zeros)), None
        if g.slot is not None:
            count += slot not in (None, g.slot)
            slot = g.slot
    return count


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_compiled_program_matches_dense_unitary(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    circ = random_slotted_circuit(rng, width, 6)
    prep = random_circuit(rng, width, 4)
    x = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-3.0, 3.0)))
    prog = S.GateProgram(circ)
    assert len(prog.pairs) <= 6 + slot_splits(circ)
    dense = circuit_unitary(circ.bound(x))
    assert np.max(np.abs(dense_run(prog, x=[x])[0] - dense[:, 0])) <= 1e-10
    want = block_values(circ.bound(x), prep)[0]
    ht = S.GateProgram(S.hadamard_test_circuit(circ, prep))
    got = S.hadamard_values(ht, [x])[0]
    assert abs(got.real - want.real) <= 1e-10 and abs(got.imag - want.imag) <= 1e-10


def selected_circuit(rng, width, n_runs):
    """Runs on one target under random controls and zero-controls: runs
    that fuse to exactly X, runs that fuse to exactly I (the same X twice)
    and runs of rotations, with slotted and fixed ones, in random order; no
    two neighbouring runs share a target, control set and zero-control set,
    so each run compiles on its own."""
    gates, prev = [], None
    for _ in range(n_runs):
        while True:
            q = int(rng.integers(0, width))
            others = rng.permutation([c for c in range(width) if c != q]).tolist()
            k = int(rng.integers(0, len(others) + 1))
            split = int(rng.integers(0, k + 1))
            ctrls, zeros = tuple(sorted(others[:split])), tuple(sorted(others[split:k]))
            if width == 1 or (q, ctrls, zeros) != prev:
                break
        prev = (q, ctrls, zeros)
        kind = int(rng.integers(0, 3))
        if kind < 2:  # X, or the identity X X
            gates.extend([S.Gate("X", q, ctrls, zeros=zeros)] * (kind + 1))
            continue
        for _ in range(int(rng.integers(1, 4))):
            rot = ("Rx", "Ry", "Rz")[int(rng.integers(0, 3))]
            slot = angle = None
            if rng.random() < 0.5:  # in random_batch's range, as in random_slotted_circuit
                coord = int(rng.integers(0, 2))
                slot = S.EncodingSlot(coord, ("acos", "zrot")[coord], float(rng.uniform(-0.2, 0.2)))
                rot = ("Rx", "Rz")[coord]
            else:
                angle = float(rng.normal())
            gates.append(S.Gate(rot, q, ctrls, angle=angle, slot=slot, zeros=zeros))
    return S.Circuit(width, tuple(gates))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_zero_controlled_program_matches_dense_unitary(seed):
    """Each op of a zero-controlled gate acts on the pairs where its
    zero-controls read 0, at one point and in a batch; X runs are ops and
    only runs that are exactly I are dropped."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    n_runs = 8
    circ = selected_circuit(rng, width, n_runs)
    prog = S.GateProgram(circ)
    assert len(prog.pairs) <= n_runs + slot_splits(circ)
    fixed = np.setdiff1d(np.arange(len(prog.pairs)), prog.slotted)
    assert not any(np.array_equal(m, np.eye(2)) for m in prog.heads[fixed])
    x = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-3.0, 3.0)))
    dense = circuit_unitary(circ.bound(x))
    assert np.max(np.abs(dense_run(prog, x=[x])[0] - dense[:, 0])) <= 1e-10
    every = np.arange(2**width)
    out = dense_run(prog, x=np.tile(x, (len(every), 1)), start=every)
    assert np.max(np.abs(out - dense.T)) <= 1e-10
    xs, starts = random_batch(rng, width, 5)
    batch = dense_run(prog, x=xs, start=starts)
    assert np.array_equal(batch, unstored_run(prog, xs, starts))
    for n in range(len(xs)):
        assert np.max(np.abs(batch[n] - dense_columns(circ, xs[n], [starts[n]])[0])) <= 1e-10
        assert np.array_equal(dense_run(prog, x=xs[[n]], start=starts[[n]])[0], batch[n])
    prep = random_circuit(rng, width, 4)
    want = block_values(circ.bound(x), prep)[0]
    ht = S.GateProgram(S.hadamard_test_circuit(circ, prep))
    got = S.hadamard_values(ht, [x])[0]
    assert abs(got.real - want.real) <= 1e-10 and abs(got.imag - want.imag) <= 1e-10


def test_program_rejects_unbound_slots():
    circ = S.Circuit(1, (S.encoding_gate(0, S.EncodingSlot(0, "acos")),))
    with pytest.raises(ValueError):
        S.run(circ)
    with pytest.raises(ValueError):
        S.run(S.GateProgram(circ), x=None)
    with pytest.raises(ValueError):  # only rotations take an encoding slot
        S.Gate("H", 0, slot=S.EncodingSlot(0, "acos"))


def test_width_cap():
    with pytest.raises(ValueError, match="cap"):
        S.run(S.Circuit(S.MAX_WIDTH + 1, ()))


# ---------------------------------------------------------------------------
# Batched runs
# ---------------------------------------------------------------------------


def random_batch(rng, width, n):
    """n points in the range of random_slotted_circuit's slots, and n basis
    indices to start from."""
    xs = np.column_stack([rng.uniform(-0.8, 0.8, n), rng.uniform(-3.0, 3.0, n)])
    return xs, rng.integers(0, 2**width, n)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_batch_run_equals_single_point_runs(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    prog = S.GateProgram(random_slotted_circuit(rng, width, 6))
    xs, starts = random_batch(rng, width, int(rng.integers(1, 9)))
    batch = dense_run(prog, x=xs, start=starts)
    assert batch.shape == (len(xs), 2**width)
    assert np.array_equal(batch, unstored_run(prog, xs, starts))
    for n in range(len(xs)):
        assert np.array_equal(dense_run(prog, x=xs[[n]], start=starts[[n]])[0], batch[n])
    from_zero = dense_run(prog, x=xs)
    assert np.array_equal(from_zero, unstored_run(prog, xs, np.zeros(len(xs), dtype=int)))


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_chunked_expectations_equal_single_point_runs(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    prog = S.GateProgram(random_slotted_circuit(rng, width, 6))
    xs, starts = random_batch(rng, width, 11)
    chunks = []
    real_run = S.run

    def counting_run(program, **kwargs):
        chunks.append(len(kwargs["x"]))
        return real_run(program, **kwargs)

    # a point's row: its state on the qubits some op targets, or its row of
    # the block table, whichever is larger
    qubits = {int(pair[0, 0] ^ pair[1, 0]).bit_length() for pair in prog.pairs}
    assert prog.row_bytes == max(16 * 2**len(qubits), 8 * len(prog.row_half))
    with pytest.MonkeyPatch.context() as mp:
        # a budget of three rows: 11 points run in chunks of 3, 3, 3 and 2
        mp.setattr(S, "BATCH_BYTES", 3 * prog.row_bytes)
        mp.setattr(S, "run", counting_run)
        got = S.hadamard_values(prog, xs, starts)
    assert chunks == [3, 3, 3, 2]
    assert np.array_equal(got, S.hadamard_values(prog, xs, starts))  # one chunk
    want = ancilla_values(unstored_run(prog, xs, starts))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_batch_point_outside_encoding_range_fails():
    circ = S.Circuit(1, (S.encoding_gate(0, S.EncodingSlot(0, "acos")),))
    xs = np.array([[0.2], [-0.5], [1.0 + 1e-8], [0.9]])
    with pytest.raises(ValueError, match="outside"):
        S.run(circ, x=xs)
    with pytest.raises(ValueError, match="outside"):
        S.run(circ, x=np.array([[0.2], [np.nan]]))
    S.run(circ, x=xs[[0, 1, 3]])


def test_batch_unitarity_check_is_per_point(monkeypatch):
    prog = S.GateProgram(S.Circuit(1, (S.encoding_gate(0, S.EncodingSlot(0, "zrot")),)))
    real = S.encoding_angles

    def nan_at_third(xform, u):
        angles = real(xform, u)
        angles[2:3] = np.nan  # the third point's gate only: points on the first axis
        return angles

    S.run(prog, x=np.zeros((3, 1)))
    monkeypatch.setattr(S, "encoding_angles", nan_at_third)
    S.run(prog, x=np.zeros((2, 1)))
    with pytest.raises(RuntimeError, match="unitarity"):
        S.run(prog, x=np.zeros((3, 1)))


def test_batch_rejects_bad_start_indices():
    prog = S.GateProgram(S.Circuit(2, (S.h(0),)))
    with pytest.raises(ValueError):
        S.run(prog, start=np.array([0, 4]))
    with pytest.raises(ValueError):
        S.run(prog, start=np.array([-1]))
    with pytest.raises(ValueError):
        S.run(prog, x=np.zeros((3, 1)), start=np.array([0, 1]))


@pytest.mark.parametrize("start", [[0.5], [True], [[0, 1]], np.zeros((1, 1), dtype=int)],
                         ids=["float", "bool", "nested", "2-d"])
def test_a_start_that_is_not_1d_integers_raises(start, bernstein_block):
    """A float start would index as an integer, a boolean one as a mask and
    a nested one not at all: each is refused before any state is run."""
    prog = S.GateProgram(S.Circuit(2, (S.h(0), cnot(0, 1))))
    with pytest.raises(ValueError, match="1-D array of integer basis-state indices"):
        S.run(prog, start=start)
    assert not prog.stored
    with pytest.raises(ValueError, match="1-D array of integer basis-state indices"):
        C.evaluate_block(bernstein_block[1], np.array([[0.3, 0.7]]), start=start)


# ---------------------------------------------------------------------------
# Stored prefix states
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def series_block():
    """The d=2, K=4, s=1 Taylor series block, the start index of each of its
    16 cells, one point per cell in the input range of its slots, and the
    same point repeated for the dense oracle."""
    table = C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1)
    bc = C.build_taylor_series_pqc(table, (0, 0))
    starts = C.series_start(table, np.array(list(itertools.product(range(4), repeat=2))))
    xs = np.random.default_rng(5).uniform(0.0, 0.25, (16, 2))
    return bc, starts, xs, np.tile([0.1, 0.2], (16, 1))


def series_program(bc):
    return S.GateProgram(S.hadamard_test_circuit(bc.circuit, bc.prep))


def stored_run(prog, xs, starts):
    return dense_run(prog, x=xs, start=starts)


def batch_values(run, prog, xs, starts):
    return ancilla_values(run(prog, xs, starts))


def single_values(run, prog, xs, starts):
    return np.concatenate([batch_values(run, prog, xs[[n]], starts[[n]])
                           for n in range(len(starts))])


def test_stored_prefix_gives_the_unstored_values_at_every_start(series_block):
    bc, starts, xs, x0 = series_block
    # the ancilla is qubit 0, in |0>
    dense = block_values(bc.circuit.bound(x0[0]), bc.prep, starts)
    assert np.max(np.abs(dense.imag)) <= 1e-12
    # one program fills its store from single points, the other from a batch
    for order in ((single_values, batch_values), (batch_values, single_values)):
        prog = series_program(bc)
        assert (prog.prefix, len(prog.pairs)) == (54, 56)
        for x in (xs, x0):
            for _ in range(2):  # the second pass runs from stored states only
                for values in order:
                    got = values(stored_run, prog, x, starts)
                    assert np.array_equal(got, values(unstored_run, prog, x, starts))
        assert sorted(prog.stored) == sorted(starts.tolist())
        for values in order:
            assert np.max(np.abs(values(stored_run, prog, x0, starts) - dense)) <= 1e-10


def test_program_without_slots_stores_its_whole_run():
    circ = S.Circuit(3, (S.h(0), cnot(0, 1), ry(2, 0.3), S.xg(1),
                         S.Gate("Rx", 2, (0, 1), angle=0.7)))
    prog = S.GateProgram(circ)
    assert prog.prefix == len(prog.pairs) == 5
    starts = np.array([5, 0, 5, 3])
    want = circuit_unitary(circ)[:, starts].T
    first = dense_run(prog, start=starts)
    assert np.max(np.abs(first - want)) <= 1e-14
    assert sorted(prog.stored) == [0, 3, 5]
    # no layer runs after the prefix: the stored states are the final ones,
    # on a support of every index whose nonzero amplitude they could hold
    entry = prog.stored[5]
    assert not prog.layers and prog.targeted == 0 and not entry.layers
    assert np.array_equal(entry.state, first[0][entry.support])
    assert not np.delete(first[0], entry.support).any()
    assert np.array_equal(dense_run(prog, start=starts), first)


def test_program_with_a_slotted_first_op_has_an_empty_prefix():
    circ = S.Circuit(2, (S.encoding_gate(0, S.EncodingSlot(0, "acos", 0.1)), S.h(1),
                         cnot(0, 1), S.rz(1, 0.4)))
    prog = S.GateProgram(circ)
    assert prog.prefix == 0
    xs, starts = np.array([[0.3], [-0.5], [0.7]]), np.array([2, 1, 2])
    got = dense_run(prog, x=xs, start=starts)
    assert np.array_equal(got, unstored_run(prog, xs, starts))
    for x, s, amps in zip(xs, starts, got):
        assert np.max(np.abs(amps - circuit_unitary(circ.bound(x))[:, s])) <= 1e-14
    assert sorted(prog.stored) == [1, 2]


@pytest.mark.parametrize("states", [0, 3])
def test_prefix_store_stops_at_its_byte_cap(monkeypatch, series_block, states):
    bc, starts, xs, _ = series_block
    entries = series_program(bc).start_states(starts.tolist())
    # a start's entry takes 816 or 1,120 bytes, so the cap is the bytes of
    # the first starts a batch stores, in its order of start index
    assert sorted({entry.nbytes for entry in entries.values()}) == [816, 1120]
    first = sorted(entries)[:states]
    cap = sum(entries[s].nbytes for s in first)
    prog = series_program(bc)
    monkeypatch.setattr(S, "PREFIX_BYTES", cap)
    for _ in range(2):
        got = dense_run(prog, x=xs, start=starts)
        assert np.array_equal(got, unstored_run(prog, xs, starts))
        assert sorted(prog.stored) == first
        for n in range(16):
            single = dense_run(prog, x=xs[[n]], start=starts[[n]])
            assert np.array_equal(single, unstored_run(prog, xs[[n]], starts[[n]]))
    assert len(prog.stored) == states
    assert sum(entry.nbytes for entry in prog.stored.values()) <= cap


def test_hadamard_values_runs_the_prefix_once_per_chunk_with_no_store(monkeypatch, series_block):
    """With no room in the store every chunk runs its starts' prefix, once,
    and the readout takes the values from the chunk's states alone."""
    bc, starts, xs, _ = series_block
    prog = series_program(bc)
    want = S.hadamard_values(series_program(bc), xs, starts)
    calls = []
    real_start_states = S.GateProgram.start_states

    def counting_start_states(program, keys):
        calls.append(len(keys))
        return real_start_states(program, keys)

    monkeypatch.setattr(S, "PREFIX_BYTES", 0)
    monkeypatch.setattr(S, "BATCH_BYTES", 4 * prog.row_bytes)
    monkeypatch.setattr(S.GateProgram, "start_states", counting_start_states)
    got = S.hadamard_values(prog, xs, starts)
    assert calls == [4, 4, 4, 4] and not prog.stored
    assert np.array_equal(got, want)


def test_new_starts_run_the_prefix_in_batches_within_prefix_bytes(monkeypatch):
    """A chunk's new starts run the prefix on whole-state columns a batch at
    a time.  With PREFIX_BYTES at four columns, one call over 64 starts
    peaks within eight batches: a batch, the three batches of temporaries
    of an op's update and the entries (6.4 batches here).  One batch of
    every start peaks at 64 batches.  The values do not move."""
    table = C.TaylorCoeffTable.from_target(targets.product_sines(2), 8, 1)
    eta = np.array(list(itertools.product(range(8), repeat=2)))
    starts = C.series_start(table, eta)
    xs = np.random.default_rng(3).uniform(0.0, 1 / 8, (len(starts), 2))
    want = S.hadamard_values(C.build_taylor_series_pqc(table, (0, 0)).program, xs, starts)
    prog = C.build_taylor_series_pqc(table, (0, 0)).program
    column = np.dtype(complex).itemsize * 2**prog.width
    batch = 4 * column
    monkeypatch.setattr(S, "PREFIX_BYTES", batch)
    tracemalloc.start()
    try:
        got = S.hadamard_values(prog, xs, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * batch, peak / batch
    assert np.array_equal(got, want)


def sparse_prefix_circuit(rng, width):
    """Fixed H's and controlled Ry's that spread a start over a random few
    qubits, then slotted and fixed runs on random targets (as in
    random_slotted_circuit) and one slotted op on qubit 0, the ancilla of a
    Hadamard test, so the runs also target qubits the prefix leaves in a
    basis state."""
    spread = rng.choice(width, int(rng.integers(0, width)), replace=False).tolist()
    gates = [S.h(q) for q in spread]
    for q in spread:
        target = int(rng.integers(0, width))
        if target != q:
            gates.append(S.Gate("Ry", target, (q,), angle=float(rng.normal())))
    suffix = list(random_slotted_circuit(rng, width, 4).gates)
    suffix.insert(int(rng.integers(0, len(suffix) + 1)),
                  S.Gate("Rx", 0, slot=S.EncodingSlot(0, "acos", 0.1)))
    return S.Circuit(width, tuple(gates + suffix))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_support_run_equals_the_whole_state_run(seed):
    """A batch of mixed starts runs each start on its support and gives the
    amplitudes of running every op on the whole state; every amplitude off
    a start's support is exactly 0 there, and the readout takes every pair
    of the two halves with both ends on the support."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 7))
    prog = S.GateProgram(sparse_prefix_circuit(rng, width))
    pool = rng.integers(0, 2**width, 3)
    xs, _ = random_batch(rng, width, int(rng.integers(1, 9)))
    starts = rng.choice(pool, len(xs))
    want = unstored_run(prog, xs, starts)
    groups = S.run(prog, x=xs, start=starts)
    seen = []
    half = 2**width // 2
    for cols, entry, states in groups:
        support = entry.support
        assert np.array_equal(support, np.unique(support))
        assert np.array_equal(states, want[cols][..., support].T)
        assert not np.delete(want[cols], support, axis=-1).any()
        lo, hi = support[entry.readout]
        assert np.array_equal(hi, lo + half) and (hi >= half).all()
        assert len(lo) == len(np.intersect1d(support[support < half] + half, support))
        assert sum(pair.shape[1] for pair, _ in entry.layers) <= sum(
            pair.shape[1] for pair, _ in prog.layers)
        seen += np.ravel(np.arange(len(xs))[cols]).tolist()
    assert sorted(seen) == list(range(len(xs)))
    got = dense_run(prog, xs, starts)
    assert np.array_equal(got, want)
    for n in range(len(xs)):
        assert np.array_equal(dense_run(prog, x=xs[[n]], start=starts[[n]])[0], got[n])
    values = S.hadamard_values(prog, xs, starts)
    assert np.max(np.abs(values - ancilla_values(want))) <= 1e-12


@pytest.mark.parametrize("block, amplitudes, pairs", [
    ("bernstein", ({48}, 512), ({8}, 128)),
    ("series", ({24, 32}, 512), ({2, 4}, 64)),
])
def test_a_point_updates_only_the_pairs_on_its_support(block, amplitudes, pairs,
                                                     bernstein_block, series_block):
    """The d=2, n=4 Bernstein block from start 0 and the d=2, K=4 series
    block from each of its 16 cells: the amplitudes a point keeps, the
    pairs it updates per point and the readout pairs it reads, of the whole
    state's.  A series cell whose coefficients of order 1 all vanish (eta_0
    = 0 for product_sines) keeps fewer."""
    if block == "bernstein":
        bc, starts, readout = bernstein_block[1], np.zeros(1, dtype=int), ({24}, 256)
    else:
        bc, starts, readout = *series_block[:2], ({12, 16}, 256)
    prog = bc.program
    entries = prog.start_states(starts.tolist()).values()
    assert ({len(entry.support) for entry in entries}, 2**prog.width) == amplitudes
    assert ({sum(pair.shape[1] for pair, _ in entry.layers) for entry in entries},
            sum(pair.shape[1] for pair, _ in prog.layers)) == pairs
    assert ({entry.readout.shape[1] for entry in entries}, 2**prog.width // 2) == readout


def test_hadamard_values_rejects_extra_start_indices(monkeypatch, bernstein_block):
    """The lengths are checked before chunking: with a one-point budget the
    chunks of two points end before the extra starts do."""
    bc = bernstein_block[1]
    xs = np.array([[0.3, 0.7], [0.5, 0.1]])
    monkeypatch.setattr(S, "BATCH_BYTES", 1)
    for evaluate in (lambda: S.hadamard_values(bc.program, xs, start=[0, 0, 0, 0]),
                     lambda: C.evaluate_block(bc, xs, start=np.zeros(4, dtype=int))):
        with pytest.raises(ValueError, match="2 points but 4 start indices"):
            evaluate()
    assert len(S.hadamard_values(bc.program, xs, start=[0, 0])) == 2


def fixed_after_slotted_circuit(overlap):
    """A fixed op before the first slotted op (g0), then a slotted op on the
    amplitudes where qubit 1 reads 1 (g1), and fixed ops that touch none of
    its amplitudes (g2 and g4, where qubit 1 reads 0) or some of them (g3
    and g5).  With ``overlap`` g2 moves onto some of g1's amplitudes, and
    g4 then overlaps g2 alone."""
    return S.Circuit(3, (
        S.h(2),                                                 # g0
        S.Gate("Rx", 0, (1,), slot=S.EncodingSlot(0, "acos", 0.1)),  # g1
        S.Gate("Ry", 1, (0,), angle=0.3) if overlap             # g2
        else S.Gate("Ry", 0, zeros=(1,), angle=0.3),
        S.Gate("Rz", 2, (1,), angle=0.5),                       # g3
        S.Gate("X", 2, zeros=(1,)),                             # g4
        S.h(1),                                                 # g5
    ))


@pytest.mark.parametrize("overlap, layers", [(False, 3), (True, 4)],
                         ids=["disjoint", "overlapping"])
def test_fixed_ops_after_the_first_slotted_op_run_at_every_point(overlap, layers):
    """The prefix is g0 alone; every later op, fixed or slotted, runs at
    every point in circuit order, and the values match the dense unitary."""
    circ = fixed_after_slotted_circuit(overlap)
    prog = S.GateProgram(circ)
    assert (prog.prefix, len(prog.pairs), len(prog.layers)) == (1, 6, layers)
    assert np.array_equal(prog.slotted, [1])
    for k, g in enumerate(circ.gates):
        if k != 1:
            assert np.array_equal(prog.heads[k], S.gate_matrix_1q(g.kind, g.angle))
    check_schedule(prog)
    xs = np.array([[0.3], [-0.5], [0.7], [0.0]] * 2)
    starts = np.arange(8)
    got = dense_run(prog, x=xs, start=starts)
    assert np.array_equal(got, unstored_run(prog, xs, starts))
    for x, s, amps in zip(xs, starts, got):
        assert np.max(np.abs(amps - circuit_unitary(circ.bound(x))[:, s])) <= 1e-14


@pytest.mark.parametrize("d, layout", [(2, (54, 56, [64])), (3, (212, 215, [768]))])
def test_series_block_runs_only_its_slotted_ops_per_point(d, layout):
    """The prep, the sign diagonal and the pad of the d=2 and d=3, K=4, s=1
    series block are fixed and come before every slotted op, so they all
    run in the prefix; the SELECT's d slotted ops, one per order-1 term,
    run in one layer."""
    table = C.TaylorCoeffTable.from_target(targets.product_sines(d), 4, 1)
    prog = C.build_taylor_series_pqc(table, (0,) * d).program
    assert (prog.prefix, len(prog.pairs), [pair.shape[1] for pair, _ in prog.layers]) == layout
    assert np.array_equal(prog.slotted, np.arange(prog.prefix, len(prog.pairs)))


def test_trig_block_drops_its_identity_lines():
    """The term (0, 1) carries its coefficient on coordinate 1's line, so
    its coordinate-0 line is exactly I and compiles to no op: the prefix
    holds the two H's, and the three slotted lines run in two layers."""
    prog = trig_block().program
    assert (prog.prefix, len(prog.pairs), [pair.shape[1] for pair, _ in prog.layers]) \
        == (2, 5, [4, 2])


def test_a_point_with_too_few_coordinates_raises():
    bc = C.build_bernstein_pqc(targets.abs_centered(2), 4)
    assert bc.program.coords == 2
    for x in ([0.3], np.array([[0.3], [0.5]])):
        with pytest.raises(ValueError,
                           match="the circuit reads 2 coordinates, but the point has 1"):
            C.evaluate_block(bc, x)
    # a coordinate no slot reads is ignored
    assert C.evaluate_block(bc, [0.3, 0.7, 0.9]) == C.evaluate_block(bc, [0.3, 0.7])


def test_a_zero_dimensional_point_raises(bernstein_block):
    bc = bernstein_block[1]
    for x in (0.3, np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match=r"shape \(d,\) and a batch shape \(N, d\)"):
            C.evaluate_block(bc, x)


# ---------------------------------------------------------------------------
# Layer schedule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bernstein_block():
    """The d=2, n=4 Bernstein block of abs_centered."""
    f = targets.abs_centered(2)
    return f, C.build_bernstein_pqc(f, 4)


def check_schedule(prog):
    """Every op from prefix on in exactly one layer, whose pairs and rows
    cover its members exactly once, op k as row k - prefix; disjoint
    members and overlapping ops in program order."""
    ops = prog.pairs[prog.prefix:]
    layer_of = np.full(len(ops), -1)
    for layer, (pair, rows) in enumerate(prog.layers):
        members = np.unique(rows)
        assert len(members) and 0 <= members[0] and members[-1] < len(ops)
        assert all(layer_of[members] == -1)  # in no earlier layer
        layer_of[members] = layer
        assert pair.shape == (2, len(rows))
        for r in members:
            assert np.array_equal(pair[:, rows == r], ops[r])
        assert len(np.unique(pair)) == pair.size  # pairwise disjoint amplitudes
    assert all(layer_of >= 0)
    touched = [set(pair.ravel().tolist()) for pair in ops]
    for i, j in itertools.combinations(range(len(ops)), 2):
        if touched[i] & touched[j]:
            assert layer_of[i] < layer_of[j]


def applies_per_point(prog):
    """Applies a batch run makes from its stored prefix states."""
    return len(prog.layers)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_schedule_of_random_programs(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    check_schedule(S.GateProgram(selected_circuit(rng, width, 8)))
    check_schedule(S.GateProgram(random_slotted_circuit(rng, width, 6)))


def dense_columns(circ, x, starts):
    """Columns ``starts`` of circuit_unitary(circ.bound(x)), by its reference
    kernel on those columns alone."""
    amps = np.zeros((2**circ.width, len(starts)), dtype=complex)
    amps[starts, np.arange(len(starts))] = 1.0
    for g in circ.bound(x).gates:
        amps = _apply_gate(amps, g, circ.width)
    return amps.T


@pytest.mark.parametrize("block", ["bernstein", "series"])
def test_layered_blocks_match_the_dense_oracle(block, bernstein_block, series_block):
    if block == "bernstein":
        bc = bernstein_block[1]
        xs = np.random.default_rng(7).uniform(0.0, 1.0, (4, 2))
        starts, max_applies = np.zeros(4, dtype=int), 2
    else:
        bc, starts, xs, _ = series_block
        xs, starts, max_applies = xs[:4], starts[:4], 2
    circ = S.hadamard_test_circuit(bc.circuit, bc.prep)
    prog = S.GateProgram(circ)
    check_schedule(prog)
    assert applies_per_point(prog) <= max_applies
    batch = dense_run(prog, x=xs, start=starts)
    for n, (x, s) in enumerate(zip(xs, starts)):
        want = dense_columns(circ, x, [s])[0]
        single = unstored_run(prog, xs[[n]], starts[[n]])[0]
        assert np.max(np.abs(single - want)) <= 1e-12
        assert np.max(np.abs(batch[n] - want)) <= 1e-12
        assert np.array_equal(dense_run(prog, x=xs[[n]], start=starts[[n]])[0], batch[n])
        assert np.array_equal(single, batch[n])


def test_layered_bernstein_batch_matches_the_classical_sum(bernstein_block):
    f, bc = bernstein_block
    xs = np.random.default_rng(8).uniform(0.0, 1.0, (64, 2))
    got = C.evaluate_block(bc, xs)
    want = np.array([P.bernstein_eval(f, 4, x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-9


# ---------------------------------------------------------------------------
# Fourier binding of the slotted ops
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6))
@example(seed=12424)  # a circuit with no slotted op
@settings(max_examples=25, deadline=None)
def test_fourier_binding_matches_the_stage_products(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    circ = random_slotted_circuit(rng, width, 6)
    prog = S.GateProgram(circ)
    assert all(slot is not None for slot, _ in prog.chains)
    xs, _ = random_batch(rng, width, int(rng.integers(1, 9)))
    got = prog.op_matrices(xs)
    assert got.shape == (len(prog.pairs) - prog.prefix, len(xs), 2, 2)
    slotted = got[prog.slotted - prog.prefix]
    assert np.max(np.abs(slotted - stage_op_matrices(prog, xs)), initial=0.0) <= 1e-13
    for n in range(len(xs)):
        assert np.array_equal(prog.op_matrices(xs[[n]])[:, 0], got[:, n])


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fixed_rows_of_op_matrices_are_their_heads(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    prog = S.GateProgram(random_slotted_circuit(rng, width, 6))
    fixed = np.setdiff1d(np.arange(prog.prefix, len(prog.pairs)), prog.slotted)
    for n in rng.integers(1, 9, 3):
        xs, _ = random_batch(rng, width, int(n))
        got = prog.op_matrices(xs)[fixed - prog.prefix]
        assert np.array_equal(got, np.broadcast_to(prog.heads[fixed][:, None], got.shape))


def localization_k2():
    return C.build_localization_pqc(P.LocalizationSpec(2, 0.1, 0.05))


@pytest.mark.parametrize("tables", [3, 0])
def test_hadamard_values_in_chunks_equal_one_batch(tables, bernstein_block, series_block):
    """Seven points in chunks of three and of one give the values of one
    batch bit for bit: from start 0 on a one-qubit line of 40 random
    angles, whose table row outweighs its state, and from mixed starts on
    the d=2, n=4 Bernstein and d=2, K=4 series programs."""
    rng = np.random.default_rng(12)
    angles = np.random.default_rng(5).uniform(-math.pi, math.pi, 40)
    line = S.Circuit(1, C.qsp_line(angles, S.EncodingSlot(0, "acos")))
    loc = S.GateProgram(S.hadamard_test_circuit(line, S.Circuit(1, (S.h(0),))))
    assert loc.row_bytes == 8 * len(loc.row_half) > 16 * 2**loc.width
    bern = bernstein_block[1].program
    series, cells, points, _ = series_block
    pick = rng.choice(len(cells), 7)
    cases = [(loc, rng.uniform(0.0, 1.0, (7, 1)), None),
             (bern, rng.uniform(0.0, 1.0, (7, 2)), rng.integers(0, 2**(bern.width - 1), 7)),
             (series.program, points[pick], cells[pick])]
    for prog, xs, starts in cases:
        assert starts is None or len(set(starts.tolist())) > 1
        whole = S.hadamard_values(prog, xs, starts)
        chunks = []
        real_run = S.run

        def counting_run(program, **kwargs):
            chunks.append(len(kwargs["x"]))
            return real_run(program, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            # budgets of three points' rows and of less than one
            mp.setattr(S, "BATCH_BYTES", tables * prog.row_bytes)
            mp.setattr(S, "run", counting_run)
            assert np.array_equal(S.hadamard_values(prog, xs, starts), whole)
        assert chunks == ([3, 3, 1] if tables else [1] * 7)


def trig_block():
    return C.build_trig_poly_pqc(P.MultivariateTrigPolynomial({(1, -2): 0.3j, (0, 1): 0.4}, 2))


@pytest.mark.parametrize("block", ["bernstein", "series", "trig", "localization"])
def test_fourier_binding_of_the_constructions(block, bernstein_block, series_block):
    rng = np.random.default_rng(11)
    bc, xs = {
        "bernstein": lambda: (bernstein_block[1], rng.uniform(0.0, 1.0, (6, 2))),
        "series": lambda: (series_block[0], series_block[2][:6]),
        "trig": lambda: (trig_block(), rng.uniform(-3.0, 3.0, (6, 2))),
        "localization": lambda: (localization_k2(),
                                 np.array([[0.0], [1e-12], [0.3], [0.8], [1 - 1e-12], [1.0]])),
    }[block]()
    prog = bc.program
    got = prog.op_matrices(xs)
    assert np.max(np.abs(got[prog.slotted - prog.prefix] - stage_op_matrices(prog, xs))) <= 1e-13
    for n in range(len(xs)):
        assert np.array_equal(prog.op_matrices(xs[[n]])[:, 0], got[:, n])


@pytest.mark.parametrize("build", [
    lambda: C.build_bernstein_pqc(targets.abs_centered(2), 4),
    lambda: C.build_taylor_series_pqc(
        C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1), (0, 0)),
    lambda: C.build_monomial_pqc(0.5, (1, 2)),
    lambda: C.build_poly_pqc(P.MultivariatePolynomial({(1, 0): 0.5, (0, 2): 0.25}, 2)),
    trig_block,
    localization_k2,
], ids=["bernstein", "series", "monomial", "poly", "trig", "localization"])
def test_no_construction_splits_a_run(build):
    bc = build()
    assert slot_splits(S.hadamard_test_circuit(bc.circuit, bc.prep)) == 0


@pytest.mark.parametrize("build", [
    lambda: C.build_bernstein_pqc(targets.abs_centered(2), 4),
    lambda: C.build_taylor_series_pqc(
        C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1), (0, 0)),
    lambda: C.build_poly_pqc(P.MultivariatePolynomial({(1, 0): 0.5, (0, 2): 0.25}, 2)),
    lambda: C.build_parity_pair_pqc(P.Polynomial.from_power((0.2, 0.3, 0.4)), S.EncodingSlot(0, "acos")),
    trig_block,
], ids=["bernstein", "series", "poly", "parity-pair", "trig"])
def test_no_layer_after_prefix_runs_a_selection_h(build):
    """lcu_combine's selection H's sit in the prep, so they run once per
    start within the prefix: no fixed op after it is a bare H."""
    prog = build().program
    fixed = np.setdiff1d(np.arange(prog.prefix, len(prog.pairs)), prog.slotted)
    assert not any(np.allclose(m, S.gate_matrix_1q("H"), rtol=0, atol=1e-12)
                   for m in prog.heads[fixed])


def test_bernstein_d2_point_runs_two_layers_after_prefix(bernstein_block):
    """The perfbench bernstein_d2 block: two layers from prefix on, each
    one apply per point."""
    prog = bernstein_block[1].program
    assert applies_per_point(prog) == 2
    # 4 ops per coordinate, each on the 16 pairs where the ancilla and its
    # 3-qubit register hold their values
    assert sum(prog.pairs[k].shape[1] for k in range(prog.prefix, len(prog.pairs))) == 128


def test_a_run_splits_where_its_slot_changes():
    text = (
        "width 2\nlabel two slots in one run\n"
        "H 1\n"
        "MCU.Rx 1 c=0 enc=acos:0:0.1:1.0\n"
        "MCU.Ry 1 c=0 a=0.3\n"
        "MCU.Rz 1 c=0 enc=zrot:1:0.0:2.0\n"
        "MCU.Rz 1 c=0 enc=zrot:1:0.0:2.0\n"
        "MCU.H 1 c=0\n"
        "MCU.Rx 1 c=0 enc=acos:0:0.1:1.0\n"
    )
    circ = S.circuit_from_text(text)
    assert slot_splits(circ) == 2
    prog = S.GateProgram(circ)
    assert len(prog.pairs) == 4 and len(prog.slotted) == 3
    assert [len(chain) for _, chain in prog.chains] == [1, 2, 1]
    xs = np.array([[0.3, -1.2], [-0.9, 2.5], [1.1, 0.4]])
    every = np.arange(4)
    for x in xs:
        got = dense_run(prog, x=np.tile(x, (4, 1)), start=every)
        assert np.max(np.abs(got - circuit_unitary(circ.bound(x)).T)) <= 1e-14
    got = prog.op_matrices(xs)[prog.slotted - prog.prefix]
    assert np.max(np.abs(got - stage_op_matrices(prog, xs))) <= 1e-15


def test_expectations_without_points_or_starts_run_from_zero():
    circ = S.Circuit(2, (S.h(0), ry(1, 0.4), cnot(1, 0)))
    want = S.hadamard_values(circ, start=np.zeros(1, dtype=int))
    assert abs(want[0] - ancilla_values(circuit_unitary(circ)[:, :1].T)[0]) <= 1e-15
    for c in (circ, S.GateProgram(circ)):
        got = S.hadamard_values(c)
        assert got.shape == (1,) and got[0] == want[0]


# ---------------------------------------------------------------------------
# Hadamard test
# ---------------------------------------------------------------------------


def hadamard_test(u, prep):
    """<psi|U|psi> with |psi> = prep|0...0>, read as BlockCircuit.program
    reads it."""
    return S.hadamard_values(S.hadamard_test_circuit(u, prep))[0]


def test_hadamard_test_identity():
    u = S.Circuit(1, ())
    assert hadamard_test(u, S.Circuit(1, ())) == pytest.approx(1.0)


def test_hadamard_test_rz_pi_on_plus():
    u = S.Circuit(1, (S.rz(0, math.pi),))
    prep = S.Circuit(1, (S.h(0),))
    assert hadamard_test(u, prep) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("width", [1, 2, 4, 6])
def test_hadamard_test_matches_dense(width):
    rng = np.random.default_rng(width + 100)
    u = random_circuit(rng, width, 15, mcu=True)
    prep = random_circuit(rng, width, 6)
    block = block_values(u, prep)[0]
    got = hadamard_test(u, prep)
    tol = 1e-12 if width <= 2 else 1e-10
    assert abs(got.real - block.real) <= tol
    assert abs(got.imag - block.imag) <= tol


def test_hadamard_test_width_mismatch():
    with pytest.raises(ValueError):
        S.hadamard_test_circuit(S.Circuit(2, ()), S.Circuit(1, ()))


# ---------------------------------------------------------------------------
# Shot sampling
# ---------------------------------------------------------------------------


def test_shots_deterministic_state():
    identity = S.hadamard_test_circuit(S.Circuit(1, ()), S.Circuit(1, ()))
    est, err = S.sample_shots(identity, 500, seed=1)
    assert est == 1.0 and err == 0.0


def test_shots_reproducible():
    c = S.hadamard_test_circuit(S.Circuit(1, (S.xg(0),)), S.Circuit(1, ()))
    assert S.sample_shots(c, 1000, seed=7) == S.sample_shots(c, 1000, seed=7)


def test_shots_concentration():
    c = S.hadamard_test_circuit(S.Circuit(1, (S.xg(0),)), S.Circuit(1, ()))  # <0|X|0> = 0
    estimates = [S.sample_shots(c, 10_000, seed=s)[0] for s in range(20)]
    assert abs(float(np.mean(estimates))) <= 5.0 / math.sqrt(10_000 * 20)


def test_shots_are_one_binomial_draw():
    """10^11 shots cost no memory per shot; a count beyond int64 is refused."""
    c = S.hadamard_test_circuit(S.Circuit(1, (ry(0, 1.1),)), S.Circuit(1, ()))
    exact = math.cos(0.55)  # <0|Ry(1.1)|0>
    tracemalloc.start()
    try:
        est, err = S.sample_shots(c, 10**11, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert err == pytest.approx(math.sqrt((1.0 - exact**2) / 10**11), rel=1e-3)
    assert abs(est - exact) <= 5 * err
    with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
        S.sample_shots(c, 2**63, seed=1)


# ---------------------------------------------------------------------------
# Lowering controlled gates
# ---------------------------------------------------------------------------


def test_decompose_no_controls_is_bare_gate():
    g = S.Gate("Ry", 0, angle=0.3)
    out = decompose_mcu(g)
    assert len(out) == 1 and out[0].kind == "Ry"


def test_decompose_single_controlled_rx():
    g = S.Gate("Rx", 1, (0,), angle=0.9)
    native = circuit_unitary(S.Circuit(2, (g,)))
    low = circuit_unitary(S.Circuit(2, tuple(decompose_mcu(g))))
    phase = np.vdot(low.ravel(), native.ravel())
    phase /= abs(phase)
    assert np.max(np.abs(native - phase * low)) <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("sub,angle", [("Rz", 0.7), ("Ry", -1.2), ("Rx", 0.4),
                                       ("X", None), ("H", None), ("Z", None)])
def test_decompose_matches_native(m, sub, angle):
    g = S.Gate(sub, m, tuple(range(m)), angle=angle)
    native = circuit_unitary(S.Circuit(m + 1, (g,)))
    gates = decompose_mcu(g)
    low = circuit_unitary(S.Circuit(m + 1, tuple(gates)))
    phase = np.vdot(low.ravel(), native.ravel())
    phase /= abs(phase)
    assert np.max(np.abs(native - phase * low)) <= 1e-9
    assert all(x.kind in ("Rx", "Ry", "Rz") and not x.controls
               or x.kind == "X" and len(x.controls) == 1 for x in gates)


@pytest.mark.parametrize("sub,angle", [("Ry", -1.2), ("Rx", 0.4), ("X", None), ("Z", None)])
@pytest.mark.parametrize("controls, zeros", [((), (0,)), ((1,), (0, 2)), ((), (0, 1, 2))])
def test_decompose_wraps_each_zero_control_in_two_xs(sub, angle, controls, zeros):
    g = S.Gate(sub, 3, controls, angle=angle, zeros=zeros)
    native = circuit_unitary(S.Circuit(4, (g,)))
    for gates in (decompose_mcu(g), lowered(S.Circuit(4, (g,))).gates):
        flips = [[x.target for x in gates[:len(zeros)]], [x.target for x in gates[-len(zeros):]]]
        assert flips == [list(zeros)] * 2
        assert all(not x.zeros and (len(x.controls) <= 1 and x.kind == "X" or not x.controls)
                   for x in gates)
        low = circuit_unitary(S.Circuit(4, tuple(gates)))
        phase = np.vdot(low.ravel(), native.ravel())
        phase /= abs(phase)
        assert np.max(np.abs(native - phase * low)) <= 1e-9


def test_lowered_circuit_contains_no_mcu():
    g = S.Gate("Ry", 2, (0, 1), angle=0.3)
    circ = lowered(S.Circuit(3, (S.h(0), g)))
    assert all(len(x.controls) <= 1 and (x.kind == "X" or not x.controls) for x in circ.gates)


def test_lowered_bernstein_block_matches_native():
    """The bound d=1, n=2 Bernstein block lowers to CNOTs, X's and
    uncontrolled rotations with the native unitary up to a global phase
    (each zero-control a control between two X's); unbound, it does not
    lower."""
    bc = C.build_bernstein_pqc(targets.abs_centered(1), 2)
    native = bc.circuit.bound((0.3,))
    low = lowered(native)
    assert sum(len(g.zeros) for g in native.gates) == 3
    assert (len(native.gates), len(low.gates)) == (4, 67)
    assert all(len(x.controls) <= 1 and (x.kind == "X" or not x.controls) for x in low.gates)
    want, got = circuit_unitary(native), circuit_unitary(low)
    phase = np.vdot(got.ravel(), want.ravel())
    phase /= abs(phase)
    assert np.max(np.abs(want - phase * got)) <= 1e-12
    with pytest.raises(ValueError, match="bind encoding slots before lowering"):
        lowered(bc.circuit)


# ---------------------------------------------------------------------------
# Resource accounting
# ---------------------------------------------------------------------------


def test_resource_count_empty():
    rc = S.resource_count(S.Circuit(3, ()))
    assert (rc.width, rc.depth, rc.trainable_params, rc.gate_total) == (3, 0, 0, 0)


def test_resource_count_parallel_wires():
    c = S.Circuit(2, (rx(0, 0.1, trainable=True), rx(1, 0.2, trainable=True)))
    rc = S.resource_count(c)
    assert rc.depth == 1 and rc.trainable_params == 2


def test_depth_subadditive_under_concat():
    rng = np.random.default_rng(4)
    c1 = random_circuit(rng, 3, 9)
    c2 = random_circuit(rng, 3, 7)
    d1 = S.resource_count(c1).depth
    d2 = S.resource_count(c2).depth
    d12 = S.resource_count(S.Circuit(3, c1.gates + c2.gates)).depth
    assert d12 <= d1 + d2


def test_trainable_bound_invariant():
    with pytest.raises(ValueError):
        S.ResourceCount(1, 1, 2, 1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_text_round_trip():
    gates = (
        S.h(0),
        S.encoding_gate(2, S.EncodingSlot(0, "acos", 0.25)),
        S.encoding_gate(1, S.EncodingSlot(1, "acos", 1.0, 2.0)),
        S.Gate("Ry", 3, (0, 1), angle=0.5, trainable=True),
        S.Gate("Rz", 0, (2,), slot=S.EncodingSlot(2, "zrot", -0.5, 3.0)),
        cnot(1, 2),
        S.xg(3),
        S.rz(1, -1.25, trainable=True),
        S.Gate("Ry", 0, (1,), angle=0.25, trainable=True, zeros=(3, 2)),
        S.Gate("X", 2, zeros=(0,)),
        S.Gate("Rx", 3, slot=S.EncodingSlot(1, "acos", 1.0, 2.0), zeros=(0, 1)),
    )
    c = S.Circuit(4, gates, label="round trip example")
    assert S.circuit_from_text(S.circuit_to_text(c)) == c


@st.composite
def text_gates(draw, width=5):
    """A gate on a width-qubit register with random controls, zero-controls,
    angle or encoding slot, and trainable flag."""
    kind = draw(st.sampled_from(S._SINGLE_KINDS))
    qubits = draw(st.permutations(range(width)))
    ones = draw(st.integers(0, width - 1))
    zeros = draw(st.integers(0, width - 1 - ones))
    angle = slot = None
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if kind in ("Rx", "Ry", "Rz"):
        if draw(st.booleans()):
            slot = S.EncodingSlot(draw(st.integers(0, 3)), draw(st.sampled_from(["acos", "zrot"])),
                                  draw(finite), draw(finite))
        else:
            angle = draw(finite)
    return S.Gate(kind, qubits[0], tuple(qubits[1:1 + ones]), angle, draw(st.booleans()), slot,
                  tuple(qubits[1 + ones:1 + ones + zeros]))


@given(st.lists(text_gates(), max_size=12))
@settings(max_examples=50, deadline=None)
def test_text_round_trip_of_random_gates(gates):
    c = S.Circuit(5, tuple(gates), label="random gates")
    text = S.circuit_to_text(c)
    assert S.circuit_from_text(text) == c
    for g, line in zip(gates, text.splitlines()[2:]):
        cnot = g.kind == "X" and len(g.controls) == 1 and not g.zeros
        assert (line.split()[0] == "CNOT") == cnot
        assert (" z=" in line) == bool(g.zeros)


def test_text_spells_controlled_gates_cnot_or_mcu():
    c = S.Circuit(3, (cnot(0, 2), S.Gate("X", 2, (0, 1)), S.Gate("H", 1, (0,))))
    assert S.circuit_to_text(c).splitlines()[2:] == ["CNOT 2 c=0", "MCU.X 2 c=0,1", "MCU.H 1 c=0"]
    assert S.circuit_from_text("width 2\nlabel old\nMCU.X 1 c=0\n").gates == (cnot(0, 1),)
    with pytest.raises(ValueError, match="spell it CNOT or MCU.X"):
        S.circuit_from_text("width 2\nlabel bad\nX 1 c=0\n")
    # an X with one control is spelled CNOT only without zero-controls
    zeroed = S.Circuit(3, (S.Gate("X", 2, (0,), zeros=(1,)), S.Gate("X", 2, zeros=(0,))))
    assert S.circuit_to_text(zeroed).splitlines()[2:] == ["MCU.X 2 c=0 z=1", "MCU.X 2 z=0"]
    with pytest.raises(ValueError, match="exactly one control and no zero-control"):
        S.circuit_from_text("width 3\nlabel bad\nCNOT 2 c=0 z=1\n")
    with pytest.raises(ValueError, match="spell it CNOT or MCU.Rz"):
        S.circuit_from_text("width 2\nlabel bad\nRz 1 z=0 a=0.5\n")


@pytest.mark.parametrize("line, message", [
    ("MCU.X 2 z=0 z=1", "repeats its z= token"),
    ("MCU.Ry 2 z=2 a=0.5", "must be distinct qubits"),
    ("MCU.Ry 2 c=0 z=1,0 a=0.5", "must be distinct qubits"),
    ("MCU.Ry 2 z=1,1 a=0.5", "must be distinct qubits"),
], ids=["repeated-token", "zero-on-target", "zero-on-control", "repeated-zero"])
def test_text_rejects_a_bad_zero_control(line, message):
    with pytest.raises(ValueError, match=message):
        S.circuit_from_text(f"width 3\nlabel bad\n{line}\n")


def test_old_three_field_slots_load_with_scale_one_and_evaluate_unchanged():
    bc = C.build_monomial_pqc(0.5, (1, 2))
    old = S.circuit_to_text(bc.circuit).replace(":0.0:1.0\n", ":0.0\n")  # no scale field
    assert old.count("enc=acos:0:0.0\n") == 1 and old.count("enc=acos:1:0.0\n") == 2
    circ = S.circuit_from_text(old)
    assert circ == bc.circuit
    assert all(g.slot.scale == 1.0 for g in circ.gates if g.slot)
    x = np.array([[0.8, 0.5], [0.3, -0.6]])
    loaded = C.BlockCircuit(circ, bc.prep, bc.rescale, tol=bc.tol)
    assert np.array_equal(C.evaluate_block(loaded, x), C.evaluate_block(bc, x))


@pytest.mark.parametrize("token", ["enc=acos:0", "enc=acos:0:0.0:1.0:2.0"])
def test_text_rejects_a_slot_token_with_the_wrong_field_count(token):
    with pytest.raises(ValueError, match="xform:coord:shift:scale"):
        S.circuit_from_text(f"width 1\nlabel bad\nRx 0 {token}\n")


def test_text_rejects_a_repeated_slot_token():
    # a second enc= token would silently replace the first slot
    with pytest.raises(ValueError, match="repeats its enc= token"):
        S.circuit_from_text("width 1\nlabel bad\nRx 0 enc=acos:0:0.0:1.0 enc=acos:0:0.1:1.0\n")


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        S.circuit_from_text("not a circuit")
