import dataclasses
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from pqcapprox import approx, cli
from pqcapprox import circuits as C
from pqcapprox import poly as P
from pqcapprox import qsp as Q
from pqcapprox import sim as S
from pqcapprox import targets

from oracles import (
    block_values,
    circuit_unitary,
    cnot,
    composed_reference,
    dense_run,
    qsp_unitary,
    ry,
    trig_qsp_unitary,
)


def halfsine():
    return targets.halfsine()


# ---------------------------------------------------------------------------
# Line circuits agree with the matrix definitions
# ---------------------------------------------------------------------------


def test_qsp_line_matches_unitary():
    rng = np.random.default_rng(2)
    angles = tuple(rng.normal(size=5))
    x = 0.37
    circ = S.Circuit(1, C.qsp_line(angles, S.EncodingSlot(0, "acos"))).bound((x,))
    u_circ = circuit_unitary(circ)
    u_ref = qsp_unitary(Q.QspAngleSequence(angles), x)
    assert np.max(np.abs(u_circ - u_ref)) <= 1e-12


def test_trig_line_matches_unitary():
    rng = np.random.default_rng(3)
    params = Q.TrigQspParams(
        float(rng.normal()), tuple(rng.normal(size=4)), tuple(rng.normal(size=4))
    )
    x = 1.1
    circ = S.Circuit(1, C.trig_line(params, S.EncodingSlot(0, "zrot"))).bound((x,))
    u_circ = circuit_unitary(circ)
    u_ref = trig_qsp_unitary(params, x)
    assert np.max(np.abs(u_circ - u_ref)) <= 1e-12


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


def test_monomial_constant():
    bc = C.build_monomial_pqc(1.0, (0, 0))
    for x in [(0.2, 0.9), (0.5, 0.1)]:
        assert C.evaluate_block(bc, x) == pytest.approx(1.0, abs=1e-10)


def test_monomial_frozen_example():
    bc = C.build_monomial_pqc(0.5, (1, 2))
    assert C.evaluate_block(bc, (0.8, 0.5)) == pytest.approx(0.1, abs=1e-10)


def test_monomial_coefficient_rides_the_first_line_with_a_nonzero_power():
    """c x_1^3 carries c on coordinate 1's line, so coordinate 0's line is
    exactly I and compiles to no op: the three ops, one per encoding gate,
    target qubit 1."""
    c, k = -0.6, 3
    bc = C.build_monomial_pqc(c, (0, k))
    angles = C.synthesize_cached(C._monomial_target(c, k), 1e-11).angles
    line = [(g.kind, g.angle, g.slot) for g in bc.circuit.gates if g.target == 1]
    want = C.qsp_line(angles, S.EncodingSlot(1, "acos"))
    assert line == [(g.kind, g.angle, g.slot) for g in want]
    prog = S.GateProgram(bc.circuit)
    assert len(prog.pairs) == k and all(int(pair[0, 0] ^ pair[1, 0]) == 1 for pair in prog.pairs)
    for x in [(0.2, 0.9), (0.7, -0.4)]:
        assert C.evaluate_block(bc, x) == pytest.approx(c * x[1]**k, abs=1e-10)


def test_monomial_resources():
    alpha = (2, 1, 3)
    s = sum(alpha)
    bc = C.build_monomial_pqc(0.7, alpha)
    rc = S.resource_count(bc.circuit)
    assert rc.width <= len(alpha)
    assert rc.depth <= 2 * s + 1
    assert rc.trainable_params <= s + len(alpha)


def test_monomial_rejects_big_coefficient():
    with pytest.raises(ValueError):
        C.build_monomial_pqc(1.5, (1,))


def test_monomial_and_trig_monomial_reject_a_nan_coefficient():
    with pytest.raises(ValueError, match=r"\|c\| <= 1"):
        C.build_monomial_pqc(math.nan, (1,))
    with pytest.raises(ValueError, match=r"\|c\| <= 1"):
        C.build_trig_monomial_pqc(complex(math.nan, 0.0), (1,))


def test_tensor_of_a_real_and_a_complex_line_multiplies_their_values():
    angles = C.synthesize_cached(P.ParityPolynomial(P.Polynomial.from_power((0.0, 0.3, 0.0, 0.5)), 1), 1e-12)
    real = dataclasses.replace(C.line_block(angles, S.EncodingSlot(0, "acos"), "x"),
                               rescale=3.0, tol=1e-3)
    params = Q.trig_monomial_params(0.6j, 2)
    cplx = C.BlockCircuit(S.Circuit(1, C.trig_line(params, S.EncodingSlot(1, "zrot"))),
                          S.Circuit(1, (), label="zero-prep"), rescale=1.5,
                          block_value_is_real=False, tol=2e-3)
    both = C.tensor([real, cplx], "pair")
    assert (both.width, both.circuit.label, both.prep.label) == (2, "pair", "plus-prep")
    assert not both.block_value_is_real
    assert both.rescale == 4.5 and both.tol == 4.5 * (1e-3 / 3.0 + 2e-3 / 1.5)
    for x in [(0.3, 1.1), (-0.8, 4.0)]:
        want = (block_values(real.circuit.bound(x), real.prep)[0]
                * block_values(cplx.circuit.bound(x), cplx.prep)[0])
        assert abs(block_values(both.circuit.bound(x), both.prep)[0] - want) <= 1e-12
        assert abs(C.evaluate_block(both, x) - 4.5 * want) <= 1e-12


def test_monomial_shifted_argument():
    # a monomial line reads the affine argument of its slot: (x - 0.25)^2
    angles = C.synthesize_cached(C._monomial_target(1.0, 2), 1e-11)
    bc = C.line_block(angles, S.EncodingSlot(0, "acos", 0.25), "")
    assert C.evaluate_block(bc, (0.75,)) == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# LCU
# ---------------------------------------------------------------------------


def _random_single_qubit_unit(rng):
    n = int(rng.integers(2, 6))
    gates = []
    for _ in range(n):
        k = rng.integers(0, 4)
        if k == 0:
            gates.append(S.Gate("Rx", 0, angle=float(rng.normal())))
        elif k == 1:
            gates.append(ry(0, float(rng.normal())))
        elif k == 2:
            gates.append(S.rz(0, float(rng.normal())))
        else:
            gates.append(S.zg(0))
    circuit = S.Circuit(1, tuple(gates))
    prep = S.Circuit(1, (S.h(0),))
    # <+|U|+> of random rotations is complex
    return C.BlockCircuit(circuit, prep, rescale=1.0, block_value_is_real=False)


def test_lcu_single_unit_unchanged():
    rng = np.random.default_rng(0)
    unit = _random_single_qubit_unit(rng)
    combined = C.lcu_combine([unit])
    assert combined.rescale == unit.rescale
    assert combined.circuit.gates == unit.circuit.gates


@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_lcu_block_value_is_mean(t):
    rng = np.random.default_rng(40 + t)
    units = [_random_single_qubit_unit(rng) for _ in range(t)]
    values = [C.evaluate_block(u) for u in units]
    combined = C.lcu_combine(units)
    t_pad = 1 << (t - 1).bit_length()
    block = C.evaluate_block(combined) / combined.rescale
    assert block == pytest.approx(sum(values) / t_pad, abs=1e-10)


def test_lcu_pad_terms_contribute_zero():
    rng = np.random.default_rng(77)
    units = [_random_single_qubit_unit(rng) for _ in range(3)]
    values = [C.evaluate_block(u) for u in units]
    combined = C.lcu_combine(units)
    # 4 * block - sum(units) isolates the pad contribution
    pad_contrib = C.evaluate_block(combined) - sum(values)
    assert abs(pad_contrib) <= 1e-12


def test_lcu_pad_skips_the_target_of_a_controlled_x_in_the_prep():
    """A controlled X in the prep is not a basis flip of its target: the
    pad goes on a qubit the prep leaves in a basis state, or nowhere."""
    rng = np.random.default_rng(79)
    prep = S.Circuit(3, (ry(0, 0.7), cnot(0, 1)), label="entangled")
    units = [
        C.BlockCircuit(S.Circuit(3, (S.rz(2, float(a)), ry(1, float(b)))), prep, rescale=1.0,
                       block_value_is_real=False)
        for a, b in rng.normal(size=(3, 2))
    ]
    combined = C.lcu_combine(units)
    pads = [g for g in combined.circuit.gates if g.kind == "X" and len(g.controls) == 2]
    assert pads == [S.Gate("X", 4, (0, 1))]  # qubit 2 of the unit, after 2 selection qubits
    pad_contrib = C.evaluate_block(combined) - sum(C.evaluate_block(u) for u in units)
    assert abs(pad_contrib) <= 1e-12
    narrow = S.Circuit(2, prep.gates, label="entangled")
    units = [C.BlockCircuit(S.Circuit(2, (S.rz(1, 0.3 * k),)), narrow, rescale=1.0)
             for k in range(3)]
    with pytest.raises(ValueError, match="no qubit with a known zero-block pad"):
        C.lcu_combine(units)


def test_lcu_pad_skips_the_targets_of_zero_controlled_gates_in_the_prep():
    """A zero-controlled gate in the prep entangles its target as a
    controlled one does: an X there is no basis flip and an H no |+>, and a
    Ry leaves no known state, so the pad goes on the one untouched qubit."""
    rng = np.random.default_rng(80)
    gates = (ry(0, 0.7), S.Gate("X", 1, zeros=(0,)), S.Gate("H", 2, zeros=(0,)),
             S.Gate("Ry", 3, (1,), angle=0.4, zeros=(0,)))
    prep = S.Circuit(5, gates, label="zero-entangled")
    units = [
        C.BlockCircuit(S.Circuit(5, (S.rz(2, float(a)), ry(3, float(b)))), prep, rescale=1.0,
                       block_value_is_real=False)
        for a, b in rng.normal(size=(3, 2))
    ]
    combined = C.lcu_combine(units)
    pads = [g for g in combined.circuit.gates if g.kind in ("X", "Z")]
    assert pads == [S.Gate("X", 6, (0, 1))]  # qubit 4 of the unit, after 2 selection qubits
    pad_contrib = C.evaluate_block(combined) - sum(C.evaluate_block(u) for u in units)
    assert abs(pad_contrib) <= 1e-12
    narrow = S.Circuit(4, gates, label="zero-entangled")
    units = [C.BlockCircuit(S.Circuit(4, (S.rz(1, 0.3 * k),)), narrow, rescale=1.0)
             for k in range(3)]
    with pytest.raises(ValueError, match="no qubit with a known zero-block pad"):
        C.lcu_combine(units)


def test_lcu_of_two_units_needs_no_pad():
    # Ry(0.3) leaves its one qubit in no known state, so no pad gate could
    # be built; two units need none: <Z> + <X> = cos(0.3) + sin(0.3)
    prep = S.Circuit(1, (ry(0, 0.3),))
    units = [C.BlockCircuit(S.Circuit(1, (g,)), prep, rescale=1.0) for g in (S.zg(0), S.xg(0))]
    combined = C.lcu_combine(units)
    assert combined.rescale == 2.0
    assert abs(C.evaluate_block(combined) - (math.cos(0.3) + math.sin(0.3))) <= 1e-12


def test_lcu_of_a_real_and_a_complex_unit_is_complex():
    real = C.build_trig_monomial_pqc(0.5, (0,))  # 0.5 e^{0i}
    real = dataclasses.replace(real, block_value_is_real=True)
    cplx = C.build_trig_monomial_pqc(0.5j, (1,))
    combined = C.lcu_combine([real, cplx])
    assert not combined.block_value_is_real
    x = (0.7,)
    want = C.evaluate_block(real, x) + C.evaluate_block(cplx, x)
    assert abs(C.evaluate_block(combined, x) - want) <= 1e-12


def test_lcu_selection_h_frame_is_the_prep_head():
    rng = np.random.default_rng(8)
    units = [_random_single_qubit_unit(rng) for _ in range(3)]
    combined = C.lcu_combine(units)
    assert combined.prep.gates == (S.h(0), S.h(1), S.h(2))
    assert all(g.kind != "H" for g in combined.circuit.gates)


def test_lcu_rejects_mixed_rescale():
    rng = np.random.default_rng(5)
    u1 = _random_single_qubit_unit(rng)
    u2 = C.BlockCircuit(u1.circuit, u1.prep, rescale=2.0)
    with pytest.raises(ValueError):
        C.lcu_combine([u1, u2])


def test_lcu_rejects_mixed_prep():
    rng = np.random.default_rng(6)
    u1 = _random_single_qubit_unit(rng)
    u2 = C.BlockCircuit(u1.circuit, S.Circuit(1, ()), rescale=1.0)
    with pytest.raises(ValueError):
        C.lcu_combine([u1, u2])


@pytest.mark.parametrize("build", [
    lambda: C.build_bernstein_pqc(targets.abs_centered(2), 4),
    lambda: C.build_bernstein_pqc(targets.abs_centered(1), 16),
    lambda: C.build_taylor_series_pqc(
        C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1), (0, 0)),
    lambda: C.build_monomial_pqc(-0.7, (0, 3, 1)),
    lambda: C.build_poly_pqc(P.MultivariatePolynomial({(1, 0): 0.5, (0, 2): 0.25}, 2)),
    lambda: C.build_trig_poly_pqc(
        P.MultivariateTrigPolynomial({(1, 0): 0.3, (0, -1): 0.3, (1, 1): 0.2}, 2)),
    lambda: C.build_localization_pqc(P.LocalizationSpec(2, 0.1, 0.25)),
], ids=["bernstein-d2-n4", "bernstein-d1-n16", "taylor-d2-series", "monomial", "poly",
        "trig-d2", "localization-k2"])
def test_assembly_equals_the_per_copy_validated_reference(build, monkeypatch):
    """Placements checked once per call and copies not re-validated emit the
    circuits that a validated Gate per copy and a validated Circuit per
    level emit (synthesis is cached, so both builds take the same angles)."""
    def emitted(bc):
        ht = S.hadamard_test_circuit(bc.circuit, bc.prep)
        return [(c.width, c.gates, S.circuit_to_text(c)) for c in (bc.circuit, bc.prep, ht)]

    fast = emitted(build())
    for width, gates, _ in fast:  # every composite still passes the per-gate check
        assert S.Circuit(width, gates).gates == gates
    monkeypatch.setattr(S, "_composed", composed_reference)
    assert emitted(build()) == fast


def test_assembled_circuit_is_unitary():
    rng = np.random.default_rng(9)
    units = [_random_single_qubit_unit(rng) for _ in range(3)]
    combined = C.lcu_combine(units)
    u = circuit_unitary(combined.circuit)
    assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-10


# ---------------------------------------------------------------------------
# Parity pairs and multivariate polynomials
# ---------------------------------------------------------------------------


X_SLOT = S.EncodingSlot(0, "acos")


def test_parity_pair_constant():
    bc = C.build_parity_pair_pqc(P.Polynomial((1.0,)), X_SLOT)
    assert bc.rescale == 1.0
    assert C.evaluate_block(bc, (0.4,)) == pytest.approx(1.0, abs=1e-12)


def test_parity_pair_frozen_examples():
    # -x^2 + x = -0.5 T_0 + T_1 - 0.5 T_2, so R = 2
    bc = C.build_parity_pair_pqc(P.Polynomial.from_power((0.0, 1.0, -1.0)), X_SLOT)
    assert bc.rescale == 2.0
    assert C.evaluate_block(bc, (0.5,)) == pytest.approx(0.25, abs=1e-12)
    pol = P.Polynomial.from_power((0.0, 3.0, -6.0, 3.0))  # 3x(1-x)^2
    bc = C.build_parity_pair_pqc(pol, X_SLOT)
    assert C.evaluate_block(bc, (0.2,)) == pytest.approx(0.384, abs=1e-12)
    assert bc.rescale == sum(abs(c) for c in pol.coeffs)


def test_parity_pair_reads_the_affine_argument_of_its_slot():
    # p(u) = u^2 - u/2 at u = 2x - 1
    pol = P.Polynomial.from_power((0.0, -0.5, 1.0))
    bc = C.build_parity_pair_pqc(pol, S.EncodingSlot(0, "acos", 1.0, 2.0))
    for x in (0.0, 0.3, 0.75, 1.0):
        u = 2.0 * x - 1.0
        assert C.evaluate_block(bc, (x,)) == pytest.approx(u * u - 0.5 * u, abs=1e-12)


def test_poly_single_monomial_equals_monomial():
    mp = P.MultivariatePolynomial({(2, 1): 0.6}, 2)
    bc = C.build_poly_pqc(mp)
    mono = C.build_monomial_pqc(0.6, (2, 1))
    for x in [(0.3, 0.8), (0.9, 0.2)]:
        assert C.evaluate_block(bc, x) == pytest.approx(
            C.evaluate_block(mono, x), abs=1e-9
        )


def test_poly_frozen_example():
    mp = P.MultivariatePolynomial({(1, 0): 0.5, (0, 2): 0.25}, 2)
    bc = C.build_poly_pqc(mp)
    assert C.evaluate_block(bc, (0.4, 0.8)) == pytest.approx(0.36, abs=1e-12)


@pytest.mark.parametrize("d,s,npts", [(1, 4, 60), (2, 3, 60), (3, 4, 80)])
def test_poly_random_agreement(d, s, npts):
    # 200 random points across the (d, s) sweep, d <= 3, s <= 4
    rng = np.random.default_rng(123 + 10 * d + s)
    alphas = P.multi_indices(d, s)
    terms = {a: float(rng.uniform(-1, 1)) / len(alphas) for a in alphas}
    mp = P.MultivariatePolynomial(terms, d)
    bc = C.build_poly_pqc(mp)
    for _ in range(npts):
        x = tuple(rng.random(d))
        assert C.evaluate_block(bc, x) == pytest.approx(mp(x), abs=1e-12)


def chebyshev_tensor(mp):
    """The Chebyshev tensor coefficients of mp, from numpy's poly2cheb of
    each factor x_j^alpha_j, multiplied out term by term."""
    deg = max(max(alpha) for alpha in mp.terms)
    out = np.zeros((deg + 1,) * mp.dims)
    for alpha, c in mp.terms.items():
        factors = [np.pad(np.polynomial.chebyshev.poly2cheb([0.0] * a + [1.0]), (0, deg - a))
                   for a in alpha]
        out += c * math.prod(np.ix_(*factors))
    return out


def test_poly_ancilla_sizing_respects_term_count():
    d, s = 2, 2
    alphas = P.multi_indices(d, s)
    mp = P.MultivariatePolynomial({a: 0.05 for a in alphas}, d)
    bc = C.build_poly_pqc(mp)
    t = int(np.count_nonzero(chebyshev_tensor(mp)))
    assert bc.width - d == t.bit_length()  # the index register holds 0..t-1 and the pad t


SELECT_POLYS = {
    "d1": P.MultivariatePolynomial({(0,): -0.3, (1,): 1.7, (3,): -0.9, (4,): 0.25}, 1),
    "d2": P.MultivariatePolynomial({(0, 0): 0.4, (1, 0): -1.2, (0, 2): 0.8, (2, 1): 1.5,
                                    (3, 3): -0.6}, 2),
    "d3": P.MultivariatePolynomial({(0, 0, 0): -0.2, (1, 0, 2): 2.5, (0, 1, 0): -0.7,
                                    (2, 2, 1): 0.9, (0, 0, 3): -1.1}, 3),
}


@pytest.mark.parametrize("mp", SELECT_POLYS.values(), ids=SELECT_POLYS.keys())
def test_poly_and_parity_pair_blocks_are_chebyshev_selects(mp, monkeypatch):
    """Each polynomial block is a weighted Chebyshev SELECT: it synthesizes
    nothing, its tol is 0, its rescale max(1, sum |c|) over its Chebyshev
    coefficients, and it equals p on [-1, 1]^d to rounding.  The cases hold
    a negative coefficient, a constant term and a coefficient above 1."""
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial block synthesized angles")

    monkeypatch.setattr(Q, "qsp_synthesize", refuse)
    before = C.synthesize_cached.cache_info()
    blocks = [C.build_poly_pqc(mp)]
    if mp.dims == 1:
        power = [mp.terms.get((k,), 0.0) for k in range(1 + max(a for a, in mp.terms))]
        blocks.append(C.build_parity_pair_pqc(P.Polynomial.from_power(power), X_SLOT))
    assert C.synthesize_cached.cache_info() == before
    rescale = max(1.0, float(np.abs(chebyshev_tensor(mp)).sum()))
    xs = np.random.default_rng(mp.dims).uniform(-1.0, 1.0, (200, mp.dims))
    want = np.array([mp(x) for x in xs])
    for bc in blocks:
        assert bc.tol == 0.0
        assert bc.rescale == pytest.approx(rescale, rel=1e-14)
        assert np.max(np.abs(C.evaluate_block(bc, xs) - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Bernstein
# ---------------------------------------------------------------------------


def test_bernstein_pqc_constant_partition_of_unity():
    f = P.TargetFunctionSpec(1, lambda x: 1.0)
    bc = C.build_bernstein_pqc(f, 1)
    for x in (0.0, 0.41, 1.0):
        assert C.evaluate_block(bc, (x,)) == pytest.approx(1.0, abs=1e-8)


def test_bernstein_pqc_affine():
    f = P.TargetFunctionSpec(1, lambda x: x[0])
    bc = C.build_bernstein_pqc(f, 2)
    assert C.evaluate_block(bc, (0.3,)) == pytest.approx(0.3, abs=1e-7)


def test_bernstein_pqc_matches_classical():
    f = P.TargetFunctionSpec(1, lambda x: x[0] ** 2)
    bc = C.build_bernstein_pqc(f, 2)
    assert C.evaluate_block(bc, (0.5,)) == pytest.approx(
        P.bernstein_eval(f, 2, (0.5,)), abs=1e-8
    )


def test_bernstein_build_calls_no_synthesis(monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("qsp_synthesize was called")

    monkeypatch.setattr(Q, "qsp_synthesize", no_synthesis)
    before = C.synthesize_cached.cache_info()
    f = P.TargetFunctionSpec(2, lambda x: 0.5 * x[0] * (1 - x[1]))
    bc = C.build_bernstein_pqc(f, 2)
    x = (0.3, 0.6)
    assert C.evaluate_block(bc, x) == pytest.approx(P.bernstein_eval(f, 2, x), abs=1e-14)
    assert C.synthesize_cached.cache_info() == before
    assert bc.tol == 0.0


def test_bernstein_pqc_2d():
    f = P.TargetFunctionSpec(2, lambda x: 0.5 * x[0] * (1 - x[1]))
    bc = C.build_bernstein_pqc(f, 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = tuple(rng.random(2))
        assert C.evaluate_block(bc, x) == pytest.approx(
            P.bernstein_eval(f, 2, x), abs=1e-6
        )


def test_bernstein_factor_halves_in_w_are_bounded_by_one_half():
    # B_k(-w) = B_{n-k}(w), so the halves are (B_k(w) +- B_{n-k}(w)) / 2;
    # the B_j(w) are nonnegative and sum to 1, so each half is at most 1/2
    # where k != n - k, and the odd half of the symmetric factor is exactly 0
    for n in range(1, 41):
        for k in range(n + 1):
            even, odd = P.parity_split(C._bernstein_factor(n, k))
            assert max(even.sup_norm(), odd.sup_norm()) <= 0.5 + 1e-12, (n, k)
            if 2 * k == n:
                assert odd.base.is_zero()
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(C._bernstein_factor(5, 2)(2 * x - 1), 10 * x**2 * (1 - x) ** 3, atol=1e-15)


def exact_bernstein_factor(n, k):
    """The Chebyshev coefficients of binom(n, k) (1 + w)^k (1 - w)^(n - k) / 2^n
    as fractions: its power coefficients, then w^j = 2^-j sum_i binom(j, i) T_|j-2i|."""
    power = [1]
    for sign in [1] * k + [-1] * (n - k):
        power = [a + sign * b for a, b in zip(power + [0], [0] + power)]
    out = [Fraction(0)] * (n + 1)
    for j, c in enumerate(power):
        for i in range(j + 1):
            out[abs(j - 2 * i)] += Fraction(math.comb(n, k) * c * math.comb(j, i), 2 ** (n + j))
    return out


def test_bernstein_factor_is_the_correctly_rounded_series():
    for n in range(1, 25):
        for k in range(n + 1):
            want = tuple(float(c) for c in exact_bernstein_factor(n, k))
            assert C._bernstein_factor(n, k).coeffs == want, (n, k)


def test_bernstein_factors_mirror_bit_for_bit():
    # B_{n-k}(w) = B_k(-w) negates the odd coefficients exactly, so the even
    # halves of mirrored factors are equal and share a synthesis
    def bits(coeffs):
        return [float.hex(c + 0.0) for c in coeffs]  # a zero's sign aside

    for n in range(1, 65):
        factors = [C._bernstein_factor(n, k).coeffs for k in range(n + 1)]
        for k in range(n // 2 + 1):
            mirrored = [-c if j % 2 else c for j, c in enumerate(factors[k])]
            assert bits(factors[n - k]) == bits(mirrored), (n, k)


def test_bernstein_d1_n64_block_is_within_its_tol_of_the_classical_sum():
    # each factor is rounded once; factors rounded in the power basis of w
    # and then converted are 5.3e-9 off here, against a tol near 2e-14
    f = targets.abs_centered(1)
    bc = C.build_bernstein_pqc(f, 64)
    xs = np.linspace(0.0, 1.0, 257)[:, None]
    want = np.array([P.bernstein_eval(f, 64, x) for x in xs])
    assert np.max(np.abs(C.evaluate_block(bc, xs) - want)) <= bc.tol + 1e-12


def test_bernstein_d2_n11_block_matches_the_classical_sum():
    # 144 Chebyshev terms whose l1 norm is below 1, so the rescale is 1
    f = targets.abs_centered(2)
    bc = C.build_bernstein_pqc(f, 11)
    assert np.abs(C._bernstein_chebyshev(f, 11)).sum() < 1.0
    assert bc.rescale == 1.0
    xs = np.random.default_rng(11).uniform(0.0, 1.0, (20, 2))
    want = np.array([P.bernstein_eval(f, 11, x) for x in xs])
    assert np.max(np.abs(C.evaluate_block(bc, xs) - want)) <= 1e-9


def chebyshev_sum(b, w):
    """sum_m b_m prod_j T_{m_j}(w_j) at one point w."""
    for wj in w:  # each contraction takes the leading axis
        b = np.tensordot(np.polynomial.chebyshev.chebvander(wj, b.shape[0] - 1)[0], b, axes=1)
    return float(b)


@pytest.mark.parametrize("d, n", [(1, 16), (2, 4), (3, 3)])
def test_bernstein_chebyshev_coefficients_are_the_classical_polynomial(d, n):
    f = targets.gauss_bump(d)
    b = C._bernstein_chebyshev(f, n)
    assert b.shape == (n + 1,) * d
    for x in np.random.default_rng(d).uniform(0.0, 1.0, (10, d)):
        assert abs(chebyshev_sum(b, 2 * x - 1) - P.bernstein_eval(f, n, x)) <= 1e-14


def prep_amplitudes(bc, d, n):
    """The prep's amplitudes on the index registers, with the data qubits
    in |0..0>, indexed by the registers' values."""
    state = circuit_unitary(bc.prep)[:, 0]
    sizes = [(n + 1).bit_length()] + [n.bit_length()] * (d - 1)
    assert bc.width == sum(sizes) + d
    return state.reshape([1 << a for a in sizes] + [2**d])[..., 0]


@pytest.mark.parametrize("target, d, n", [
    (targets.abs_centered, 2, 4),
    (targets.product_sines, 2, 3),
])
def test_bernstein_prep_holds_the_weighted_coefficients(target, d, n):
    f = target(d)
    bc = C.build_bernstein_pqc(f, n)
    b = C._bernstein_chebyshev(f, n)
    assert (b < 0).any()  # both targets go through the sign diagonal
    total = np.abs(b).sum()
    amps = prep_amplitudes(bc, d, n)
    want = np.zeros(amps.shape)
    want[(slice(0, n + 1),) * d] = np.sqrt(np.abs(b) / bc.rescale)
    want[(n + 1,) + (0,) * (d - 1)] = np.sqrt(1.0 - total / bc.rescale)  # the pad
    assert np.max(np.abs(amps - want)) <= 1e-14
    assert all(g.trainable for g in bc.prep.gates if g.kind == "Ry")
    # one Z per negative coefficient, and the block reads the signed sum
    assert sum(g.kind == "Z" for g in bc.circuit.gates) == np.count_nonzero(b < 0)
    xs = np.random.default_rng(5).uniform(0.0, 1.0, (20, d))
    want = np.array([P.bernstein_eval(f, n, x) for x in xs])
    assert np.max(np.abs(C.evaluate_block(bc, xs) - want)) <= 1e-14


def step(d):
    return P.TargetFunctionSpec(d, lambda x: 1.0 if x[0] < 0.5 else -1.0)


@pytest.mark.parametrize("target, d, n, over", [
    (targets.abs_centered, 1, 1, False),
    (targets.abs_centered, 2, 3, False),
    (step, 1, 4, True),
    (step, 2, 3, True),
], ids=["pad-qubit-n1", "pad-qubit-d2-n3", "l1-over-one-d1-n4", "l1-over-one-d2-n3"])
def test_bernstein_pad_takes_the_spare_mass(target, d, n, over):
    """Register 0 always holds the pad value n + 1, a qubit more where n + 1
    is a power of two.  It takes the mass that sum |b| / R leaves, and its
    op flips data qubit 0, so it adds 0 to the block value; where sum |b|
    exceeds 1 it takes none and the rescale is sum |b|."""
    f = target(d)
    bc = C.build_bernstein_pqc(f, n)
    total = np.abs(C._bernstein_chebyshev(f, n)).sum()
    assert (total > 1.0) == over
    assert bc.rescale == (total if over else 1.0)
    pad = prep_amplitudes(bc, d, n)[(n + 1,) + (0,) * (d - 1)]
    assert abs(pad**2 - max(0.0, 1.0 - total)) <= 1e-14
    xs = np.random.default_rng(6).uniform(0.0, 1.0, (20, d))
    want = np.array([P.bernstein_eval(f, n, x) for x in xs])
    assert np.max(np.abs(C.evaluate_block(bc, xs) - want)) <= 1e-14


@pytest.mark.parametrize("target, d, n", [
    (targets.abs_centered, 1, 16),
    (targets.product_sines, 2, 4),
    (targets.gauss_bump, 3, 2),
])
def test_bernstein_point_runs_one_layer_per_coordinate(target, d, n):
    """The prep, the sign diagonal and the pad are fixed and run before
    ``prefix``; from it on run the n ops of each coordinate's SELECT, one
    layer per coordinate."""
    prog = C.build_bernstein_pqc(target(d), n).program
    assert np.array_equal(prog.slotted, np.arange(prog.prefix, len(prog.pairs)))
    assert len(prog.slotted) == n * d
    assert len(prog.layers) == d


def taylor_series(f, K, s, eta):
    return C.build_taylor_series_pqc(C.TaylorCoeffTable.from_target(f, K, s), eta)


CONSTRUCTIONS = {
    **{f"bernstein-d{d}": lambda d=d, n=n: C.build_bernstein_pqc(targets.abs_centered(d), n)
       for d, n in ((1, 4), (2, 4), (3, 2))},
    "localization-K1": lambda: C.build_localization_pqc(P.LocalizationSpec(1, 0.1, 0.07)),
    "localization-K2": lambda: C.build_localization_pqc(P.LocalizationSpec(2, 0.1, 0.25)),
    "localization-K8": lambda: C.build_localization_pqc(P.LocalizationSpec(8, 0.0375, 0.0625)),
    "series-d1-s2": lambda: taylor_series(targets.halfsine(), 4, 2, (3,)),
    "series-d2-s1": lambda: taylor_series(targets.product_sines(2), 4, 1, (0, 0)),
    "series-d2-s2": lambda: taylor_series(targets.product_sines(2), 3, 2, (1, 2)),
    "series-d3-s1": lambda: taylor_series(targets.product_sines(3), 4, 1, (2, 0, 1)),
    "poly-d1": lambda: C.build_poly_pqc(
        P.MultivariatePolynomial({(0,): 0.1, (1,): 0.2, (2,): 0.3}, 1)),
    "poly-d2": lambda: C.build_poly_pqc(
        P.MultivariatePolynomial({(0, 0): 0.1, (1, 0): 0.5, (0, 2): 0.25, (2, 1): -0.4}, 2)),
    "poly-d3": lambda: C.build_poly_pqc(P.MultivariatePolynomial(
        {(0, 0, 0): 0.2, (0, 1, 0): 0.3, (0, 0, 2): -0.5, (1, 0, 1): 0.4}, 3)),
    "trig-d1": lambda: C.build_trig_poly_pqc(
        P.MultivariateTrigPolynomial({(-1,): 0.3, (0,): 0.2, (2,): 0.25j}, 1)),
    "trig-d2": lambda: C.build_trig_poly_pqc(
        P.MultivariateTrigPolynomial({(1, -2): 0.3j, (0, 1): 0.4, (-1, 0): 0.1}, 2)),
    "trig-d3": lambda: C.build_trig_poly_pqc(P.MultivariateTrigPolynomial(
        {(-1, 0, 0): 0.2, (0, 0, 0): 0.1, (0, 2, 0): 0.2j, (0, 0, -1): 0.25}, 3)),
    "monomial": lambda: C.build_monomial_pqc(0.5, (0, 2, 1)),
    "parity-pair": lambda: C.build_parity_pair_pqc(
        P.Polynomial.from_power((0.2, 0.3, 0.4)), S.EncodingSlot(0, "acos")),
}


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_every_construction_runs_its_fixed_ops_in_the_prefix(build):
    """Each construction places its fixed ops before its first slotted op,
    so they run once per start, and a point runs only slotted ops (the
    K=1 localization block is constant and has none)."""
    prog = build().program
    assert np.array_equal(prog.slotted, np.arange(prog.prefix, len(prog.pairs)))


@pytest.mark.parametrize("values", [[5], [0, 3, 5, 6], [7, 1, 4, 2, 0]])
def test_on_values_acts_on_each_value_and_restores_the_register(values):
    """A gate selected by ``_holding`` acts where the register holds its
    value and nowhere else, with no X that could leave the register
    changed: here a Z on a fourth qubit, which XZX turns into -1 on |0>."""
    gates = [S.xg(3)]
    for v in values:
        ones, zeros = C._holding(range(3), v)
        assert sorted(ones + zeros) == [0, 1, 2]
        gates.append(S.Gate("Z", 3, ones, zeros=zeros))
    gates.append(S.xg(3))
    want = np.ones(16)
    want[2 * np.array(values)] = -1.0
    assert np.array_equal(circuit_unitary(S.Circuit(4, tuple(gates))), np.diag(want))


def test_bernstein_compiled_prep_holds_one_state_of_pairs_per_level():
    """Each tree node is one Ry controlled on the qubits before it holding
    the node's value, so the nodes of one level touch each amplitude pair
    of their qubit at most once.  At d=3, n=8 (12 index qubits, a 16-qubit
    Hadamard test) one uncontrolled Ry per node compiled to 4,095
    full-width pair arrays, 2 GiB."""
    d, n = 3, 8
    bc = C.build_bernstein_pqc(targets.abs_centered(d), n)
    a = bc.width - d
    assert all(g.kind == "Ry" for g in bc.prep.gates)
    assert all(sorted(g.controls + g.zeros) == list(range(g.target)) for g in bc.prep.gates)
    prog = bc.program
    # a prep levels, the sign pair's two X's, its Z's, the pad and d
    # SELECTs, each at most 2^(w-1) pairs of two 8-byte indices
    assert sum(p.nbytes for p in prog.pairs) <= (a + 4 + d) * 8 * 2**prog.width
    xs = np.random.default_rng(7).uniform(0.0, 1.0, (4, d))
    want = np.array([P.bernstein_eval(targets.abs_centered(d), n, x) for x in xs])
    assert np.max(np.abs(C.evaluate_block(bc, xs) - want)) <= 1e-14


def test_bernstein_block_rejects_an_input_outside_the_unit_cube():
    f = targets.abs_centered(1)
    bc = C.build_bernstein_pqc(f, 4)
    for x in (0.0, 1.0):  # w = -1 and w = 1
        assert C.evaluate_block(bc, (x,)) == pytest.approx(P.bernstein_eval(f, 4, (x,)), abs=1e-12)
    for x in (-0.25, 1.25):  # w = 2x - 1 outside [-1, 1]
        with pytest.raises(ValueError, match="outside"):
            C.evaluate_block(bc, (x,))


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


def test_constructions_synthesize_without_fallback(caplog):
    # the synthesizer's high-degree cases (L = 154 to 894): each converges in
    # its first schedule
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        for K in (2, 4, 8):
            loc = P.localization_poly(P.LocalizationSpec(K, 0.3 / K, 0.5 / K))
            Q.qsp_synthesize(P.ParityPolynomial(loc, 0), tol=1e-9)
    messages = [r.getMessage() for r in caplog.records]
    assert sum("fixed-point stage" in m for m in messages) == 3  # one per synthesis
    assert not [m for m in messages if "falling back" in m or "random restart" in m]


@pytest.mark.parametrize("spec", [P.LocalizationSpec(1, 0.1, 0.07), P.LocalizationSpec(2, 0.1, 0.25),
                                  P.LocalizationSpec(4, 0.05, 0.025),
                                  P.LocalizationSpec(8, 0.0375, 0.0625)],
                         ids=["K1", "K2", "K4", "K8"])
def test_localization_block_is_the_polynomial(spec):
    """The block reads localization_poly's P through L encoding gates, the
    paper's line's count, with no synthesized angle: every trainable gate
    sits in the prep, R = max(1, sum |c|) and tol is 0."""
    p = P.localization_poly(spec)
    bc = C.build_localization_pqc(spec)
    assert sum(g.slot is not None for g in bc.circuit.gates) == p.degree
    assert not any(g.trainable for g in bc.circuit.gates)
    assert abs(bc.rescale - max(1.0, float(np.abs(p.coeffs).sum()))) <= 1e-14
    assert bc.tol == 0.0
    xs = np.linspace(-1.0, 1.0, 201)
    assert np.max(np.abs(C.evaluate_block(bc, xs[:, None]) - p(xs))) <= 1e-14


def test_localization_block_single_band():
    spec = P.LocalizationSpec(1, 0.1, 0.07)
    block = C.build_localization_pqc(spec)
    for x in (0.1, 0.6, 0.95):
        v = C.evaluate_block(block, (x,))
        assert 0.0 < v < 0.07


def test_evaluate_block_needs_x_for_slots():
    bc = C.build_monomial_pqc(0.5, (1,))
    with pytest.raises(ValueError):
        C.evaluate_block(bc, None)


def test_evaluate_block_rejects_acos_argument_out_of_range():
    bc = C.build_monomial_pqc(0.5, (1,))
    assert C.evaluate_block(bc, (1.0 + 1e-10,)) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        C.evaluate_block(bc, (1.0 + 1e-8,))


def test_every_acos_path_clips_an_argument_within_the_encoding_slack():
    """The circuit's encoding, the localization values and the QSP line
    values admit the same slack past [-1, 1], and clip what they admit."""
    spec = P.LocalizationSpec(2, 0.1, 0.25)
    angles = (0.1, 0.2, 0.3)
    u = 1.0 + 1e-10
    edge = np.array([u, -u])
    assert np.array_equal(S.encoding_angles("acos", edge), S.encoding_angles("acos", np.array([1.0, -1.0])))
    assert np.array_equal(C.localization_values(spec, edge), C.localization_values(spec, [1.0, -1.0]))
    assert np.array_equal(Q.qsp_block_values(angles, edge), Q.qsp_block_values(angles, [1.0, -1.0]))
    for bad in (np.array([1.0 + 1e-8]), np.array([-1.0 - 1e-8])):
        for evaluate in (lambda v: S.encoding_angles("acos", v), lambda v: C.localization_values(spec, v),
                         lambda v: Q.qsp_block_values(angles, v)):
            with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
                evaluate(bad)


def test_evaluate_block_reuses_compiled_programs():
    real = C.build_monomial_pqc(0.5, (1, 1))
    cplx = C.build_trig_monomial_pqc(0.5j, (1,))
    for bc in (real, cplx):
        C.evaluate_block(bc, (0.3, 0.4))
        program = bc.program
        assert isinstance(program, S.GateProgram)
        C.evaluate_block(bc, (0.1, 0.2))
        assert bc.program is program


def test_complex_block_reads_both_parts_from_one_run_per_chunk(monkeypatch):
    bc = C.build_trig_monomial_pqc(0.5j, (1,))
    xs = np.array([[0.3], [-1.2], [2.5]])
    calls = []
    real_run = S.run

    def counting_run(program, **kwargs):
        calls.append(len(kwargs["x"]))
        return real_run(program, **kwargs)

    monkeypatch.setattr(S, "run", counting_run)
    got = C.evaluate_block(bc, xs)
    assert calls == [3]
    one = C.evaluate_block(bc, xs[1])
    assert calls == [3, 1] and isinstance(one, complex)
    for x, value in zip(xs, got):
        want = block_values(bc.circuit.bound(x), bc.prep)[0] * bc.rescale
        assert abs(value - want) <= 1e-12
        assert abs(want - 0.5j * np.exp(1j * x[0])) <= 1e-12


def test_evaluate_block_rejects_a_complex_block_declared_real():
    bc = C.build_trig_monomial_pqc(0.5j, (1,))
    mislabelled = dataclasses.replace(bc, block_value_is_real=True)
    with pytest.raises(ValueError, match="declared real"):
        C.evaluate_block(mislabelled, (0.3,))
    # a real value of a complex block, Im 0 to rounding, reads as real
    assert C.evaluate_block(mislabelled, (math.pi / 2,)) == pytest.approx(-0.5, abs=1e-12)


def x_gates(bc):
    """The X gates of a block's prep and of its circuit."""
    return [[g for g in c.gates if g.kind == "X"] for c in (bc.prep, bc.circuit)]


def test_each_construction_places_exactly_its_stated_xs():
    """Selections use zero-controls, so the only X's are the ones each
    construction states: the sign pair and pad of the weighted Chebyshev
    SELECT, the Taylor eta-prep and the LCU pad on a basis-state qubit."""
    # Bernstein: data qubit 0 is qubit 6; the sign pair brackets the Z's,
    # and the pad runs where register 0 (qubits 0..2) holds n + 1 = 0b101
    bc = C.build_bernstein_pqc(targets.abs_centered(2), 4)
    signs = np.count_nonzero(C._bernstein_chebyshev(targets.abs_centered(2), 4) < 0)
    pad = S.Gate("X", 6, (0, 2), zeros=(1,))
    assert x_gates(bc) == [[], [S.xg(6), S.xg(6), pad]]
    assert [g.kind for g in bc.circuit.gates[:signs + 2]] == ["X"] + ["Z"] * signs + ["X"]
    # with no negative coefficient there is no sign pair
    bc = C.build_bernstein_pqc(targets.abs_centered(1), 1)
    assert (C._bernstein_chebyshev(targets.abs_centered(1), 1) >= 0).all()
    assert x_gates(bc) == [[], [S.Gate("X", 2, (0,), zeros=(1,))]]
    # Taylor: the eta-prep writes cell (1, 2), 0b0110, on the address
    # register after the 2 term qubits and the 2 data qubits; the sign pair
    # is on data qubit 0 (qubit 2), and the pad runs where the term register
    # holds its 3 terms' pad value 0b11
    table = C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1)
    bc = C.build_taylor_series_pqc(table, (1, 2))
    assert x_gates(bc) == [[S.xg(5), S.xg(6)], [S.xg(2), S.xg(2), S.Gate("X", 2, (0, 1))]]
    # LCU: three trig units on the zero prep pad value 3 with an X on the unit's qubit 0
    bc = C.build_trig_poly_pqc(P.MultivariateTrigPolynomial({(1,): 0.3, (-1,): 0.3, (2,): 0.2}, 1))
    assert x_gates(bc) == [[], [S.Gate("X", 2, (0, 1))]]
    # poly: terms (0, 0), (0, 2) and (1, 0), all positive, so no sign pair,
    # and the pad runs where the term register holds 0b11 on data qubit 0
    bc = C.build_poly_pqc(P.MultivariatePolynomial({(1, 0): 0.5, (0, 2): 0.25}, 2))
    assert x_gates(bc) == [[], [S.Gate("X", 2, (0, 1))]]
    assert x_gates(C.build_monomial_pqc(0.5, (1, 2))) == [[], []]


@pytest.mark.parametrize("build, ops", [
    (lambda: C.build_bernstein_pqc(targets.abs_centered(2), 4), 19),
    (lambda: C.build_taylor_series_pqc(
        C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1), (0, 0)), 56),
], ids=["bernstein-d2-n4", "taylor-series-d2-K4-s1"])
def test_compiled_hadamard_test_keeps_no_identity_op(build, ops):
    prog = build().program
    fixed = np.setdiff1d(np.arange(len(prog.pairs)), prog.slotted)
    assert not any(np.array_equal(m, np.eye(2)) for m in prog.heads[fixed])
    assert len(prog.pairs) == ops


def test_localization_block_frozen_example():
    spec = P.LocalizationSpec(4, 0.05, 0.1)
    vals = C.localization_values(spec, [0.6])
    assert 0.5 <= vals[0] < 0.6


def test_localization_fast_path_equals_hadamard_test():
    spec = P.LocalizationSpec(2, 0.1, 0.05)
    block = C.build_localization_pqc(spec)
    for x in (0.2, 0.8):
        ht = C.evaluate_block(block, (x,))
        fast = C.localization_values(spec, [x])[0]
        assert ht == pytest.approx(fast, abs=1e-10)


@pytest.mark.parametrize("spec", [P.LocalizationSpec(4, 0.05, 0.1),
                                  P.LocalizationSpec(8, 0.05, 0.0125),
                                  P.LocalizationSpec(8, 0.0375, 0.0625),
                                  P.LocalizationSpec(16, 0.01875, 0.03125)],
                         ids=["K4", "K8", "K8-benchmark", "K16"])
def test_localization_values_match_the_transfer_product(spec):
    # the angle-addition sum against localization_poly's Clenshaw recurrence
    xs = np.concatenate([[0.0, 1e-12, 1.0 - 1e-12, 1.0, -1.0], np.linspace(-1.0, 1.0, 1001)])
    got = C.localization_values(spec, xs)
    want = P.localization_poly(spec)(xs)
    assert np.max(np.abs(got - want)) <= 1e-13
    for n in range(len(xs)):
        assert C.localization_values(spec, xs[[n]])[0] == got[n]
    for bad in (1.0 + 1e-8, -1.0 - 1e-8, math.nan):
        with pytest.raises(ValueError, match="outside"):
            C.localization_values(spec, [0.5, bad])


@pytest.mark.parametrize("tables", [4, 0])
def test_localization_values_in_chunks_equal_one_batch(monkeypatch, tables):
    spec = P.LocalizationSpec(4, 0.05, 0.1)
    xs = np.random.default_rng(9).random((7, 3))
    whole = C.localization_values(spec, xs)
    # budgets of four points' B + J complex exponentials and of less than one
    monkeypatch.setattr(S, "BATCH_BYTES", tables * C.localization_chebyshev(spec)[1].nbytes)
    assert np.array_equal(C.localization_values(spec, xs), whole)


def test_round_to_eta():
    assert C.round_to_eta([0.0], 4) == (0,)
    assert C.round_to_eta([0.55], 4) == (2,)
    assert C.round_to_eta([1.0], 4) == (3,)
    assert C.round_to_eta([0.3, 0.9], 2) == (0, 1)
    # the range check admits values down to -1e-9; they read cell 0
    assert C.round_to_eta([-5e-10, 0.3], 4) == (0, 1)
    assert C.round_to_eta(np.array([[-5e-10], [1.0]]), 4).tolist() == [[0], [3]]


def test_round_to_eta_rejects_out_of_range():
    with pytest.raises(ValueError):
        C.round_to_eta([1.4], 4)


# ---------------------------------------------------------------------------
# Taylor machinery
# ---------------------------------------------------------------------------


def test_taylor_coeff_block_values():
    # one coefficient per cell, xi in {1, -0.5}: cell 1's goes through the
    # sign diagonal, and each block reads its cell's xi
    table = C.TaylorCoeffTable(
        K=2, s=0, d=1, xi={((0,), (0,)): 1.0, ((1,), (0,)): -0.5}
    )
    bc = C.build_taylor_coeff_pqc(table, [0.0])
    assert bc.rescale == 1.0
    values = C.evaluate_block(bc, np.full((2, 1), 0.3), start=C.series_start(table, np.array([[0], [1]])))
    assert np.max(np.abs(values - [1.0, -0.5])) <= 1e-15


def test_taylor_coeff_zero_block():
    # a cell of zero coefficients puts all its mass on the pad, whose block
    # value is 0; with one cell the address register is empty, so the prep
    # is one plain Ry
    table = C.TaylorCoeffTable(K=1, s=0, d=1, xi={((0,), (0,)): 0.0})
    bc = C.build_taylor_coeff_pqc(table, [0.0])
    assert bc.prep.gates == (S.Gate("Ry", 0, angle=math.pi, trainable=True),)
    assert abs(C.evaluate_block(bc, (0.3,))) <= 1e-15


def test_taylor_coeff_gate_count():
    # halfsine, K=4, s=1: two terms and the pad on a 2-qubit term register,
    # at most 3 tree nodes per cell, every one a trainable parameter
    table = C.TaylorCoeffTable.from_target(halfsine(), 4, 1)
    bc = C.build_taylor_coeff_pqc(table, [0.0])
    rotations = [g for g in bc.prep.gates if g.kind == "Ry"]
    assert len(rotations) == len(bc.prep.gates) == 8
    assert S.resource_count(bc.prep).trainable_params == 8


def classical_chebyshev(p, d, s):
    """The Chebyshev coefficients c_m of a polynomial of degree at most s in
    each of d coordinates, from its values at (s+1)^d first-kind nodes;
    entry m of the result is c at the multi-index m."""
    nodes = np.cos(np.pi * (np.arange(s + 1) + 0.5) / (s + 1))
    vander = np.polynomial.chebyshev.chebvander(nodes, s)
    system = vander
    for _ in range(d - 1):
        system = np.kron(system, vander)
    values = [p(np.array(u)) for u in itertools.product(nodes, repeat=d)]
    return np.linalg.solve(system, values).reshape((s + 1,) * d)


def cell_coefficients(f, table):
    """Each cell's Chebyshev coefficients, in multi_indices order, of its
    classical Taylor polynomial in u = x - eta/K."""
    terms = P.multi_indices(table.d, table.s)
    return {eta: classical_chebyshev(P.taylor_expand(f, np.array(eta) / table.K, table.s),
                                     table.d, table.s)[tuple(np.transpose(terms))]
            for eta in np.ndindex(*(table.K,) * table.d)}


@pytest.mark.parametrize("f, K, s", [
    (targets.product_sines(2), 4, 1),
    (targets.halfsine(), 4, 2),
    (targets.product_sines(2), 3, 2),
], ids=["d2-K4-s1", "d1-K4-s2", "d2-K3-s2"])
def test_taylor_coeff_prep_holds_the_weighted_coefficients(f, K, s):
    """Started from cell eta's address, the prep writes sqrt(|c_m(eta)| / R)
    on term m and the spare mass on the pad, by trainable Ry's controlled
    on the whole address register, and moves nothing else."""
    table = C.TaylorCoeffTable.from_target(f, K, s)
    bc = C.build_taylor_coeff_pqc(table, [0.0] * f.dims)
    coeffs = cell_coefficients(f, table)
    terms = len(P.multi_indices(f.dims, s))
    a = terms.bit_length()
    address = range(a + f.dims, bc.width)
    assert bc.width == a + f.dims + table.address_bits
    assert all(g.kind == "Ry" and g.trainable for g in bc.prep.gates)
    assert all(set(address) <= set(g.controls + g.zeros) for g in bc.prep.gates)
    masses = {eta: np.abs(c).sum() for eta, c in coeffs.items()}
    assert abs(bc.rescale - max(1.0, *masses.values())) <= 1e-14
    u = circuit_unitary(bc.prep)
    for eta, c in coeffs.items():
        start = C.series_start(table, np.array([eta]))[0]
        want = np.zeros((1 << a, 2**f.dims, 2**table.address_bits))
        want[:terms, 0, start] = np.abs(c) / bc.rescale
        want[terms, 0, start] = 1.0 - masses[eta] / bc.rescale  # the pad
        got = np.abs(u[:, start].reshape(want.shape)) ** 2
        assert np.max(np.abs(got - want)) <= 1e-14, eta


def test_taylor_coeff_table_rejects_a_nan_coefficient():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"cell \(0,\), order \(0,\) is not finite"):
            C.TaylorCoeffTable(K=1, s=0, d=1, xi={((0,), (0,)): bad})
    # a NaN derivative fails as the table is made, not in the simulation
    f = P.TargetFunctionSpec(1, lambda x: 0.5,
                             derivative_oracle=lambda a, x: 0.5 if a == (0,) else math.nan)
    with pytest.raises(ValueError, match=r"nan of \(1,\) is not finite"):
        C.TaylorCoeffTable.from_target(f, 2, 1)


def test_taylor_coeff_table_holds_a_coefficient_beyond_one():
    # the weighted prep takes any finite coefficient into its rescale
    table = C.TaylorCoeffTable(K=1, s=0, d=1, xi={((0,), (0,)): 1.5})
    bc = C.build_taylor_series_pqc(table, (0,))
    assert bc.rescale == 1.5
    for x in (0.0, 0.7, 1.0):
        assert C.evaluate_block(bc, (x,)) == pytest.approx(1.5, abs=1e-14)


def test_taylor_series_constant_order():
    f = halfsine()
    table = C.TaylorCoeffTable.from_target(f, 2, 0)
    bc = C.build_taylor_series_pqc(table, (1,))
    v = C.evaluate_block(bc, (0.6,))
    assert v == pytest.approx(f((0.5,)), abs=1e-9)


def test_taylor_series_first_order():
    f = halfsine()
    table = C.TaylorCoeffTable.from_target(f, 4, 1)
    bc = C.build_taylor_series_pqc(table, (1,))
    x = 0.3
    expected = f((0.25,)) + 0.5 * math.cos(0.25) * (x - 0.25)
    assert C.evaluate_block(bc, (x,)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("f, K", [(targets.product_sines(2), 4), (targets.halfsine(), 2)],
                         ids=["K4-d2", "K2-d1"])
def test_shared_series_block_equals_per_cell_blocks(f, K):
    spec = P.LocalizationSpec(K, 0.3 / K, 0.5 / K)
    model = C.NestedTaylorModel(f, spec, 1)
    for eta in np.ndindex(*(K,) * f.dims):
        cell = C.build_taylor_series_pqc(model.table, eta)
        for frac in (0.05, 0.4, 0.65):  # inside band eta on every axis
            x = (np.array(eta) + frac) / K
            assert C.round_to_eta(C.localization_values(spec, x), K) == eta
            assert (spec.bands_of(x) == eta).all()
            assert model(x) == C.evaluate_block(cell, x)


def test_series_start_is_the_address_prep():
    table = C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1)
    cells = np.array(list(np.ndindex(4, 4)))
    starts = C.series_start(table, cells)
    for eta, start in zip(cells, starts):
        bc = C.build_taylor_series_pqc(table, tuple(eta))
        writes = S.Circuit(bc.width, tuple(g for g in bc.prep.gates if g.kind == "X"))
        assert np.flatnonzero(dense_run(writes)[0]) == [start]
    # two bits per coordinate, coordinate 0 first, in the block's last qubits
    assert C.series_start(table, np.array([[1, 0], [0, 1]])).tolist() == [0b0100, 0b0001]
    with pytest.raises(ValueError):
        C.series_start(table, np.array([[0, 4]]))


@pytest.mark.parametrize("d, s, K", [(1, 2, 8), (1, 3, 4), (2, 1, 4), (2, 2, 4), (3, 1, 3), (1, 1, 1)])
def test_series_block_is_the_classical_taylor_polynomial(d, s, K, monkeypatch):
    """The block of cell 0, started from each cell's address at
    u = x - eta/K, reads that cell's Taylor polynomial, with rescale
    R = max(1, max_eta sum |c(eta)|), tol 0 and no synthesis."""
    calls = []
    synthesize = Q.qsp_synthesize
    monkeypatch.setattr(Q, "qsp_synthesize", lambda *a, **k: calls.append(a) or synthesize(*a, **k))
    f = targets.halfsine() if d == 1 else targets.product_sines(d)
    table = C.TaylorCoeffTable.from_target(f, K, s)
    bc = C.build_taylor_series_pqc(table, (0,) * d)
    assert not calls
    masses = [np.abs(c).sum() for c in cell_coefficients(f, table).values()]
    assert abs(bc.rescale - max(1.0, *masses)) <= 1e-14
    assert bc.tol == 0.0
    if (d, s, K) == (2, 1, 4):  # the perfbench taylor_d2 block
        assert bc.rescale == 1.0
    cells = np.repeat(np.array(list(np.ndindex(*(K,) * d))), 3, axis=0)
    xs = (cells + np.random.default_rng(d + s + K).random(cells.shape)) / K
    got = C.evaluate_block(bc, xs - cells / K, start=C.series_start(table, cells))
    want = [P.taylor_expand(f, eta / K, s)(x - eta / K) for x, eta in zip(xs, cells)]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_nested_batch_equals_single_points():
    f = targets.product_sines(2)
    spec = P.LocalizationSpec(4, 1 / 16, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    xs = np.random.default_rng(5).random((40, 2))
    batch = model(xs)
    cells = C.round_to_eta(C.localization_values(spec, xs), 4)
    trifling = (spec.bands_of(xs) < 0).any(axis=1)
    assert trifling.any() and not trifling.all()  # points in and out of the gaps
    assert model(np.empty((0, 2))).shape == (0,)
    for x, value, eta in zip(xs, batch, cells):
        assert model(x) == value  # bit for bit
        assert C.round_to_eta(C.localization_values(spec, x), 4) == tuple(eta)


def test_nested_model_localizes_each_distinct_coordinate_once(monkeypatch):
    """The 169 points of a 13 x 13 grid localize their 13 distinct
    coordinate values in one call, and the values scattered back are those
    of every coordinate bit for bit, so the model's values are too; a lone
    point localizes its own coordinates."""
    f = targets.product_sines(2)
    spec = P.LocalizationSpec(4, 1 / 16, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    axis = np.linspace(0.0, 1.0, 13)
    xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    eta = C.round_to_eta(C.localization_values(spec, xs), 4)
    want = C.evaluate_block(model.series, xs - eta / 4, start=C.series_start(model.table, eta))
    real, shapes = C.localization_values, []
    monkeypatch.setattr(C, "localization_values",
                        lambda spec, x: shapes.append(np.shape(x)) or real(spec, x))
    assert np.array_equal(model(xs), want)
    assert shapes == [(13,)]
    assert model(xs[20]) == want[20] and shapes[1:] == [(1, 2)]


def test_evaluate_block_batch_equals_single_points():
    """A lone point's value is its batch value bit for bit, on a line
    tensor, a trig tensor and the d=2, n=4 Bernstein block."""
    real = C.build_monomial_pqc(0.5, (1, 2))
    cplx = C.build_trig_monomial_pqc(0.5j, (1, -1))
    bern = C.build_bernstein_pqc(targets.abs_centered(2), 4)
    xs = np.random.default_rng(6).uniform(0.0, 1.0, (7, 2))
    for bc, pts in ((real, xs), (cplx, xs), (bern, np.random.default_rng(7).random((50, 2)))):
        batch = C.evaluate_block(bc, pts)
        assert batch.shape == (len(pts),)
        for x, v in zip(pts, batch):
            assert C.evaluate_block(bc, x) == v
    with pytest.raises(ValueError, match="outside"):
        C.evaluate_block(real, np.vstack([xs, [[0.5, 1.5]]]))


def test_localization_values_keep_the_point_shape():
    spec = P.LocalizationSpec(4, 0.05, 0.1)
    xs = np.random.default_rng(7).random((5, 3))
    vals = C.localization_values(spec, xs)
    assert vals.shape == (5, 3)
    assert np.array_equal(vals[2], C.localization_values(spec, xs[2]))  # bit for bit
    cells = C.round_to_eta(vals, 4)
    assert cells.shape == (5, 3)
    assert [tuple(row) for row in cells] == [C.round_to_eta(v, 4) for v in vals]


def raised(call) -> tuple[type, str]:
    """The type and message of the exception that call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case, message", [
    ("nan", "encoding inputs outside [-1, 1]"),
    ("outside", "encoding inputs outside [-1, 1]"),
    ("length", "the model takes points of 2 coordinates, got 3"),
    ("start-below", "start indices must lie in [0, 512)"),
    ("start-above", "start indices must lie in [0, 512)"),
])
def test_a_lone_point_raises_what_its_batch_raises(case, message):
    """A lone nested-model point with a NaN coordinate, a coordinate
    outside [-1, 1] or the wrong length, and a lone evaluate_block call of
    the series block from a start outside the register, raise the
    exception type and message of a batch that holds that point."""
    model = C.NestedTaylorModel(targets.product_sines(2), P.LocalizationSpec(4, 1 / 16, 1 / 8), 1)
    if case.startswith("start"):
        start = -1 if case == "start-below" else 99999
        point = np.array([[0.1, 0.2]])
        lone = lambda: C.evaluate_block(model.series, point, start=np.array([start]))  # noqa: E731
        batch = lambda: C.evaluate_block(  # noqa: E731
            model.series, np.vstack([point, point, point]), start=np.array([0, start, 5]))
    else:
        bad = np.array({"nan": [0.3, np.nan], "outside": [1.5, 0.3], "length": [0.3, 0.4, 0.5]}[case])
        lone = lambda: model(bad)  # noqa: E731
        batch = lambda: model(np.vstack([np.full_like(bad, 0.2), bad, np.full_like(bad, 0.6)]))  # noqa: E731
    assert raised(lone) == raised(batch) == (ValueError, message)


@pytest.mark.parametrize("d", [2, 3])
def test_nested_model_builds_no_localization_block(monkeypatch, d):
    """The model reads its localization values from the coefficients and
    reports count the block by rule, so it builds no localization SELECT."""
    build, select, calls, labels = C.build_localization_pqc, C._chebyshev_select, [], []
    monkeypatch.setattr(C, "build_localization_pqc",
                        lambda *args: calls.append(args) or build(*args))
    monkeypatch.setattr(C, "_chebyshev_select",
                        lambda *args: labels.append(args[-1][0]) or select(*args))
    spec = P.LocalizationSpec(2, 0.1, 0.25)
    model = C.NestedTaylorModel(targets.product_sines(d), spec, 1)
    model(np.full(d, 0.3))
    assert calls == []
    assert labels == ["taylor-series s=1"]
    assert model.tol_agg == model.series.tol


def test_localization_resources_equal_the_built_count():
    """The rule counts the block from its weights as the builder emits it,
    with resource_count of the built prep and circuit as the reference: on
    the K=1 and K=2 specs, taylor_d2's, the CI's K=8, 16 and 32 report
    specs and 40 seeded random ones with K from 2 to 12."""
    specs = [P.LocalizationSpec(1, 0.1, 0.07), P.LocalizationSpec(2, 0.1, 0.25),
             P.LocalizationSpec(4, 1 / 16, 1 / 8), P.LocalizationSpec(8, 0.0375, 0.0625),
             P.LocalizationSpec(16, 0.01875, 0.03125), P.LocalizationSpec(32, 0.009375, 0.015625)]
    rng = np.random.default_rng(53)
    for _ in range(40):
        K = int(rng.integers(2, 13))
        specs.append(P.LocalizationSpec(K, rng.uniform(0.2, 0.45) / K, rng.uniform(0.25, 0.75) / K))
    counts = [C.localization_resources(spec) for spec in specs]
    for spec, count in zip(specs, counts):
        assert count == cli._resources(C.build_localization_pqc(spec)), spec
    # both depth cases: K=1 has no negative weight, so no sign pair opens its circuit
    assert [r.depth == r.gate_total for r in counts].count(True) == 1
    assert counts[3] == S.ResourceCount(11, 1559, 448, 1560)


def test_nested_d3_grid_runs_in_chunks_sized_by_the_targeted_qubits(monkeypatch):
    """The d=3, K=4 series block is 13 qubits wide, but its 6 address
    qubits are classical, so a point's state on the other 7 takes 2 KiB and
    the report's 3,375 union-grid points run in 14 chunks of at most 256,
    not 844 chunks of 4."""
    delta = cli.default_delta(3, 4)
    model = C.NestedTaylorModel(targets.product_sines(3), P.LocalizationSpec(4, delta, 0.125), 1)
    pts = approx.GridSpec(3, region="union_q_eta", K=4, delta=delta).points()
    prog = model.series.program
    assert (len(pts), prog.width, prog.row_bytes) == (3375, 13, 2048)
    run, chunks = S.run, []
    monkeypatch.setattr(S, "run",
                        lambda program, **kw: chunks.append(len(kw["x"])) or run(program, **kw))
    model(pts)
    assert len(chunks) == 14 and max(chunks) == 256 and sum(chunks) == len(pts)


def test_nested_constant_target():
    f = P.TargetFunctionSpec(
        1,
        lambda x: 0.4,
        derivative_oracle=lambda a, x: 0.4 if sum(a) == 0 else 0.0,
        holder=(2.0, 1.0),
    )
    spec = P.LocalizationSpec(2, 0.1, 0.25)
    model = C.NestedTaylorModel(f, spec, 1)
    for x in (0.1, 0.3, 0.8):
        assert model((x,)) == pytest.approx(0.4, abs=1e-8)


def test_nested_halfsine_bound():
    f = halfsine()
    spec = P.LocalizationSpec(4, 0.05, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    assert C.round_to_eta(C.localization_values(spec, (0.3,)), 4) == (1,)
    assert spec.bands_of(0.3) == 1
    bound = P.thm_bounds("thm3", d=1, s=1, beta=2, K=4)
    assert abs(model((0.3,)) - f((0.3,))) <= bound + model.tol_agg


def test_nested_exact_at_expansion_point():
    f = halfsine()
    spec = P.LocalizationSpec(4, 0.05, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    assert model((0.25,)) == pytest.approx(f((0.25,)), abs=1e-8)


def test_nested_trifling_flagged():
    f = halfsine()
    spec = P.LocalizationSpec(4, 0.05, 1 / 8)
    assert spec.bands_of(0.24) == -1  # inside the gap (0.25 - delta, 0.25)
    value = C.NestedTaylorModel(f, spec, 1)((0.24,))  # a gap point still reads a cell
    assert math.isfinite(value)


def test_nested_model_rejects_a_point_of_another_length():
    model = C.NestedTaylorModel(targets.product_sines(2), P.LocalizationSpec(4, 0.05, 0.125), 1)
    for x in ([0.3, 0.4, 0.5], [0.3], np.zeros((3, 1))):
        got = np.shape(x)[-1]
        with pytest.raises(ValueError, match=f"points of 2 coordinates, got {got}"):
            model(x)


def test_eval_nested_taylor_function():
    f = halfsine()
    spec = P.LocalizationSpec(2, 0.1, 0.25)
    value = C.NestedTaylorModel(f, spec, 1)((0.7,))
    assert abs(value - f((0.7,))) <= P.thm_bounds(
        "thm3", d=1, s=1, beta=2, K=2
    ) + 1e-6


# ---------------------------------------------------------------------------
# Trigonometric circuits
# ---------------------------------------------------------------------------


def test_trig_monomial_constant():
    bc = C.build_trig_monomial_pqc(1.0, (0,))
    assert C.evaluate_block(bc, (2.0,)) == pytest.approx(1.0, abs=1e-12)


def test_trig_monomial_frozen_example():
    bc = C.build_trig_monomial_pqc(0.9, (1,))
    v = C.evaluate_block(bc, (math.pi / 3,))
    assert v == pytest.approx(0.9 * np.exp(1j * math.pi / 3), abs=1e-10)


def test_trig_monomial_resources():
    n = (2, -1)
    s = sum(abs(v) for v in n)
    bc = C.build_trig_monomial_pqc(0.8, n)
    rc = S.resource_count(bc.circuit)
    assert rc.depth <= 6 * s + 3
    assert rc.trainable_params <= 4 * s + 3 * len(n)


def test_trig_poly_cosine():
    t = P.MultivariateTrigPolynomial({(1,): 0.45, (-1,): 0.45}, 1)
    bc = C.build_trig_poly_pqc(t)
    for x in np.linspace(0, 2 * math.pi, 9):
        assert C.evaluate_block(bc, (x,)) == pytest.approx(
            0.9 * math.cos(x), abs=1e-9
        )


def test_trig_poly_2d_frozen_example():
    t = P.MultivariateTrigPolynomial({(1, -1): 0.5}, 2)
    bc = C.build_trig_poly_pqc(t)
    v = C.evaluate_block(bc, (math.pi / 2, math.pi / 2))
    assert v == pytest.approx(0.5, abs=1e-10)


def test_trig_poly_constant_one():
    t = P.MultivariateTrigPolynomial({(0,): 1.0}, 1)
    bc = C.build_trig_poly_pqc(t)
    for x in (0.0, 1.3, 5.5):
        assert C.evaluate_block(bc, (x,)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trig_block_rejects_a_non_finite_input(bad):
    # the Z encoding takes any finite angle, so only a non-finite one is
    # out of its range; it used to surface as a lost-unitarity RuntimeError
    bc = C.build_trig_poly_pqc(P.MultivariateTrigPolynomial({(1,): 0.45, (-1,): 0.45}, 1))
    with pytest.raises(ValueError, match=f"encoding argument {bad} is not finite"):
        C.evaluate_block(bc, (bad,))
    with pytest.raises(ValueError, match="not finite"):
        C.evaluate_block(bc, np.array([[0.3], [bad]]))
