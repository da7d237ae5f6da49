import logging
import math

import numpy as np
import pytest

from pqcapprox import circuits as C
from pqcapprox import poly as P
from pqcapprox import qsp as Q
from pqcapprox import sim as S
from pqcapprox import targets


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
    u_circ = S.circuit_unitary(circ)
    u_ref = Q.qsp_unitary(Q.QspAngleSequence(angles), x)
    assert np.max(np.abs(u_circ - u_ref)) <= 1e-12


def test_trig_line_matches_unitary():
    rng = np.random.default_rng(3)
    params = Q.TrigQspParams(
        float(rng.normal()), tuple(rng.normal(size=4)), tuple(rng.normal(size=4))
    )
    x = 1.1
    circ = S.Circuit(1, C.trig_line(params, S.EncodingSlot(0, "zrot"))).bound((x,))
    u_circ = S.circuit_unitary(circ)
    u_ref = Q.trig_qsp_unitary(params, x)
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


def test_monomial_shifted_argument():
    bc = C.build_monomial_pqc(1.0, (2,), shifts=(0.25,))
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
            gates.append(S.rx(0, float(rng.normal())))
        elif k == 1:
            gates.append(S.ry(0, float(rng.normal())))
        elif k == 2:
            gates.append(S.rz(0, float(rng.normal())))
        else:
            gates.append(S.zg(0))
    circuit = S.Circuit(1, tuple(gates))
    prep = S.Circuit(1, (S.h(0),))
    return C.BlockCircuit(circuit, prep, rescale=1.0)


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


def test_assembled_circuit_is_unitary():
    rng = np.random.default_rng(9)
    units = [_random_single_qubit_unit(rng) for _ in range(3)]
    combined = C.lcu_combine(units)
    u = S.circuit_unitary(combined.circuit)
    assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-10


# ---------------------------------------------------------------------------
# Parity pairs and multivariate polynomials
# ---------------------------------------------------------------------------


def test_parity_pair_constant():
    bc = C.build_parity_pair_pqc(P.Polynomial((1.0,)))
    assert bc.rescale == pytest.approx(2.0)
    assert C.evaluate_block(bc, (0.4,)) == pytest.approx(1.0, abs=1e-10)


def test_parity_pair_frozen_examples():
    bc = C.build_parity_pair_pqc(P.Polynomial((0.0, 1.0, -1.0)))
    assert C.evaluate_block(bc, (0.5,)) == pytest.approx(0.25, abs=1e-9)
    pol = P.Polynomial((0.0, 3.0, -6.0, 3.0))  # 3x(1-x)^2
    bc = C.build_parity_pair_pqc(pol)
    assert C.evaluate_block(bc, (0.2,)) == pytest.approx(0.384, abs=1e-9)
    assert bc.circuit.width == 2


def test_parity_pair_logs_its_retry_only_when_asked(monkeypatch, caplog):
    synthesize_cached = C.synthesize_cached
    calls = []

    def first_fails(target, tol):
        calls.append(1)
        if len(calls) == 1:
            raise Q.QspSynthesisError("forced", 0.5)
        return synthesize_cached(target, tol)

    monkeypatch.setattr(C, "synthesize_cached", first_fails)
    pol = P.Polynomial((0.0, 3.0, -6.0, 3.0))  # 3x(1-x)^2
    bc = C.build_parity_pair_pqc(pol)
    assert len(calls) == 3  # the failed even half, then both halves again
    assert C.evaluate_block(bc, (0.2,)) == pytest.approx(0.384, abs=1e-9)
    assert not [r for r in caplog.records if r.name == "pqcapprox.circuits"]
    calls.clear()
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.circuits"):
        C.build_parity_pair_pqc(pol)
    (message,) = [r.getMessage() for r in caplog.records if r.name == "pqcapprox.circuits"]
    assert message.startswith("parity pair degree 3: forced (best residual 5.000e-01);")
    assert "retrying at scale" in message


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
    assert C.evaluate_block(bc, (0.4, 0.8)) == pytest.approx(0.36, abs=1e-9)


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
        assert C.evaluate_block(bc, x) == pytest.approx(mp(x), abs=1e-6)


def test_poly_ancilla_sizing_respects_term_count():
    d, s = 2, 2
    alphas = P.multi_indices(d, s)
    mp = P.MultivariatePolynomial({a: 0.05 for a in alphas}, d)
    bc = C.build_poly_pqc(mp)
    t = len(alphas)
    assert t <= (s + 1) * d**s
    ancillas = bc.width - d
    assert ancillas == math.ceil(math.log2(t))


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


def test_bernstein_rebuild_hits_the_synthesis_cache():
    f = P.TargetFunctionSpec(2, lambda x: 0.5 * x[0] * (1 - x[1]))
    C.build_bernstein_pqc(f, 2)
    before = C.synthesize_cached.cache_info()
    C.build_bernstein_pqc(f, 2)
    after = C.synthesize_cached.cache_info()
    assert after.hits > before.hits
    assert after.misses == before.misses


def test_bernstein_pqc_2d():
    f = P.TargetFunctionSpec(2, lambda x: 0.5 * x[0] * (1 - x[1]))
    bc = C.build_bernstein_pqc(f, 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = tuple(rng.random(2))
        assert C.evaluate_block(bc, x) == pytest.approx(
            P.bernstein_eval(f, 2, x), abs=1e-6
        )


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


def test_localization_block_single_band():
    spec = P.LocalizationSpec(1, 0.1, 0.07)
    blocks = C.build_localization_pqc(spec, 1)
    for x in (0.1, 0.6, 0.95):
        v = C.evaluate_block(blocks[0], (x,))
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


def test_evaluate_block_reuses_compiled_programs():
    real = C.build_monomial_pqc(0.5, (1, 1))
    cplx = C.build_trig_monomial_pqc(0.5j, (1,))
    for bc, n_parts in ((real, 1), (cplx, 2)):
        C.evaluate_block(bc, (0.3, 0.4))
        programs = bc.programs
        assert len(programs) == n_parts
        C.evaluate_block(bc, (0.1, 0.2))
        assert bc.programs is programs
        assert all(a is b for a, b in zip(bc.programs, programs))


def test_localization_block_frozen_example():
    spec = P.LocalizationSpec(4, 0.05, 0.1)
    vals = C.localization_values(spec, [0.6])
    assert 0.5 <= vals[0] < 0.6


def test_localization_fast_path_equals_hadamard_test():
    spec = P.LocalizationSpec(2, 0.1, 0.05)
    blocks = C.build_localization_pqc(spec, 1)
    for x in (0.2, 0.8):
        ht = C.evaluate_block(blocks[0], (x,))
        fast = C.localization_values(spec, [x])[0]
        assert ht == pytest.approx(fast, abs=1e-10)


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
    # xi in {1, 0, -0.5}: block equals xi exactly via theta = 2 arccos(xi)
    table = C.TaylorCoeffTable(
        K=2, s=0, d=1, xi={((0,), (0,)): 1.0, ((1,), (0,)): -0.5}
    )
    circ = C.build_taylor_coeff_pqc(table, (0,))
    u = S.circuit_unitary(circ)
    # eta = 0: address |0>, coeff |0>
    psi0 = S.Statevector.zero(circ.width).amplitudes
    assert np.vdot(psi0, u @ psi0).real == pytest.approx(1.0, abs=1e-12)
    # eta = 1
    prep = S.Circuit(circ.width, (S.xg(0),))
    psi1 = S.run(prep).amplitudes
    assert np.vdot(psi1, u @ psi1).real == pytest.approx(-0.5, abs=1e-12)


def test_taylor_coeff_zero_block():
    table = C.TaylorCoeffTable(K=1, s=0, d=1, xi={((0,), (0,)): 0.0})
    circ = C.build_taylor_coeff_pqc(table, (0,))
    psi = S.Statevector.zero(circ.width).amplitudes
    u = S.circuit_unitary(circ)
    assert abs(np.vdot(psi, u @ psi)) <= 1e-12


def test_taylor_coeff_gate_count():
    f = halfsine()
    table = C.TaylorCoeffTable.from_target(f, 4, 1)
    circ = C.build_taylor_coeff_pqc(table, (1,))
    rotations = [g for g in circ.gates if g.kind in ("MCU", "Rx")]
    assert len(rotations) == 4  # K^d
    assert S.resource_count(circ).trainable_params == 4


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
            res = model.evaluate(x)
            assert res.eta == eta and not res.in_trifling
            assert res.value == C.evaluate_block(cell, x)


def test_series_start_is_the_address_prep():
    table = C.TaylorCoeffTable.from_target(targets.product_sines(2), 4, 1)
    cells = np.array(list(np.ndindex(4, 4)))
    starts = C.series_start(table, cells)
    for eta, start in zip(cells, starts):
        bc = C.build_taylor_series_pqc(table, tuple(eta))
        writes = S.Circuit(bc.width, tuple(g for g in bc.prep.gates if g.kind == "X"))
        assert np.flatnonzero(S.run(writes).amplitudes) == [start]
    # two bits per coordinate, coordinate 0 first, above the coefficient
    # qubit and the two data qubits
    assert C.series_start(table, np.array([[1, 0], [0, 1]])).tolist() == [0b0100 << 3, 0b0001 << 3]
    with pytest.raises(ValueError):
        C.series_start(table, np.array([[0, 4]]))


def test_nested_batch_equals_single_points():
    f = targets.product_sines(2)
    spec = P.LocalizationSpec(4, 1 / 16, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    xs = np.random.default_rng(5).random((40, 2))
    batch = model.evaluate(xs)
    assert batch.in_trifling.any() and not batch.in_trifling.all()
    assert np.array_equal(model(xs), batch.value)
    assert model(np.empty((0, 2))).shape == (0,)
    for x, value, eta, trifling in zip(xs, batch.value, batch.eta, batch.in_trifling):
        one = model.evaluate(x)
        assert abs(one.value - value) <= 1e-14
        assert one.eta == tuple(eta) and one.in_trifling == trifling


def test_evaluate_block_batch_equals_single_points():
    real = C.build_monomial_pqc(0.5, (1, 2))
    cplx = C.build_trig_monomial_pqc(0.5j, (1, -1))
    xs = np.random.default_rng(6).uniform(0.0, 1.0, (7, 2))
    for bc in (real, cplx):
        batch = C.evaluate_block(bc, xs)
        assert batch.shape == (7,)
        for x, v in zip(xs, batch):
            assert abs(C.evaluate_block(bc, x) - v) <= 1e-14
    with pytest.raises(ValueError, match="outside"):
        C.evaluate_block(real, np.vstack([xs, [[0.5, 1.5]]]))


def test_localization_values_keep_the_point_shape():
    spec = P.LocalizationSpec(4, 0.05, 0.1)
    xs = np.random.default_rng(7).random((5, 3))
    vals = C.localization_values(spec, xs)
    assert vals.shape == (5, 3)
    assert np.max(np.abs(vals[2] - C.localization_values(spec, xs[2]))) <= 1e-14
    cells = C.round_to_eta(vals, 4)
    assert cells.shape == (5, 3)
    assert [tuple(row) for row in cells] == [C.round_to_eta(v, 4) for v in vals]


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
        res = model.evaluate((x,))
        assert res.value == pytest.approx(0.4, abs=1e-8)


def test_nested_halfsine_bound():
    f = halfsine()
    spec = P.LocalizationSpec(4, 0.05, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    res = model.evaluate((0.3,))
    assert res.eta == (1,)
    assert not res.in_trifling
    bound = P.thm_bounds("thm3", d=1, s=1, beta=2, K=4)
    assert abs(res.value - f((0.3,))) <= bound + model.tol_agg


def test_nested_exact_at_expansion_point():
    f = halfsine()
    spec = P.LocalizationSpec(4, 0.05, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    res = model.evaluate((0.25,))
    assert res.value == pytest.approx(f((0.25,)), abs=1e-8)


def test_nested_trifling_flagged():
    f = halfsine()
    spec = P.LocalizationSpec(4, 0.05, 1 / 8)
    model = C.NestedTaylorModel(f, spec, 1)
    res = model.evaluate((0.24,))  # inside the gap (0.25 - delta, 0.25)
    assert res.in_trifling


def test_eval_nested_taylor_function():
    f = halfsine()
    spec = P.LocalizationSpec(2, 0.1, 0.25)
    res = C.NestedTaylorModel(f, spec, 1).evaluate((0.7,))
    assert abs(res.value - f((0.7,))) <= P.thm_bounds(
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
