import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft

from pqcapprox import poly as P
from pqcapprox import qsp as Q


def random_parity_target(rng, degree, sup=0.99):
    coeffs = rng.normal(size=degree + 1) * 0.7 ** np.arange(degree + 1)
    coeffs[(degree + 1) % 2 :: 2] = 0.0
    if coeffs[degree] == 0.0:
        coeffs[degree] = 0.1
    pol = P.Polynomial(tuple(coeffs))
    grid = np.linspace(-1, 1, 4001)
    pol = pol.scaled(sup / float(np.max(np.abs(pol(grid)))))
    return P.ParityPolynomial(pol, degree % 2)


# ---------------------------------------------------------------------------
# Unitary evaluation
# ---------------------------------------------------------------------------


def test_unitary_identity_at_zero_angles():
    u = Q.qsp_unitary(Q.QspAngleSequence((0.0,)), 0.5)
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_unitary_single_layer_is_encoding():
    u = Q.qsp_unitary(Q.QspAngleSequence((0.0, 0.0)), 0.3)
    s = math.sqrt(1 - 0.09)
    expected = np.array([[0.3, 1j * s], [1j * s, 0.3]])
    assert np.allclose(u, expected, atol=1e-15)


def test_unitary_domain_error():
    with pytest.raises(ValueError):
        Q.qsp_unitary(Q.QspAngleSequence((0.0, 0.0)), 1.5)


def test_unitarity_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = int(rng.integers(0, 12))
        a = Q.QspAngleSequence(tuple(rng.normal(size=L + 1)))
        x = float(rng.uniform(-1, 1))
        u = Q.qsp_unitary(a, x)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


def test_block_values_match_unitary():
    rng = np.random.default_rng(5)
    angles = tuple(rng.normal(size=6))
    xs = np.linspace(-1, 1, 17)
    batch = Q.qsp_block_values(angles, xs)
    plus = np.array([1, 1]) / math.sqrt(2)
    for x, b in zip(xs, batch):
        u = Q.qsp_unitary(Q.QspAngleSequence(angles), float(x))
        assert abs(b - plus @ u @ plus) <= 1e-13


def _check_against_unitary(L, n, width, seed):
    rng = np.random.default_rng(seed)
    angles = tuple(rng.uniform(-np.pi, np.pi, L + 1))
    xs = np.cos(rng.uniform(0.0, np.pi, n))
    xs[0] = 1.0
    xs[-1] = -1.0 if n > 1 else xs[-1]
    with mock.patch.object(Q, "_BLOCK_WIDTH", width):
        batch = Q.qsp_block_values(angles, xs)
    plus = np.array([1, 1]) / math.sqrt(2)
    seq = Q.QspAngleSequence(angles)
    ref = np.array([plus @ Q.qsp_unitary(seq, float(x)) @ plus for x in xs])
    assert np.max(np.abs(batch - ref)) <= 1e-12


@given(
    L=st.integers(0, 64),
    n=st.integers(1, 300),
    width=st.sampled_from([1, 5, 64, Q._BLOCK_WIDTH]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None, derandomize=True)
@example(L=0, n=2, width=Q._BLOCK_WIDTH, seed=5)
def test_block_values_match_unitary_any_blocking(L, n, width, seed):
    _check_against_unitary(L, n, width, seed)


@pytest.mark.parametrize(
    "L, n, width, blocks, leading",
    [
        (64, 300, 1, 1, 0),  # one block: a plain sweep
        (64, 1, Q._BLOCK_WIDTH, 64, 0),  # one layer per block
        (45, 3, Q._BLOCK_WIDTH, 45, 0),  # odd block count
        (50, 1, 7, 7, 1),  # odd block count plus a leading layer
    ],
)
def test_block_values_match_unitary_in_each_layout(L, n, width, blocks, leading):
    with mock.patch.object(Q, "_BLOCK_WIDTH", width):
        m, q, r = Q._layer_blocks(L, n)
    assert (q, r) == (blocks, leading) and q * m + r == L
    _check_against_unitary(L, n, width, seed=L)


def test_block_values_batch_invariant_at_high_degree():
    rng = np.random.default_rng(894)
    angles = rng.uniform(-np.pi, np.pi, 895)
    xs = np.cos(rng.uniform(0.0, np.pi, 3580))
    batch = Q.qsp_block_values(angles, xs)
    single = np.array([Q.qsp_block_values(angles, [x])[0] for x in xs])
    assert np.max(np.abs(batch - single)) <= 1e-13


@pytest.mark.parametrize("bad", [[1.5], [0.2, -1.0 - 1e-9], [np.nan]])
def test_block_values_reject_inputs_outside_unit_interval(bad):
    with pytest.raises(ValueError):
        Q.qsp_block_values((0.1, 0.2, 0.3), bad)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def test_synthesize_constant_one():
    a = Q.qsp_synthesize(P.ParityPolynomial(P.Polynomial((1.0,)), 0))
    assert a.angles == (0.0,)
    assert a.residual == 0.0


def test_synthesize_identity_function():
    target = P.ParityPolynomial(P.Polynomial((0.0, 1.0)), 1)
    a = Q.qsp_synthesize(target)
    grid = np.linspace(-1, 1, 101)
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - grid)) <= 1e-10


def test_synthesize_scaled_chebyshev():
    target = P.ParityPolynomial(P.Polynomial((-0.9, 0.0, 1.8)), 0)
    a = Q.qsp_synthesize(target)
    assert a.residual <= 1e-9


def test_synthesis_grid_residual_and_imag_part():
    rng = np.random.default_rng(3)
    target = random_parity_target(rng, 9)
    a = Q.qsp_synthesize(target, tol=1e-8)
    grid = np.cos(np.linspace(0.01, math.pi - 0.01, 4 * 10))
    b = Q.qsp_block_values(a.angles, grid)
    assert np.max(np.abs(b - target(grid))) <= 1e-8
    assert np.max(np.abs(np.imag(b))) <= 1e-8


def test_round_trip_on_fresh_grid():
    rng = np.random.default_rng(17)
    target = random_parity_target(rng, 12)
    a = Q.qsp_synthesize(target, tol=1e-9)
    fresh = np.linspace(-0.997, 0.997, 311)  # not the synthesis grid
    assert np.max(np.abs(Q.qsp_block_values(a.angles, fresh) - target(fresh))) <= 1e-9


def test_qsp_identity_invariant():
    # |P|^2 + (1-x^2)|Q|^2 = 1 read off the unitary entries
    rng = np.random.default_rng(23)
    target = random_parity_target(rng, 7)
    a = Q.qsp_synthesize(target)
    for x in np.linspace(-0.99, 0.99, 19):
        u = Q.qsp_unitary(a, float(x))
        p_val = u[0, 0]
        s = math.sqrt(1 - x * x)
        q_val = u[0, 1] / (1j * s)
        assert abs(abs(p_val) ** 2 + (1 - x * x) * abs(q_val) ** 2 - 1) <= 1e-10


def test_degree_and_parity_of_block():
    rng = np.random.default_rng(29)
    degree = 8
    target = random_parity_target(rng, degree)
    a = Q.qsp_synthesize(target)
    # fit the realized block on a fine grid; off-parity and above-degree
    # Chebyshev coefficients must vanish
    xs = np.cos(np.pi * (np.arange(64) + 0.5) / 64)
    vals = np.real(Q.qsp_block_values(a.angles, xs))
    coef = np.polynomial.chebyshev.chebfit(xs, vals, 40)
    assert np.max(np.abs(coef[degree + 1 :])) <= 1e-9
    assert np.max(np.abs(coef[1::2])) <= 1e-9  # even target here


def test_parity_mismatch_rejected():
    with pytest.raises(ValueError):
        Q.qsp_synthesize(P.ParityPolynomial(P.Polynomial((0.0, 0.5, 0.2)), 0))


def test_sup_norm_above_one_rejected():
    with pytest.raises(ValueError):
        Q.qsp_synthesize(P.ParityPolynomial(P.Polynomial((0.0, 1.2)), 1))


@pytest.mark.parametrize("L", [1, 2, 5, 6, 33, 64])
def test_symmetric_angles_give_a_real_block(L):
    # a palindromic interior with theta_0 = theta_L - pi makes <+|U|+> real
    rng = np.random.default_rng(L)
    xs = np.cos(np.linspace(0.0, np.pi, 41))
    for _ in range(5):
        thetas = Q._symmetric_angles(rng.uniform(-np.pi, np.pi, L // 2 + 1), L)
        assert np.array_equal(thetas[1:L], thetas[1:L][::-1])
        assert thetas[0] == thetas[L] - np.pi
        assert np.max(np.abs(Q.qsp_block_values(thetas, xs).imag)) <= 1e-14


def test_half_chain_grad_matches_central_differences():
    rng = np.random.default_rng(37)
    xs = np.cos(np.linspace(0.0, np.pi, 21))
    h = 1e-5
    for L in (1, 2, 12, 13):  # odd and even: an even L has a centre angle
        phi = rng.uniform(-np.pi, np.pi, L // 2 + 1)
        grad = Q._half_chain_grad(Q._symmetric_angles(phi, L), xs)
        assert grad.shape == (len(phi), len(xs))
        for k in range(len(phi)):
            step = np.zeros_like(phi)
            step[k] = h
            up = Q.qsp_block_values(Q._symmetric_angles(phi + step, L), xs)
            down = Q.qsp_block_values(Q._symmetric_angles(phi - step, L), xs)
            assert np.max(np.abs(grad[k] - (up - down) / (2 * h))) <= 1e-7


@pytest.mark.parametrize("L", [1, 2, 7, 178, 894])
def test_fast_length_nodes_give_the_same_coefficients(L):
    # synthesis samples at next_fast_len(L + 1) nodes instead of L + 1
    rng = np.random.default_rng(L)
    thetas = rng.uniform(-np.pi, np.pi, L + 1)

    def coefficients(m):
        xs, sines = P._cheb_nodes(m)
        b = Q.qsp_block_values(thetas, xs)
        return P._cheb_coeffs(b.real), P._cheb_coeffs(b.imag / sines)

    m = fft.next_fast_len(L + 1, real=True)
    exact_re, exact_im = coefficients(L + 1)
    fast_re, fast_im = coefficients(m)
    # dividing by sin(theta) scales the rounding of the end nodes' values by
    # up to 1 / sin(pi / 2m), about 570 at L = 894
    tol_im = 1e-13 / math.sin(math.pi / (2 * (L + 1)))
    assert np.max(np.abs(fast_re[: L + 1] - exact_re)) <= 1e-13
    assert np.max(np.abs(fast_im[: L + 1] - exact_im)) <= tol_im
    assert np.max(np.abs(fast_re[L + 1 :]), initial=0.0) <= 1e-13
    assert np.max(np.abs(fast_im[L + 1 :]), initial=0.0) <= tol_im


def test_singular_jacobian_ends_in_synthesis_error(monkeypatch, caplog):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(Q.np.linalg, "solve", singular)
    target = random_parity_target(np.random.default_rng(3), 5)
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        with pytest.raises(Q.QspSynthesisError) as info:
            Q.qsp_synthesize(target, max_restarts=2)
    assert math.isfinite(info.value.residual) and info.value.residual > 0.0
    messages = [r.getMessage() for r in caplog.records]
    assert "degree 5: falling back to scale schedule [0.25, 0.5, 0.75, 0.9, 1.0]" in messages
    assert "degree 5: random restart 2 of 2" in messages
    # every stage stops at its first solve: no step, one Jacobian
    stages = [m for m in messages if "newton stage" in m]
    assert len(stages) == 4
    assert all(": 0 iterations, 0 halvings, 1 jacobian builds" in m for m in stages)


def test_jacobian_built_once_per_accepted_step(monkeypatch):
    half_chain_grad, newton_solve = Q._half_chain_grad, Q._newton_solve
    calls = []
    stages = []

    def counted(*args):
        calls.append(1)
        return half_chain_grad(*args)

    def stage(*args, **kwargs):
        before = len(calls)
        out = newton_solve(*args, **kwargs)
        stages.append((len(calls) - before, out[2], out[3]))
        return out

    monkeypatch.setattr(Q, "_half_chain_grad", counted)
    monkeypatch.setattr(Q, "_newton_solve", stage)
    # this target's line search rejects candidates, so a Jacobian built per
    # candidate would break the count
    target = random_parity_target(np.random.default_rng(2), 9, sup=0.999)
    Q.qsp_synthesize(target, tol=1e-10)
    assert stages
    for builds, steps, halvings in stages:
        assert builds == steps + 1
    assert sum(halvings for *_, halvings in stages) > 0


def test_synthesis_logs_each_stage_only_when_asked(caplog):
    target = random_parity_target(np.random.default_rng(23), 7)
    Q.qsp_synthesize(target)
    assert not [r for r in caplog.records if r.name == "pqcapprox.qsp"]
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        Q.qsp_synthesize(target)
    (message,) = [r.getMessage() for r in caplog.records]
    match = re.fullmatch(
        r"degree 7 newton stage at scale 1: (\d+) iterations, \d+ halvings,"
        r" (\d+) jacobian builds, coefficient norm \S+",
        message,
    )
    assert match and int(match[2]) == int(match[1]) + 1 > 1


def test_synthesis_peak_memory_within_guard():
    loc = P.localization_poly(P.LocalizationSpec(2, 0.1, 0.05))
    target = P.ParityPolynomial(loc, 0)
    L = target.degree
    assert 250 <= L <= 350
    tracemalloc.start()
    try:
        Q.qsp_synthesize(target, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= P._SYNTHESIS_BYTES_PER_ENTRY * (L + 1) ** 2


def test_synthesized_localization_angles_are_symmetric():
    loc = P.localization_poly(P.LocalizationSpec(2, 0.1, 0.05))
    angles = Q.qsp_synthesize(P.ParityPolynomial(loc, 0), tol=1e-9).angles
    L = len(angles) - 1
    assert angles[1:L] == angles[1:L][::-1]
    assert angles[0] == angles[L] - math.pi


# ---------------------------------------------------------------------------
# Completion oracle
# ---------------------------------------------------------------------------


def test_completion_constant():
    a = Q.qsp_synthesize_completion(P.ParityPolynomial(P.Polynomial((0.7,)), 0))
    grid = np.linspace(-1, 1, 50)
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - 0.7)) <= 1e-10


def test_completion_identity():
    a = Q.qsp_synthesize_completion(P.ParityPolynomial(P.Polynomial((0.0, 1.0)), 1))
    grid = np.linspace(-1, 1, 50)
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - grid)) <= 1e-10


@pytest.mark.parametrize(
    "coeffs",
    [(0.0, -1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 5.0, 0.0, -20.0, 0.0, 16.0)],
    ids=["minus_x", "x_cubed", "T5"],
)
def test_completion_double_root_at_minus_one(coeffs):
    # |p(-1)| = 1 gives 1 - p^2 a double root at z = -1, which root finders
    # may return split across the +-pi branch cut of the angle
    target = P.ParityPolynomial(P.Polynomial(coeffs), 1)
    a = Q.qsp_synthesize_completion(target)
    grid = np.linspace(-1, 1, 50)
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - target(grid))) <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 5, 8])
def test_completion_cross_checks_newton(degree):
    rng = np.random.default_rng(100 + degree)
    target = random_parity_target(rng, degree)
    newton = Q.qsp_synthesize(target)
    completion = Q.qsp_synthesize_completion(target)
    grid = np.cos(np.linspace(0.03, math.pi - 0.03, 157))
    diff = np.abs(
        Q.qsp_block_values(newton.angles, grid)
        - Q.qsp_block_values(completion.angles, grid)
    )
    assert np.max(diff) <= 1e-7


# ---------------------------------------------------------------------------
# Trigonometric circuits
# ---------------------------------------------------------------------------


def test_trig_unitary_identity():
    params = Q.TrigQspParams(0.0, (0.0,), (0.0,))
    assert np.allclose(Q.trig_qsp_unitary(params, 1.3), np.eye(2), atol=1e-15)


def test_trig_unitary_single_layer_is_encoding():
    params = Q.TrigQspParams(0.0, (0.0, 0.0), (0.0, 0.0))
    x = math.pi / 2
    expected = np.diag([np.exp(1j * x / 2), np.exp(-1j * x / 2)])
    assert np.allclose(Q.trig_qsp_unitary(params, x), expected, atol=1e-15)


def test_trig_unitarity_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        L = int(rng.integers(0, 7))
        params = Q.TrigQspParams(
            float(rng.normal()),
            tuple(rng.normal(size=L + 1)),
            tuple(rng.normal(size=L + 1)),
        )
        u = Q.trig_qsp_unitary(params, float(rng.uniform(0, 2 * math.pi)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


@pytest.mark.parametrize(
    "c,n", [(1.0, 0), (0.9, 1), (0.5 + 0.2j, -2), (-0.3, 3), (1.0, -1), (1j, 2)]
)
def test_trig_monomial_exact(c, n):
    params = Q.trig_monomial_params(c, n)
    xs = np.linspace(0, 2 * math.pi, 29)
    vals = Q.trig_block_values(params, xs)
    assert np.max(np.abs(vals - c * np.exp(1j * n * xs))) <= 1e-12
