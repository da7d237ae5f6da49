import logging
import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft

from pqcapprox import poly as P
from pqcapprox import qsp as Q

from oracles import qsp_synthesize_completion, qsp_unitary, trig_qsp_unitary


def random_parity_target(rng, degree, sup=0.99):
    coeffs = rng.normal(size=degree + 1) * 0.7 ** np.arange(degree + 1)
    coeffs[(degree + 1) % 2 :: 2] = 0.0
    if coeffs[degree] == 0.0:
        coeffs[degree] = 0.1
    pol = P.Polynomial.from_power(coeffs)
    grid = np.linspace(-1, 1, 4001)
    pol = pol.scaled(sup / float(np.max(np.abs(pol(grid)))))
    return P.ParityPolynomial(pol, degree % 2)


# ---------------------------------------------------------------------------
# Unitary evaluation
# ---------------------------------------------------------------------------


def test_unitary_identity_at_zero_angles():
    u = qsp_unitary(Q.QspAngleSequence((0.0,)), 0.5)
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_unitary_single_layer_is_encoding():
    u = qsp_unitary(Q.QspAngleSequence((0.0, 0.0)), 0.3)
    s = math.sqrt(1 - 0.09)
    expected = np.array([[0.3, 1j * s], [1j * s, 0.3]])
    assert np.allclose(u, expected, atol=1e-15)


def test_unitary_domain_error():
    with pytest.raises(ValueError):
        qsp_unitary(Q.QspAngleSequence((0.0, 0.0)), 1.5)


def test_unitarity_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = int(rng.integers(0, 12))
        a = Q.QspAngleSequence(tuple(rng.normal(size=L + 1)))
        x = float(rng.uniform(-1, 1))
        u = qsp_unitary(a, x)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


def test_block_values_match_unitary():
    rng = np.random.default_rng(5)
    angles = tuple(rng.normal(size=6))
    xs = np.linspace(-1, 1, 17)
    batch = Q.qsp_block_values(angles, xs)
    plus = np.array([1, 1]) / math.sqrt(2)
    for x, b in zip(xs, batch):
        u = qsp_unitary(Q.QspAngleSequence(angles), float(x))
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
    ref = np.array([plus @ qsp_unitary(seq, float(x)) @ plus for x in xs])
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


@pytest.mark.parametrize("bad", [[1.5], [0.2, -1.0 - 1e-8], [np.nan]])
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
    target = P.ParityPolynomial(P.Polynomial.from_power((-0.9, 0.0, 1.8)), 0)
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
        u = qsp_unitary(a, float(x))
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
        Q.qsp_synthesize(P.ParityPolynomial(P.Polynomial.from_power((0.0, 0.5, 0.2)), 0))


def test_sup_norm_above_one_rejected():
    # 1.00001 x^9 peaks at the ends, between the sup norm's grid nodes
    for coeffs in [(0.0, 1.2), (0.0,) * 9 + (1.00001,)]:
        with pytest.raises(ValueError, match="exceeds 1"):
            Q.qsp_synthesize(P.ParityPolynomial(P.Polynomial.from_power(coeffs), 1))


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


def test_fast_len_matches_scipy():
    assert [Q._fast_len(n) for n in range(1, 5001)] == [
        fft.next_fast_len(n, real=True) for n in range(1, 5001)
    ]


@pytest.mark.parametrize("L", [1, 2, 7, 178, 894])
def test_fast_length_nodes_give_the_same_coefficients(L):
    # synthesis samples at next_fast_len(L + 1) nodes instead of L + 1
    rng = np.random.default_rng(L)
    thetas = rng.uniform(-np.pi, np.pi, L + 1)

    def coefficients(m):
        xs = P.chebyshev_grid(m)
        sines = np.sin(np.pi * (np.arange(m) + 0.5) / m)  # sin(arccos(x)) at the nodes
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


def test_non_finite_residual_ends_in_synthesis_error(monkeypatch, caplog):
    residual, calls = Q._coeff_residual, []

    def spoiled(*args):
        # each stage's second residual, the one after its first step, is NaN
        calls.append(1)
        return residual(*args) + (np.nan if len(calls) % 2 == 0 else 0.0)

    monkeypatch.setattr(Q, "_coeff_residual", spoiled)
    target = random_parity_target(np.random.default_rng(3), 5)
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        with pytest.raises(Q.QspSynthesisError) as info:
            Q.qsp_synthesize(target)
    assert math.isfinite(info.value.residual) and info.value.residual > 0.0
    messages = [r.getMessage() for r in caplog.records]
    assert "degree 5: falling back to scale schedule [0.25, 0.5, 0.75, 0.9, 1.0]" in messages
    assert not [m for m in messages if "random restart" in m]
    # every stage stops at its first non-finite residual, after one step, and
    # returns its start, the best iterate it saw: the scale-1 stage and the
    # fallback's first, which fails, so the synthesis ends there
    stages = [m for m in messages if "fixed-point stage" in m]
    assert [m.split(":")[0] for m in stages] == [
        "degree 5 fixed-point stage at scale 1", "degree 5 fixed-point stage at scale 0.25"]
    assert len(calls) == 4
    assert all(": 1 steps, coefficient norm " in m for m in stages)


def stage_problem(target):
    """(xs, a_slots, coefficient target) of qsp_synthesize's stage."""
    L = target.degree
    a_slots = np.arange(L % 2, L + 1, 2)
    coeffs = np.zeros(L + 1)
    full = np.asarray(target.base.coeffs)
    coeffs[: len(full)] = full
    return P.chebyshev_grid(Q._fast_len(L + 1)), a_slots, coeffs[a_slots]


def record_stages(monkeypatch):
    """Log each fixed-point stage: the norm of every residual it takes, the
    number of _zero_seed_step calls, its tol and its result.  Returns the
    list of (norms, zero-seed steps, tol, result) it fills."""
    residual, zero, solve = Q._coeff_residual, Q._zero_seed_step, Q._fixed_point_solve
    stages, norms, zeros = [], [], []

    def logged_residual(*args):
        res = residual(*args)
        norms.append(np.linalg.norm(res))
        return res

    def logged_zero(*args):
        zeros.append(1)
        return zero(*args)

    def stage(*args):
        norms.clear()
        zeros.clear()
        out = solve(*args)
        stages.append((list(norms), len(zeros), args[-1], out))
        return out

    monkeypatch.setattr(Q, "_coeff_residual", logged_residual)
    monkeypatch.setattr(Q, "_zero_seed_step", logged_zero)
    monkeypatch.setattr(Q, "_fixed_point_solve", stage)
    return stages


def replay_stage(norms, zeros, tol, result):
    """Check one stage's residual norms against the end rule of
    _fixed_point_solve and its result; return why the stage ended."""
    best = mark = np.inf
    stalled = 0
    why = None
    for k, norm in enumerate(norms):
        if not np.isfinite(norm):
            why = "non-finite"
        else:
            if norm < best:
                best = norm
                if norm <= 0.5 * mark:
                    mark, stalled = norm, 0
            if stalled >= (Q._POLISH_STEPS if best <= tol else Q._STALL_STEPS):
                why = "polished" if best <= tol else "stalled"
            elif k == Q._MAX_STEPS:
                why = "capped"
        if why:
            assert k == len(norms) - 1, "the stage went on after its end"
            break
        stalled += 1
    assert why, "the stage ended early"
    _, final, steps = result
    # one residual and one zero-seed step per step, and the best is returned
    assert steps == zeros == len(norms) - 1
    assert final == best
    return why


def test_stage_steps_on_j0_and_ends_by_its_rule(monkeypatch):
    stages = record_stages(monkeypatch)
    for seed, sup in [(2, 0.999), (0, 0.99)]:
        Q.qsp_synthesize(random_parity_target(np.random.default_rng(seed), 9, sup), tol=1e-10)
    loc = P.localization_poly(P.LocalizationSpec(2, 0.15, 0.25))
    Q.qsp_synthesize(P.ParityPolynomial(loc, 0), tol=1e-9)
    # a target beyond sup 1 has no angles: its stage stalls
    xs, a_slots, target = stage_problem(random_parity_target(np.random.default_rng(3), 9))
    Q._fixed_point_solve(np.zeros(len(a_slots)), xs, a_slots, 1.5 * target, 1e-12)
    ends = Counter(replay_stage(*stage) for stage in stages)
    assert ends["polished"] >= 3 and ends["stalled"] == 1


def scripted_residual(monkeypatch, norms):
    """Make _coeff_residual return vectors with the given norms in turn,
    whatever phi is, and fail past their end so a stage cannot run on."""
    calls = iter(norms)

    def residual(phi, xs, a_slots, target):
        return np.full(len(phi), next(calls) / math.sqrt(len(phi)))

    monkeypatch.setattr(Q, "_coeff_residual", residual)


def test_stage_ends_when_its_best_creeps_within_tol(monkeypatch):
    # the best norm creeps from 1.5 tol to below tol in 34 steps without
    # halving, then sits at a floor above half its mark: the stage is past
    # its polish window as soon as it is within tol, and must end there
    tol = 1e-10
    norms = [max(1.5 * tol * (1.0 - 0.01 * k), 0.9 * tol) for k in range(200)]
    scripted_residual(monkeypatch, norms)
    xs, a_slots, _ = stage_problem(random_parity_target(np.random.default_rng(4), 9))
    k = next(k for k, norm in enumerate(norms) if norm <= tol)
    _, best, steps = Q._fixed_point_solve(np.zeros(len(a_slots)), xs, a_slots, None, tol)
    assert Q._POLISH_STEPS < k < Q._STALL_STEPS
    assert steps == k and best == pytest.approx(norms[k], rel=1e-12)


def test_stage_ends_after_its_step_cap(monkeypatch):
    # a norm that halves at every step never stalls; tol 0 is never met
    monkeypatch.setattr(Q, "_MAX_STEPS", 30)
    scripted_residual(monkeypatch, [0.5**k for k in range(40)])
    xs, a_slots, _ = stage_problem(random_parity_target(np.random.default_rng(4), 9))
    stages = record_stages(monkeypatch)
    Q._fixed_point_solve(np.zeros(len(a_slots)), xs, a_slots, None, 0.0)
    ((norms, zeros, tol, result),) = stages
    assert replay_stage(norms, zeros, tol, result) == "capped"
    assert result[2] == 30 and result[1] == pytest.approx(0.5**30, rel=1e-12)


def test_synthesis_logs_each_stage_only_when_asked(caplog, monkeypatch):
    def logged_stage(target):
        stages.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
            Q.qsp_synthesize(target, tol=1e-9)
        (message,) = [r.getMessage() for r in caplog.records]
        match = re.fullmatch(
            rf"degree {target.degree} fixed-point stage at scale 1: (\d+) steps,"
            r" coefficient norm (\S+)",
            message,
        )
        ((norms, zeros, tol, result),) = stages
        assert replay_stage(norms, zeros, tol, result) == "polished"
        assert int(match[1]) == result[2] and float(match[2]) == float(f"{result[1]:.3e}")
        return result[2]

    stages = record_stages(monkeypatch)
    target = random_parity_target(np.random.default_rng(23), 7)
    Q.qsp_synthesize(target)
    assert not [r for r in caplog.records if r.name == "pqcapprox.qsp"]
    assert logged_stage(target) > 1
    # the degree-894 stage of the K=8 construction
    loc = P.localization_poly(P.LocalizationSpec(8, 0.3 / 8, 0.5 / 8))
    assert logged_stage(P.ParityPolynomial(loc, 0)) < 60


@pytest.mark.parametrize("L", list(range(1, 13)) + [420, 421, 894, 895])
def test_zero_seed_jacobian_in_closed_form(L):
    # at phi = 0, U = iZ S(x)^L and phi_j moves the block value by T_{L-2j}:
    # 1 at (h - j, j), but 1/2 at (0, h) for an even L
    xs = P.chebyshev_grid(Q._fast_len(L + 1))
    a_slots = np.arange(L % 2, L + 1, 2)
    n, h = len(a_slots), L // 2
    closed = np.zeros((n, n))
    closed[h - np.arange(n), np.arange(n)] = 1.0
    if L % 2 == 0:
        closed[0, h] = 0.5
    # central differences of the residual, column by column (a spread of
    # columns, the first and the last among them, at high degree)
    eps, target = 1e-5, np.zeros(n)
    for j in np.unique(np.linspace(0, n - 1, min(n, 9)).round().astype(int)):
        step = np.zeros(n)
        step[j] = eps
        up = Q._coeff_residual(step, xs, a_slots, target)
        down = Q._coeff_residual(-step, xs, a_slots, target)
        assert np.max(np.abs((up - down) / (2 * eps) - closed[:, j])) <= 1e-9
    res = np.random.default_rng(L).normal(size=n)
    assert np.array_equal(closed @ Q._zero_seed_step(res, L), -res)


@pytest.mark.parametrize("c", [-1.0, -0.3, 0.0, 0.5, 1.0])
def test_degree_one_target_in_closed_form(c, caplog):
    target = P.ParityPolynomial(P.Polynomial((0.0, c)), 1)
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        a = Q.qsp_synthesize(target)
    assert not [r for r in caplog.records if "stage" in r.getMessage()]
    grid = np.linspace(-1.0, 1.0, 101)
    assert a.residual <= 1e-15
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - c * grid)) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 5])
def test_boundary_targets_polish_to_the_rounding_floor(monkeypatch, k):
    # |x^k| reaches 1 at x = +-1, where the root is singular and plain
    # fixed-point iteration converges sublinearly; with Anderson mixing the
    # one stage still polishes to the rounding floor
    stages = record_stages(monkeypatch)
    target = P.ParityPolynomial(P.Polynomial.from_power([0.0] * k + [1.0]), k % 2)
    a = Q.qsp_synthesize(target, tol=1e-11)
    ((norms, zeros, tol, result),) = stages
    assert replay_stage(norms, zeros, tol, result) == "polished"
    assert a.residual <= 3.5e-14


@pytest.mark.parametrize("L", [1, 2, 3, 4, 894, 895])
def test_half_chain_values_match_the_full_chain(L):
    rng = np.random.default_rng(L)
    xs = np.concatenate([P.chebyshev_grid(Q._fast_len(L + 1)), [-1.0, 0.0, 1.0]])
    for _ in range(3):
        thetas = Q._symmetric_angles(rng.uniform(-np.pi, np.pi, L // 2 + 1), L)
        full = Q.qsp_block_values(thetas, xs).real
        assert np.max(np.abs(Q._half_chain_values(thetas, xs) - full)) <= 1e-13


@pytest.mark.parametrize("L", [1, 2, 3, 4, 178, 894, 895])
def test_half_node_residual_and_jacobian_match_all_nodes(L):
    # L = 2 and 4 sample at 3 and 5 nodes, an odd length with a node at 0
    rng = np.random.default_rng(L)
    xs = P.chebyshev_grid(Q._fast_len(L + 1))
    a_slots = np.arange(L % 2, L + 1, 2)
    target = rng.normal(size=len(a_slots))
    for _ in range(2):
        phi = rng.uniform(-np.pi, np.pi, len(a_slots))
        thetas = Q._symmetric_angles(phi, L)
        res = P._cheb_coeffs(Q._half_chain_values(thetas, xs))[a_slots] - target
        assert np.max(np.abs(Q._coeff_residual(phi, xs, a_slots, target) - res)) <= 1e-13


@pytest.mark.parametrize("L", [1, 2, 7, 30])
def test_grid_check_reads_half_the_nodes(L):
    # |block value - p| is even in x for any angles, so the x >= 0 half of
    # the nodes holds its maximum; one perturbed angle still fails the check
    rng = np.random.default_rng(40 + L)
    target = random_parity_target(rng, L)
    coef = np.asarray(target.base.coeffs)
    m = 4 * (L + 1)
    xs = P.chebyshev_grid(m)
    for _ in range(3):
        thetas = rng.uniform(-np.pi, np.pi, L + 1)
        err = np.abs(Q.qsp_block_values(thetas, xs) - P._cheb_values(coef, m))
        assert abs(np.max(err[: m // 2]) - np.max(err)) <= 1e-14
    angles = np.array(Q.qsp_synthesize(target, tol=1e-10).angles)
    assert Q._verified(angles, target, 1e-10).residual <= 1e-10
    for k in sorted({0, L // 2, L}):
        bent = angles.copy()
        bent[k] += 1e-6
        with pytest.raises(Q.QspSynthesisError, match="grid residual high"):
            Q._verified(bent, target, 1e-10)


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


def test_k8_synthesis_peak_memory_under_2_mib():
    # no (L/2)^2 Jacobian: the degree-894 synthesis of the K=8 construction
    # peaks near 0.9 MiB of traced allocations
    loc = P.localization_poly(P.LocalizationSpec(8, 0.3 / 8, 0.5 / 8))
    target = P.ParityPolynomial(loc, 0)
    assert target.degree == 894
    tracemalloc.start()
    try:
        Q.qsp_synthesize(target, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


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
    a = qsp_synthesize_completion(P.ParityPolynomial(P.Polynomial((0.7,)), 0))
    grid = np.linspace(-1, 1, 50)
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - 0.7)) <= 1e-10


def test_completion_identity():
    a = qsp_synthesize_completion(P.ParityPolynomial(P.Polynomial((0.0, 1.0)), 1))
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
    target = P.ParityPolynomial(P.Polynomial.from_power(coeffs), 1)
    a = qsp_synthesize_completion(target)
    grid = np.linspace(-1, 1, 50)
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - target(grid))) <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 5, 8])
def test_completion_cross_checks_newton(degree):
    rng = np.random.default_rng(100 + degree)
    target = random_parity_target(rng, degree)
    newton = Q.qsp_synthesize(target)
    completion = qsp_synthesize_completion(target)
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
    assert np.allclose(trig_qsp_unitary(params, 1.3), np.eye(2), atol=1e-15)


def test_trig_unitary_single_layer_is_encoding():
    params = Q.TrigQspParams(0.0, (0.0, 0.0), (0.0, 0.0))
    x = math.pi / 2
    expected = np.diag([np.exp(1j * x / 2), np.exp(-1j * x / 2)])
    assert np.allclose(trig_qsp_unitary(params, x), expected, atol=1e-15)


def test_trig_unitarity_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        L = int(rng.integers(0, 7))
        params = Q.TrigQspParams(
            float(rng.normal()),
            tuple(rng.normal(size=L + 1)),
            tuple(rng.normal(size=L + 1)),
        )
        u = trig_qsp_unitary(params, float(rng.uniform(0, 2 * math.pi)))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


@pytest.mark.parametrize(
    "c,n", [(1.0, 0), (0.9, 1), (0.5 + 0.2j, -2), (-0.3, 3), (1.0, -1), (1j, 2)]
)
def test_trig_monomial_exact(c, n):
    params = Q.trig_monomial_params(c, n)
    xs = np.linspace(0, 2 * math.pi, 29)
    vals = np.array([trig_qsp_unitary(params, float(x))[0, 0] for x in xs])
    assert np.max(np.abs(vals - c * np.exp(1j * n * xs))) <= 1e-12
