import logging
import math
import re
import tracemalloc
import weakref
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


def test_singular_jacobian_ends_in_synthesis_error(monkeypatch, caplog):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(Q.np.linalg, "solve", singular)
    monkeypatch.setattr(Q, "_MAX_RESTARTS", 2)
    target = random_parity_target(np.random.default_rng(3), 5)
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        with pytest.raises(Q.QspSynthesisError) as info:
            Q.qsp_synthesize(target)
    assert math.isfinite(info.value.residual) and info.value.residual > 0.0
    messages = [r.getMessage() for r in caplog.records]
    assert "degree 5: falling back to scale schedule [0.25, 0.5, 0.75, 0.9, 1.0]" in messages
    assert "degree 5: random restart 2 of 2" in messages
    # every stage stops at its first solve, after one Jacobian: a stage from
    # the zero seed (the first of each schedule) has taken its closed-form
    # step by then, a random restart no step
    stages = [m for m in messages if "newton stage" in m]
    assert len(stages) == 4
    assert all(": 1 iterations, 0 halvings, 1 jacobian builds" in m for m in stages[:2])
    assert all(": 0 iterations, 0 halvings, 1 jacobian builds" in m for m in stages[2:])


def stage_problem(target):
    """(xs, a_slots, coefficient target) of qsp_synthesize's Newton stage."""
    L = target.degree
    a_slots = np.arange(L % 2, L + 1, 2)
    coeffs = np.zeros(L + 1)
    full = np.asarray(target.base.coeffs)
    coeffs[: len(full)] = full
    return P.chebyshev_grid(Q._fast_len(L + 1)), a_slots, coeffs[a_slots]


def record_newton(monkeypatch, spoil=lambda events: False):
    """Log the events of each Newton stage: ("res", norm) per residual,
    ("build",) per Jacobian gradient, ("solve",) per linear solve and
    ("zero",) per step on the closed-form J(0).  Returns the list of
    (events, tol, result) it fills.  spoil(events) True makes that residual
    infinite."""
    residual, grad, solve, zero, newton = (
        Q._coeff_residual, Q._half_chain_grad, np.linalg.solve, Q._zero_seed_step,
        Q._newton_solve)
    stages, events = [], []

    def logged_residual(*args):
        res = residual(*args) + (np.inf if spoil(events) else 0.0)
        events.append(("res", np.linalg.norm(res)))
        return res

    def logged_grad(*args):
        events.append(("build",))
        return grad(*args)

    def logged_solve(*args):
        events.append(("solve",))
        return solve(*args)

    def logged_zero(*args):
        events.append(("zero",))
        return zero(*args)

    def stage(*args):
        events.clear()
        out = newton(*args)
        stages.append((list(events), args[-1], out))
        return out

    monkeypatch.setattr(Q, "_coeff_residual", logged_residual)
    monkeypatch.setattr(Q, "_half_chain_grad", logged_grad)
    monkeypatch.setattr(Q.np.linalg, "solve", logged_solve)
    monkeypatch.setattr(Q, "_zero_seed_step", logged_zero)
    monkeypatch.setattr(Q, "_newton_solve", stage)
    return stages


def replay_jacobian_rule(events, tol, result):
    """Check one stage's events against the chord rule of _newton_solve,
    its end after two weak steps from within tol, and its returned counts;
    return why each solve built or reused a Jacobian.  The first step of a
    stage from the zero seed solves on J(0), which has no build."""
    (_, norm), *rest = events
    reasons = Counter()
    why, built, tried, weak_polish = "first", False, 0, 0
    for kind, *value in rest:
        assert weak_polish < 2
        if kind == "build":
            assert not built
            built = True
        elif kind == "zero":
            # J(0) is the zero seed's Jacobian, kept like a built one
            assert not built and why in ("first", None), why
            reasons["zero seed" if why == "first" else "reused"] += 1
            why, built, tried = "failed", False, 0
        elif kind == "solve":
            # a fresh Jacobian exactly when the last step gives a reason
            assert built == (why is not None), why
            reasons[why or "reused"] += 1
            why, built, tried = "failed", False, 0
        else:
            tried += 1
            if why == "failed" and value[0] < norm:
                why = "halved" if tried > 1 else "weak" if 100 * value[0] > norm else None
                weak_polish += why == "weak" and norm <= tol
                norm = value[0]
    _, final, steps, halvings, builds = result
    assert final == norm and builds == sum(kind == "build" for kind, *_ in rest)
    assert steps + halvings == sum(kind == "res" for kind, *_ in rest)
    # the stage ended after its second weak polish step, a failed line
    # search or 60 steps
    assert weak_polish == 2 or why == "failed" or steps == 60
    return reasons


def polish_solves(events, tol):
    """For each solve made with the residual norm within tol (a polish
    step), whether a Jacobian was built for it."""
    (_, norm), *rest = events
    out, built = [], False
    for kind, *value in rest:
        if kind == "build":
            built = True
        elif kind in ("solve", "zero"):
            if norm <= tol:
                out.append(built)
            built = False
        else:
            norm = min(norm, value[0])  # a candidate is taken when it is lower
    return out


def test_jacobian_rebuilt_after_a_halved_weak_or_polish_step(monkeypatch):
    stages = record_newton(monkeypatch)
    for seed, sup in [(2, 0.999), (0, 0.99)]:
        Q.qsp_synthesize(random_parity_target(np.random.default_rng(seed), 9, sup), tol=1e-10)
    # a stage from a far start, which halves some steps
    xs, a_slots, target = stage_problem(random_parity_target(np.random.default_rng(3), 9))
    phi = np.random.default_rng(103).normal(0.0, 1.0, len(a_slots))
    Q._newton_solve(phi, xs, a_slots, target, 1e-12)
    reasons = sum((replay_jacobian_rule(*stage) for stage in stages), Counter())
    assert {"halved", "weak", "reused", "zero seed"} <= set(reasons)
    # polish steps follow the same rule: one after a strong step reuses the
    # Jacobian, one after a weak step builds
    polish = sum((polish_solves(events, tol) for events, tol, _ in stages), [])
    assert True in polish and False in polish


def test_failed_chord_line_search_retries_on_a_fresh_jacobian(monkeypatch):
    def after_first_reuse(events):
        # every candidate of the first solve that reuses a Jacobian
        reused = [i for i, (kind, *_) in enumerate(events)
                  if kind == "solve" and events[i - 1][0] != "build"]
        return bool(reused) and all(kind == "res" for kind, *_ in events[reused[0] + 1 :])

    stages = record_newton(monkeypatch, after_first_reuse)
    loc = P.localization_poly(P.LocalizationSpec(2, 0.15, 0.25))
    Q.qsp_synthesize(P.ParityPolynomial(loc, 0), tol=1e-9)
    ((events, tol, result),) = stages
    reasons = replay_jacobian_rule(events, tol, result)
    assert reasons["failed"] == 1 and result[3] >= 25


def test_no_two_jacobians_alive_at_once(monkeypatch):
    jacobian, alive = Q._coeff_jacobian, []

    def tracked(*args):
        assert all(ref() is None for ref in alive)
        jac = jacobian(*args)
        alive.append(weakref.ref(jac))
        return jac

    monkeypatch.setattr(Q, "_coeff_jacobian", tracked)
    loc = P.localization_poly(P.LocalizationSpec(2, 0.15, 0.25))
    Q.qsp_synthesize(P.ParityPolynomial(loc, 0), tol=1e-9)
    xs, a_slots, target = stage_problem(random_parity_target(np.random.default_rng(3), 9))
    phi = np.random.default_rng(103).normal(0.0, 1.0, len(a_slots))
    Q._newton_solve(phi, xs, a_slots, target, 1e-12)
    assert len(alive) > 10


def test_synthesis_logs_each_stage_only_when_asked(caplog, monkeypatch):
    half_chain_grad = Q._half_chain_grad
    grads = []

    def counted(*args):
        grads.append(1)
        return half_chain_grad(*args)

    def logged_stage(target):
        grads.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
            Q.qsp_synthesize(target, tol=1e-9)
        (message,) = [r.getMessage() for r in caplog.records]
        match = re.fullmatch(
            rf"degree {target.degree} newton stage at scale 1: (\d+) iterations,"
            r" (\d+) halvings, (\d+) jacobian builds, coefficient norm \S+",
            message,
        )
        steps, halvings, builds = (int(g) for g in match.groups())
        assert builds == len(grads)
        return steps, halvings, builds

    monkeypatch.setattr(Q, "_half_chain_grad", counted)
    stages = record_newton(monkeypatch)
    target = random_parity_target(np.random.default_rng(23), 7)
    Q.qsp_synthesize(target)
    assert not [r for r in caplog.records if r.name == "pqcapprox.qsp"]
    stages.clear()
    steps, halvings, builds = logged_stage(target)
    assert steps > 1 and 2 <= builds <= steps + 1
    # polish steps follow the chord rule, and the stage ends within 60 steps
    # after two weak ones or on a failed line search (see the replay)
    ((events, tol, result),) = stages
    replay_jacobian_rule(events, tol, result)
    fresh = polish_solves(events, tol)
    assert False in fresh and fresh[-1] and result[2] < 60
    # a degree-894 stage reuses a Jacobian after each strong step
    loc = P.localization_poly(P.LocalizationSpec(8, 0.3 / 8, 0.5 / 8))
    steps, halvings, builds = logged_stage(P.ParityPolynomial(loc, 0))
    assert halvings == 0 and builds < steps


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
    assert np.max(np.abs(Q._coeff_jacobian(np.zeros(n), xs, a_slots) - closed)) <= 1e-12
    res = np.random.default_rng(L).normal(size=n)
    assert np.array_equal(closed @ Q._zero_seed_step(res, L), -res)


def test_zero_seed_stage_builds_no_jacobian_for_its_first_step(monkeypatch):
    stages = record_newton(monkeypatch)
    xs, a_slots, target = stage_problem(random_parity_target(np.random.default_rng(3), 9))
    Q._newton_solve(np.zeros(len(a_slots)), xs, a_slots, target, 1e-12)
    ((events, tol, result),) = stages
    assert [kind for kind, *_ in events[:3]] == ["res", "zero", "res"]
    assert replay_jacobian_rule(events, tol, result)["zero seed"] == 1
    assert result[4] < result[2]


@pytest.mark.parametrize("c", [-1.0, -0.3, 0.0, 0.5, 1.0])
def test_degree_one_target_in_closed_form(c, caplog):
    target = P.ParityPolynomial(P.Polynomial((0.0, c)), 1)
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.qsp"):
        a = Q.qsp_synthesize(target)
    assert not [r for r in caplog.records if "newton stage" in r.getMessage()]
    grid = np.linspace(-1.0, 1.0, 101)
    assert a.residual <= 1e-15
    assert np.max(np.abs(Q.qsp_block_values(a.angles, grid) - c * grid)) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 5])
def test_boundary_targets_rebuild_at_every_step(monkeypatch, k):
    # |x^k| reaches 1 at x = +-1, where the root is singular and Newton
    # converges linearly: every step is weak, so none reuses a Jacobian
    stages = record_newton(monkeypatch)
    target = P.ParityPolynomial(P.Polynomial.from_power([0.0] * k + [1.0]), k % 2)
    a = Q.qsp_synthesize(target, tol=1e-11)
    ((events, tol, result),) = stages
    reasons = replay_jacobian_rule(events, tol, result)
    assert "reused" not in reasons and reasons["weak"] == result[4]
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
        jac = P._cheb_coeffs(Q._half_chain_grad(thetas, xs))[:, a_slots].T
        assert np.max(np.abs(Q._coeff_residual(phi, xs, a_slots, target) - res)) <= 1e-13
        assert np.max(np.abs(Q._coeff_jacobian(phi, xs, a_slots) - jac)) <= 1e-12


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
    assert Q._verified(angles, target, 1e-10, 0.0).residual <= 1e-10
    for k in sorted({0, L // 2, L}):
        bent = angles.copy()
        bent[k] += 1e-6
        with pytest.raises(Q.QspSynthesisError, match="grid residual high"):
            Q._verified(bent, target, 1e-10, 0.0)


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
