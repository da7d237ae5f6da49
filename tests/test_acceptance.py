"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
from itertools import product

import numpy as np
import pytest

from pqcapprox import approx as A
from pqcapprox import circuits as C
from pqcapprox import poly as P
from pqcapprox import qsp as Q
from pqcapprox import sim as S
from pqcapprox import targets

from oracles import block_values, circuit_unitary, decompose_mcu, qsp_synthesize_completion
from test_qsp import random_parity_target

HALFSINE = targets.halfsine()
PRODUCT_SINES = targets.product_sines(2)
ABS_CENTERED = {d: targets.abs_centered(d) for d in (1, 2)}

_NESTED: dict = {}


def nested_model(f, spec, s):
    key = (f.name, spec, s)
    if key not in _NESTED:
        _NESTED[key] = C.NestedTaylorModel(f, spec, s)
    return _NESTED[key]


def _report(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def taylor_delta(d: int, K: int) -> float:
    return min(K ** float(-d), 0.3 / K)


# 1 ------------------------------------------------------------------------


def test_criterion_01_qsp_synthesis():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    cross = 0.0
    low_degree_checked = 0
    for trial in range(100):
        degree = int(rng.integers(1, 25))
        target = random_parity_target(rng, degree, sup=0.99)
        angles = Q.qsp_synthesize(target, tol=1e-8)
        grid = np.cos(np.pi * (np.arange(4 * (degree + 1)) + 0.5) / (4 * (degree + 1)))
        resid = float(np.max(np.abs(Q.qsp_block_values(angles.angles, grid) - target(grid))))
        worst = max(worst, resid)
        assert resid <= 1e-8, f"trial {trial} degree {degree}: residual {resid}"
        if degree <= 8:
            low_degree_checked += 1
            comp = qsp_synthesize_completion(target)
            diff = float(
                np.max(
                    np.abs(
                        Q.qsp_block_values(angles.angles, grid)
                        - Q.qsp_block_values(comp.angles, grid)
                    )
                )
            )
            cross = max(cross, diff)
            assert diff <= 1e-7
    assert low_degree_checked >= 10
    _report(
        1,
        worst <= 1e-8 and cross <= 1e-7,
        f"100 random targets deg<=24: worst residual {worst:.2e}; "
        f"completion cross-check ({low_degree_checked} cases) {cross:.2e}",
    )


# 2 ------------------------------------------------------------------------


def test_criterion_02_monomial_circuits():
    rng = np.random.default_rng(20240802)
    worst = 0.0
    for d in range(1, 5):
        points = rng.random((100, d))
        for alpha in P.multi_indices(d, 6):
            c = float(rng.uniform(-1, 1))
            bc = C.build_monomial_pqc(c, alpha)
            rc = S.resource_count(bc.circuit)
            s = sum(alpha)
            assert rc.depth <= 2 * s + 1, (alpha, rc)
            assert rc.trainable_params <= s + d, (alpha, rc)
            for x in points[:: 25 if d >= 3 else 10]:
                expected = c * float(np.prod(np.asarray(x) ** np.asarray(alpha)))
                got = C.evaluate_block(bc, tuple(x))
                worst = max(worst, abs(got - expected))
        # full 100-point check on a random subset of exponents per dimension
        alphas = P.multi_indices(d, 6)
        for idx in rng.choice(len(alphas), size=min(6, len(alphas)), replace=False):
            alpha = alphas[idx]
            c = float(rng.uniform(-1, 1))
            bc = C.build_monomial_pqc(c, alpha)
            for x in points:
                expected = c * float(np.prod(np.asarray(x) ** np.asarray(alpha)))
                worst = max(worst, abs(C.evaluate_block(bc, tuple(x)) - expected))
    _report(2, worst <= 1e-8, f"monomial sweep d<=4, |alpha|<=6: worst error {worst:.2e}")


# 3 ------------------------------------------------------------------------


def test_criterion_03_lcu_exactness():
    from test_circuits import _random_single_qubit_unit

    rng = np.random.default_rng(20240803)
    worst = 0.0
    pad_worst = 0.0
    for t in (1, 2, 3, 5, 8):
        units = [_random_single_qubit_unit(rng) for _ in range(t)]
        values = [C.evaluate_block(u) for u in units]
        combined = C.lcu_combine(units)
        t_pad = 1 << (t - 1).bit_length()
        block = C.evaluate_block(combined) / combined.rescale
        worst = max(worst, abs(block - sum(values) / t_pad))
        pad_worst = max(pad_worst, abs(C.evaluate_block(combined) - sum(values)))
    _report(
        3,
        worst <= 1e-10 and pad_worst <= 1e-10,
        f"T in {{1,2,3,5,8}}: block-mean deviation {worst:.2e}, pad leakage {pad_worst:.2e}",
    )


# 4 ------------------------------------------------------------------------


def test_criterion_04_bernstein_pipeline():
    rng = np.random.default_rng(20240804)
    worst = 0.0
    configs = [(1, 2, 50), (1, 4, 50), (2, 2, 50), (2, 4, 50)]
    for d, n, npts in configs:
        f = targets.gauss_bump(d)
        bc = C.build_bernstein_pqc(f, n)
        for _ in range(npts):
            x = tuple(rng.random(d))
            worst = max(
                worst, abs(C.evaluate_block(bc, x) - P.bernstein_eval(f, n, x))
            )
    assert worst <= 1e-6
    one_worst = 0.0
    for d, n in [(1, 4), (2, 4)]:
        const = P.TargetFunctionSpec(d, lambda x: 1.0)
        bc = C.build_bernstein_pqc(const, n)
        for _ in range(20):
            x = tuple(rng.random(d))
            one_worst = max(one_worst, abs(C.evaluate_block(bc, x) - 1.0))
    _report(
        4,
        worst <= 1e-6 and one_worst <= 1e-8,
        f"200 points agree to {worst:.2e}; partition of unity to {one_worst:.2e}",
    )


# 5 ------------------------------------------------------------------------


def test_criterion_05_lipschitz_bound_compliance():
    eps = 0.3
    ok = True
    detail = []
    for d in (1, 2):
        f = ABS_CENTERED[d]
        grid = A.GridSpec(d)
        sups = []
        for n in (4, 16, 64):
            model = A.pointwise(lambda x, n=n: P.bernstein_eval(f, n, x))
            sup = A.sup_error(f, model, grid)
            bound = eps + d * 2**d * f.lipschitz**2 / (n * eps**2)
            sups.append(sup)
            if sup > bound:
                ok = False
            detail.append(f"d={d} n={n}: {sup:.4f}<={bound:.4f}")
        if not (sups[0] >= sups[1] >= sups[2]):
            ok = False
            detail.append(f"d={d}: errors not non-increasing {sups}")
    _report(5, ok, "; ".join(detail))


# 6 ------------------------------------------------------------------------


def test_criterion_06_localization():
    rng = np.random.default_rng(20240806)
    ok = True
    details = []
    for K in (2, 4, 8):
        eps = 0.1 / K
        spec = P.LocalizationSpec(K, 0.05, eps)
        xs, ks = [], []
        while len(xs) < 500:
            x = float(rng.random())
            k = spec.band_of(x)
            if k is not None:
                xs.append(x)
                ks.append(k)
        vals = C.localization_values(spec, xs)
        errs = vals - np.array(ks) / K
        recovered = all(
            C.round_to_eta([v], K)[0] == k for v, k in zip(vals, ks)
        )
        in_band = bool(np.all(errs >= 0) and np.all(errs < eps))
        if not (in_band and recovered):
            ok = False
        details.append(
            f"K={K}: err range [{errs.min():.2e}, {errs.max():.2e}] vs eps {eps}, "
            f"eta recovered {recovered}"
        )
        # readout fidelity: the fast path equals the Hadamard test
        block = C.build_localization_pqc(spec)
        for x in xs[:3]:
            ht = C.evaluate_block(block, (x,))
            assert abs(ht - C.localization_values(spec, [x])[0]) <= 1e-9
    _report(6, ok, "; ".join(details))


# 7 ------------------------------------------------------------------------


def test_criterion_07_taylor_bound_and_rate():
    ok = True
    details = []
    rate_points = []
    for K in (2, 4, 8):
        delta = taylor_delta(1, K)
        spec = P.LocalizationSpec(K, delta, 0.5 / K)
        model = nested_model(HALFSINE, spec, 1)
        grid = A.GridSpec(1, region="union_q_eta", K=K, delta=delta)
        sup = A.sup_error(HALFSINE, model, grid)
        bound = K ** (-2.0)
        rate_points.append((K, sup))
        if sup > bound + model.tol_agg:
            ok = False
        details.append(f"d=1 K={K}: sup {sup:.2e} <= {bound:.2e}+tol")
    exponent = A.rate_fit(rate_points)
    if not -2.6 <= exponent <= -1.4:
        ok = False
    details.append(f"fitted exponent {exponent:.2f}")
    for K in (2, 4):
        delta = taylor_delta(2, K)
        spec = P.LocalizationSpec(K, delta, 0.5 / K)
        model = nested_model(PRODUCT_SINES, spec, 1)
        grid = A.GridSpec(2, points_per_axis=21, region="union_q_eta", K=K, delta=delta)
        sup = A.sup_error(PRODUCT_SINES, model, grid)
        bound = 2.0 ** (1 + 1.0) * K ** (-2.0)  # d^(s + beta/2) K^-beta
        if sup > bound + model.tol_agg:
            ok = False
        details.append(f"d=2 K={K}: sup {sup:.2e} <= {bound:.2e}+tol")
    _report(7, ok, "; ".join(details))


# 8 ------------------------------------------------------------------------


def test_criterion_08_l2_corollary():
    d, K, s, beta = 1, 4, 1, 2.0
    delta = taylor_delta(d, K)  # K^-d clamped into the valid gap range
    seed = 20240808
    mass, sigma_m = A.trifling_mass_estimate(d, K, delta, 20_000, seed)
    mass_ok = mass <= d * K * delta + 3 * sigma_m
    spec = P.LocalizationSpec(K, delta, 0.5 / K)
    model = nested_model(HALFSINE, spec, 1)
    l2, sigma = A.l2_error(HALFSINE, model, K, delta, samples=10_000, seed=seed)
    bound = (d ** (s + beta / 2) * K ** (-beta)) ** 2 + 4 * d * K ** (1 - d)
    l2_ok = l2 <= bound + 3 * sigma
    _report(
        8,
        mass_ok and l2_ok,
        f"trifling mass {mass:.4f} <= {d*K*delta:.4f}+3s; "
        f"L2 {l2:.3e} <= {bound:.3f}+3s",
    )


# 9 ------------------------------------------------------------------------


def test_criterion_09_trig_circuits():
    worst = 0.0
    t1 = P.MultivariateTrigPolynomial({(1,): 0.45, (-1,): 0.45}, 1)
    bc1 = C.build_trig_poly_pqc(t1)
    for x in np.linspace(0, 2 * math.pi, 100, endpoint=False):
        worst = max(worst, abs(C.evaluate_block(bc1, (x,)) - 0.9 * math.cos(x)))
    t2 = P.MultivariateTrigPolynomial({(1, -1): 0.5}, 2)
    bc2 = C.build_trig_poly_pqc(t2)
    axis = np.linspace(0, 2 * math.pi, 10, endpoint=False)
    for x in axis:
        for y in axis:
            worst = max(
                worst,
                abs(C.evaluate_block(bc2, (x, y)) - 0.5 * np.exp(1j * (x - y))),
            )
    resources_ok = True
    for n in [(1,), (-2,), (2, -1), (1, 1, -1)]:
        s = sum(abs(v) for v in n)
        rc = S.resource_count(C.build_trig_monomial_pqc(0.9, n).circuit)
        if rc.depth > 6 * s + 3 or rc.trainable_params > 4 * s + 3 * len(n):
            resources_ok = False
    _report(
        9,
        worst <= 1e-6 and resources_ok,
        f"trig reproduction worst {worst:.2e}; resource caps hold {resources_ok}",
    )


# 10 -----------------------------------------------------------------------


def test_criterion_10_mcu_lowering():
    rng = np.random.default_rng(20240810)
    worst = 0.0
    clean = True
    for m in (1, 2, 3, 4):
        for sub in ("Rx", "Ry", "Rz"):
            g = S.Gate(sub, m, tuple(range(m)), angle=float(rng.normal()))
            native = circuit_unitary(S.Circuit(m + 1, (g,)))
            gates = decompose_mcu(g)
            low = circuit_unitary(S.Circuit(m + 1, tuple(gates)))
            phase = np.vdot(low.ravel(), native.ravel())
            phase /= abs(phase)
            worst = max(worst, float(np.max(np.abs(native - phase * low))))
            if any(len(x.controls) > 1 or x.controls and x.kind != "X" for x in gates):
                clean = False
    _report(
        10,
        worst <= 1e-9 and clean,
        f"native-vs-lowered worst {worst:.2e}; CNOT+single-qubit only {clean}",
    )


# 11 -----------------------------------------------------------------------


def test_criterion_11_shot_estimator():
    f = ABS_CENTERED[1]
    bc = C.build_bernstein_pqc(f, 2)
    x0 = (0.35,)
    ht = S.hadamard_test_circuit(bc.circuit.bound(x0), bc.prep.bound(x0))
    exact = block_values(bc.circuit.bound(x0), bc.prep)[0].real
    estimates = []
    for seed in range(20):
        est, _ = S.sample_shots(ht, 10_000, seed=seed)
        est2, _ = S.sample_shots(ht, 10_000, seed=seed)
        assert est == est2  # per-seed reproducibility
        estimates.append(est)
    dev = abs(float(np.mean(estimates)) - exact)
    cap = 5.0 / math.sqrt(10_000 * 20)
    _report(11, dev <= cap, f"|mean - exact| = {dev:.2e} <= {cap:.2e}")


# 12 -----------------------------------------------------------------------


def test_criterion_12_resource_orders():
    worst_ratio = 0.0
    for s in (1, 2, 3):
        for d in (1, 2, 3):
            alphas = P.multi_indices(d, s)
            mp = P.MultivariatePolynomial({a: 0.9 / len(alphas) for a in alphas}, d)
            bc = C.build_poly_pqc(mp)
            rc = S.resource_count(bc.circuit)
            ratio = rc.trainable_params / (s * d**s * (s + d))
            worst_ratio = max(worst_ratio, ratio)
    _report(12, worst_ratio <= 8.0, f"max params/(s d^s (s+d)) = {worst_ratio:.2f}")


# 13 -----------------------------------------------------------------------


def test_criterion_13_fnn_comparison_monotone():
    ratios = [
        A.fnn_compare(A.FnnComparisonSpec(d, 5, 0.1, 0.5)).log10_param_ratio
        for d in range(10, 31)
    ]
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    _report(
        13,
        monotone,
        f"log10 parameter ratio falls from {ratios[0]:.1f} to {ratios[-1]:.1f} over d=10..30",
    )
