import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval
from scipy import fft, special

from pqcapprox import poly as P


# ---------------------------------------------------------------------------
# parity_split
# ---------------------------------------------------------------------------


def test_parity_split_constant():
    even, odd = P.parity_split(P.Polynomial((1.0,)))
    assert even.base.coeffs == (1.0,)
    assert odd.base.is_zero()


def test_parity_split_linear():
    even, odd = P.parity_split(P.Polynomial((0.0, 1.0)))
    assert even.base.is_zero()
    assert odd.base.coeffs == (0.0, 1.0)


def test_parity_split_mixed():
    even, odd = P.parity_split(P.Polynomial((0.0, 0.5, 1.0)))
    assert even.base.coeffs == (0.0, 0.0, 1.0)
    assert odd.base.coeffs == (0.0, 0.5)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
def test_parity_split_roundtrip(coeffs):
    p = P.Polynomial(tuple(coeffs))
    even, odd = P.parity_split(p)
    total = np.zeros(max(len(even.base.coeffs), len(odd.base.coeffs)))
    total[: len(even.base.coeffs)] += even.base.coeffs
    total[: len(odd.base.coeffs)] += odd.base.coeffs
    assert np.array_equal(total[: len(p.coeffs)], np.asarray(p.coeffs))
    assert np.all(total[len(p.coeffs) :] == 0)


def test_parity_polynomial_rejects_mixed():
    with pytest.raises(ValueError):
        P.ParityPolynomial(P.Polynomial((1.0, 1.0)), 0)


# ---------------------------------------------------------------------------
# Bernstein evaluation
# ---------------------------------------------------------------------------


def test_bernstein_constant_partition_of_unity():
    f = P.TargetFunctionSpec(1, lambda x: 1.0)
    for n in (1, 3, 17):
        for x in (0.0, 0.3, 1.0):
            assert P.bernstein_eval(f, n, (x,)) == pytest.approx(1.0, abs=1e-12)


def test_bernstein_affine_precision():
    f = P.TargetFunctionSpec(1, lambda x: x[0])
    assert P.bernstein_eval(f, 3, (0.4,)) == pytest.approx(0.4, abs=1e-12)


def test_bernstein_square_frozen():
    # direct-summation oracle: B_n(x^2) = x^2 + x(1-x)/n -> 0.375 at n=2, x=0.5
    f = P.TargetFunctionSpec(1, lambda x: x[0] ** 2)
    assert P.bernstein_eval(f, 2, (0.5,)) == pytest.approx(0.375, abs=1e-13)


def test_bernstein_eval_leaves_the_frozen_spec_unchanged():
    f = P.TargetFunctionSpec(1, lambda x: x[0] ** 2)
    state = dict(vars(f))
    P.bernstein_eval(f, 3, (0.5,))
    assert vars(f) == state


@given(
    st.integers(1, 64),
    st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_partition_of_unity_property(n, x):
    basis = P._bernstein_basis(n, x)
    assert abs(float(np.sum(basis)) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bernstein_affine_multivariate(d):
    coeffs = np.linspace(0.1, 0.3, d)
    f = P.TargetFunctionSpec(d, lambda x: float(np.dot(coeffs, x)) + 0.05)
    rng = np.random.default_rng(d)
    for _ in range(5):
        x = tuple(rng.random(d))
        for n in (1, 2, 5):
            assert P.bernstein_eval(f, n, x) == pytest.approx(f(x), abs=1e-12)


def test_bernstein_log_space_large_n():
    f = P.TargetFunctionSpec(1, lambda x: x[0])
    assert P.bernstein_eval(f, 200, (0.7,)) == pytest.approx(0.7, abs=1e-10)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def test_lipschitz_bound_zero_ell():
    assert P.lipschitz_bernstein_bound(3, 0.0, 1.0, 10, 0.2) == pytest.approx(0.2)


def test_lipschitz_bound_frozen_values():
    assert P.lipschitz_bernstein_bound(1, 1.0, 1.0, 100, 0.1) == pytest.approx(0.6)
    assert P.lipschitz_bernstein_bound(2, 1.0, 1.0, 1, 1.0) == pytest.approx(2.125)


def test_thm_bounds_frozen_values():
    assert P.thm_bounds("thm3", d=1, s=1, beta=2, K=4) == pytest.approx(0.0625)
    assert P.thm_bounds("thm2", d=3, ell=0.0, n=5, eps=0.17) == pytest.approx(0.17)
    assert P.thm_bounds("l2corollary", d=1, s=1, beta=2, K=4) == pytest.approx(
        4.00390625
    )


def test_thm_bounds_unknown_kind():
    with pytest.raises(ValueError):
        P.thm_bounds("thm7", d=1)


# ---------------------------------------------------------------------------
# Sign approximant
# ---------------------------------------------------------------------------


def test_sign_approx_odd_at_zero():
    p = P.sign_approx_poly(0.2, 0.05)
    assert p.parity == 1
    assert p(0.0) == pytest.approx(0.0, abs=1e-14)


def test_sign_approx_accuracy_band():
    p = P.sign_approx_poly(0.2, 0.05)
    # high-precision reference: the approximant must sit within eps of sgn
    assert 0.95 <= p(0.5) <= 1.0
    assert -1.0 <= p(-0.5) <= -0.95


def test_sign_approx_bounds_on_grid():
    p = P.sign_approx_poly(0.1, 0.01)
    grid = np.linspace(-1, 1, 4001)
    vals = p(grid)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    outside = np.abs(grid) >= 0.05
    assert np.max(np.abs(vals[outside] - np.sign(grid[outside]))) <= 0.01


def test_sign_degree_constant_is_recorded():
    p = P.sign_approx_poly(0.2, 0.05)
    const = P.sign_degree_constant(0.2, 0.05, p.degree)
    assert 0 < const < 20


# The exhaustive degree search that the screened search replaced, kept as the
# reference: from the tail-bound degree it walks up to the first exact pass,
# then down one odd degree at a time, refining each peak with its own calls.


def _reference_refined_sup(coef, grid, vals, spacing, peaks=8):
    best = float(np.max(vals))
    top = np.argsort(vals)[-peaks:]
    for i in top:
        x0, h = float(grid[i]), spacing
        for _ in range(3):
            xs = np.clip(np.linspace(x0 - h, x0 + h, 33), -1.0, 1.0)
            local = np.abs(chebval(xs, coef))
            j = int(np.argmax(local))
            best = max(best, float(local[j]))
            x0, h = float(xs[j]), h / 8.0
    return best


def _reference_search(delta, eps, R):
    """The exact check of each degree, the tail-bound degree and the length
    of the interpolant; also asserts that the batched peak refinement
    returns the reference sup bit for bit."""
    kappa = float(special.erfcinv(eps / 2.0)) * 2.0 * R / delta
    n_interp = int(max(64, 2.2 * kappa * math.sqrt(math.log(64.0 / eps)) + 64))
    n_interp += n_interp % 2
    # the interpolant at n_interp + 1 first-kind nodes, by a DCT-II
    m = n_interp + 1
    nodes = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    coef_full = fft.dct(special.erf(kappa * nodes), type=2)
    coef_full /= m
    coef_full[0] /= 2.0
    coef_full[::2] = 0.0
    edge = (delta / 2.0) / R
    n_grid = max(1000, 10 * n_interp)
    ramp = np.linspace(edge, min(1.0, edge + 2.0 / max(kappa, 1.0)), 400)
    grid = np.sort(np.concatenate(
        [P.chebyshev_grid(n_grid), np.linspace(-1.0, 1.0, n_grid), ramp, -ramp]
    ))
    target = np.sign(grid)
    outside = np.abs(grid) >= edge
    spacing = 2.0 / n_grid
    eps_check = eps * (1.0 - 1e-3)

    def candidate(deg):
        coef = coef_full[: deg + 1].copy()
        vals = np.abs(chebval(grid, coef))
        m = _reference_refined_sup(coef, grid, vals, spacing)
        assert P._refined_sup(coef, grid, vals, spacing) == m
        if m > 1.0:
            coef = coef / (m * (1.0 + 1e-12))
        errs = np.abs(chebval(grid, coef) - target)
        return coef if np.max(errs[outside]) <= eps_check else None

    tails = np.cumsum(np.abs(coef_full[::-1]))[::-1]
    for deg in range(1, len(coef_full), 2):
        if deg + 1 < len(tails) and tails[deg + 1] <= eps / 4.0:
            top = deg
            break
    else:
        top = len(coef_full) - 1
    return candidate, top, len(coef_full)


def _reference_sign_series(delta, eps, R):
    candidate, top, n_coef = _reference_search(delta, eps, R)
    best = None
    for deg in range(top, n_coef, 2):
        best = candidate(deg)
        if best is not None:
            break
    deg = len(best) - 1
    while deg > 2:
        lower = candidate(deg - 2)
        if lower is None:
            break
        best, deg = lower, deg - 2
    return best


# degrees 35, 141, 101 and 417; the last two are the steps of K=2, eps=0.25
# and of the taylor_d2 benchmark workload
SEARCH_SPECS = [(0.2, 0.05, 1.0), (0.1, 0.01, 1.0), (0.15, 0.25 / 6, 2.0), (0.0625, 0.0125, 2.0)]


@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS)
def test_sign_series_matches_exhaustive_walk(delta, eps, R):
    ref = _reference_sign_series(delta, eps, R)
    out = P._sign_cheb_series(delta, eps, R)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("where", ["top", "failing"])
def test_sign_series_survives_a_wrong_screen(monkeypatch, where):
    delta, eps, R = 0.1, 0.01, 1.0
    expected = P._sign_cheb_series(delta, eps, R)
    candidate, top, _ = _reference_search(delta, eps, R)
    low = len(expected) - 1 - 6
    assert candidate(low) is None
    start = top if where == "top" else low
    monkeypatch.setattr(P, "_screen_start", lambda *args: start)
    assert P._sign_cheb_series(delta, eps, R).tobytes() == expected.tobytes()


def test_sign_series_logs_its_search(caplog):
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.poly"):
        coef = P._sign_cheb_series(0.0625, 0.0125, 2.0)
    (message,) = [r.getMessage() for r in caplog.records]
    assert "top 445, screen start 417, degree 417, 2 exact checks" in message
    assert len(coef) - 1 == 417


# ---------------------------------------------------------------------------
# Localization polynomial
# ---------------------------------------------------------------------------


def test_localization_single_band():
    spec = P.LocalizationSpec(1, 0.1, 0.05)
    loc = P.localization_poly(spec)
    xs = np.linspace(0, 1, 200)
    vals = loc(xs)
    assert np.all(vals > 0) and np.all(vals < 0.05)


def test_localization_two_bands_frozen():
    spec = P.LocalizationSpec(2, 0.1, 0.05)
    loc = P.localization_poly(spec)
    assert 0.0 < loc(0.25) < 0.05
    assert 0.5 < loc(0.75) < 0.55


def test_localization_even_coefficients():
    spec = P.LocalizationSpec(2, 0.1, 0.05)
    loc = P.localization_poly(spec)
    assert all(c == 0.0 for c in loc.coeffs[1::2])


@pytest.mark.parametrize("K,delta,eps", [(2, 0.1, 0.05), (4, 0.05, 0.1)])
def test_localization_band_contract(K, delta, eps):
    spec = P.LocalizationSpec(K, delta, eps)
    loc = P.localization_poly(spec)
    for k in range(K):
        lo, hi = spec.band(k)
        xs = np.linspace(lo, hi, 300)
        r = loc(xs) - k / K
        assert r.min() > 0.0 and r.max() < eps
    grid = np.linspace(-1, 1, 3000)
    assert np.max(np.abs(loc(grid))) <= 1.0


def test_cheb_refit_keeps_a_degree_2216_series():
    # the K=16 localization refit degree: a sum of two smoothed steps, flat
    # near +-1, whose series ends at degree 2216 (coefficients reach 1e-17).
    # numpy's chebinterpolate reproduces this series only to about 1e-10.
    deg = 2216
    theta = np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1)
    x = np.cos(theta)
    steps = 0.5 * (special.erf(60.0 * (x - 0.5)) + special.erf(60.0 * (-x - 0.5))) + 1.0
    coef = fft.dct(steps, type=2) / (deg + 1)
    coef[0] /= 2.0
    coef[1::2] = 0.0
    refit = P._cheb_refit(lambda t: chebval(t, coef), deg)
    assert np.max(np.abs(refit - coef)) <= 1e-13
    grid = np.linspace(-1.0, 1.0, 20001)
    assert np.max(np.abs(chebval(grid, refit) - chebval(grid, coef))) <= 1e-13


def test_localization_spec_validation():
    with pytest.raises(ValueError):
        P.LocalizationSpec(4, 0.3, 0.1)  # delta >= 1/K
    with pytest.raises(ValueError):
        P.LocalizationSpec(4, 0.05, 0.3)  # eps >= 1/K


@pytest.mark.parametrize(
    "K, delta",
    # the report and acceptance specs (default_delta), then specs where floor(x*K)
    # misses the band of an edge: fl(k/49)*49 can round below k, and a gap of
    # 1e-17 vanishes against k/10
    [(2, 0.15), (4, 0.075), (4, 0.0625), (8, 0.0375), (2, 0.25), (16, 0.01875),
     (49, 0.005), (10, 1e-17), (3, 0.05), (1, 0.1)],
)
def test_bands_of_matches_band_of(K, delta):
    spec = P.LocalizationSpec(K, delta, 0.5 / K)
    edges = np.array([e for k in range(K) for e in spec.band(k)])
    near = [edges]
    for direction in (-np.inf, np.inf):
        step = edges
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    xs = np.concatenate(
        near
        + [np.linspace(0.0, 1.0, n) for n in (8, 13, 21, 41, 101)]
        + [np.random.default_rng(K).random(5000), [-0.1, 1.1, np.nan, np.inf]]
    )
    want = [spec.band_of(x) for x in xs]
    assert spec.bands_of(xs).tolist() == [-1 if k is None else k for k in want]
    grid = xs[: 4 * len(edges) + 1].reshape(-1, 1) * np.ones(3)
    assert spec.bands_of(grid).shape == grid.shape


# ---------------------------------------------------------------------------
# Taylor expansion
# ---------------------------------------------------------------------------


def _halfsine():
    return P.TargetFunctionSpec(
        1,
        lambda x: 0.5 * math.sin(x[0]),
        derivative_oracle=lambda a, x: 0.5 * math.sin(x[0] + a[0] * math.pi / 2),
        holder=(2.0, 1.0),
    )


def test_taylor_reproduces_polynomials():
    f = P.TargetFunctionSpec(2, lambda x: 0.3 + 0.2 * x[0] - 0.1 * x[0] * x[1])
    exp = P.taylor_expand(f, (0.2, 0.7), 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random(2)
        dx = tuple(x - np.array([0.2, 0.7]))
        assert exp(dx) == pytest.approx(f(tuple(x)), abs=1e-7)


def test_taylor_halfsine_first_order():
    exp = P.taylor_expand(_halfsine(), (0.0,), 1)
    assert exp.terms.get((0,), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert exp.terms[(1,)] == pytest.approx(0.5, abs=1e-12)


def test_taylor_remainder_bound():
    # remainder at order s=3 obeys d^s * |x - x0|^beta with beta = 4
    f = P.TargetFunctionSpec(
        1,
        lambda x: 0.5 * math.sin(x[0]),
        derivative_oracle=lambda a, x: 0.5 * math.sin(x[0] + a[0] * math.pi / 2),
        holder=(4.0, 1.0),
    )
    exp = P.taylor_expand(f, (0.0,), 3)
    x = 0.1
    remainder = abs(f((x,)) - exp((x,)))
    assert remainder <= 1.0 * x**4


def test_taylor_coefficient_bound_violation():
    f = P.TargetFunctionSpec(1, lambda x: 5.0 * x[0], derivative_oracle=lambda a, x: 5.0 if a[0] == 1 else 0.0, holder=(2.0, 1.0))
    with pytest.raises(ValueError):
        P.taylor_expand(f, (0.0,), 1)


def test_finite_difference_matches_oracle():
    f = _halfsine()
    for alpha in [(0,), (1,), (2,)]:
        fd = P.finite_difference(f.evaluator, alpha, (0.3,))
        exact = f.derivative_oracle(alpha, (0.3,))
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-7)


def test_finite_difference_mixed_partial():
    f = lambda x: math.sin(x[0]) * math.cos(x[1])
    fd = P.finite_difference(f, (1, 1), (0.4, 0.2))
    exact = math.cos(0.4) * -math.sin(0.2)
    assert fd == pytest.approx(exact, rel=1e-5)


def test_finite_difference_order_cap():
    with pytest.raises(ValueError):
        P.finite_difference(lambda x: x[0], (5,), (0.5,))
