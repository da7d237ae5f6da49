import decimal
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.polynomial import polyval
from scipy import fft, special

from pqcapprox import poly as P
from pqcapprox import sim as S

from oracles import per_step_evenized_steps, upward_screen_start


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


@pytest.mark.parametrize("p, sup", [
    (P.ParityPolynomial(P.Polynomial((0.0,) * 50 + (1.0,)), 0), 1.0),
    (P.ParityPolynomial(P.Polynomial.from_power((0.0,) * 9 + (1.00001,)), 1), 1.00001),
], ids=["T_50", "1.00001x^9"])
def test_sup_norm_reads_the_peak_at_an_end(p, sup):
    # the Chebyshev grid holds neither end: it read 0.996917 for T_50 and
    # 0.9999989 for 1.00001 x^9
    assert abs(p.sup_norm() - sup) <= 1e-13


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polynomials_reject_a_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match="coefficient .* of index 1 is not finite"):
        P.Polynomial((0.5, bad))
    with pytest.raises(ValueError, match="not finite"):
        P.MultivariatePolynomial({(0, 1): 0.5, (1, 0): bad}, 2)
    for c in (complex(bad, 0.0), complex(0.0, bad)):
        with pytest.raises(ValueError, match="not finite"):
            P.MultivariateTrigPolynomial({(1,): c}, 1)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=2))
def test_from_power_is_the_identity_up_to_degree_one(coeffs):
    # bit for bit, a zero's sign aside: T_0 = 1 and T_1 = x
    def bits(p):
        return [float.hex(c + 0.0) for c in p.coeffs]

    assert bits(P.Polynomial.from_power(coeffs)) == bits(P.Polynomial(coeffs))


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=12))
def test_from_power_takes_the_values_of_the_power_series(coeffs):
    x = np.linspace(-1.0, 1.0, 101)
    got = P.Polynomial.from_power(coeffs)(x)
    assert np.max(np.abs(got - polyval(x, coeffs))) <= 1e-14 * (1.0 + sum(map(abs, coeffs)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_power_rejects_a_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match="coefficient .* of index 2 is not finite"):
        P.Polynomial.from_power((0.5, 0.0, bad, 1.0))


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


def sign_approx_poly(delta: float, eps: float) -> P.ParityPolynomial:
    """Odd polynomial P with |P| <= 1 on [-1,1] and |sgn(x) - P(x)| <= eps
    for |x| >= delta/2, at the smallest verified Chebyshev-truncation degree.

    Raises ConstructionError if no truncation passes the dense-grid checks.
    """
    coef = P._sign_cheb_series(delta, eps, R=1.0)
    return P.ParityPolynomial(P.Polynomial(tuple(coef)), 1)


def sign_degree_constant(delta: float, eps: float, degree: int) -> float:
    """Implied constant C in degree <= C * (1/delta) * ln(1/eps)."""
    return degree * delta / math.log(1.0 / eps)


def test_sign_approx_odd_at_zero():
    p = sign_approx_poly(0.2, 0.05)
    assert p.parity == 1
    assert p(0.0) == pytest.approx(0.0, abs=1e-14)


def test_sign_approx_accuracy_band():
    p = sign_approx_poly(0.2, 0.05)
    # high-precision reference: the approximant must sit within eps of sgn
    assert 0.95 <= p(0.5) <= 1.0
    assert -1.0 <= p(-0.5) <= -0.95


def test_sign_approx_bounds_on_grid():
    p = sign_approx_poly(0.1, 0.01)
    grid = np.linspace(-1, 1, 4001)
    vals = p(grid)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    outside = np.abs(grid) >= 0.05
    assert np.max(np.abs(vals[outside] - np.sign(grid[outside]))) <= 0.01


def test_sign_degree_constant_is_recorded():
    p = sign_approx_poly(0.2, 0.05)
    const = sign_degree_constant(0.2, 0.05, p.degree)
    assert 0 < const < 20


# The exhaustive degree search that the one-walk search replaced, kept as the
# reference: from the tail-bound degree it walks up to the first exact pass,
# then down one odd degree at a time, refining each peak with its own calls.
# It evaluates with the package's own P._chebval, whose contract the
# evaluator tests below check, so these pins compare the searches bit for bit.


def _reference_refined_sup(coef, grid, vals, spacing, peaks=8):
    best = float(np.max(vals))
    top = np.argsort(vals)[-peaks:]
    for i in top:
        x0, h = float(grid[i]), spacing
        for _ in range(3):
            xs = np.clip(np.linspace(x0 - h, x0 + h, 33), -1.0, 1.0)
            local = np.abs(P._chebval(xs, coef))
            j = int(np.argmax(local))
            best = max(best, float(local[j]))
            x0, h = float(xs[j]), h / 8.0
    return best


def _interpolant_size(delta, eps, R):
    """The package's kappa of erf(kappa * v) and the degree it interpolates at."""
    kappa = P._erfcinv(eps / 2.0) * 2.0 * R / delta
    n_interp = int(max(64, 2.2 * kappa * math.sqrt(math.log(64.0 / eps)) + 64))
    return kappa, n_interp + n_interp % 2


def _reference_search(delta, eps, R):
    """The exact check of each degree, the tail-bound degree and the length
    of the interpolant; also asserts that the batched peak refinement
    returns the reference sup bit for bit.  The walk starts from the
    package's own interpolant, which test_erf_interpolant_matches_scipy
    checks against an independent one."""
    kappa, n_interp = _interpolant_size(delta, eps, R)
    coef_full = P._erf_chebyshev(kappa, n_interp)
    edge = (delta / 2.0) / R
    n_grid = max(1000, 10 * n_interp)
    ramp = np.linspace(edge, min(1.0, edge + 2.0 / max(kappa, 1.0)), 400)
    # the x >= 0 half of a grid symmetric about 0, as the package checks:
    # the series is odd and sgn is 1 there outside the gap
    grid = np.sort(np.concatenate([
        P.chebyshev_grid(n_grid)[: (n_grid + 1) // 2],
        np.linspace(-1.0, 1.0, n_grid)[n_grid // 2 :],
        ramp,
    ]))
    assert np.all(grid >= 0.0)
    outside = grid >= edge
    spacing = 2.0 / n_grid
    eps_check = eps * (1.0 - 1e-3)

    def candidate(deg):
        coef = coef_full[: deg + 1].copy()
        vals = np.abs(P._chebval(grid, coef))
        m = _reference_refined_sup(coef, grid, vals, spacing)
        assert P._refined_sup(coef, grid, vals, spacing) == m
        if m > 1.0:
            coef = coef / (m * (1.0 + 1e-12))
        errs = np.abs(P._chebval(grid, coef) - 1.0)
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

# the first step specs eps / (2 (K + 1)) of the K = 4, 8 and 16 reports of
# the bound suite, the benchmark and CI (SEARCH_SPECS holds K = 2's)
STEP_SPECS = [(0.05, 0.025 / 10, 2.0), (0.0375, 0.0625 / 18, 2.0), (0.01875, 0.03125 / 34, 2.0)]


# K = 16's step takes 10 s on a 2-vCPU Xeon; CI's coefficient gate compares
# its polynomial
@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS + STEP_SPECS[:2])
def test_sign_series_matches_exhaustive_walk(delta, eps, R):
    ref = _reference_sign_series(delta, eps, R)
    out = P._sign_cheb_series(delta, eps, R)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS + STEP_SPECS)
def test_screen_walk_down_starts_where_the_upward_sweep_does(monkeypatch, delta, eps, R):
    (coef, x, seen), refined = _traced_search(monkeypatch, delta, eps, R)
    top, down = seen[0][0], [deg for deg, _ in seen]
    outside = x >= (delta / 2.0) / R
    assert np.all(outside[: np.count_nonzero(outside)])  # the walk holds them first
    start = upward_screen_start(coef, x, outside, eps * (1.0 - 1e-3), top)
    assert refined[0] == start
    # down from top to the first grid failure, then up from the start, whose
    # partial sum keeps the bits the walk down gave it
    turn = down.index(start - 2)
    assert down[: turn + 1] == list(range(top, start - 3, -2))
    assert down[turn + 1 :] == list(range(start, refined[-1] + 1, 2))
    assert np.array_equal(seen[turn - 1][1], seen[turn + 1][1])


@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS)
def test_erf_interpolant_matches_scipy(delta, eps, R):
    kappa, n_interp = _interpolant_size(delta, eps, R)
    # the interpolant at n_interp + 1 first-kind nodes, by scipy's DCT-II
    m = n_interp + 1
    nodes = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    ref = fft.dct(special.erf(kappa * nodes), type=2) / m
    ref[0] /= 2.0
    ref[::2] = 0.0
    out = P._erf_chebyshev(kappa, n_interp)
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_sign_series_is_checked_with_even_entries_exactly_zero(monkeypatch):
    # an odd series against sgn has an even error, which the x >= 0 grid
    # of the walk's grid test and refined test covers only if the series is odd
    sums_class, refine, seen = P._OddPartialSums, P._refined_sup, []

    class Recorded(sums_class):
        def __init__(self, coef, *args):
            seen.append(coef.copy())
            super().__init__(coef, *args)

    def refined(coef, *args):
        seen.append(coef.copy())
        return refine(coef, *args)

    monkeypatch.setattr(P, "_OddPartialSums", Recorded)
    monkeypatch.setattr(P, "_refined_sup", refined)
    out = P._sign_cheb_series(0.0625, 0.0125, 2.0)
    # the walk and the one refinement: the degree below fails on the grid
    assert len(seen) == 2
    for coef in seen + [out]:
        assert np.all(coef[::2] == 0.0)


def test_sign_series_logs_its_search(caplog):
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.poly"):
        coef = P._sign_cheb_series(0.0625, 0.0125, 2.0)
    (message,) = [r.getMessage() for r in caplog.records]
    assert "top 445, up from 417, degree 417" in message
    assert len(coef) - 1 == 417


def _traced_search(monkeypatch, delta, eps, R):
    """_sign_cheb_series with its walk and refinements recorded: the walk's
    coefficients and points, each degree it reads, in order, with a copy of
    the grid values read, and the degrees refined."""
    sums_class, refine = P._OddPartialSums, P._refined_sup
    walks, refined = [], []

    class Recorded(sums_class):
        def __init__(self, coef, x, vals, deg):
            super().__init__(coef, x, vals, deg)
            self.seen = []
            walks.append((coef, x, self.seen))

        def at(self, deg):
            vals = super().at(deg)
            self.seen.append((deg, vals.copy()))
            return vals

    def refined_sup(coef, *args):
        refined.append(len(coef) - 1)
        return refine(coef, *args)

    monkeypatch.setattr(P, "_OddPartialSums", Recorded)
    monkeypatch.setattr(P, "_refined_sup", refined_sup)
    P._sign_cheb_series(delta, eps, R)
    (walk,) = walks  # one walk, down and back up
    return walk, refined


@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS + STEP_SPECS)
def test_walk_values_are_the_truncations_on_the_grid(monkeypatch, delta, eps, R):
    (coef, grid, seen), _ = _traced_search(monkeypatch, delta, eps, R)
    # the one full evaluation takes the first half of the grid, Chebyshev
    # nodes, by a DCT, which is up to 1.2e-13 off chebval at the K = 16 step
    # spec, as the per-degree evaluation it replaced was; on the rest,
    # evaluated by P._chebval, the walk adds only its recurrence's rounding,
    # at most 1.4e-14 over the 123 odd degrees it reads at that spec
    n_grid = max(1000, 10 * (len(coef) - 1))
    rest = ~np.isin(grid, P.chebyshev_grid(n_grid)[: (n_grid + 1) // 2])
    assert np.count_nonzero(~rest) == (n_grid + 1) // 2
    # the truncation at each degree read: chebval at the first, top, then
    # one term c_k cos(k arccos x) off or on per step, as the walk moves;
    # a chebval per degree would take 30 s at K = 16's step
    theta = np.arccos(grid)
    ref_deg = seen[0][0]
    ref = chebval(grid, coef[: ref_deg + 1])
    for deg, vals in seen:
        while ref_deg > deg:
            ref = ref - coef[ref_deg] * np.cos(ref_deg * theta)
            ref_deg -= 2
        while ref_deg < deg:
            ref_deg += 2
            ref = ref + coef[ref_deg] * np.cos(ref_deg * theta)
        assert np.max(np.abs(vals[rest] - ref[rest])) <= 2e-14
        assert np.max(np.abs(vals - ref)) <= 2e-13


@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS + STEP_SPECS)
def test_degrees_rejected_before_refinement_fail_the_exact_check(monkeypatch, delta, eps, R):
    (_, _, seen), refined = _traced_search(monkeypatch, delta, eps, R)
    # the degree the walk turns at, unless the walk reached degree 1
    rejected = sorted({min(deg for deg, _ in seen)} - set(refined))
    assert rejected  # the degree below the result, at every spec here
    candidate, _, _ = _reference_search(delta, eps, R)
    for deg in rejected:
        assert candidate(deg) is None


@pytest.mark.parametrize("delta,eps,R", SEARCH_SPECS + STEP_SPECS)
def test_search_makes_one_full_evaluation_and_one_refinement(monkeypatch, delta, eps, R):
    refine, chebval_, refined, shapes = P._refined_sup, P._chebval, [], []
    monkeypatch.setattr(P, "_refined_sup", lambda coef, *a: refined.append(1) or refine(coef, *a))
    monkeypatch.setattr(
        P, "_chebval", lambda x, coef: shapes.append(np.shape(x)) or chebval_(x, coef)
    )
    P._sign_cheb_series(delta, eps, R)
    # the refinement's (8, 33) windows aside, one pass over the grid's rest
    assert [s for s in shapes if len(s) == 1] == [shapes[0]]
    assert len(refined) == 1


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


def test_localization_raises_its_construction_error(monkeypatch):
    # one construction, whose own error reaches the caller
    calls = []

    def failing(*args):
        calls.append(args)
        raise P.ConstructionError("sign approximant failed verification")

    monkeypatch.setattr(P, "_sign_cheb_series", failing)
    with pytest.raises(P.ConstructionError, match="^sign approximant failed verification$"):
        P.localization_poly(P.LocalizationSpec(2, 0.1, 0.05))
    assert len(calls) == 1


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


def _degree_2216_series():
    # the K=16 localization refit degree: a sum of two smoothed steps, flat
    # near +-1, whose series ends at degree 2216 (coefficients reach 1e-17)
    deg = 2216
    theta = np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1)
    x = np.cos(theta)
    steps = 0.5 * (special.erf(60.0 * (x - 0.5)) + special.erf(60.0 * (-x - 0.5))) + 1.0
    coef = fft.dct(steps, type=2) / (deg + 1)
    coef[0] /= 2.0
    coef[1::2] = 0.0
    return coef


def test_cheb_refit_keeps_a_degree_2216_series():
    # numpy's chebinterpolate reproduces this series only to about 1e-10
    coef = _degree_2216_series()
    deg = len(coef) - 1
    refit = P._cheb_refit(lambda t: chebval(t, coef), deg)
    assert np.max(np.abs(refit - coef)) <= 1e-13
    grid = np.linspace(-1.0, 1.0, 20001)
    assert np.max(np.abs(chebval(grid, refit) - chebval(grid, coef))) <= 1e-13


@pytest.mark.parametrize("m", [2217, 2300, 22170])
def test_cheb_values_match_chebval_and_invert_cheb_coeffs(m):
    coef = _degree_2216_series()
    vals = P._cheb_values(coef, m)
    assert np.max(np.abs(vals - chebval(P.chebyshev_grid(m), coef))) <= 1e-13
    back = P._cheb_coeffs(vals)
    assert np.max(np.abs(back[: len(coef)] - coef)) <= 1e-13
    assert np.max(np.abs(back[len(coef) :]), initial=0.0) <= 1e-13


def _decimal_chebval(xs, coef):
    """Clenshaw's recurrence in 40-digit decimal arithmetic, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        cs = [decimal.Decimal(float(c)) for c in coef]
        out = []
        for x in np.ravel(xs).tolist():
            x = decimal.Decimal(x)
            b1 = b2 = decimal.Decimal(0)
            for c in reversed(cs[1:]):
                b1, b2 = c + 2 * x * b1 - b2, b1
            out.append(float(cs[0] + x * b1 - b2))
    return np.array(out).reshape(np.shape(xs))


def _coefficient_families(n):
    """Random, odd, even, zero-run and signed-zero series of length n."""
    rng = np.random.default_rng(n)
    coef = rng.normal(size=n)
    odd, even, runs, signed = coef.copy(), coef.copy(), coef.copy(), coef.copy()
    odd[::2] = 0.0
    even[1::2] = 0.0
    runs[1:-1][(np.arange(max(n - 2, 0)) // 3) % 2 == 1] = 0.0  # runs of three interior zeros
    signed[rng.random(n) < 0.4] = 0.0
    signed[rng.random(n) < 0.3] = -0.0
    return [coef, odd, even, runs, signed]


# a few dozen points: random ones, the ends, zero and points near them
EVAL_POINTS = np.concatenate([
    np.random.default_rng(7).uniform(-1.0, 1.0, 24),
    [0.0, -0.0, 1.0, -1.0, 1e-9, -0.3, 0.5, 1.0 - 2.0**-40],
])


def _assert_near_decimal(coef, bound):
    # the error relative to sum |c|, the size Clenshaw's error scales with
    err = np.max(np.abs(P._chebval(EVAL_POINTS, coef) - _decimal_chebval(EVAL_POINTS, coef)))
    assert err <= bound * np.sum(np.abs(coef))


@pytest.mark.parametrize("n", [1, 2, 3, 892, 978])
def test_chebval_is_near_a_40_digit_clenshaw(n):
    # 4x the worst measured, 4.0e-15 sum|c| (numpy's chebval: 3.4e-14 sum|c|)
    for coef in _coefficient_families(n):
        _assert_near_decimal(coef, 1.6e-14)


@pytest.mark.parametrize("K,delta,eps", [(4, 1 / 16, 1 / 8), (8, 0.0375, 0.0625), (16, 0.01875, 0.03125)])
def test_chebval_is_near_a_40_digit_clenshaw_on_the_construction_series(K, delta, eps):
    # 4x the worst measured, 1.6e-16 sum|c| (numpy's chebval: 1.1e-16 sum|c|)
    sgn = P._sign_cheb_series(delta, eps / (2.0 * (K + 1)), 2.0)
    loc = P.localization_poly(P.LocalizationSpec(K, delta, eps)).coeffs
    for coef in (sgn, loc):
        _assert_near_decimal(coef, 6.4e-16)


@pytest.mark.parametrize("n", [3, 892, 978])
def test_chebval_gives_a_point_the_same_bits_in_any_batch(monkeypatch, n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, 264)
    for coef in _coefficient_families(n):
        whole = P._chebval(x, coef)
        assert np.array_equal([P._chebval(v, coef) for v in x[:40]], whole[:40])
        for lo in (1, 7, 100):
            assert np.array_equal(P._chebval(x[lo:], coef), whole[lo:])
        assert np.array_equal(P._chebval(x[:42].reshape(2, 3, 7), coef), whole[:42].reshape(2, 3, 7))
        assert np.array_equal(P._chebval(x.reshape(8, 33), coef), whole.reshape(8, 33))
        monkeypatch.setattr(S, "BATCH_BYTES", 1)  # one point per chunk
        assert np.array_equal(P._chebval(x, coef), whole)
        monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2, 3, 978])
def test_chebval_keeps_the_shape_of_x(n):
    coef = np.random.default_rng(n).normal(size=n)
    for x in (0.3, np.float64(-0.6), np.array(0.1)):
        got = P._chebval(x, coef)
        assert isinstance(got, np.floating) and np.shape(got) == ()
    for shape in ((0,), (5,), (2, 3, 7)):
        assert P._chebval(np.zeros(shape), coef).shape == shape


def test_step_sum_makes_one_chebval_call(monkeypatch):
    # K=32's step series length and refit nodes, no construction needed
    K, n_coef, nodes = 32, 5804, 2905
    coef = np.random.default_rng(32).normal(size=n_coef)
    coef[::2] = 0.0
    calls, chebval_ = [], P._chebval
    monkeypatch.setattr(P, "_chebval", lambda x, c: calls.append(np.shape(x)) or chebval_(x, c))
    centers = np.array([k / K - 0.0046875 for k in range(1, K)])
    P._evenized_steps(P.chebyshev_grid(2 * nodes - 1)[:nodes], coef, 2.0, centers)
    assert calls == [(K - 1, 2, nodes)]


@pytest.mark.parametrize("m", [0.5, 1.0, 1.0 + 1e-9, 1.37])
def test_outside_error_is_the_elementwise_maximum(m):
    # from the two extremes of S, the same float as max |S/m' - 1| over every S
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.uniform(0.9, 1.0, 300) * min(m, 1.0), [0.0, -0.0, -0.2, m]])
    for values in (s, s[:300], s[300:], -s, rng.permutation(s)):
        scaled = values / (m * (1.0 + 1e-12)) if m > 1.0 else values
        assert P._outside_error(values, m) == float(np.max(np.abs(scaled - 1.0)))
    for at in (0, 150, len(s) - 1):
        with_nan = s.copy()
        with_nan[at] = np.nan
        assert math.isnan(P._outside_error(with_nan, m))


def test_cheb_values_refuse_to_alias():
    with pytest.raises(ValueError, match="alias"):
        P._cheb_values(np.ones(6), 5)


# 39460 = 2^2 * 5 * 1973 is a Bluestein length, the K=16 sign check's grid
DCT_LENGTHS = [7, 8, 9, 900, 901, 2218, 39460]


def _assert_close(out, ref):
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("m", DCT_LENGTHS)
def test_cheb_coeffs_match_scipy_dct(m):
    rng = np.random.default_rng(m)
    for values in (rng.normal(size=m), rng.normal(size=(3, m))):
        ref = fft.dct(values, type=2, axis=-1) / m
        ref[..., 0] /= 2.0
        _assert_close(P._cheb_coeffs(values), ref)


@pytest.mark.parametrize("m", DCT_LENGTHS)
def test_cheb_values_match_scipy_dct(m):
    rng = np.random.default_rng(m)
    for n in sorted({1, 2, m // 3, m - 1, m}):
        coef = rng.normal(size=n)
        half = 0.5 * coef
        half[0] = coef[0]
        _assert_close(P._cheb_values(coef, m), fft.dct(half, type=3, n=m))


def test_erfcinv_matches_scipy():
    # over this range scipy's erfcinv is itself up to 5 ulp from the
    # 40-digit value and the Newton solve within 1 ulp, so 6 ulp is their sum
    for y in np.geomspace(1e-6, 0.5, 200) / 2.0:
        ref = special.erfcinv(y)
        assert abs(P._erfcinv(float(y)) - ref) <= 6 * np.spacing(ref)


# the localization specs of the taylor_d2 and localization_k8 benchmark
# workloads and of the K=16 and K=32 reports
@pytest.mark.parametrize(
    "K,delta,eps,sign_degree,degree",
    [(4, 1 / 16, 1 / 8, 417, 420), (8, 0.0375, 0.0625, 891, 894), (16, 0.01875, 0.03125, 2213, 2216),
     (32, 0.009375, 0.015625, 5803, 5806)],
)
def test_localization_degrees_are_pinned(caplog, K, delta, eps, sign_degree, degree):
    with caplog.at_level(logging.DEBUG, logger="pqcapprox.poly"):
        loc = P.localization_poly(P.LocalizationSpec(K, delta, eps))
    (message,) = [r.getMessage() for r in caplog.records]
    assert message.endswith(f"up from {sign_degree}, degree {sign_degree}")
    assert loc.degree == degree


@pytest.mark.parametrize("K", [2, 4, 8])
def test_mirrored_step_sum_matches_per_step_on_all_nodes(K):
    spec = P.LocalizationSpec(K, 0.3 / K, 0.5 / K)
    sgn = P._sign_cheb_series(spec.delta, spec.eps / (2.0 * (K + 1)), 2.0)
    centers = np.array([k / K - spec.delta / 2.0 for k in range(1, K)])
    deg = len(sgn) + 1  # localization_poly refits at degree sgn_degree + 2,
    m = deg + deg % 2 + 1  # made even, so at an odd node count
    nodes = P.chebyshev_grid(m)
    h = (m + 1) // 2
    mirrored = P._mirrored(P._evenized_steps(nodes[:h], sgn, 2.0, centers), m, 0)
    # bit-equal where node m - 1 - k is exactly -x_k ...
    exact = np.concatenate([nodes[:h], -nodes[: m - h][::-1]])
    assert np.array_equal(mirrored, per_step_evenized_steps(exact, sgn, 2.0, centers))
    # ... and the rounded nodes are symmetric only to about an ulp, which
    # the steps' slope at K >= 4 lifts above 1e-15
    if K == 2:
        full = per_step_evenized_steps(nodes, sgn, 2.0, centers)
        assert np.max(np.abs(mirrored - full)) <= 1e-15


@pytest.mark.parametrize("K", [2, 4, 8])
def test_localization_step_passes_are_bit_equal_to_per_step(monkeypatch, K):
    spec = P.LocalizationSpec(K, 0.3 / K, 0.5 / K)
    coeffs = P.localization_poly(spec).coeffs
    monkeypatch.setattr(P, "_evenized_steps", per_step_evenized_steps)
    assert P.localization_poly(spec).coeffs == coeffs
    monkeypatch.undo()
    # chunks of a few points, then of a few hundred
    for chunk_bytes in (2**12, 2**17):
        monkeypatch.setattr(S, "BATCH_BYTES", chunk_bytes)
        assert P.localization_poly(spec).coeffs == coeffs


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
