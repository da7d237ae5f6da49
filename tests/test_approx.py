import math

import numpy as np
import pytest

from pqcapprox import approx as A
from pqcapprox import poly as P
from pqcapprox import targets


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_grid_full_cube_shape():
    g = A.GridSpec(2, 5)
    pts = g.points()
    assert pts.shape == (25, 2)
    assert pts.min() == 0.0 and pts.max() == 1.0


def test_grid_default_points_per_axis():
    assert A.GridSpec(1).points_per_axis == 101
    assert A.GridSpec(2).points_per_axis == 41
    assert A.GridSpec(3).points_per_axis == 15


def test_grid_too_large_to_mesh_fails_before_meshing(monkeypatch):
    # the default 11 points per axis at d = 12 would mesh 11^12 points
    with pytest.raises(ValueError, match=f"grid of {11**12} points"):
        A.GridSpec(12)
    # two (points, dims) float arrays: 2 * 15^3 * 3 * 8 bytes for d = 3
    monkeypatch.setattr(A, "_physical_memory_bytes", lambda: 2 * 15**3 * 3 * 8 - 1)
    with pytest.raises(ValueError, match=f"grid of {15**3} points"):
        A.GridSpec(3)
    monkeypatch.setattr(A, "_physical_memory_bytes", lambda: 2 * 15**3 * 3 * 8)
    assert len(A.GridSpec(3).points()) == 15**3


def test_grid_band_regions_partition():
    full = A.GridSpec(1, 101)
    union = A.GridSpec(1, 101, region="union_q_eta", K=4, delta=0.05)
    trif = A.GridSpec(1, 101, region="trifling", K=4, delta=0.05)
    assert len(union.points()) + len(trif.points()) == len(full.points())
    spec = P.LocalizationSpec(4, 0.05, 0.1)
    assert all(spec.band_of(x[0]) is not None for x in union.points())
    assert all(spec.band_of(x[0]) is None for x in trif.points())


# ---------------------------------------------------------------------------
# sup_error
# ---------------------------------------------------------------------------


def test_sup_error_zero_for_exact_model():
    f = targets.abs_centered(1)
    assert A.sup_error(f, A.pointwise(f), A.GridSpec(1, 21)) == 0.0


def test_sup_error_constant_offset():
    f = targets.abs_centered(1)
    model = lambda x: f(x) + 0.01
    assert A.sup_error(f, A.pointwise(model), A.GridSpec(1, 21)) == pytest.approx(0.01)


def test_sup_error_bernstein_vs_thm2():
    f = targets.abs_centered(1)
    model = lambda x: P.bernstein_eval(f, 16, x)
    sup = A.sup_error(f, A.pointwise(model), A.GridSpec(1, 101))
    bound = P.thm_bounds("thm2", d=1, ell=1.0, n=16, eps=0.3)
    assert sup <= bound


def test_sup_error_permutation_invariant():
    f = targets.abs_centered(1)
    model = lambda x: f(x) + 0.02 * math.sin(20 * x[0])
    grid = A.GridSpec(1, 51)
    pts = grid.points()
    direct = max(abs(f(tuple(r)) - model(tuple(r))) for r in pts)
    shuffled = max(abs(f(tuple(r)) - model(tuple(r))) for r in pts[::-1])
    assert direct == shuffled == A.sup_error(f, A.pointwise(model), grid)


def test_sup_error_monotone_under_refinement():
    f = targets.abs_centered(1)
    model = lambda x: P.bernstein_eval(f, 4, x)
    coarse = A.sup_error(f, A.pointwise(model), A.GridSpec(1, 51))
    fine = A.sup_error(f, A.pointwise(model), A.GridSpec(1, 101))  # contains the 51-point grid
    assert fine >= coarse


def test_sup_error_makes_one_batch_call_on_a_grid_or_point_array():
    f = targets.abs_centered(2)
    calls = []

    def model(xs):
        calls.append(len(xs))
        return np.array([f(tuple(x)) for x in xs]) + 0.01

    grid = A.GridSpec(2, 7)
    assert A.sup_error(f, model, grid) == pytest.approx(0.01)
    assert A.sup_error(f, model, grid.points()[:5]) == pytest.approx(0.01)
    assert calls == [49, 5]


# ---------------------------------------------------------------------------
# L2 and trifling mass
# ---------------------------------------------------------------------------


def test_l2_error_zero_model():
    f = targets.abs_centered(1)
    v, _ = A.l2_error(f, A.pointwise(f), K=4, delta=0.05, samples=10_000, seed=3)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_l2_error_constant_offset():
    f = targets.abs_centered(1)
    model = lambda x: f(x) + 0.1
    v, _ = A.l2_error(f, A.pointwise(model), K=4, delta=0.05, samples=20_000, seed=3)
    assert v == pytest.approx(0.01, abs=1e-6)


def test_l2_error_rejects_few_samples():
    f = targets.abs_centered(1)
    with pytest.raises(ValueError):
        A.l2_error(f, A.pointwise(f), K=4, delta=0.05, samples=100, seed=0)


def test_trifling_mass_within_cap():
    for d, K, delta in [(1, 4, 0.05), (2, 2, 0.1)]:
        mass, sigma = A.trifling_mass_estimate(d, K, delta, 20_000, seed=1)
        assert mass <= d * K * delta + 3 * sigma


def test_trifling_mass_matches_the_scalar_band_loop():
    d, K, delta, samples, seed = 2, 4, 0.0625, 3000, 9
    mass, _ = A.trifling_mass_estimate(d, K, delta, samples, seed)
    spec = P.LocalizationSpec(K, delta, 0.5 / K)
    xs = np.random.default_rng(seed).random((samples, d))
    assert mass == np.mean([any(spec.band_of(c) is None for c in row) for row in xs])


def test_l2_gap_confined_discrepancy():
    # a unit-scale discrepancy confined to the gap region with delta = K^-d
    # contributes at most 4 d K^(1-d) to the squared error
    d, K = 2, 2
    delta = K ** float(-d)
    f = targets.abs_centered(d)
    spec = P.LocalizationSpec(K, delta, 0.4 / K)

    def model(x):
        gap = any(spec.band_of(c) is None for c in x)
        return f(x) + (2.0 if gap else 0.0)

    v, sigma = A.l2_error(f, A.pointwise(model), K, delta, samples=20_000, seed=11)
    assert v <= 4 * d * K ** (1 - d) + 3 * sigma


# ---------------------------------------------------------------------------
# rate_fit
# ---------------------------------------------------------------------------


def test_rate_fit_exact_power_laws():
    ks = [2, 4, 8, 16]
    assert A.rate_fit([(k, 3.0 * k**-2.0) for k in ks]) == pytest.approx(-2.0)
    assert A.rate_fit([(k, 0.5 * k**-1.0) for k in ks]) == pytest.approx(-1.0)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        A.rate_fit([(2, 0.1), (4, 0.05)])
    with pytest.raises(ValueError):
        A.rate_fit([(2, 0.1), (4, 0.0), (8, 0.01)])


# ---------------------------------------------------------------------------
# Model-size comparison
# ---------------------------------------------------------------------------


def test_fnn_compare_ratio_consistency():
    spec = A.FnnComparisonSpec(6, 3, 0.1, 0.5)
    comp = A.fnn_compare(spec)
    direct = 10.0 ** (comp.log10_pqc_params - comp.log10_fnn_params)
    assert 10.0 ** comp.log10_param_ratio == pytest.approx(direct, rel=1e-12)


def test_fnn_compare_monotone_in_d():
    ratios = [
        A.fnn_compare(A.FnnComparisonSpec(d, 5, 0.1, 0.5)).log10_param_ratio
        for d in range(10, 31)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_fnn_compare_spec_validation():
    with pytest.raises(ValueError):
        A.FnnComparisonSpec(5, 5, 0.1, 1.5)
    with pytest.raises(ValueError):
        A.FnnComparisonSpec(0, 5, 0.1, 0.5)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_error_report_pass_flag():
    r = A.ErrorReport(sup_error=0.1, bound=0.2, bound_name="x", tol_agg=0.0)
    assert r.passed
    r = A.ErrorReport(sup_error=0.3, bound=0.2, bound_name="x", tol_agg=0.05)
    assert not r.passed


def test_error_report_json_fields():
    import json

    from pqcapprox.sim import ResourceCount

    r = A.ErrorReport(
        sup_error=0.1,
        bound=0.2,
        bound_name="band-tolerance",
        tol_agg=1e-9,
        resources=ResourceCount(3, 7, 5, 11),
        region="union_q_eta",
        seed=42,
    )
    doc = json.loads(r.to_json())
    for key in ("sup_error", "l2_error", "bound", "bound_name", "tol_agg",
                "resources", "region", "seed"):
        assert key in doc
    assert doc["resources"] == {"width": 3, "depth": 7, "params": 5, "gates": 11}
