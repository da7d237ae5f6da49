import numpy as np
import pytest

from pqcapprox import circuits as C
from pqcapprox import poly as P
from pqcapprox import targets
from pqcapprox.poly import finite_difference, multi_indices


@pytest.mark.parametrize("name", sorted(targets.CATALOG))
def test_range_within_unit_interval(name):
    d = 1 if name == "halfsine" else 2
    f = targets.by_name(name, d)
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = f(tuple(rng.random(d)))
        assert -1.0 <= v <= 1.0


@pytest.mark.parametrize("name,d", [("abs_centered", 1), ("abs_centered", 2),
                                    ("gauss_bump", 1), ("gauss_bump", 2)])
def test_certified_lipschitz_constant(name, d):
    f = targets.by_name(name, d)
    rng = np.random.default_rng(2)
    for _ in range(500):
        x, y = rng.random(d), rng.random(d)
        lhs = abs(f(tuple(x)) - f(tuple(y)))
        assert lhs <= f.lipschitz * float(np.max(np.abs(x - y))) + 1e-12


@pytest.mark.parametrize("name,d", [("halfsine", 1), ("product_sines", 2)])
def test_derivative_oracle_matches_finite_differences(name, d):
    f = targets.by_name(name, d)
    rng = np.random.default_rng(3)
    for alpha in multi_indices(d, 2):
        x = tuple(0.2 + 0.6 * rng.random(d))
        fd = finite_difference(f.evaluator, alpha, x)
        exact = f.derivative_oracle(alpha, x)
        assert fd == pytest.approx(exact, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_sines_unit_smoothness(d):
    # every derivative up to order 2 stays within the unit certificate
    f = targets.product_sines(d)
    rng = np.random.default_rng(4)
    for alpha in multi_indices(d, 2):
        for _ in range(100):
            x = tuple(rng.random(d))
            assert abs(f.derivative_oracle(alpha, x)) <= 1.0 + 1e-12


def test_halfsine_taylor_coeffs_within_unit():
    f = targets.halfsine()
    for k in range(5):
        assert abs(f.derivative_oracle((k,), (0.37,))) <= 0.5 + 1e-12


def test_unknown_target_rejected():
    with pytest.raises(KeyError):
        targets.by_name("nope")


@pytest.mark.parametrize("name", sorted(targets.CATALOG))
def test_catalog_targets_are_values(name):
    """Separately fetched specs of one target compare and hash equal."""
    d = 1 if name == "halfsine" else 2
    f, g = targets.by_name(name, d), targets.by_name(name, d)
    assert f == g and hash(f) == hash(g)


def test_bernstein_builds_of_one_target_share_its_grid_values():
    """Two builds from separately fetched targets sample the grid once."""
    P._grid_values.cache_clear()
    for _ in range(2):
        C.build_bernstein_pqc(targets.by_name("abs_centered", 2), 3)
    assert P._grid_values.cache_info().currsize == 1
