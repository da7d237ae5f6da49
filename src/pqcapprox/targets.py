"""Builtin target functions with certified smoothness constants.

Bound-compliance checks need honest constants, so every catalog entry
carries a Lipschitz constant (sup-norm on inputs) and, where applicable, a
unit smoothness certificate (beta, 1) together with an analytic derivative
oracle.  Evaluators and oracles are module functions, so specs built by
separate calls compare and hash equal and share a cache keyed on the spec.
"""

from __future__ import annotations

import math
from typing import Sequence

from .poly import MultiIndex, TargetFunctionSpec


def _abs_centered(x: Sequence[float]) -> float:
    return sum(abs(c - 0.5) for c in x) / len(x)


def abs_centered(d: int = 1) -> TargetFunctionSpec:
    """Mean of per-coordinate distances to 1/2; Lipschitz constant 1."""
    return TargetFunctionSpec(d, _abs_centered, lipschitz=1.0, name="abs_centered")


def _halfsine(x: Sequence[float]) -> float:
    return 0.5 * math.sin(x[0])


def _halfsine_der(alpha: MultiIndex, x: Sequence[float]) -> float:
    return 0.5 * math.sin(x[0] + alpha[0] * math.pi / 2.0)


def halfsine(d: int = 1, beta: float = 2.0) -> TargetFunctionSpec:
    """0.5*sin(x); all derivatives bounded by 0.5, so any beta certifies."""
    if d != 1:
        raise ValueError("halfsine is univariate")
    return TargetFunctionSpec(
        1, _halfsine, derivative_oracle=_halfsine_der, holder=(beta, 1.0), lipschitz=0.5,
        name="halfsine"
    )


def _product_sines(x: Sequence[float]) -> float:
    out = 1.0 / math.pi**2
    for c in x:
        out *= math.sin(math.pi * c)
    return out


def _product_sines_der(alpha: MultiIndex, x: Sequence[float]) -> float:
    out = 1.0 / math.pi**2
    for a, c in zip(alpha, x):
        out *= math.pi**a * math.sin(math.pi * c + a * math.pi / 2.0)
    return out


def product_sines(d: int = 2, beta: float = 2.0) -> TargetFunctionSpec:
    """(1/pi^2) * prod_j sin(pi x_j), scaled into the unit smoothness class.

    Mixed partials pick up pi per order; the 1/pi^2 prefactor keeps all
    derivatives up to order 2 (and their order-2 Lipschitz seminorms)
    bounded by 1 for d <= 3.
    """
    if beta > 2.0:
        raise ValueError("product_sines certifies beta <= 2 only")
    return TargetFunctionSpec(
        d,
        _product_sines,
        derivative_oracle=_product_sines_der,
        holder=(beta, 1.0),
        lipschitz=math.pi * (1.0 / math.pi**2) * d,
        name="product_sines",
    )


def _gauss_bump(x: Sequence[float]) -> float:
    r2 = sum((c - 0.5) ** 2 for c in x)
    return 0.5 * math.exp(-r2)


def gauss_bump(d: int = 1) -> TargetFunctionSpec:
    """0.5*exp(-|x - 1/2|^2); certified Lipschitz constant 0.4*d."""
    return TargetFunctionSpec(d, _gauss_bump, lipschitz=0.4 * d, name="gauss_bump")


CATALOG = {
    "abs_centered": abs_centered,
    "halfsine": halfsine,
    "product_sines": product_sines,
    "gauss_bump": gauss_bump,
}


def by_name(name: str, d: int = 1) -> TargetFunctionSpec:
    if name not in CATALOG:
        raise KeyError(f"unknown target {name!r}; have {sorted(CATALOG)}")
    return CATALOG[name](d)
