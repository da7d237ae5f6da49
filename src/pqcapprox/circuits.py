"""Assembly of the explicit function-approximating circuits.

The constructions follow a single pattern: per-coordinate single-qubit
angle sequences realize univariate factors, tensor products realize
monomials, and a uniform linear-combination-of-unitaries (LCU) wrapper
with Hadamard-layer prep sums terms.  Because the uniform LCU produces
the sum divided by the padded term count, every BlockCircuit carries an
explicit classical ``rescale`` factor that restores normalization at
readout; nested combinations multiply the factors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as _np_poly
from scipy import special

from . import qsp, sim
from .poly import (
    LocalizationSpec,
    MultiIndex,
    MultivariatePolynomial,
    MultivariateTrigPolynomial,
    ParityPolynomial,
    Polynomial,
    TargetFunctionSpec,
    chebyshev_grid,
    localization_poly,
    multi_indices,
    parity_split,
    taylor_expand,
)
from .sim import Circuit, EncodingSlot, Gate, encoding_gate, h, rz, xg, zg

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlockCircuit:
    """A circuit whose Hadamard-test block value encodes a function value.

    ``evaluate_block(self, x)`` returns rescale * <psi|U(x)|psi> with
    |psi> = prep|0..0>; ``tol`` is an upper estimate of the synthesis error
    already expressed at readout scale.
    """

    circuit: Circuit
    prep: Circuit
    rescale: float
    block_value_is_real: bool = True
    tol: float = 0.0

    def __post_init__(self) -> None:
        if self.rescale < 1.0 - 1e-12:
            raise ValueError("rescale must be >= 1")
        if self.circuit.width != self.prep.width:
            raise ValueError("circuit and prep widths differ")

    @property
    def width(self) -> int:
        return self.circuit.width

    @cached_property
    def programs(self) -> tuple[sim.GateProgram, ...]:
        """Compiled Hadamard tests: the real part, then the imaginary part
        unless the block value is known to be real."""
        parts = ("real",) if self.block_value_is_real else ("real", "imaginary")
        return tuple(
            sim.GateProgram(sim.hadamard_test_circuit(self.circuit, self.prep, part))
            for part in parts
        )


def evaluate_block(
    bc: BlockCircuit,
    x: Optional[Sequence[float] | np.ndarray] = None,
    start: Optional[np.ndarray] = None,
):
    """Represented value: Hadamard-test block value times the rescale factor.

    One point x (shape (d,), or None for a block without encoding slots)
    gives one value.  An (N, d) array x, or N ``start`` indices, gives the
    (N,) values of a batch run.  ``start`` holds each point's initial
    basis-state index of the work register, on which prep then acts
    (default |0..0>).  One point runs as a batch of one.
    """
    xs = None if x is None else np.asarray(x, dtype=float)
    one = start is None and (xs is None or xs.ndim == 1)
    if one:
        if xs is None:
            start = np.zeros(1, dtype=int)
        else:
            xs = xs[None]
    # the ancilla is qubit 0 and starts in |0>, so a work-register index is
    # also the index of the whole Hadamard-test state
    values = [sim.expectations_z0(p, xs, start) for p in bc.programs]
    if bc.block_value_is_real:
        out = values[0] * bc.rescale
    else:
        re, im = values
        out = (re + 1j * im) * bc.rescale
    return out[0].item() if one else out


# ---------------------------------------------------------------------------
# Single-qubit line circuits
# ---------------------------------------------------------------------------


def qsp_line(angles: Sequence[float], slot: EncodingSlot) -> tuple[Gate, ...]:
    """Gate list (application order) of the X-encoding angle sequence."""
    q = 0  # lines are built on qubit 0 and shifted by callers
    gates: list[Gate] = []
    for theta in reversed(angles[1:]):
        gates.append(rz(q, float(theta), trainable=True))
        gates.append(encoding_gate(q, slot))
    gates.append(rz(q, float(angles[0]), trainable=True))
    return tuple(gates)


def trig_line(params: qsp.TrigQspParams, slot: EncodingSlot) -> tuple[Gate, ...]:
    """Gate list (application order) of the Z-encoding parameter sequence."""
    q = 0
    gates: list[Gate] = []
    for theta, phi in zip(reversed(params.thetas[1:]), reversed(params.phis[1:])):
        gates.append(rz(q, float(phi), trainable=True))
        gates.append(Gate("Ry", (q,), angle=float(theta), trainable=True))
        gates.append(encoding_gate(q, slot))
    gates.append(rz(q, float(params.phis[0]), trainable=True))
    gates.append(Gate("Ry", (q,), angle=float(params.thetas[0]), trainable=True))
    gates.append(rz(q, float(params.omega), trainable=True))
    return tuple(gates)


@cache
def synthesize_cached(p: ParityPolynomial, tol: float = 1e-11) -> qsp.QspAngleSequence:
    return qsp.qsp_synthesize(p, tol=tol)


def _monomial_target(coeff: float, power: int) -> ParityPolynomial:
    coeffs = [0.0] * power + [coeff] if power > 0 else [coeff]
    return ParityPolynomial(Polynomial(tuple(coeffs)), power % 2)


# ---------------------------------------------------------------------------
# Monomial circuits
# ---------------------------------------------------------------------------


def build_monomial_pqc(
    c: float,
    alpha: MultiIndex,
    shifts: Optional[Sequence[float]] = None,
    tol: float = 1e-11,
) -> BlockCircuit:
    """d parallel angle sequences realizing c * prod_j (x_j - shift_j)^alpha_j.

    The coefficient rides on the first coordinate's sequence.  Width is d,
    depth at most 2*|alpha| + 1, trainable parameters |alpha| + d.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("negative monomial exponent")
    if abs(c) > 1.0 + 1e-12:
        raise ValueError("monomial coefficient must satisfy |c| <= 1")
    d = len(alpha)
    shifts = tuple(shifts) if shifts is not None else (0.0,) * d
    gates: list[Gate] = []
    total_res = 0.0
    for j, power in enumerate(alpha):
        coeff = min(max(c, -1.0), 1.0) if j == 0 else 1.0
        angles = synthesize_cached(_monomial_target(coeff, power), tol)
        total_res += angles.residual
        slot = EncodingSlot(j, "acos", shifts[j])
        line = Circuit(1, qsp_line(angles.angles, slot)).shifted(j, d)
        gates.extend(line.gates)
    circuit = Circuit(d, tuple(gates), label=f"monomial c={c:.6g} alpha={alpha}")
    prep = Circuit(d, tuple(h(j) for j in range(d)), label="plus-prep")
    return BlockCircuit(circuit, prep, rescale=1.0, tol=total_res)


# ---------------------------------------------------------------------------
# LCU combination
# ---------------------------------------------------------------------------


def _prep_kinds(prep: Circuit) -> list[str]:
    kinds = ["zero"] * prep.width
    for g in prep.gates:
        q = g.targets[0]
        if g.kind == "H" and kinds[q] == "zero":
            kinds[q] = "plus"
        elif g.kind == "X" and kinds[q] in ("zero", "one"):
            kinds[q] = "one" if kinds[q] == "zero" else "zero"
        else:
            kinds[q] = "other"
    return kinds


def _pad_gate(prep: Circuit) -> Gate:
    """A single gate with exactly zero block value under the given prep."""
    kinds = _prep_kinds(prep)
    for q, k in enumerate(kinds):
        if k == "plus":
            return zg(q)  # <+|Z|+> = 0
    for q, k in enumerate(kinds):
        if k in ("zero", "one"):
            return xg(q)  # <b|X|b> = 0 for basis states
    raise ValueError("no qubit with a known zero-block pad under this prep")


def lcu_combine(units: Sequence[BlockCircuit], label: str = "lcu") -> BlockCircuit:
    """Uniform linear combination of unit blocks.

    Pads the unit count to a power of two with zero-block units, prepends a
    Hadamard-prepped selection register, and applies each unit controlled on
    its selection pattern.  The block value becomes (1/T_pad) * sum of unit
    block values; the rescale factor absorbs T_pad times the (shared) unit
    rescale.
    """
    if not units:
        raise ValueError("lcu_combine needs at least one unit")
    w = units[0].width
    prep = units[0].prep
    rescale = units[0].rescale
    real = units[0].block_value_is_real
    for u in units[1:]:
        if u.width != w or u.prep != prep:
            raise ValueError("all units must share width and prep")
        if abs(u.rescale - rescale) > 1e-9 * rescale:
            raise ValueError("mixed rescale factors among units")
    if len(units) == 1:
        u = units[0]
        return replace(u, circuit=replace(u.circuit, label=label))

    t = len(units)
    a = (t - 1).bit_length()
    t_pad = 1 << a
    width = a + w
    pad = _pad_gate(prep)

    gates: list[Gate] = [h(i) for i in range(a)]
    selectors = list(range(a))
    for j in range(t_pad):
        if j < t:
            body = units[j].circuit.shifted(a, width)
        else:
            body = Circuit(w, (pad,), label="pad").shifted(a, width)
        mask = [xg(i) for i in range(a) if not (j >> (a - 1 - i)) & 1]
        gates.extend(mask)
        gates.extend(body.controlled_on(selectors).gates)
        gates.extend(mask)
    gates.extend(h(i) for i in range(a))

    circuit = Circuit(width, tuple(gates), label=label)
    new_prep = prep.shifted(a, width)
    return BlockCircuit(
        circuit,
        new_prep,
        rescale=rescale * t_pad,
        block_value_is_real=real,
        tol=sum(u.tol for u in units),
    )


# ---------------------------------------------------------------------------
# Multivariate polynomials
# ---------------------------------------------------------------------------


def build_poly_pqc(p: MultivariatePolynomial, tol: float = 1e-11) -> BlockCircuit:
    """LCU of monomial circuits realizing the multivariate polynomial.

    Coefficients with |c| > 1 cannot ride a single angle sequence, so the
    polynomial is scaled down by max(1, max |c_alpha|) and the factor moves
    into the rescale.
    """
    if not p.terms:
        raise ValueError("cannot build a circuit for the empty polynomial")
    scale = max(1.0, p.max_abs_coeff())
    alphas = sorted(p.terms.keys())
    units = [build_monomial_pqc(p.terms[a] / scale, a, tol=tol) for a in alphas]
    combined = lcu_combine(units, label=f"poly d={p.dims} terms={len(alphas)}")
    return replace(
        combined, rescale=combined.rescale * scale, tol=combined.tol * scale
    )


# ---------------------------------------------------------------------------
# Width-2 univariate units and Bernstein circuits
# ---------------------------------------------------------------------------


def build_parity_pair_pqc(
    p: Polynomial,
    coord: int = 0,
    scale: Optional[float] = None,
    tol: float = 1e-11,
) -> BlockCircuit:
    """Width-2 unit realizing a mixed-parity univariate polynomial.

    The even and odd halves are synthesized separately (each scaled by a
    common factor M so the halves fit the unit sup-norm bound on [-1, 1])
    and summed with a one-ancilla uniform LCU: qubit 0 selects the half,
    qubit 1 carries the data.  The represented value is p(x) after the
    rescale 2*M.
    """
    even, odd = parity_split(p)
    grid = chebyshev_grid(max(1000, 10 * (p.degree + 1)))
    m_needed = max(
        float(np.max(np.abs(even(grid)))), float(np.max(np.abs(odd(grid)))), 1.0
    )
    m = scale if scale is not None else m_needed
    if m < m_needed - 1e-12:
        raise ValueError(f"scale {m} below the required half norm {m_needed}")
    try:
        ang_even = synthesize_cached(ParityPolynomial(even.base.scaled(1.0 / m), 0), tol)
        ang_odd = synthesize_cached(ParityPolynomial(odd.base.scaled(1.0 / m), 1), tol)
    except qsp.QspSynthesisError as err:
        # halves whose sup norm sits exactly at 1 can stall the solver; pull
        # the target strictly inside and fold the margin into the rescale
        logger.debug(
            "parity pair degree %d: %s; retrying at scale %g", p.degree, err, m / 0.999
        )
        m = m / 0.999
        ang_even = synthesize_cached(ParityPolynomial(even.base.scaled(1.0 / m), 0), tol)
        ang_odd = synthesize_cached(ParityPolynomial(odd.base.scaled(1.0 / m), 1), tol)

    slot = EncodingSlot(coord, "acos", 0.0)
    even_line = Circuit(2, Circuit(1, qsp_line(ang_even.angles, slot)).shifted(1, 2).gates)
    odd_line = Circuit(2, Circuit(1, qsp_line(ang_odd.angles, slot)).shifted(1, 2).gates)
    gates: list[Gate] = [h(0), xg(0)]
    gates.extend(even_line.controlled_on((0,)).gates)
    gates.append(xg(0))
    gates.extend(odd_line.controlled_on((0,)).gates)
    gates.append(h(0))
    circuit = Circuit(2, tuple(gates), label=f"parity-pair deg={p.degree}")
    prep = Circuit(2, (h(1),), label="plus-prep")
    return BlockCircuit(
        circuit,
        prep,
        rescale=2.0 * m,
        tol=m * (ang_even.residual + ang_odd.residual),
    )


def _bernstein_factor(n: int, k: int) -> Polynomial:
    """binom(n, k) * x^k * (1 - x)^(n - k) in the power basis."""
    xk = np.zeros(k + 1)
    xk[k] = float(special.comb(n, k, exact=True))
    rest = _np_poly.polypow([1.0, -1.0], n - k) if n > k else np.array([1.0])
    return Polynomial(tuple(_np_poly.polymul(xk, rest)))


def build_bernstein_pqc(
    f: TargetFunctionSpec, n: int, tol: float = 1e-12
) -> BlockCircuit:
    """Circuit evaluating the degree-n Bernstein polynomial of f.

    One width-2 parity-pair unit per coordinate per grid node; the node
    value f(k/n) rides the first coordinate's unit.  The outer LCU runs
    over all (n+1)^d nodes.
    """
    d = f.dims
    factors = [_bernstein_factor(n, k) for k in range(n + 1)]
    grid = chebyshev_grid(max(1000, 10 * (n + 1)))
    m_common = 1.0
    for poly in factors:
        e, o = parity_split(poly)
        m_common = max(
            m_common, float(np.max(np.abs(e(grid)))), float(np.max(np.abs(o(grid))))
        )
    m_common /= 0.999  # strictly interior targets; the margin rides the rescale

    units = []
    for kvec in product(range(n + 1), repeat=d):
        fval = float(np.clip(f.evaluator(tuple(k / n for k in kvec)), -1.0, 1.0))
        width = 2 * d
        gates: list[Gate] = []
        tol_unit = 0.0
        for j, k in enumerate(kvec):
            poly = factors[k].scaled(fval) if j == 0 else factors[k]
            pair = build_parity_pair_pqc(poly, coord=j, scale=m_common, tol=tol)
            tol_unit += pair.tol / pair.rescale  # block-level error of this pair
            gates.extend(pair.circuit.shifted(2 * j, width).gates)
        circuit = Circuit(width, tuple(gates), label=f"bernstein-term k={kvec}")
        prep = Circuit(width, tuple(h(2 * j + 1) for j in range(d)), label="plus-prep")
        units.append(
            BlockCircuit(
                circuit,
                prep,
                rescale=(2.0 * m_common) ** d,
                tol=tol_unit * (2.0 * m_common) ** d,
            )
        )
    return lcu_combine(units, label=f"bernstein d={d} n={n}")


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

@cache
def localization_angles(spec: LocalizationSpec) -> qsp.QspAngleSequence:
    return qsp.qsp_synthesize(ParityPolynomial(localization_poly(spec), 0), tol=1e-9)


def build_localization_pqc(spec: LocalizationSpec, d: int) -> list[BlockCircuit]:
    """One single-qubit block per coordinate mapping band k into (k/K, k/K+eps)."""
    angles = localization_angles(spec)
    blocks = []
    for j in range(d):
        slot = EncodingSlot(j, "acos", 0.0)
        circuit = Circuit(
            1, qsp_line(angles.angles, slot), label=f"localization K={spec.K} x{j}"
        )
        prep = Circuit(1, (h(0),), label="plus-prep")
        blocks.append(BlockCircuit(circuit, prep, rescale=1.0, tol=angles.residual))
    return blocks


def localization_values(spec: LocalizationSpec, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Fast block values of every coordinate, in x's shape (identical to the
    Hadamard test); x is one point or an (N, d) array of points."""
    angles = localization_angles(spec)
    xs = np.asarray(x, dtype=float)
    return np.real(qsp.qsp_block_values(angles.angles, xs.ravel())).reshape(xs.shape)


def round_to_eta(values: Sequence[float] | np.ndarray, K: int) -> MultiIndex | np.ndarray:
    """Per-coordinate floor(K * value), clamped into {0, ..., K-1}.

    One point's values give a tuple; an (N, d) array gives an integer array.
    """
    v = np.asarray(values, dtype=float)
    if not np.all((v >= -1e-9) & (v <= 1.0 + 1e-9)):  # NaN fails too
        bad = v[~((v >= -1e-9) & (v <= 1.0 + 1e-9))]
        raise ValueError(f"localization output {bad[0]} outside [0, 1]")
    cells = np.clip(np.floor(K * v).astype(int), 0, K - 1)
    return tuple(int(c) for c in cells) if v.ndim == 1 else cells


# ---------------------------------------------------------------------------
# Taylor coefficient register and Taylor series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorCoeffTable:
    """Scaled derivatives xi[(eta, alpha)] = d^alpha f(eta/K) / alpha!."""

    K: int
    s: int
    d: int
    xi: Mapping[tuple[MultiIndex, MultiIndex], float]

    def __post_init__(self) -> None:
        for (eta, alpha), v in self.xi.items():
            if abs(v) > 1.0 + 1e-9:
                raise ValueError(f"coefficient {v} at {(eta, alpha)} outside [-1, 1]")

    @classmethod
    def from_target(cls, f: TargetFunctionSpec, K: int, s: int) -> "TaylorCoeffTable":
        xi = {}
        for eta in product(range(K), repeat=f.dims):
            expansion = taylor_expand(f, tuple(e / K for e in eta), s)
            for alpha in multi_indices(f.dims, s):
                xi[(eta, alpha)] = float(
                    np.clip(expansion.terms.get(alpha, 0.0), -1.0, 1.0)
                )
        return cls(K, s, f.dims, xi)

    @property
    def address_bits(self) -> int:
        return self.d * max(1, (self.K - 1).bit_length()) if self.K > 1 else 0


def _address(table: TaylorCoeffTable, eta: MultiIndex | np.ndarray) -> int | np.ndarray:
    """Value of the address register holding cell eta, or of each row of an
    (N, d) array of cells.

    Each coordinate takes address_bits // d bits, big-endian, coordinate 0
    first; address qubit q holds bit address_bits - 1 - q of the value.
    """
    cells = np.asarray(eta, dtype=int)
    if cells.shape[-1:] != (table.d,) or cells.size and (cells.min() < 0 or cells.max() >= table.K):
        raise ValueError(f"invalid address {eta}")
    m = table.address_bits // table.d
    return (cells << (m * np.arange(table.d - 1, -1, -1))).sum(axis=-1)


def _address_bits(table: TaylorCoeffTable, eta: MultiIndex) -> list[int]:
    """The bit of each address qubit when the register holds cell eta."""
    value, bits = int(_address(table, eta)), table.address_bits
    return [(value >> (bits - 1 - q)) & 1 for q in range(bits)]


def build_taylor_coeff_pqc(table: TaylorCoeffTable, alpha: MultiIndex) -> Circuit:
    """Address-controlled rotations storing the order-alpha coefficients.

    For every grid cell eta one multi-controlled R_X with angle
    2*arccos(xi) targets the coefficient qubit; the diagonal block at
    address eta then reads xi exactly.
    """
    bits = table.address_bits
    width = bits + 1
    coeff_q = bits
    gates: list[Gate] = []
    for eta in product(range(table.K), repeat=table.d):
        xi = table.xi[(eta, tuple(alpha))]
        theta = 2.0 * math.acos(xi)
        if bits == 0:
            gates.append(Gate("Rx", (coeff_q,), angle=theta, trainable=True))
            continue
        mask = [xg(q) for q, bit in enumerate(_address_bits(table, eta)) if not bit]
        gates.extend(mask)
        gates.append(
            Gate("MCU", (coeff_q,), tuple(range(bits)), angle=theta, trainable=True, sub="Rx")
        )
        gates.extend(mask)
    return Circuit(width, tuple(gates), label=f"taylor-coeff alpha={tuple(alpha)}")


def build_taylor_series_pqc(
    table: TaylorCoeffTable, eta: MultiIndex, tol: float = 1e-11
) -> BlockCircuit:
    """LCU over Taylor terms; with the address register prepared in |eta>,
    the block value is sum_alpha xi[eta, alpha] * (x - eta/K)^alpha.

    Only the prep and the data shifts depend on eta: ``NestedTaylorModel``
    reads every cell from the block of cell 0 (see ``series_start``).
    """
    eta = tuple(int(e) for e in eta)
    bits = table.address_bits
    d = table.d
    width = bits + 1 + d
    shifts = tuple(e / table.K for e in eta)

    units = []
    prep_gates = [xg(q) for q, bit in enumerate(_address_bits(table, eta)) if bit]
    prep_gates.extend(h(bits + 1 + j) for j in range(d))
    prep = Circuit(width, tuple(prep_gates), label=f"eta-prep {eta}")

    for alpha in multi_indices(d, table.s):
        coeff_circ = build_taylor_coeff_pqc(table, alpha)
        gates = list(coeff_circ.shifted(0, width).gates)
        mono = build_monomial_pqc(1.0, alpha, shifts=shifts, tol=tol)
        gates.extend(mono.circuit.shifted(bits + 1, width).gates)
        circuit = Circuit(width, tuple(gates), label=f"taylor-term alpha={alpha}")
        units.append(BlockCircuit(circuit, prep, rescale=1.0, tol=mono.tol))
    return lcu_combine(units, label=f"taylor-series eta={eta} s={table.s}")


def series_start(table: TaylorCoeffTable, eta: np.ndarray) -> np.ndarray:
    """Work-register basis index of a series block with the address register
    in |eta> and every other qubit in |0>, for each row of (N, d) cells.

    The LCU selection register leads and the coefficient qubit and the d
    data qubits follow the address register, so the address value sits
    d + 1 bits up.
    """
    return _address(table, eta) << (table.d + 1)


class NestedEval(NamedTuple):
    value: float
    eta: MultiIndex
    in_trifling: bool


class NestedTaylorModel:
    """Localization nested with local Taylor series.

    Evaluation localizes x (per-coordinate block values, rounded to the cell
    index eta) and reads one shared Taylor-series block, the block of cell
    0, with its Hadamard test started from |eta> on the address register at
    input x - eta/K.  That equals the block of cell eta, whose prep writes
    eta and whose data slots are shifted by eta/K.  A call takes one point
    or an (N, d) array of points.
    """

    def __init__(
        self,
        f: TargetFunctionSpec,
        spec: LocalizationSpec,
        s: int,
        tol: float = 1e-11,
    ):
        if f.holder is None or f.holder[1] > 1.0 + 1e-12:
            raise ValueError("nested construction needs a unit smoothness certificate")
        self.f = f
        self.spec = spec
        self.s = s
        self.tol = tol
        self.table = TaylorCoeffTable.from_target(f, spec.K, s)
        self.loc_blocks = build_localization_pqc(spec, f.dims)
        self.series = build_taylor_series_pqc(self.table, (0,) * f.dims, tol)

    @property
    def tol_agg(self) -> float:
        return sum(b.tol for b in self.loc_blocks) + self.series.tol

    def evaluate(self, x: Sequence[float] | np.ndarray) -> NestedEval:
        """The value, cell and gap flag of one point, or arrays of them over
        the rows of an (N, d) array."""
        xs = np.asarray(x, dtype=float)
        pts = np.atleast_2d(xs)
        eta, values = self._read(pts)
        trifling = (self.spec.bands_of(pts) < 0).any(axis=1)
        if xs.ndim == 1:
            return NestedEval(float(values[0]), tuple(int(e) for e in eta[0]), bool(trifling[0]))
        return NestedEval(values, eta, trifling)

    def __call__(self, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """The value at one point, or the values at the rows of an (N, d) array."""
        xs = np.asarray(x, dtype=float)
        values = self._read(np.atleast_2d(xs))[1]
        return float(values[0]) if xs.ndim == 1 else values

    def _read(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells and values at the rows of an (N, d) array."""
        eta = round_to_eta(localization_values(self.spec, pts), self.spec.K)
        values = evaluate_block(
            self.series, pts - eta / self.spec.K, start=series_start(self.table, eta)
        )
        return eta, values


# ---------------------------------------------------------------------------
# Trigonometric circuits
# ---------------------------------------------------------------------------


def build_trig_monomial_pqc(c: complex, n: Sequence[int]) -> BlockCircuit:
    """d parallel Z-encoding sequences realizing c * exp(i n . x).

    Exact parameters (no optimization): positive and negative frequencies
    use the diagonal of the encoding product, the coefficient rides the
    first coordinate.  Depth is at most 6|n| + 3, parameters 4|n| + 3d.
    """
    n = tuple(int(v) for v in n)
    if abs(c) > 1.0 + 1e-12:
        raise ValueError("trig coefficient must satisfy |c| <= 1")
    d = len(n)
    gates: list[Gate] = []
    for j, freq in enumerate(n):
        coeff = c if j == 0 else 1.0
        params = qsp.trig_monomial_params(coeff, freq)
        slot = EncodingSlot(j, "zrot", 0.0)
        line = Circuit(1, trig_line(params, slot)).shifted(j, d)
        gates.extend(line.gates)
    circuit = Circuit(d, tuple(gates), label=f"trig-monomial c={c:.6g} n={n}")
    prep = Circuit(d, (), label="zero-prep")
    return BlockCircuit(circuit, prep, rescale=1.0, block_value_is_real=False)


def build_trig_poly_pqc(t: MultivariateTrigPolynomial) -> BlockCircuit:
    """LCU over trigonometric monomial units realizing t(x)."""
    if not t.terms:
        raise ValueError("cannot build a circuit for the empty polynomial")
    units = [build_trig_monomial_pqc(cn, n) for n, cn in sorted(t.terms.items())]
    return lcu_combine(units, label=f"trig-poly d={t.dims} terms={len(units)}")
