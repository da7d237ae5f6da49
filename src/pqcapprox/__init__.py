"""Explicit parameterized-quantum-circuit approximators with exact simulation.

Construct circuits that provably represent multivariate polynomials,
Bernstein approximants, band localizers, and piecewise Taylor expansions;
simulate them exactly; and check the empirical errors against the
closed-form bounds.
"""

from .approx import (
    ErrorReport,
    FnnComparison,
    FnnComparisonSpec,
    GridSpec,
    fnn_compare,
    l2_error,
    pointwise,
    rate_fit,
    sup_error,
    trifling_mass_estimate,
)
from .circuits import (
    BlockCircuit,
    NestedTaylorModel,
    TaylorCoeffTable,
    build_bernstein_pqc,
    build_localization_pqc,
    build_monomial_pqc,
    build_parity_pair_pqc,
    build_poly_pqc,
    build_taylor_coeff_pqc,
    build_taylor_series_pqc,
    build_trig_monomial_pqc,
    build_trig_poly_pqc,
    evaluate_block,
    lcu_combine,
    localization_values,
    round_to_eta,
)
from .poly import (
    LocalizationSpec,
    MultivariatePolynomial,
    MultivariateTrigPolynomial,
    ParityPolynomial,
    Polynomial,
    TargetFunctionSpec,
    bernstein_eval,
    lipschitz_bernstein_bound,
    localization_poly,
    parity_split,
    sign_approx_poly,
    taylor_expand,
    thm_bounds,
)
from .qsp import (
    QspAngleSequence,
    QspSynthesisError,
    TrigQspParams,
    qsp_synthesize,
    qsp_synthesize_completion,
    qsp_unitary,
    trig_qsp_unitary,
)
from .sim import (
    Circuit,
    Gate,
    GateProgram,
    ResourceCount,
    Statevector,
    decompose_mcu,
    expectation_z0,
    hadamard_test,
    resource_count,
    run,
    sample_shots,
)

__version__ = "0.1.0"
