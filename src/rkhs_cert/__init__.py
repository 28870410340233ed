"""Numerical certification that functions lie outside decaying-kernel RKHSs.

The core object is the witness certificate: a window of sequence points on
which the all-ones quadratic form of the deflated kernel
K(x, y) - c^2 f(x) f(y) is provably negative, refuting the positive
semidefiniteness that membership of f (with norm 1/c) would force.
Certificates are self-contained JSON and re-checkable without trusting the
builder.  Supporting diagnostics: tolerance-aware PSD tests with confirmed
counterexample vectors, kernel decay measurements along point sequences,
closed-form diagonal derivative bounds with analytic growth envelopes, and
minimum-norm interpolant growth traces.
"""

from .analytic import (
    DerivativeReport,
    analyticity_envelope,
    dnn_diagonal,
    envelope_dominates,
    fd_cross_derivative,
    member_derivative_bound,
)
from .errors import (
    ConfigError,
    ExpressionError,
    ProfileDerivativeError,
    SingularGramError,
    WitnessSearchError,
)
from .expressions import Expression, compile_expression
from .functions import (
    CandidateFunction,
    TailBound,
    kernel_section,
    make_constant,
    make_expression_function,
    make_paper_example,
    make_polynomial,
    make_sin_squared_shifted,
    tail_lower_bound,
)
from .interpolant import NormTrace, min_norm_interpolant_norm, norm_growth_trace
from .kernels import (
    KernelSpec,
    RadialProfile,
    builtin_kernel,
    check_analytic_constants,
    custom_radial,
    custom_radial_from_expression,
    make_exp_product,
    make_gaussian,
    make_inverse_quadratic,
    make_laplace,
)
from .quadform import (
    GramMatrix,
    PsdVerdict,
    assemble_gram,
    cholesky_solve,
    neumaier_sum,
    psd_check,
    quadratic_form,
    schur_deflation_control,
)
from .registry import resolve_function, resolve_kernel, resolve_sequence
from .sequences import (
    DecayReport,
    SequenceSpec,
    arithmetic_sequence,
    custom_sequence,
    gap_lower_bound,
    mixed_sign_sequence,
    sign_obstruction_check,
    triangular_sequence,
    verify_decay,
)
from .serialize import (
    canonical_dumps,
    load_json,
    number_to_str,
    str_to_number,
    witness_from_dict,
    witness_to_dict,
    write_json,
)
from .witness import (
    SweepResult,
    WitnessCertificate,
    build_witness,
    default_c_grid,
    evaluate_ones_form,
    find_ell,
    n_threshold,
    resolve_alpha,
    sweep_c,
    verify_certificate,
)

__version__ = "0.1.0"
