"""Exact signatures of hermitian forms over algebras with involution.

All arithmetic is exact (integers, rationals, polynomials, real algebraic
numbers); no floating point enters any computation path.
"""

from .errors import (
    AdmissibilityError,
    BudgetError,
    HermsigError,
    InconsistencyError,
    ParseError,
    ValidationError,
)
from .polynomials import (
    Polynomial,
    RationalFunction,
    format_polynomial,
    parse_polynomial,
    parse_rational_function,
)
from .realroots import (
    AlgebraicReal,
    isolate_real_roots,
    sign_at,
    sign_variation,
    tarski_query,
)
from .sper import (
    AlgebraicPoint,
    CutLeft,
    CutRight,
    MinusInfinity,
    OrderingPoint,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    ensure_admissible,
    parse_ordering,
    point_at,
    sign_of,
)
from .stepfun import (
    Breakpoint,
    StepFunction,
    continuity_failures,
    is_harrison_clopen,
    step_combine,
)
from .constructible import (
    AndSet,
    Constructible,
    HalfSpace,
    NotSet,
    OrSet,
    constructible_indicator,
    empty_set,
    full_set,
    level_to_constructible,
    parse_constructible,
    sets_equal,
)
from .quadform import (
    DiagonalWitness,
    QuadraticForm,
    mahe_indicator,
    pad_indicator,
    signature_at,
    signature_via_diag,
    total_signature,
)
from .azumaya import (
    AlgebraPresentation,
    Classification,
    classification_map,
    classify_at,
    divisor_map,
    fiber_presentation,
    matrix_algebra,
    nil_set,
    product_with_exchange,
    quaternion_algebra,
    split_model,
    tensor_product,
)
from .hermitian import (
    HermitianForm,
    ReferenceForm,
    abs_signature_at,
    build_discontinuous_eta,
    classical_signature_oracle,
    eta_signature_at,
    find_reference_form,
    quad_tensor,
    star,
    star_signature,
    star_total,
    total_abs_signature,
    total_eta_signature,
)
from .documents import (
    format_algebra,
    format_hermitian,
    format_quadratic,
    load_algebra,
    load_hermitian,
    load_quadratic,
    read_document,
)
from .selftest import run_suite
from .svgplot import render_step_svg, write_plot
from .cli import main, run

__version__ = "0.1.0"
