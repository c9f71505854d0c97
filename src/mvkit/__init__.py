"""mvkit: exact computation with finite and symbolically presented MV-algebras.

Finite algebras are operation tables with verified axioms; they decompose
into products of Lukasiewicz chains, carry a full ideal/quotient calculus,
and admit explicitly computed profinite completions.  Infinite products of
chains are handled symbolically through eventually periodic presentations:
ultrafilter limits, a maximal-ideal census, and the strong-completeness
decision procedure.
"""

from .completion import (
    CenterCompletionReport,
    CenterCorrespondenceReport,
    CompletionResult,
    InverseSystem,
    build_inverse_system,
    profinite_completion,
    verify_center_completion_commute,
    verify_center_correspondence,
)
from .errors import (
    DecompositionError,
    DomainError,
    IndexRangeError,
    InternalConsistencyError,
    MismatchedChainError,
    MVAxiomError,
    MVKitError,
    NotAnIdealError,
    NotCentralError,
    PreconditionError,
    ResourceCapError,
    SchemaError,
    UltrafilterError,
)
from .finite import (
    DEFAULT_MAX_SIZE,
    Decomposition,
    FiniteMVAlgebra,
    are_isomorphic,
    as_tables,
    boolean_center,
    center_algebra,
    chain_algebra,
    decompose,
    from_tables,
    interval_algebra,
    product,
    relabel,
    trivial_algebra,
)
from .ideals import (
    Ideal,
    IdealClassification,
    all_ideals,
    classify,
    generated_ideal,
    improper_ideal,
    is_ideal,
    is_regular,
    make_ideal,
    maximal_decomposition,
    quotient,
    zero_ideal,
)
from .symbolic import (
    DEFAULT_MAX_TRUNCATION,
    INFINITE,
    TOP,
    ZERO,
    CompletionReport,
    ConstClass,
    FreeFactorFamily,
    IndexSpec,
    MaximalIdealDescriptor,
    StrongCompletenessVerdict,
    SymbolicElement,
    SymbolicUltrafilter,
    UnboundedClass,
    completion_report,
    decide_strongly_complete,
    in_kernel,
    maximal_ideal_census,
    top_element,
    truncate,
    truncate_element,
    ultrafilter_limit,
    zero_element,
)

__version__ = "0.1.0"
