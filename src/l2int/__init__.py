"""Two-sorted typed lambda calculus for bi-intuitionistic logic.

Proof terms and refutation terms, Curry-style checking and principal
type inference, reduction to normal form, the duality involution, and
decision procedures for when two derivations denote or express the same
thing.
"""

from .derivation import Derivation, Judgment, PolarityViolation, RuleViolation, check_polarities, height, validate
from .duality import dual_basis, dual_derivation, dual_formula, dual_term
from .meaning import (
    SenseDescriptor,
    SenseEntry,
    canonical_variable_form,
    denotation,
    identical,
    identity_verdict,
    sense,
    synonymous,
    synonymy_verdict,
)
from .rewrite import (
    DEFAULT_FUEL,
    FuelExhausted,
    NormalizeResult,
    NotARedex,
    RedexPosition,
    TraceStep,
    find_redexes,
    is_normal,
    normalize,
    step,
)
from .syntax import (
    MINUS,
    PLUS,
    Abort,
    And,
    App,
    Atom,
    Basis,
    Bot,
    Case,
    CoImp,
    Falsum,
    Formula,
    Fst,
    Imp,
    Inl,
    Inr,
    Lam,
    MetaVar,
    MPair,
    Or,
    Pair,
    Pi1,
    Pi2,
    Polarity,
    Snd,
    Term,
    Top,
    Var,
    Verum,
    alpha_eq,
    free_vars,
    substitute,
)
from .testkit import (
    GenConfig,
    GenerationFailed,
    OracleResult,
    gen_basis,
    gen_derivation,
    gen_derivation_of,
    gen_formula,
    oracle_reduce_all,
)
from .textio import (
    ParseError,
    PolarityError,
    SourceSpan,
    derivation_from_json,
    derivation_to_json,
    parse_formula,
    parse_term,
    print_basis,
    print_formula,
    print_term,
)
from .typecheck import (
    Clash,
    OccursCheck,
    Principal,
    Substitution,
    TypeMismatch,
    TypeScheme,
    UnboundVariable,
    Untypable,
    check,
    infer_principal,
    schemes_equal,
    unify,
)

__version__ = "0.1.0"
