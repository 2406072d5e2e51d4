"""Two-sorted typed lambda calculus for bi-intuitionistic logic.

Proof terms and refutation terms, Curry-style checking and principal
type inference, reduction to normal form, the duality involution, and
decision procedures for when two derivations denote or express the same
thing.

Importing the package loads none of its modules: each name below is
imported from its module when it is first looked up (PEP 562).
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "derivation": "Derivation Judgment PolarityViolation RuleViolation check_polarities height validate",
    "duality": "dual_basis dual_derivation dual_formula dual_term",
    "meaning": "SenseDescriptor SenseEntry canonical_variable_form denotation identical identity_verdict"
    " sense synonymous synonymy_verdict",
    "rewrite": "DEFAULT_FUEL FuelExhausted NormalizeResult NotARedex RedexPosition TraceStep find_redexes"
    " is_normal normalize step",
    "syntax": "MINUS PLUS Abort And App Atom Basis Bot Case CoImp Falsum Formula Fst Imp Inl Inr Lam MetaVar"
    " MPair Or Pair Pi1 Pi2 Polarity Snd Term Top Var Verum alpha_eq free_vars substitute",
    "testkit": "GenConfig GenerationFailed OracleResult gen_basis gen_derivation gen_derivation_of gen_formula"
    " oracle_reduce_all",
    "textio": "ParseError PolarityError SourceSpan derivation_from_json derivation_to_json parse_formula"
    " parse_term print_basis print_formula print_term",
    "typecheck": "Clash OccursCheck Principal Substitution TypeMismatch TypeScheme UnboundVariable Untypable"
    " check infer_principal schemes_equal unify",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its module on first use and kept
    in this module's globals.  Any other name raises AttributeError, so
    that `from l2int import cli` imports the submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
