"""`import l2int` loads no module of the package, and each `l2i` command
loads only the modules it uses.  What a process has loaded is read in a
process of its own, which no other test can have preloaded anything into."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import l2int
from conftest import DATA

# The names the package exported when it imported every module up front.
EXPORTS = {
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

# Runs the code after it in a fresh interpreter, then prints the package's
# modules that are loaded, space separated, as the last line of stdout.
LOADED = "\nprint(' '.join(sorted(m.removeprefix('l2int.') for m in sys.modules if m.startswith('l2int.'))))"


def _loaded_after(code: str, *argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(l2int.__file__).parents[1])}
    r = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + LOADED, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(r.stdout.splitlines()[-1].split())


def test_import_l2int_loads_no_module():
    assert _loaded_after("import l2int") == set()


@pytest.mark.parametrize("argv, unloaded", [
    (("normalize", "-e", "app+((\\x+. x+)+, y+)"), {"typecheck", "meaning", "duality", "testkit"}),
    (("check", str(DATA / "worked_first.json")), {"typecheck", "meaning", "duality", "testkit", "rewrite"}),
], ids=["normalize", "check"])
def test_a_command_leaves_the_modules_it_does_not_use_unloaded(argv, unloaded):
    loaded = _loaded_after("from l2int.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    assert {"cli", "syntax", "derivation", "textio"} <= loaded
    assert not loaded & unloaded


def test_every_exported_name_is_its_module_s_object():
    assert sorted(l2int.__all__) == sorted(n for names in EXPORTS.values() for n in names.split())
    assert len(l2int.__all__) == 92
    for module, names in EXPORTS.items():
        for name in names.split():
            assert getattr(l2int, name) is getattr(import_module(f"l2int.{module}"), name), name


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from l2int import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(l2int.__all__)
    assert set(l2int.__all__) <= set(dir(l2int))
    with pytest.raises(AttributeError, match="no_such_name"):
        l2int.no_such_name
    assert _loaded_after("from l2int import cli") == {"cli", "syntax", "derivation", "textio"}
