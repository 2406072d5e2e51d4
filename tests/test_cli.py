import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis as hyp
import pytest
import hypothesis.strategies as st

import l2int
from l2int.cli import main
from l2int.derivation import validate
from l2int.duality import RULE_DUAL, dual_derivation
from l2int.syntax import PLUS, Atom, Basis, Inl, Or, Var
from l2int.testkit import GenConfig, GenerationFailed, gen_derivation
from l2int.textio import derivation_from_json, derivation_to_json, print_formula, print_term
from l2int.typecheck import check
from conftest import DATA, load_worked_pair


FIRST = str(DATA / "worked_first.json")
SECOND = str(DATA / "worked_second.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- check


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", FIRST, SECOND)
    assert code == 0
    assert out.splitlines() == [f"{FIRST}: ok", f"{SECOND}: ok"]


def test_check_invalid_derivation(tmp_path, capsys):
    first, _ = load_worked_pair()
    import dataclasses

    bad = dataclasses.replace(first, rule="AndI")
    p = tmp_path / "bad.json"
    p.write_text(derivation_to_json(bad))
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert out == f"{p}: invalid\n"
    assert "root:" in err


def test_check_prints_formulas_as_written(tmp_path, capsys):
    d = json.loads(Path(FIRST).read_text())
    leaf = d["prems"][0]["prems"][1]["prems"][0]["prems"][0]
    assert leaf["rule"] == "Hyp+"
    leaf["concl"]["type"] = "b & c"
    p = tmp_path / "leaf.json"
    p.write_text(json.dumps(d))
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert "0.1.0.0: x+ is not assumed at b & c in the basis" in err


def test_check_malformed_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert "error" in err


def test_check_file_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"rule": "\xe9"}')
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert err == f"{p}: error: not UTF-8 text: invalid continuation byte at byte 10\n"


def test_check_missing_file_beats_invalid(tmp_path, capsys):
    first, _ = load_worked_pair()
    import dataclasses

    bad = dataclasses.replace(first, rule="AndI")
    p = tmp_path / "bad.json"
    p.write_text(derivation_to_json(bad))
    code, out, err = run(capsys, "check", str(p), str(tmp_path / "absent.json"))
    assert code == 2
    assert f"{p}: invalid" in out


def test_check_deeply_nested_file(tmp_path, capsys):
    deep = "[]"
    for _ in range(5000):
        deep = '[{"rule": "AndI", "concl": {}, "prems": ' + deep + "}]"
    p = tmp_path / "deep.json"
    p.write_text('{"rule": "AndI", "concl": {}, "prems": ' + deep + "}")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert out == ""
    assert err == f"{p}: error: nested too deeply\n"


def test_check_too_deep_formula_in_file(tmp_path, capsys):
    first, _ = load_worked_pair()
    obj = json.loads(derivation_to_json(first))
    obj["concl"]["type"] = "(" * 2000 + "a" + ")" * 2000
    p = tmp_path / "deep_formula.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert out == ""
    assert err == f"{p}: error: nested too deeply\n"


# ------------------------------------------------------------------- infer


def test_infer_identity_golden(capsys):
    code, out, _ = run(capsys, "infer", "-e", "(\\x+. x+)+")
    assert code == 0
    assert out == "(;) =>+ : ?A -> ?A\n"


def test_infer_projection(capsys):
    code, out, _ = run(capsys, "infer", "-e", "fst+(x+)")
    assert code == 0
    assert out == "(x+: ?A & ?B;) =>+ : ?A\n"


def test_infer_untypable(capsys):
    code, out, _ = run(capsys, "infer", "-e", "app+(x+, x+)")
    assert code == 1
    assert out.startswith("untypable:")


def test_infer_syntax_error(capsys):
    code, out, err = run(capsys, "infer", "-e", "app+(x+")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 0, column")


def test_infer_polarity_error(capsys):
    code, _, err = run(capsys, "infer", "-e", "<top+, bot->+")
    assert code == 2
    assert "error: line 0" in err


# --------------------------------------------------------------- normalize


def test_normalize_plain(capsys):
    code, out, _ = run(capsys, "normalize", "-e", "app+((\\x+. x+)+, top+)")
    assert code == 0
    assert out == "top+\n"


def test_normalize_trace_golden(capsys):
    code, out, _ = run(
        capsys,
        "normalize", "--trace",
        "-e", "p1+(case z- {x-. {top+, x-}- | y-. {top+, y-}-}-)",
    )
    assert code == 0
    assert out.splitlines() == [
        "perm-Pi1@root  case z- {x-. p1+({top+, x-}-) | y-. p1+({top+, y-}-)}+",
        "beta-Pi1@1  case z- {x-. top+ | y-. p1+({top+, y-}-)}+",
        "beta-Pi1@2  case z- {x-. top+ | y-. top+}+",
        "simp-left@root  top+",
        "top+",
    ]


def test_normalize_fuel_exhausted(capsys):
    omega = "app+((\\x+. app+(x+, x+))+, (\\x+. app+(x+, x+))+)"
    code, out, err = run(capsys, "normalize", "--fuel", "7", "-e", omega)
    assert code == 3
    assert out == ""
    assert "fuel exhausted after 7 steps" in err


def test_normalize_trace_survives_exhaustion(capsys):
    omega = "app+((\\x+. app+(x+, x+))+, (\\x+. app+(x+, x+))+)"
    code, out, err = run(capsys, "normalize", "--trace", "--fuel", "3", "-e", omega)
    assert code == 3
    assert len(out.splitlines()) == 3
    assert all(line.startswith("beta-App@root") for line in out.splitlines())


def test_normalize_too_deep_term(capsys):
    deep = "inl+(" * 3000 + "x+" + ")" * 3000
    code, out, err = run(capsys, "normalize", "-e", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 0, column ")
    assert err.endswith(": nested too deeply\n")
    assert err.count("\n") == 1


def test_too_deep_for_a_command_is_one_line(capsys):
    # Parses, but its normal form nests twice as deep as the term: too deep
    # to print, and to key for a comparison with an equal term.  normalize
    # itself scans only the 600 levels its one step builds.
    half = "inl+(" * 600 + "x+" + ")" * 600
    deep = f"app+((\\x+. {half})+, {half.replace('x+', 'y+')})"
    for argv in (["normalize", "-e", deep], ["equal", "-e", deep, "-e", deep]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: nested too deeply\n"


def test_deep_chain_goes_through_every_term_command(capsys):
    deep = "inl+(" * 950 + "x+" + ")" * 950
    code, out, err = run(capsys, "infer", "-e", deep)
    assert code == 0
    assert err == ""
    letters = [f"?{chr(ord('A') + i % 26)}{i // 26 or ''}" for i in range(951)]
    assert out == f"(x+: ?A;) =>+ : {' | '.join(letters)}\n"
    for command in ("dualize", "normalize"):
        code, out, _ = run(capsys, command, "-e", deep)
        assert code == 0
        assert out.count("inl") == 950


def test_deep_derivation_goes_through_every_file_command(tmp_path):
    # The derivation check builds for a 450-deep inl chain, run through
    # l2i in a process of its own, whose stack is the one l2i users have
    # (pytest's own frames would take some of the depth).  The margin is
    # measured: under the default recursion limit of Python 3.11 and 3.10,
    # 490 levels pass and 495 fail inside `json.loads` (ROADMAP item 10),
    # so a few more frames per level in the load or validate path can fail
    # this test without a regression elsewhere.
    a, t, f = Atom("a"), Var("x", PLUS), Atom("a")
    for _ in range(450):
        t, f = Inl(t, PLUS), Or(f, a)
    p = tmp_path / "deep.json"
    p.write_text(derivation_to_json(check(Basis.make({"x": a}), PLUS, t, f)))
    env = {**os.environ, "PYTHONPATH": str(Path(l2int.__file__).parents[1])}

    def l2i(*argv):
        r = subprocess.run([sys.executable, "-m", "l2int.cli", *argv], env=env, capture_output=True, text=True)
        return r.returncode, r.stdout, r.stderr

    assert l2i("check", str(p)) == (0, f"{p}: ok\n", "")
    code, out, err = l2i("dualize", str(p))
    assert (code, err) == (0, "height: 450 -> 450\n")
    assert json.loads(out)["concl"]["pol"] == "-"
    assert l2i("sense", str(p), str(p)) == (0, "synonymous\n", "")


# ----------------------------------------------------------------- dualize


def test_dualize_term(capsys):
    code, out, _ = run(capsys, "dualize", "-e", "(\\x+. x+)+")
    assert code == 0
    assert out == "(\\x-. x-)-\n"


def test_dualize_formula_golden(capsys):
    code, out, _ = run(capsys, "dualize", "--formula", "(a -< b) -> (top -< (a -> b))")
    assert code == 0
    assert out == "((b -< a) -> bot) -< (b -> a)\n"


def test_dualize_too_deep_formula(capsys):
    code, out, err = run(capsys, "dualize", "--formula", "(" * 2000 + "a" + ")" * 2000)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 0, column ")
    assert err.endswith(": nested too deeply\n")


def test_dualize_file_roundtrip(capsys):
    code, out, err = run(capsys, "dualize", FIRST)
    assert code == 0
    _, second = load_worked_pair()
    assert derivation_from_json(out) == second
    assert err == "height: 4 -> 4\n"


def test_dualize_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "dualize")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "dualize", "-e", "top+", "--formula", "a")
    assert code == 2


def test_dualize_rejects_invalid_file(tmp_path, capsys):
    first, _ = load_worked_pair()
    import dataclasses

    bad = dataclasses.replace(first, rule="AndI")
    p = tmp_path / "bad.json"
    p.write_text(derivation_to_json(bad))
    code, out, err = run(capsys, "dualize", str(p))
    assert code == 1
    assert out == ""
    assert "invalid" in err


# ------------------------------------------------------------------- equal


def test_equal_identical(capsys):
    code, out, _ = run(capsys, "equal", "-e", "(\\x+. x+)+", "-e", "(\\y+. y+)+")
    assert code == 0
    assert out == "identical\n"


def test_equal_distinct_and_modulo_duality(capsys):
    code, out, _ = run(capsys, "equal", "-e", "(\\x+. x+)+", "-e", "(\\x-. x-)-")
    assert code == 1
    assert out == "distinct\n"
    code, out, _ = run(
        capsys, "equal", "--modulo-duality",
        "-e", "(\\x+. x+)+", "-e", "(\\x-. x-)-",
    )
    assert code == 0
    assert out == "identical-modulo-duality\n"


def test_equal_ignores_the_other_branch_binder_name(capsys):
    # simp keeps a branch that does not use its own binder, whatever the
    # other branch's binder is called
    code, out, _ = run(
        capsys, "equal", "-e", "case x+ {a+. b+ | b+. c+}+", "-e", "case x+ {a+. b+ | d+. c+}+"
    )
    assert code == 0
    assert out == "identical\n"


def test_equal_needs_two_terms(capsys):
    code, _, err = run(capsys, "equal", "-e", "top+")
    assert code == 2
    assert "two" in err


def test_equal_fuel_exhausted(capsys):
    omega = "app+((\\x+. app+(x+, x+))+, (\\x+. app+(x+, x+))+)"
    code, _, err = run(capsys, "equal", "--fuel", "5", "-e", omega, "-e", "top+")
    assert code == 3
    assert "error:" in err


# ------------------------------------------------------------------- sense


def test_sense_same_file_synonymous(capsys):
    code, out, _ = run(capsys, "sense", FIRST, FIRST)
    assert code == 0
    assert out == "synonymous\n"


def test_sense_dual_pair_non_synonymous(capsys):
    code, out, _ = run(capsys, "sense", FIRST, SECOND)
    assert code == 1
    assert out == "non-synonymous\n"


# --------------------------------------------------------------------- gen


def test_gen_json_lines_deterministic(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "11", "--max-height", "4", "--count", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        d = derivation_from_json(line)
        assert validate(d) == []
    again_code, again_out, _ = run(
        capsys, "gen", "--seed", "11", "--max-height", "4", "--count", "3"
    )
    assert again_out == out
    shifted_code, shifted_out, _ = run(
        capsys, "gen", "--seed", "12", "--max-height", "4", "--count", "2"
    )
    assert shifted_out.splitlines() == lines[1:]


def test_gen_negative_height_is_a_usage_error(capsys):
    code, out, err = run(capsys, "gen", "--max-height", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_height must be at least 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "-e", "top+", "--fuel", "-1"],
        ["equal", "-e", "top+", "-e", "top+", "--fuel", "-1"],
        ["gen", "--count", "-1"],
    ],
)
def test_negative_fuel_or_count_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[-2]} must be at least 0\n"
    argv[-1] = "0"
    code, out, _ = run(capsys, *argv)
    assert code == 0


def test_gen_lines_are_single_json_objects(capsys):
    _, out, _ = run(capsys, "gen", "--count", "2")
    for line in out.splitlines():
        obj = json.loads(line)
        assert set(obj) == {"rule", "concl", "prems"}


# -------------------------------------------------------------------- fuzz

_TERM_TOKENS = [
    "top", "bot", "abort", "fst", "snd", "inl", "inr", "case", "app", "p1", "p2",
    "x", "y", "z", "(", ")", "<", ">", "{", "}", ",", ".", "|", "\\", "+", "-", " ", "\n", "?",
]
_FORMULA_TOKENS = ["a", "b", "top", "bot", "->", "-<", "&", "|", "(", ")", " ", "\n", "?"]


def _valid_derivations():
    """Derivations, with their duals, whose terms and types are valid CLI input."""
    ds = list(load_worked_pair())
    for seed in range(40):
        try:
            d = gen_derivation(GenConfig(seed=seed, max_height=4))
        except GenerationFailed:
            continue
        ds += [d, dual_derivation(d)]
    return ds


# Deferred, so that the derivations are generated when a test first draws one.
_VALID = st.deferred(lambda: st.sampled_from(_valid_derivations()))


def _soup(tokens):
    return st.lists(st.sampled_from(tokens), max_size=24).map("".join)


def _near(valid, tokens):
    """A valid string with a slice replaced by tokens, or left as it is."""

    @st.composite
    def near(draw):
        text = draw(valid)
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        return text[:i] + draw(_soup(tokens)) + text[j:]

    return st.one_of(valid, near())


_TERMS = st.one_of(
    _soup(_TERM_TOKENS),
    st.text(max_size=8),
    _near(_VALID.map(lambda d: print_term(d.concl.term)), _TERM_TOKENS),
)
_FORMULA_TEXTS = st.one_of(
    _soup(_FORMULA_TOKENS),
    st.text(max_size=8),
    _near(_VALID.map(lambda d: print_formula(d.concl.type)), _FORMULA_TOKENS),
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.text(max_size=6)
    | st.sampled_from(["+", "-", *RULE_DUAL])
    | _TERMS
    | _FORMULA_TEXTS,
    lambda sub: st.lists(sub, max_size=4)
    | st.dictionaries(
        st.sampled_from(["rule", "concl", "prems", "gamma", "delta", "pol", "term", "type", "x"]),
        sub,
        max_size=6,
    ),
    max_leaves=20,
)


def _places(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _places(value, path + (key,))


@st.composite
def _mutated_derivation(draw):
    """A valid derivation's JSON object with one value replaced."""
    obj = json.loads(derivation_to_json(draw(_VALID)))
    places = list(_places(obj))[1:]
    *parent, key = places[draw(st.integers(0, len(places) - 1))]
    target = obj
    for k in parent:
        target = target[k]
    target[key] = draw(_JSON)
    return obj


_FILES = st.one_of(
    st.binary(max_size=64),
    _JSON.map(json.dumps),
    _VALID.map(derivation_to_json),
    _mutated_derivation().map(json.dumps),
).map(lambda content: content if isinstance(content, bytes) else content.encode())
# A file argument is its content; "missing.json" names no file.
_FILE_ARGS = st.one_of(_FILES, st.just("missing.json"))
_FUEL = st.lists(st.integers(-2, 40).map(lambda n: ["--fuel", str(n)]), max_size=1)


def _flag(flag):
    return st.lists(st.just([flag]), max_size=1)


def _count(n):
    """Mostly as many arguments as the command takes, sometimes one more or less."""
    return st.sampled_from([n, n, n, n, n - 1, n + 1])


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(["check", "infer", "normalize", "dualize", "equal", "sense", "gen"])
    )
    parts = [[command]]

    # Values are attached to their options, so that argparse does not take
    # a term that starts with "-" for an option.
    def term():
        t = draw(_TERMS)
        return ["-e" + t] if t else ["-e", t]

    if command in ("check", "sense"):
        parts += [[draw(_FILE_ARGS)] for _ in range(draw(_count(2)))]
    elif command == "infer":
        parts += [term()]
    elif command == "normalize":
        parts += [term(), *draw(_FUEL), *draw(_flag("--trace"))]
    elif command == "dualize":
        inputs = [term(), ["--formula=" + draw(_FORMULA_TEXTS)], [draw(_FILE_ARGS)]]
        parts += draw(st.lists(st.sampled_from(inputs), max_size=2, unique_by=id))
    elif command == "equal":
        parts += [term() for _ in range(draw(_count(2)))]
        parts += [*draw(_FUEL), *draw(_flag("--modulo-duality"))]
    elif command == "gen":
        for flag, low, high in [("--seed", -5, 40), ("--max-height", -2, 6), ("--count", -1, 3)]:
            if draw(st.booleans()):
                parts.append([flag, str(draw(st.integers(low, high)))])
    if draw(st.integers(0, 15)) == 0:
        parts.append(["--bogus"])
    return [arg for part in parts for arg in part]


@hyp.given(_argv())
@hyp.settings(max_examples=400, deadline=None)
def test_fuzzed_command_lines_end_with_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, arg in enumerate(argv):
            if isinstance(arg, bytes):
                path = Path(tmp) / f"{i}.json"
                path.write_bytes(arg)
                arg = str(path)
            elif arg == "missing.json":
                arg = str(Path(tmp) / arg)
            args.append(arg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(args)
            except SystemExit as e:  # argparse's usage errors
                assert e.code == 2
                return
    assert code in {0, 1, 2, 3}
