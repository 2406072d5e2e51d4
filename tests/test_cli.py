import json

from l2int.cli import main
from l2int.derivation import validate
from l2int.textio import derivation_from_json, derivation_to_json
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


def test_check_malformed_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert "error" in err


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


def test_gen_lines_are_single_json_objects(capsys):
    _, out, _ = run(capsys, "gen", "--count", "2")
    for line in out.splitlines():
        obj = json.loads(line)
        assert set(obj) == {"rule", "concl", "prems"}
