from pathlib import Path

from l2int import Basis, PLUS, MINUS, check
from l2int.derivation import Derivation
from l2int.syntax import children
from l2int.textio import derivation_from_json, parse_formula, parse_term

DATA = Path(__file__).parent / "data"

WORKED_FIRST_TERM = "(\\x+. {top+, {p1+(x+), p2-(x+)}-}+)+"
WORKED_FIRST_TYPE = "(a -< b) -> (top -< (a -> b))"
WORKED_SECOND_TERM = "(\\x-. {{p1+(x-), p2-(x-)}+, bot-}-)-"
WORKED_SECOND_TYPE = "((b -< a) -> bot) -< (b -> a)"


def load_worked_pair():
    first = derivation_from_json((DATA / "worked_first.json").read_text())
    second = derivation_from_json((DATA / "worked_second.json").read_text())
    return first, second


def load_golden() -> list[Derivation]:
    """tests/data/*.json and every line of its gen_*.jsonl files."""
    texts = [p.read_text() for p in sorted(DATA.glob("*.json"))]
    for p in sorted(DATA.glob("gen_*.jsonl")):
        texts += p.read_text().splitlines()
    return [derivation_from_json(text) for text in texts]


def build_worked_first():
    return check(Basis(), PLUS, parse_term(WORKED_FIRST_TERM), parse_formula(WORKED_FIRST_TYPE))


def build_worked_second():
    return check(Basis(), MINUS, parse_term(WORKED_SECOND_TERM), parse_formula(WORKED_SECOND_TYPE))


def premises_share_subterms(d: Derivation) -> bool:
    """Whether every premise's term is, as an object, one of the children of
    its parent's term."""
    kids = children(d.concl.term)
    return all(
        any(p.concl.term is c for c in kids) and premises_share_subterms(p) for p in d.prems
    )
