"""Command line front end.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
verdict or failed check, 2 for usage or syntax errors, 3 when fuel or
depth runs out.
"""

from __future__ import annotations

import argparse
import sys

# Each command imports the modules it uses, so that an `l2i` call loads
# only those; textio brings syntax and derivation, which every command needs.
from .textio import DerivationFormatError, ParseError, PolarityError


def _fmt_path(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "root"


def _load_derivation(path: str):
    from pathlib import Path

    from .textio import derivation_from_json

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DerivationFormatError(f"not UTF-8 text: {e.reason} at byte {e.start}") from e
    return derivation_from_json(text)


def _invalid(name: str, d, header) -> bool:
    """Whether d breaks a rule; if so, "<name>: invalid" goes to header
    and each violation, indented, to stderr."""
    from .derivation import validate

    violations = validate(d)
    if violations:
        print(f"{name}: invalid", file=header)
        for v in violations:
            print(f"  {_fmt_path(v.path)}: {v.message}", file=sys.stderr)
    return bool(violations)


def cmd_check(args) -> int:
    worst = 0
    for name in args.files:
        try:
            d = _load_derivation(name)
        except (OSError, DerivationFormatError, ParseError, PolarityError) as e:
            print(f"{name}: error: {e}", file=sys.stderr)
            worst = 2
            continue
        if _invalid(name, d, sys.stdout):
            worst = max(worst, 1)
        else:
            print(f"{name}: ok")
    return worst


def cmd_infer(args) -> int:
    from .textio import parse_term, print_basis, print_formula
    from .typecheck import Untypable, infer_principal

    term = parse_term(args.expr)
    try:
        p = infer_principal(term)
    except Untypable as e:
        print(f"untypable: {e}")
        return 1
    print(f"{print_basis(p.basis)} =>{p.pol} : {print_formula(p.scheme.body)}")
    return 0


def cmd_normalize(args) -> int:
    from .rewrite import normalize
    from .textio import parse_term, print_term

    term = parse_term(args.expr)
    result = normalize(term, _fuel(args))
    if args.trace:
        for s in result.steps:
            line = f"{s.position.detail}@{_fmt_path(s.position.path)}  {print_term(s.after)}"
            print(line)
    if result.exhausted:
        print(f"fuel exhausted after {len(result.steps)} steps", file=sys.stderr)
        return 3
    print(print_term(result.term))
    return 0


def cmd_dualize(args) -> int:
    from .derivation import height
    from .duality import dual_derivation, dual_formula, dual_term
    from .textio import derivation_to_json, parse_formula, parse_term, print_formula, print_term

    given = [x is not None for x in (args.expr, args.formula, args.file)]
    if sum(given) != 1:
        print("error: dualize needs exactly one of -e, --formula, or a file", file=sys.stderr)
        return 2
    if args.expr is not None:
        print(print_term(dual_term(parse_term(args.expr))))
        return 0
    if args.formula is not None:
        print(print_formula(dual_formula(parse_formula(args.formula))))
        return 0
    d = _load_derivation(args.file)
    if _invalid(args.file, d, sys.stderr):
        return 1
    dd = dual_derivation(d)
    print(derivation_to_json(dd))
    print(f"height: {height(d)} -> {height(dd)}", file=sys.stderr)
    return 0


def cmd_equal(args) -> int:
    from .meaning import DISTINCT, identity_verdict
    from .textio import parse_term

    if len(args.expr) != 2:
        print("error: equal needs exactly two -e terms", file=sys.stderr)
        return 2
    t1, t2 = (parse_term(e) for e in args.expr)
    verdict = identity_verdict(t1, t2, args.modulo_duality, _fuel(args))
    print(verdict)
    return 0 if verdict != DISTINCT else 1


def cmd_sense(args) -> int:
    from .meaning import SYNONYMOUS, synonymy_verdict

    out = []
    for name in (args.file1, args.file2):
        d = _load_derivation(name)
        if _invalid(name, d, sys.stderr):
            return 1
        out.append(d)
    verdict = synonymy_verdict(*out)
    print(verdict)
    return 0 if verdict == SYNONYMOUS else 1


def cmd_gen(args) -> int:
    from dataclasses import replace

    from .testkit import GenConfig, gen_derivation
    from .textio import derivation_to_json

    try:
        cfg = GenConfig(seed=args.seed, max_height=args.max_height)
    except ValueError as e:  # --max-height below 0
        print(f"error: {e}", file=sys.stderr)
        return 2
    for i in range(args.count):
        print(derivation_to_json(gen_derivation(replace(cfg, seed=args.seed + i)), indent=None))
    return 0


def _fuel(args) -> int:
    """--fuel, or normalize's default when it is not given."""
    from .rewrite import DEFAULT_FUEL

    return DEFAULT_FUEL if args.fuel is None else args.fuel


def _type_errors() -> tuple[type[Exception], ...]:
    from .typecheck import TypeMismatch, UnboundVariable, Untypable

    return Untypable, TypeMismatch, UnboundVariable


def _fuel_exhausted() -> type[Exception]:
    from .rewrite import FuelExhausted

    return FuelExhausted


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2i",
        description="Check, infer, normalize, dualize, and compare polarized terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate derivation JSON files")
    p.add_argument("files", nargs="+")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("infer", help="principal basis and type of a term")
    p.add_argument("-e", dest="expr", required=True)
    p.set_defaults(run=cmd_infer)

    p = sub.add_parser("normalize", help="reduce a term to normal form")
    p.add_argument("-e", dest="expr", required=True)
    p.add_argument("--fuel", type=int)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(run=cmd_normalize)

    p = sub.add_parser("dualize", help="dualize a term, formula, or derivation file")
    p.add_argument("-e", dest="expr")
    p.add_argument("--formula")
    p.add_argument("file", nargs="?")
    p.set_defaults(run=cmd_dualize)

    p = sub.add_parser("equal", help="compare the normal forms of two terms")
    p.add_argument("-e", dest="expr", action="append", default=[])
    p.add_argument("--modulo-duality", action="store_true")
    p.add_argument("--fuel", type=int)
    p.set_defaults(run=cmd_equal)

    p = sub.add_parser("sense", help="compare what two derivation files express")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(run=cmd_sense)

    p = sub.add_parser("gen", help="print seeded random derivations as JSON lines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-height", type=int, default=6)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(run=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for option in ("fuel", "count"):
        if (getattr(args, option, None) or 0) < 0:
            print(f"error: --{option} must be at least 0", file=sys.stderr)
            return 2
    try:
        return args.run(args)
    except (ParseError, PolarityError) as e:
        span = e.span
        print(
            f"error: line {span.line}, column {span.column}: {e.message}",
            file=sys.stderr,
        )
        return 2
    except (DerivationFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # Input that parses can still be too deep for the printers and the
        # recursive traversals behind a command.
        print("error: nested too deeply", file=sys.stderr)
        return 2
    # An except clause's classes are looked up only when an exception
    # reaches it, so these import their modules only then.
    except _type_errors() as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _fuel_exhausted() as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
