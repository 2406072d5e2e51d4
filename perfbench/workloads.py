"""The four benchmark workloads: why each exists, its corpus and its item.

Each workload pushes most of its work onto different layers, so that a
gain in one layer shows in one workload and a cost in another layer shows
in a different one.  A workload has

* `build(seed, acct, tracer)`: makes the corpus from the seed alone.  The
  program under test later receives only these generated inputs.
* `run(entry, tracer)`: one item, timed.  It raises `Mismatch` when an
  output disagrees with its reference.
* `describe(entry, result)`: the item's printed outputs, untimed, hashed
  into the run's output digest.

Every reference is computed independently of the function whose output it
checks: validity by `validate`, the duality involution, `check` of every
reduct and normal form, membership of the normal form among the oracle's
normal forms, and the exit codes documented in `l2int/cli.py`.

Corpora are drawn in bands of a cost predictor (node count; for reduce a
measure that counts redexes too; for small-terms the oracle's closure
size), with a fixed number of derivations per band.  Item cost grows faster than linearly with size
and the natural size distribution is heavy-tailed (most derivations have
under 5 nodes, one in a hundred over 60), so a plain sample of a few
hundred derivations changes its total work by a fifth from seed to seed.
Fixed band counts keep the mix, and so the work per pass, the same for
every seed while the derivations themselves still come from the seed.
The counts follow the natural frequencies of about a thousand seeds, with
two adjustments: the band holding the median item has as many items below
it as above, so the median sits mid-band, and the costliest band holds
enough items for the tail percentile to fall inside it.  Generated
derivations that fall in a full band, or outside the bands, are counted as
dropped in the run's generator accounting, never silently.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from l2int.derivation import Derivation, validate
from l2int.duality import dual_derivation, dual_formula, dual_term
from l2int.meaning import DISTINCT, IDENTICAL, IDENTICAL_MODULO_DUALITY, identity_verdict, sense
from l2int.rewrite import find_redexes, normalize, step
from l2int.syntax import MINUS, PLUS, Basis, alpha_eq, alpha_key, term_size
from l2int.testkit import GenConfig, GenerationFailed, gen_derivation, oracle_reduce_all
from l2int.textio import (
    derivation_from_json,
    derivation_to_json,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)
from l2int.typecheck import UnifyError, check, infer_principal, unify

# The weight profile of tests/test_acceptance.py (test_03's corpus): it
# favours eliminations applied to introductions, so end terms are dense in
# redexes of every kind.  perfbench/test_perfbench.py keeps the two equal.
REDEX_HEAVY_WEIGHTS = {
    "Hyp+": 2.0, "Hyp-": 2.0,
    "ImpE": 2.2, "CoImpE_d": 2.2,
    "ImpI": 2.0, "CoImpI_d": 2.0,
    "AndE1": 1.4, "AndE2": 1.4, "OrE_d1": 1.4, "OrE_d2": 1.4,
    "AndI": 1.6, "OrI_d": 1.6,
    "ImpI_d": 1.8, "CoImpI": 1.8,
    "ImpE_d1": 1.4, "ImpE_d2": 1.4, "CoImpE1": 1.4, "CoImpE2": 1.4,
    "OrE": 1.6, "AndE_d": 1.6,
    "OrI1": 1.2, "OrI2": 1.2, "AndI_d1": 1.2, "AndI_d2": 1.2,
}

# test_09's limit: terms above it can reduce without bound, so they are
# not normalized and are counted as rewrite.normalize_skipped.
NORMALIZE_MAX_NODES = 60
# Fuel for reduce's normalize.  Below the limit most terms need a few
# steps (median 2), but about one in a hundred needs more than 30, and a
# few in a thousand grow under reduction and need 100 to 240 steps through
# ever larger terms, costing up to 2 s where the median term costs 0.1 ms.
# Whether a seed's corpus holds none or three of those moved the work of a
# pass by half.  With 30 steps they still cost the most, up to 0.13 s, and
# count as rewrite.fuel_exhausted.
REDUCE_FUEL = 30
# test_08's limits: small terms have at most 12 nodes, come from its seed
# range, and the oracle explores to depth 64.
SMALL_MAX_NODES = 12
SMALL_SEED_RANGE = (8_000_000, 8_400_000)
ORACLE_DEPTH = 64


class Mismatch(Exception):
    """An output disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Accounting:
    """What corpus generation tried, kept, and threw away, and why."""

    tried: int = 0
    accepted: int = 0
    rejected: Counter = field(default_factory=Counter)  # GenerationFailed, by message
    dropped: Counter = field(default_factory=Counter)  # workload filters, by reason

    def as_dict(self) -> dict:
        return {
            "seeds_tried": self.tried,
            "accepted": self.accepted,
            "rejected": dict(self.rejected),
            "dropped": dict(self.dropped),
        }


@dataclass(frozen=True)
class Entry:
    """One corpus item: its input and the input's node count."""

    data: object
    nodes: int


def nodes(d: Derivation) -> int:
    """Node count of the end term: for a generated derivation, also its rule count."""
    return term_size(d.concl.term)


def collect(first_seed, bands, acct, tracer, max_height=8, weights=None, key=nodes,
            unit="nodes", max_nodes=None, seed_limit=200_000):
    """Derivations from consecutive seeds: `count` in each (lo, hi, count) band of key(d).

    Derivations above max_nodes are dropped before banding.
    """
    got = [[] for _ in bands]
    seed = first_seed
    while any(len(g) < count for g, (_, _, count) in zip(got, bands)):
        if seed - first_seed >= seed_limit:
            raise RuntimeError(f"bands not filled within {seed_limit} seeds from {first_seed}")
        cfg = GenConfig(seed=seed, max_height=max_height, rule_weights=weights or {})
        seed += 1
        acct.tried += 1
        try:
            d = tracer.call("testkit.gen", gen_derivation, cfg)
        except GenerationFailed as e:
            acct.rejected[str(e)] += 1
            continue
        if max_nodes is not None and nodes(d) > max_nodes:
            acct.dropped[f"over {max_nodes} nodes"] += 1
            continue
        k = key(d)
        band = next((i for i, (lo, hi, _) in enumerate(bands) if lo <= k <= hi), None)
        if band is None:
            acct.dropped[f"outside {bands[0][0]}-{bands[-1][1]} {unit}"] += 1
        elif len(got[band]) >= bands[band][2]:
            lo, hi, _ = bands[band]
            acct.dropped[f"band {lo}-{hi} {unit} full"] += 1
        else:
            got[band].append(d)
            acct.accepted += 1
    out = [d for g in got for d in g]
    random.Random(first_seed).shuffle(out)
    return out


def judgment_text(d: Derivation) -> dict:
    j = d.concl
    return {
        "gamma": [(n, print_formula(f)) for n, f in j.basis.gamma],
        "delta": [(n, print_formula(f)) for n, f in j.basis.delta],
        "pol": str(j.pol),
        "term": print_term(j.term),
        "type": print_formula(j.type),
    }


def parse_judgment(text: dict, t):
    basis = Basis.make(
        {n: t.call("textio.parse", parse_formula, f) for n, f in text["gamma"]},
        {n: t.call("textio.parse", parse_formula, f) for n, f in text["delta"]},
    )
    pol = PLUS if text["pol"] == "+" else MINUS
    term = t.call("textio.parse", parse_term, text["term"])
    typ = t.call("textio.parse", parse_formula, text["type"])
    return basis, pol, term, typ


# --------------------------------------------------------------- derive


class Derive:
    """Standard derivations through JSON, validation, duality and meaning.

    Corpus: derivations from `gen_derivation` with default weights and
    height at most 8, seeds `seed * 100_000` onwards, in the node-count
    bands below, passed to the item as the JSON text `l2i` reads and
    writes.  Derivations above 56 nodes (about one seed in seventy) are
    dropped: one of them costs as much as a hundred small ones, so the few
    that a seed yields would set the pass time alone.
    Item: `derivation_from_json` -> `validate` -> `check` of the end
    judgment -> `infer_principal` of the end term -> `dual_derivation` ->
    `validate` of the dual -> involution -> `sense` -> `derivation_to_json`
    of the dual.
    Stresses: textio JSON (load is about half the work), derivation,
    duality and meaning, whose costs grow with derivation size.  It makes
    no `normalize` call, so gains there are not hidden behind a slow term.
    """

    name = "derive"
    bands = ((1, 4, 180), (5, 6, 71), (7, 8, 70), (9, 12, 40), (13, 24, 90), (25, 32, 50),
             (33, 40, 35), (41, 48, 18), (49, 56, 18))

    def build(self, seed, acct, tracer):
        ds = collect(seed * 100_000, self.bands, acct, tracer)
        return [Entry(derivation_to_json(d), nodes(d)) for d in ds]

    def run(self, e: Entry, t):
        text = e.data
        d = t.call("textio.json_load", derivation_from_json, text)
        t.count("textio.json_bytes", len(text))
        expect(t.call("derivation.validate", validate, d) == [], "input derivation invalid")
        t.count("derivation.nodes", e.nodes)
        j = d.concl
        again = t.call("typecheck.check", check, j.basis, j.pol, j.term, j.type)
        expect(again.concl == j, "check changed the end judgment")
        p = t.call("typecheck.infer", infer_principal, j.term)
        expect(p.pol is j.pol, "principal polarity")
        try:
            unify(p.scheme.body, j.type)
        except UnifyError:
            raise Mismatch("end type is not an instance of the principal scheme") from None
        dd = t.call("duality.dual_derivation", dual_derivation, d)
        expect(t.call("derivation.validate", validate, dd) == [], "dual derivation invalid")
        expect(dd.concl.pol is j.pol.flip(), "dual polarity")
        expect(t.call("duality.dual_derivation", dual_derivation, dd) == d, "duality involution")
        s = t.call("meaning.sense", sense, d)
        t.count("meaning.sense_entries", len(s))
        expect(1 <= len(s) <= e.nodes, "sense entry count")
        out = t.call("textio.json_dump", derivation_to_json, dd)
        t.count("textio.json_bytes", len(out))
        expect(json.loads(out)["rule"] == dd.rule, "dumped JSON")
        return p, len(s), out

    def describe(self, e, result):
        p, entries, out = result
        return f"{p.pol} {print_formula(p.scheme.body)} | {entries} | {out}"


# --------------------------------------------------------------- reduce


class Reduce:
    """Subject reduction on redex-heavy terms: rewrite plus the unifier.

    Corpus: end judgments of derivations generated with
    REDEX_HEAVY_WEIGHTS and height at most 8, seeds `seed * 100_000`
    onwards, given to the item as text, in bands of `work` below: the
    item re-checks every reduct, so its time follows redexes times size
    squared more closely than size alone.  Terms above 200,000 work (about
    one seed in twenty, from about 80 nodes) are dropped: their re-checks
    cost up to seconds each, so the few a seed yields would set the pass
    time alone.
    Item: parse the judgment; `find_redexes`, then for every redex `step`,
    `check` of the reduct at the same judgment and `alpha_eq` with the
    reduct (test_03).  At most 60 nodes (test_09's limit), also
    `normalize` with REDUCE_FUEL, `is_normal` by `find_redexes` unless the
    fuel ran out, and `check` of the result; larger terms count as
    rewrite.normalize_skipped.
    Stresses: rewrite and the type checker's unifier; no JSON.
    """

    name = "reduce"
    bands = ((0, 100, 180), (101, 1_000, 120), (1_001, 3_000, 50), (3_001, 10_000, 55),
             (10_001, 30_000, 40), (30_001, 100_000, 40), (100_001, 200_000, 15))

    @staticmethod
    def work(d: Derivation) -> int:
        """(redexes + 1) * nodes**2, the banding key."""
        t = d.concl.term
        return (len(find_redexes(t)) + 1) * term_size(t) ** 2

    def build(self, seed, acct, tracer):
        ds = collect(seed * 100_000, self.bands, acct, tracer, weights=REDEX_HEAVY_WEIGHTS,
                     key=self.work, unit="work")
        return [Entry(judgment_text(d), nodes(d)) for d in ds]

    def run(self, e: Entry, t):
        basis, pol, term, typ = parse_judgment(e.data, t)
        reducts = []
        for r in t.call("rewrite.find_redexes", find_redexes, term):
            reduct = t.call("rewrite.step", step, term, r)
            again = t.call("typecheck.check", check, basis, pol, reduct, typ)
            c = again.concl
            expect(c.basis == basis and c.pol is pol and c.type == typ, "reduct judgment")
            expect(t.call("syntax.alpha_eq", alpha_eq, c.term, reduct), "reduct term")
            reducts.append((r, reduct))
        if e.nodes > NORMALIZE_MAX_NODES:
            t.count("rewrite.normalize_skipped")
            return reducts, None
        res = t.call("rewrite.normalize", normalize, term, REDUCE_FUEL)
        t.count("rewrite.steps", len(res.steps))
        if t.enabled:
            t.peak("rewrite.peak_term_nodes", max([e.nodes] + [term_size(s.after) for s in res.steps]))
        if res.exhausted:
            t.count("rewrite.fuel_exhausted")
        else:
            expect(t.call("rewrite.find_redexes", find_redexes, res.term) == [], "normal form has a redex")
        # Subject reduction: the normal form, or where the fuel ran out.
        nf = t.call("typecheck.check", check, basis, pol, res.term, typ).concl
        expect(nf.pol is pol and nf.type == typ, "normal form judgment")
        return reducts, res

    def describe(self, e, result):
        reducts, res = result
        lines = [f"{r.detail}@{r.path} {print_term(u)}" for r, u in reducts]
        if res is not None:
            lines += [f"{s.position.detail}@{s.position.path} {print_term(s.after)}" for s in res.steps]
            lines.append(f"{print_term(res.term)} exhausted={res.exhausted}")
        return "\n".join(lines)


# ---------------------------------------------------------- small-terms


class SmallTerms:
    """Thousands of tiny terms: parser cost and per-call overhead.

    Corpus: 5,000 typable end terms of at most 12 nodes from derivations
    of height at most 3, from a 10,007-seed window of test_08's seed range
    chosen by the seed, as text, in bands of the oracle's closure size.
    Item: `parse_term` -> `print_term` (round trip equal) ->
    `infer_principal` -> `normalize` -> `oracle_reduce_all(max_depth=64)`,
    whose normal forms must include normalize's (test_08) -> `dual_term`
    (involution) -> `identity_verdict(t, dual_term(t), modulo_duality=True)`.
    Stresses: parse and print, inference and the per-call overhead of
    every layer.  A cache or index that speeds `reduce` but costs per call
    shows up here.
    """

    name = "small-terms"
    # By the size of the oracle's closure, the main cause of an item's cost,
    # in about the counts of 5,100 consecutive seeds.  Fewer than one term in
    # a hundred reaches more than 7 terms, so fixed counts of those keep the
    # tail (the 11th costliest item, inside the 13-20 band) from moving with
    # the seed.
    bands = ((1, 1, 4_320), (2, 3, 560), (4, 7, 90), (8, 12, 14), (13, 20, 12), (21, 10**6, 4))

    @staticmethod
    def reach(d: Derivation) -> int:
        """How many terms the oracle reaches from the end term: the banding key."""
        return len(oracle_reduce_all(d.concl.term, ORACLE_DEPTH).reachable)

    def build(self, seed, acct, tracer):
        lo, hi = SMALL_SEED_RANGE
        first = lo + (seed * 10_007) % (hi - lo - 10_007)
        ds = collect(first, self.bands, acct, tracer, max_height=3, key=self.reach,
                     unit="reachable", max_nodes=SMALL_MAX_NODES, seed_limit=10_007)
        return [Entry(print_term(d.concl.term), nodes(d)) for d in ds]

    def run(self, e: Entry, t):
        term = t.call("textio.parse", parse_term, e.data)
        expect(t.call("textio.print", print_term, term) == e.data, "print/parse round trip")
        p = t.call("typecheck.infer", infer_principal, term)
        expect(p.pol is term.pol, "principal polarity")
        res = t.call("rewrite.normalize", normalize, term)
        t.count("rewrite.steps", len(res.steps))
        if t.enabled:
            t.peak("rewrite.peak_term_nodes", max([e.nodes] + [term_size(s.after) for s in res.steps]))
        if res.exhausted:
            t.count("rewrite.fuel_exhausted")
            raise Mismatch("no normal form within the default fuel")
        o = t.call("testkit.oracle", oracle_reduce_all, term, max_depth=ORACLE_DEPTH)
        t.count("testkit.oracle_reachable", len(o.reachable))
        keys = {alpha_key(nf) for nf in o.normal_forms}
        if o.complete:
            expect(alpha_key(res.term) in keys, "normal form not among the oracle's")
        else:
            t.count("testkit.oracle_incomplete")
        dt = t.call("duality.dual_term", dual_term, term)
        expect(t.call("duality.dual_term", dual_term, dt) == term, "duality involution")
        verdict = t.call("meaning.identity", identity_verdict, term, dt, modulo_duality=True)
        # A term and its dual have opposite polarities, so they are never
        # identical; with a unique normal form N, the dual's is dual(N).
        expect(verdict != IDENTICAL, "term identical to its dual")
        if o.complete and len(keys) == 1:
            expect(verdict == IDENTICAL_MODULO_DUALITY, "confluent term not self-dual modulo duality")
        return p, res, verdict, len(keys), o.complete

    def describe(self, e, result):
        p, res, verdict, forms, complete = result
        trace = " ; ".join(f"{s.position.detail}@{s.position.path}" for s in res.steps)
        return (f"{p.pol} {print_formula(p.scheme.body)} | {print_term(res.term)} | {trace}"
                f" | {verdict} | {forms} {complete}")


# ------------------------------------------------------------------ cli


# Inputs whose documented outcome (exit 2: "usage or syntax errors") the
# seed commit does not meet: recursion in the parser and in the JSON
# loader escapes as an uncaught RecursionError, so Python prints a
# traceback and exits 1.  They stay in the mix so that the fix shows as a
# lower failed_ratio, not as a change of workload.
KNOWN_FAILURES = {
    "deep-term": "normalize -e on a 3,000-deep inl+(...) term: parse_term raises RecursionError, exit 1",
    "deep-json": "check on 5,000-deep derivation JSON: derivation_from_json raises RecursionError, exit 1",
}
DEEP_TERM = 3_000
DEEP_JSON = 5_000


@dataclass(frozen=True)
class Invocation:
    group: str  # the subcommand, or "errors" for the error mix
    argv: tuple
    expected: int  # exit code documented in l2int/cli.py
    check: str = ""  # how to check stdout, see Cli.verify
    ref: object = None
    known: str = ""  # key into KNOWN_FAILURES


class Cli:
    """Sequential `l2i` subprocesses: interpreter start, import, error paths.

    Corpus: `rounds` rounds, each invoking all seven subcommands on inputs
    drawn from the derive generator (8 to 24 nodes, written to files) and
    from small terms, plus an error mix with the exit codes documented in
    `l2int/cli.py`: a syntax error (2), non-JSON (2), an invalid derivation
    (1), `--fuel 1` exhaustion (3), and the two deep inputs of
    KNOWN_FAILURES.  Files go to a temporary directory inside the
    checkout during set-up.
    Item: one subprocess, run to completion before the next starts (a
    closed loop with one client).  The exit code must be the documented
    one (or, for KNOWN_FAILURES, the recorded seed-commit outcome), and
    stdout is checked against a reference computed in the benchmark.
    Stresses: interpreter start and `import l2int` (most of an
    invocation), argument handling and the error paths.
    """

    name = "cli"
    rounds = 5
    launcher = "import sys; from l2int.cli import main; sys.exit(main())"

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env

    def build(self, seed, acct, tracer):
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)
        ds = collect(seed * 100_000 + 50_000, ((8, 24, self.rounds),), acct, tracer)
        lo, hi = SMALL_SEED_RANGE
        small = collect(lo + (seed * 10_007) % (hi - lo - 10_007), ((4, SMALL_MAX_NODES, self.rounds),),
                        acct, tracer, max_height=3, seed_limit=10_007)
        (w / "junk.json").write_text("{not json")
        deep = "[]"
        for _ in range(DEEP_JSON):
            deep = '[{"rule": "AndI", "concl": {}, "prems": ' + deep + "}]"
        (w / "deep.json").write_text('{"rule": "AndI", "concl": {}, "prems": ' + deep + "}")
        deep_term = "inl+(" * DEEP_TERM + "x+" + ")" * DEEP_TERM
        out = []
        for r, (d, s) in enumerate(zip(ds, small)):
            path = str(w / f"d{r}.json")
            Path(path).write_text(derivation_to_json(d))
            bad = json.loads(derivation_to_json(d))
            bad["rule"] = "AndI" if bad["rule"] != "AndI" else "OrI1"
            bad_path = str(w / f"invalid{r}.json")
            Path(bad_path).write_text(json.dumps(bad))
            term = print_term(s.concl.term)
            dual = print_term(dual_term(s.concl.term))
            typ = print_formula(d.concl.type)
            fuel_term = f"app+((\\x+. app+((\\y+. y+)+, x+))+, z{r}+)"
            round_ = [
                Invocation("check", ("check", path), 0, "check-ok", path),
                Invocation("infer", ("infer", "-e", term), 0, "infer", str(s.concl.pol)),
                Invocation("normalize", ("normalize", "--trace", "-e", term), 0, "normal"),
                Invocation("dualize", ("dualize", "-e", term), 0, "dual-term", term),
                Invocation("dualize", ("dualize", "--formula", typ), 0, "dual-formula", typ),
                Invocation("dualize", ("dualize", path), 0, "dual-derivation"),
                Invocation("equal", ("equal", "-e", term, "-e", term), 0, "verdict", IDENTICAL),
                Invocation("equal", ("equal", "-e", term, "-e", dual), 1, "verdict", DISTINCT),
                Invocation("sense", ("sense", path, path), 0, "verdict", "synonymous"),
                Invocation("gen", ("gen", "--seed", str(seed * 1000 + r), "--count", "2",
                                   "--max-height", "4"), 0, "gen"),
                Invocation("errors", ("infer", "-e", f"app+({term},"), 2),
                Invocation("errors", ("check", str(w / "junk.json")), 2),
                Invocation("errors", ("check", bad_path), 1, "invalid", bad_path),
                Invocation("errors", ("normalize", "--fuel", "1", "-e", fuel_term), 3),
                Invocation("errors", ("normalize", "-e", deep_term), 2, known="deep-term"),
                Invocation("errors", ("check", str(w / "deep.json")), 2, known="deep-json"),
            ]
            out += [Entry(inv, len(inv.argv)) for inv in round_]
        return out

    def run(self, e: Entry, t):
        inv = e.data
        proc = t.call(
            f"cli.{inv.group}", subprocess.run,
            [sys.executable, "-c", self.launcher, *inv.argv],
            capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def outcome(self, e: Entry, result) -> str:
        """'ok', 'known' (a recorded seed-commit failure) or a failure message."""
        inv = e.data
        code, out, err = result
        if code == inv.expected:
            try:
                self.verify(inv, out)
            except (Mismatch, ValueError, KeyError) as ex:
                return f"{inv.group} {inv.argv[0]}: wrong output: {ex}"
            return "ok"
        if inv.known and code == 1 and "RecursionError" in err:
            return "known"
        return f"{inv.group} {inv.argv[0]}: exit {code}, documented {inv.expected}"

    def verify(self, inv: Invocation, out: str) -> None:
        lines = out.splitlines()
        match inv.check:
            case "check-ok":
                expect(lines == [f"{inv.ref}: ok"], "check verdict")
            case "invalid":
                expect(lines == [f"{inv.ref}: invalid"], "check verdict")
            case "infer":
                expect(len(lines) == 1 and f"=>{inv.ref} : " in lines[0], "principal judgment")
            case "normal":
                expect(find_redexes(parse_term(lines[-1])) == [], "normal form has a redex")
            case "dual-term":
                expect(dual_term(parse_term(out.strip())) == parse_term(inv.ref), "involution")
            case "dual-formula":
                expect(dual_formula(parse_formula(out.strip())) == parse_formula(inv.ref), "involution")
            case "dual-derivation":
                expect(validate(derivation_from_json(out)) == [], "dual derivation invalid")
            case "verdict":
                expect(lines == [inv.ref], "verdict")
            case "gen":
                expect(len(lines) == 2, "gen line count")
                for line in lines:
                    expect(validate(derivation_from_json(line)) == [], "generated derivation invalid")

    def describe(self, e, result):
        code, out, _ = result
        text = f"{' '.join(e.data.argv)[:200]} -> {code}\n{out}"
        return text.replace(str(self.workdir), "<tmp>")

    def probe_ms(self, code: str, repeats: int) -> float:
        """Median wall time of `python -c code`, in milliseconds."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir,
                           check=True, timeout=60)
            times.append(time.perf_counter() - t0)
        times.sort()
        return 1000 * times[len(times) // 2]

