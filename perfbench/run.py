"""Seeded benchmark of the l2int library and the `l2i` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload derive --seed 1 --seconds 15 --trace 0

Workloads: derive, reduce, small-terms, cli (see perfbench/workloads.py
and perfbench/README.md for why each exists).  The benchmark imports
l2int from the checkout's `src/`, makes the corpus from the seed alone
(several times, to time set-up), then runs items until at least
`--seconds` have passed, cycling through the corpus; the first pass always
completes and its outputs are hashed into an output digest.  Every output
is checked against a reference.  Times are scaled by a calibration loop
(see perfbench/calibrate.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
and one traced pass over the same items and prints the per-layer metrics
from the spans, with the tracing overhead.  Either way the last line of
stdout is one JSON object; a record of the run, with the generator
accounting, goes to `.bench_out/`, and with `--trace 1` so do the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference_digests.json"

# Set-up is repeated and its median reported, so that one slow build does
# not read as a regression.
SETUP_REPEATS = 3

WORKLOADS = ("derive", "reduce", "small-terms", "cli")

TIMED_LAYERS = (
    "textio.json_load", "textio.json_dump", "textio.parse", "textio.print",
    "derivation.validate", "typecheck.check", "typecheck.infer",
    "rewrite.normalize", "rewrite.find_redexes", "rewrite.step",
    "duality.dual_derivation", "duality.dual_term",
    "meaning.sense", "meaning.identity", "syntax.alpha_eq",
    "testkit.gen", "testkit.oracle",
)
GROWTH_LAYERS = ("textio.json_load", "typecheck.check", "rewrite.normalize")
COUNTS = (
    "textio.json_bytes", "derivation.nodes", "rewrite.steps", "rewrite.fuel_exhausted",
    "rewrite.normalize_skipped", "meaning.sense_entries", "testkit.oracle_reachable",
    "testkit.oracle_incomplete",
)
CLI_GROUPS = ("check", "infer", "normalize", "dualize", "equal", "sense", "gen", "errors")

END_TO_END = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}_calls"] = "count"
        units[f"{name}_s"] = "s"
        units[f"{name}_p99_ms"] = "ms"
    for name in GROWTH_LAYERS:
        units[f"{name}_growth"] = "slope"
    for name in COUNTS:
        units[name] = "count"
    units["rewrite.peak_term_nodes"] = "count"
    units["testkit.gen_rejected"] = "count"
    units["testkit.gen_accept_ratio"] = "ratio"
    for group in CLI_GROUPS:
        units[f"cli.{group}_p50_ms"] = "ms"
    units["cli.startup_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.known_failures"] = "count"
    units["bench.item_s"] = "s"
    units["bench.self_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "cli":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return workloads.Cli(workdir, env)
    return {"derive": workloads.Derive, "reduce": workloads.Reduce,
            "small-terms": workloads.SmallTerms}[name]()


class Pass:
    """Item times, failures and known failures of one or more passes."""

    def __init__(self):
        self.times: list[float] = []
        self.by_item: dict[int, list[float]] = defaultdict(list)
        self.failures: list[str] = []
        self.known = 0

    def item_times(self) -> list[float]:
        """One time per corpus item: the median of its samples in the run."""
        return [statistics.median(ts) for ts in self.by_item.values()]


def measure(wl, corpus, tracer, cal, seconds, digest=None) -> Pass:
    """Items in corpus order, cycling, until `seconds` have passed.

    The first pass always completes (seconds=0 gives exactly one), and its
    outputs go into the digest.  Only `wl.run` is timed: reference checks of
    subprocess outputs, the digest and the calibration loop run outside the
    item time.
    """
    out = Pass()
    cal.sample()
    start = time.perf_counter()
    n = 0
    while n < len(corpus) or time.perf_counter() - start < seconds:
        i = n % len(corpus)
        e = corpus[i]
        cal.maybe()
        with tracer.span(tracing.ITEM, item=i, size=e.nodes):
            t0 = time.perf_counter()
            try:
                result, error = wl.run(e, tracer), None
            except Exception as ex:  # an item's failure is counted; the run goes on
                result, error = None, f"{type(ex).__name__}: {ex}"
            dt = time.perf_counter() - t0
        out.times.append(dt)
        out.by_item[i].append(dt)
        if error is None and hasattr(wl, "outcome"):
            verdict = wl.outcome(e, result)
            if verdict == "known":
                out.known += 1
            elif verdict != "ok":
                error = verdict
        if error is not None:
            out.failures.append(error)
        if digest is not None and n < len(corpus):
            text = wl.describe(e, result) if error is None else f"FAILED {error}"
            digest.update(text.encode() + b"\0")
        n += 1
    return out


def corpus_digest(corpus, workdir: Path) -> str:
    text = "\n".join(repr((e.data, e.nodes)) for e in corpus).replace(str(workdir), "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(setup_s: float, p: Pass, scale: float) -> tuple[dict, dict]:
    """The end-to-end metrics, item times scaled by `scale`, and notes on them.

    items_per_s counts every item run.  The median and the tail are taken
    over corpus items, each timed by the median of its runs, so that an
    item met twice is not two of the ten samples beyond the tail.
    setup_s comes already scaled, by the calibration samples of set-up.
    """
    per_item = p.item_times()
    pct, tail_s = tracing.tail(per_item)
    beyond = sum(1 for t in per_item if t > tail_s)
    raw = {
        "items_per_s": len(p.times) / sum(p.times),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * tail_s,
    }
    values = {name: value * scale for name, value in raw.items()}
    values["items_per_s"] = raw["items_per_s"] / scale
    values = {"setup_s": setup_s, **values, "peak_rss_mb": peak_rss_mb()}
    notes = {name: f"measured {value:.6g}" for name, value in raw.items()}
    notes["item_tail_ms"] += f"; p{pct:g} of {len(per_item)} items, {beyond} beyond it"
    notes["failed_ratio"] = (f"{(len(p.failures) + p.known) / len(p.times):.6g}: "
                             f"{len(p.failures)} failed, {p.known} known failures"
                             f" of {len(p.times)} attempted")
    return values, notes


def per_layer(tracer, acct, untraced: Pass, traced: Pass, wl, scales) -> dict:
    """Per-layer metrics from the traced pass, times scaled like the end-to-end ones.

    scales: calibration factors of the untraced pass, the traced pass and
    the whole run.
    """
    scale_untraced, scale, scale_run = scales
    stats = tracing.layer_stats(tracer.spans)
    values = {}
    for name in TIMED_LAYERS:
        s = stats.get(name, {"calls": 0, "s": 0.0, "p99_ms": 0.0})
        values[f"{name}_calls"] = s["calls"]
        values[f"{name}_s"] = s["s"] * scale
        values[f"{name}_p99_ms"] = s["p99_ms"] * scale
    for name in GROWTH_LAYERS:
        values[f"{name}_growth"] = tracing.growth(stats.get(name, {"points": []})["points"])
    for name in COUNTS:
        values[name] = tracer.counts[name]
    values["rewrite.peak_term_nodes"] = tracer.peaks.get("rewrite.peak_term_nodes", 0)
    values["testkit.gen_rejected"] = sum(acct.rejected.values())
    values["testkit.gen_accept_ratio"] = acct.accepted / acct.tried
    for group in CLI_GROUPS:
        ds = [end - start for name, start, end, *_ in tracer.spans if name == f"cli.{group}"]
        values[f"cli.{group}_p50_ms"] = 1000 * statistics.median(ds) * scale if ds else 0.0
    if hasattr(wl, "probe_ms"):
        startup = wl.probe_ms("pass", 7)
        values["cli.startup_ms"] = startup * scale_run
        values["cli.import_ms"] = (wl.probe_ms("import l2int.cli", 7) - startup) * scale_run
    else:
        values["cli.startup_ms"] = values["cli.import_ms"] = 0.0
    values["cli.known_failures"] = traced.known
    own = tracing.self_times(tracer.spans)
    items = [i for i, s in enumerate(tracer.spans) if s[0] == tracing.ITEM]
    item_s = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in items)
    values["bench.item_s"] = item_s * scale
    values["bench.self_share"] = sum(own[i] for i in items) / item_s
    values["trace.overhead_ratio"] = (
        sum(traced.times) * scale / (sum(untraced.times) * scale_untraced) - 1
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "l2int" / "__init__.py").is_file():
        print(f"perfbench: l2int sources not found under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import l2int
    import workloads  # noqa: F401  (imports the rest of l2int)
    import_s = time.perf_counter() - t0
    if Path(l2int.__file__).resolve().parent != SRC / "l2int":
        print(f"perfbench: imported l2int from {l2int.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    try:
        return run(args, import_s, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, import_s, workdir, tag) -> int:
    from workloads import Accounting

    wl = make_workload(args.workload, workdir)
    cal = Calibrator()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    null = tracing.NullTracer()
    builds, digests, corpus = [], [], None
    cal.sample(3)
    for k in range(SETUP_REPEATS):
        corpus = None  # keep one corpus alive at a time, for peak_rss_mb
        acct = Accounting()
        t = tracer if k == SETUP_REPEATS - 1 else null
        t0 = time.perf_counter()
        with t.span(tracing.SETUP):
            corpus = wl.build(args.seed, acct, t)
        builds.append(time.perf_counter() - t0)
        cal.sample(3)
        digests.append(corpus_digest(corpus, workdir))
    deterministic = len(set(digests)) == 1
    setup_s = (import_s + statistics.median(builds)) * cal.factor()

    output = hashlib.sha256()
    if args.trace:
        first = len(cal.samples)
        untraced = measure(wl, corpus, null, cal, 0, output)
        second = len(cal.samples)
        traced = measure(wl, corpus, tracer, cal, 0)
        passes = [untraced, traced]
        scales = (cal.factor(first, second), cal.factor(second), cal.factor())
        metrics = per_layer(tracer, acct, untraced, traced, wl, scales)
        units = per_layer_units()
        notes = {}
        tracer.write(OUT / f"{tag}-spans.jsonl")
    else:
        first = len(cal.samples)
        p = measure(wl, corpus, null, cal, args.seconds, output)
        passes = [p]
        metrics, notes = end_to_end(setup_s, p, cal.factor(first))
        units = END_TO_END

    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    known = sum(p.known for p in passes)
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {}) if REFERENCE.is_file() else {}
    expected = reference.get(str(args.seed))
    out_digest = output.hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "corpus_items": len(corpus), "corpus_digest": digests[0],
        "corpus_deterministic": deterministic, "setup_builds_s": builds, "import_s": import_s,
        "calibration_loop_s": cal.samples, "calibration_factor": cal.factor(),
        "output_digest": out_digest,
        "output_digest_reference": expected,
        "generator": acct.as_dict(), "attempted": attempted, "failed": len(failures),
        "known_failures": known, "failures": failures[:20], "metrics": metrics, "notes": notes,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  corpus {len(corpus)} items  "
          f"attempted {attempted}  failed {len(failures)}  known failures {known}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34} {value:.6g} {units[name]}{note}")
    for name in notes.keys() - metrics.keys():
        print(f"  {name:34} {notes[name]}")
    print(f"  generator: {json.dumps(acct.as_dict())}")
    print(f"  corpus digest {digests[0][:16]} ({'same' if deterministic else 'DIFFERS'} "
          f"on {SETUP_REPEATS} builds)")
    match = "no reference" if expected is None else (
        "matches the reference" if expected == out_digest else "DIFFERS from the reference")
    print(f"  output digest {out_digest[:16]} ({match})")
    for f in failures[:5]:
        print(f"  failure: {f}")

    result = {
        "correct": deterministic and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
