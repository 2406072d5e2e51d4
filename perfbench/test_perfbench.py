"""Tests of the benchmark itself: `python -m pytest perfbench` from the root.

They shrink the corpora so that each test takes seconds; the workloads'
pipelines and reference checks are the ones the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import Accounting  # noqa: E402

SMALL_BANDS = {
    "derive": ((1, 12, 12), (13, 30, 4)),
    "reduce": ((0, 100, 12), (101, 10_000, 4), (100_001, 200_000, 1)),
}


@pytest.fixture
def small(monkeypatch):
    for cls, name in ((workloads.Derive, "derive"), (workloads.Reduce, "reduce")):
        monkeypatch.setattr(cls, "bands", SMALL_BANDS[name])
    monkeypatch.setattr(workloads.SmallTerms, "bands", ((1, 1, 30), (2, 7, 10)))
    monkeypatch.setattr(workloads.Cli, "rounds", 1)


def one_pass(name, seed, workdir):
    wl = run.make_workload(name, workdir)
    acct = Accounting()
    corpus = wl.build(seed, acct, tracing.NullTracer())
    digest = hashlib.sha256()
    p = run.measure(wl, corpus, tracing.NullTracer(), Calibrator(), 0, digest)
    return run.corpus_digest(corpus, workdir), digest.hexdigest(), p, acct


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_corpus_and_digest(small, tmp_path, name):
    first = one_pass(name, 3, tmp_path / "a")
    again = one_pass(name, 3, tmp_path / "b")
    other = one_pass(name, 4, tmp_path / "a")
    assert first[:2] == again[:2]
    assert other[0] != first[0]
    for _, _, p, acct in (first, other):
        assert p.failures == []
        assert acct.accepted == acct.tried - sum(acct.rejected.values()) - sum(acct.dropped.values())


def test_cli_known_failures_are_the_deep_inputs(small, tmp_path):
    _, _, p, _ = one_pass("cli", 1, tmp_path)
    corpus = run.make_workload("cli", tmp_path).build(1, Accounting(), tracing.NullTracer())
    deep = [e for e in corpus if e.data.known]
    assert {e.data.known for e in deep} == set(workloads.KNOWN_FAILURES)
    # Only the deep inputs may end with their recorded seed-commit crash;
    # once fixed they exit 2 and pass.
    assert p.failures == []
    assert p.known <= len(deep)


def test_reference_checks_catch_a_wrong_output(small, tmp_path, monkeypatch):
    wl = workloads.SmallTerms()
    corpus = wl.build(1, Accounting(), tracing.NullTracer())
    monkeypatch.setattr(workloads, "print_term", lambda t: "top+")
    p = run.measure(wl, corpus, tracing.NullTracer(), Calibrator(), 0)
    assert len(p.failures) == len(corpus)


def test_redex_heavy_weights_match_the_acceptance_suite():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import REDEX_HEAVY_WEIGHTS

    assert workloads.REDEX_HEAVY_WEIGHTS == REDEX_HEAVY_WEIGHTS


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(small, tmp_path):
    wl = run.make_workload("reduce", tmp_path)
    tracer = tracing.Tracer()
    acct = Accounting()
    corpus = wl.build(2, acct, tracer)
    untraced = run.measure(wl, corpus, tracing.NullTracer(), Calibrator(), 0)
    traced = run.measure(wl, corpus, tracer, Calibrator(), 0)
    values = run.per_layer(tracer, acct, untraced, traced, wl, (1.0, 1.0, 1.0))
    assert values.keys() == run.per_layer_units().keys()
    assert values["typecheck.check_calls"] > 0
    assert values["testkit.gen_calls"] == acct.tried
    assert 0 <= values["bench.self_share"] < 1


def test_self_time_subtracts_children():
    spans = [
        ("item", 0.0, 10.0, -1, 0, 5),
        ("a", 1.0, 4.0, 0, 0, 5),
        ("b", 5.0, 6.0, 0, 0, 5),
    ]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    pct, value = tracing.tail(values)
    assert pct == 99.0
    assert sum(1 for v in values if v > value) >= 10


def test_growth_is_the_log_log_slope():
    points = [(n, 0.001 * n * n) for n in (25, 50, 100, 200)] + [(5, 1.0)]
    assert tracing.growth(points) == pytest.approx(2.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
