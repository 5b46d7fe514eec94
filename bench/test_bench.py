"""Tests for the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_NAMES = ["ladder", "wide", "lattice", "corpus"]
END_TO_END_NAMES = ["setup_s", "pass_s", "instance_p50_ms", "instance_p99_ms", "peak_rss_mb"]
PER_LAYER_NAMES = [
    "ideals.enumerate_s", "ideals.closure_calls", "ideals.family_members",
    "ideals.closures_per_ideal", "ideals.partial_families",
    "poset.lattice_class_s", "poset.lattice_class_calls", "poset.is_irreducible_s",
    "poset.is_irreducible_calls", "poset.dual_calls",
    "galois.verify_s", "galois.verify_calls", "galois.pairs", "ideals.family_poset_s",
    "ideals.family_poset_calls", "divisor.connection_s",
    "divisor.derive_system_s", "divisor.derive_system_calls", "divisor.classify_s",
    "divisor.d6_s",
    "ideals.conditions_s", "ideals.harness_s", "monoid.checks_s",
    "topology.toporep_s", "products.orderrep_s",
    "builders.generate_s", "instances.self_s", "reporting.render_s", "reporting.bytes",
    "instances.errors", "instances.errors.ValueError", "instances.check_failures",
    "trace.pass_s", "trace.overhead_frac",
]
# Small, quick inputs that still cross every layer and include a crash.
TOKENS = ["div:60", "free:2,2", "hilbert:44", "krullZ2", "random:9,3", "random:5,752100"]


@pytest.fixture(scope="module")
def package():
    sys.path.insert(0, str(run.SRC))
    run.setup_once("wide", 0)


def test_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOAD_NAMES
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END_NAMES
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER_NAMES


def test_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_corpus_inputs_follow_the_seed():
    a, b = workloads.tokens_for("corpus", 1), workloads.tokens_for("corpus", 2)
    assert a == workloads.tokens_for("corpus", 1)
    assert a != b
    assert len(a) >= 1000
    assert workloads.tokens_for("ladder", 1) == workloads.tokens_for("ladder", 2)


def _traced_pass(tokens, pass_no):
    tracer = Tracer()
    tracer.install()
    try:
        result = workloads.run_pass("report", tokens, tracer, pass_no)
    finally:
        tracer.uninstall()
    return tracer, result


def test_traced_and_untraced_digests_agree(package):
    plain = workloads.run_pass("report", TOKENS, pass_no=0)
    _, traced = _traced_pass(TOKENS, 1)
    assert plain.digest == traced.digest
    assert plain.record_hashes == traced.record_hashes


def test_tracer_restores_every_function(package):
    from ordfactor import cli, ideals, instances

    before = (cli.main, instances.enumerate_ideals, ideals.enumerate_ideals,
              ideals.IdealFamily.poset)
    _traced_pass(["div:12"], 0)
    after = (cli.main, instances.enumerate_ideals, ideals.enumerate_ideals,
             ideals.IdealFamily.poset)
    assert before == after


def test_counts_repeat_exactly(package):
    counts = []
    for pass_no in (0, 1):
        tracer, _ = _traced_pass(TOKENS, pass_no)
        metrics = tracer.pass_metrics(pass_no)
        counts.append((dict(tracer.counts),
                       {k: v for k, v in metrics.items() if k.endswith("_calls")}))
    assert counts[0] == counts[1]
    assert counts[0][0]["ideals.closure_calls"] > 0


def test_span_tree_and_self_time(package):
    tracer, result = _traced_pass(["div:60"], 0)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    for name, start, end, parent, _, inst in tracer.spans:
        assert start <= end and inst == 0
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2]
    m = tracer.pass_metrics(0)
    assert 0 <= m["instances.self_s"] <= result.wall_s
    assert m["divisor.derive_system_calls"] == 2


def test_output_checks_catch_wrong_verdicts():
    good = workloads.Outcome(output=json.dumps({"checks": [
        {"condition": "krull", "verdict": "true"},
        {"condition": "ufd", "verdict": "false", "witness": "x"},
        {"condition": "harness_agreement", "verdict": "true"},
    ]}), rc=1)
    assert workloads.output_problems("report", "krullZ2", good) == []
    bad = workloads.Outcome(output=good.output.replace('"ufd", "verdict": "false"',
                                                       '"ufd", "verdict": "true"'), rc=1)
    assert workloads.output_problems("report", "krullZ2", bad) == ["ufd is not false"]
    assert workloads.output_problems("report", "div:6", workloads.Outcome(rc=3)) == [
        "exit code 3"]


def test_run_prints_a_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "wide", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER_NAMES
    assert sum(line.startswith("digest ") for line in lines) == 1
    assert "distinct" not in next(line for line in lines if line.startswith("digest "))


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
