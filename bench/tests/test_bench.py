"""Tests of the benchmark's own arithmetic, inputs, checks and tracing.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- self time -------------------------------------------------------------


def test_self_time_of_synthetic_nested_spans():
    # A [0,10] holds B [1,4] and D [5,9]; B holds C [2,3]; D holds its own
    # recursive call D' [6,8].
    name = [0, 1, 2, 3, 3]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    dur, own = spans.self_times(name, parent, start, end)
    assert dur == [10.0, 3.0, 1.0, 4.0, 2.0]
    assert own == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert sum(own) == dur[0]


def test_traced_recursion_nests_and_self_times_add_up():
    t = spans.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = t.wrap("toy.fact", fact)
    t.active = True
    assert traced(5) == 120
    t.active = False
    assert list(t.parent) == [-1, 0, 1, 2, 3]
    assert traced.__wrapped__ is fact
    metrics = spans.layer_metrics(t, wall_s=t.end[0] - t.start[0] + 0.5)
    assert metrics["trace.spans"] == 5
    assert metrics["trace.unspanned_s"] == pytest.approx(0.5)
    assert metrics["trace.self_sum_s"] + metrics["trace.unspanned_s"] == pytest.approx(metrics["trace.wall_s"])


# -- end-to-end arithmetic ---------------------------------------------------


def test_verdict_p50_and_max():
    assert run.verdict_stats([0.4, 0.1, 0.3, 0.2]) == (0.25, 0.4)
    assert run.verdict_stats([3.0, 1.0, 2.0]) == (2.0, 3.0)


def test_end_to_end_takes_medians_over_passes():
    passes = [
        {"inputs": 4, "loop_s": 2.0, "times": {"a": 0.1, "b": 0.2, "c": 0.3, "d": 1.4}, "peak_rss_mb": 20.0},
        {"inputs": 4, "loop_s": 4.0, "times": {"a": 0.1, "b": 0.4, "c": 0.5, "d": 3.0}, "peak_rss_mb": 22.0},
        {"inputs": 4, "loop_s": 1.0, "times": {"a": 0.1, "b": 0.1, "c": 0.1, "d": 0.7}, "peak_rss_mb": 21.0},
    ]
    m = run.end_to_end([0.3, 0.1, 0.2], passes)
    assert m == {
        "setup_s": 0.2,
        "inputs_per_s": 2.0,
        "verdict_s.p50": pytest.approx(0.25),
        "verdict_s.max": 1.4,
        "peak_rss_mb": 21.0,
    }


# -- inputs ------------------------------------------------------------------


def test_grid_text_repeats_for_a_seed_and_sizes_do_not_depend_on_it():
    assert workloads.inputs("grid", 7) == workloads.inputs("grid", 7)

    def sizes(seed):
        return sorted((i.name, len(i.text.splitlines()), len(i.text.split())) for i in workloads.inputs("grid", seed))

    assert all(sizes(seed) == sizes(1) for seed in range(2, 9))
    texts = {i.text for seed in range(1, 9) for i in workloads.inputs("grid", seed)}
    assert len(texts) > 6  # the seed does rename the generators


def test_seed_only_reorders_corpus_and_search():
    for workload in ("corpus", "search"):
        a, b = workloads.inputs(workload, 1), workloads.inputs(workload, 2)
        assert sorted(a, key=lambda i: i.name) == sorted(b, key=lambda i: i.name)
    assert len(workloads.inputs("corpus", 1)) == 50
    assert len(workloads.inputs("search", 1)) == 11


def _bracelets(k: int, q: int) -> int:
    """Light closed paths in the k-edge two-vertex star graph, up to rotation and inversion."""
    seen = set()
    for n in range(2, 2 * q, 2):
        for s in product(range(k), repeat=n):
            if all(s[i] != s[(i + 1) % n] for i in range(n)):
                r = s[::-1]
                seen.add(min(x[i:] + x[:i] for x in (s, r) for i in range(0, n, 2)))
    return len(seen)


@pytest.mark.parametrize("cell", workloads.grid_expected()["cells"][:2], ids=lambda c: f"k{c['k']}q{c['q']}")
def test_grid_expected_file_matches_an_independent_count(cell):
    k, q = cell["k"], cell["q"]
    assert cell["families"] == _bracelets(k, q)
    assert cell["survivors"] == cell["families"] - k * (k - 1) // 2 * (q - 1)


# -- checks ----------------------------------------------------------------


def _small_grid_pass(expect_override: dict):
    sw = worker._program()
    items = [i for i in workloads.inputs("grid", 3) if i.name == "grid_k4_q3"]
    items = [dataclasses.replace(i, expect={**i.expect, **expect_override}) for i in items]
    parsed = [sw.parse_scenario(i.text, name=i.name) for i in items]
    records, _ = worker.run_pass(sw, items, parsed)
    worker.check_records(sw, items, records)
    return [r for r in records if r["error"]]


def test_right_expectation_passes():
    assert _small_grid_pass({}) == []


def test_wrong_expected_verdict_raises_failed_share():
    failed = _small_grid_pass({"verdict": "Aspherical"})
    assert len(failed) == 1 and "verdict" in failed[0]["error"]
    assert _small_grid_pass({"survivors": 17})


def test_search_check_rejects_a_missing_certificate_line():
    sw = worker._program()
    item = workloads.Input("infeasible_k3", "search", workloads.INFEASIBLE_TEXT,
                           {"status": "infeasible", "certificate_has": "relator 9 condition"})
    outcome = sw.search_weights(sw.parse_scenario(item.text), sw.SearchConfig(max_iterations=64))
    assert outcome.status == "infeasible"
    assert "lacks" in workloads.check(item, outcome, sw)


# -- worker processes ----------------------------------------------------------


def _worker(mode: str, hashseed: str, tmp_path: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, str(BENCH / "worker.py"), "corpus", "5", mode, str(tmp_path / f"spans-{hashseed}.tsv.gz")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_untraced_process_runs_the_original_functions(tmp_path):
    result = _worker("pass", "0", tmp_path)
    assert result["wrapped_bindings"] == 0
    assert result["failed"] == [] and result["inputs"] == 50
    assert "layers" not in result


def test_traced_counts_repeat_under_two_hash_seeds(tmp_path):
    results = [_worker("trace", seed, tmp_path) for seed in ("1", "2")]
    assert all(r["wrapped_bindings"] > 0 and r["failed"] == [] for r in results)
    a, b = (r["layers"] for r in results)
    counts = {k for k in a if spans.is_count(k)}
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["facts.refute_trivial.calls"] > a["facts.refute_trivial.distinct"] > 0
    assert a["trace.self_sum_s"] + a["trace.unspanned_s"] == pytest.approx(a["trace.wall_s"])
    assert (tmp_path / "spans-1.tsv.gz").stat().st_size > 0
