"""Tests of the benchmark's own helpers (no rotorgrating run needed)."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import (  # noqa: E402
    OVERHEAD,
    Recorder,
    Span,
    covered,
    median,
    overhead_within,
    percentile,
    replace_everywhere,
    self_times,
)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping by 1),
    # a has child c [2, 3]; d [8, 12] sticks out of root and is clipped
    return [
        Span(0, "root", None, "r", 0.0, 10.0),
        Span(1, "a", 0, "r", 1.0, 4.0),
        Span(2, "b", 0, "r", 3.0, 6.0),
        Span(3, "c", 1, "r", 2.0, 3.0),
        Span(4, "d", 0, "r", 8.0, 12.0),
    ]


def test_self_time_subtracts_union_of_children():
    own = self_times(_tree())
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)  # [1, 6] and [8, 10] covered
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_covered_clips_and_merges():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == pytest.approx(1.0)
    assert covered([], 0, 1) == 0.0


def test_overhead_is_charged_to_every_ancestor():
    spans = _tree() + [Span(5, OVERHEAD, 3, "r", 2.2, 2.7)]
    extra = overhead_within(spans)
    assert extra[3] == pytest.approx(0.5)
    assert extra[1] == pytest.approx(0.5)
    assert extra[0] == pytest.approx(0.5)
    assert extra[2] == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 10, 33])
def test_percentiles_match_numpy(n):
    values = list(np.random.default_rng(n).normal(size=n))
    for q in (0, 10, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert median(values) == pytest.approx(np.median(values))
    assert median([]) == 0.0


def test_recorder_nests_spans_and_times_counters_apart():
    rec = Recorder("run-1")
    seen = []

    def inner(x):
        return x + 1

    def counter(span, result, args, kwargs):
        seen.append((span.name, result, args))

    traced_inner = rec.wrap("inner", inner, counter)
    outer = rec.wrap("outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), (OVERHEAD, 0)]
    assert seen == [("inner", 2, (1,))]
    inner_span, bookkeeping = rec.spans[1], rec.spans[2]
    assert bookkeeping.start >= inner_span.end
    assert all(s.run_id == "run-1" for s in rec.spans)


def test_replace_everywhere_rebinds_imported_names(monkeypatch):
    def f():
        return "original"

    pkg, sub = types.ModuleType("fakepkg"), types.ModuleType("fakepkg.sub")
    other = types.ModuleType("otherpkg")
    pkg.f = sub.f = sub.alias = other.f = f
    for mod in (pkg, sub, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    assert replace_everywhere(f, lambda: "wrapped", "fakepkg") == 3
    assert sub.alias() == pkg.f() == "wrapped"
    assert other.f is f


def test_layer_metrics_from_synthetic_spans():
    spans = [
        Span(0, "bench.run", None, "r", 0.0, 10.0),
        Span(1, "retrieval.fit", 0, "r", 0.0, 4.0, {"evaluations": 3, "cache_misses": 2}),
        Span(2, "retrieval.cache.lookup", 1, "r", 0.5, 1.5, {"miss": 1, "entries": 1}),
        Span(3, "retrieval.cache.lookup", 1, "r", 2.0, 3.0, {"miss": 1, "entries": 2}),
        Span(4, "retrieval.cache.lookup", 1, "r", 3.0, 3.5, {"miss": 0, "entries": 2}),
        Span(5, "retrieval.fit", 0, "r", 5.0, 6.0, {"evaluations": 1, "cache_misses": 2}),
        Span(6, "dynamics.tdse", 0, "r", 6.0, 9.0,
             {"rhs_calls": 10, "system_dim": 7, "norm_dev": 1e-12, "edge_leak": 0.0,
              "j_max": 20, "regrows": 1}),
        Span(7, OVERHEAD, 0, "r", 9.0, 9.5),
    ]
    m = layer_metrics(spans, 123)
    assert m["retrieval.fit.cold_s"] == pytest.approx(4.0)
    assert m["retrieval.fit.warm_s_p50"] == pytest.approx(1.0)
    assert m["retrieval.fit.cold_misses"] == 2
    assert m["retrieval.objective.evals"] == 4
    assert m["retrieval.cache.lookups"] == 3
    assert m["retrieval.cache.hit_rate"] == pytest.approx(1 / 3)
    assert m["retrieval.cache.entries"] == 2
    assert m["dynamics.tdse.calls"] == 1
    assert m["dynamics.tdse.rhs_calls"] == 10
    assert m["dynamics.regrows"] == 1
    assert m["dynamics.kick.ms_p50"] == 0.0
    assert m["cli.write.bytes"] == 123


def test_every_printed_metric_is_declared():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    rep = {"setup_s": 0.5, "run_s": 2.0, "peak_rss_mb": 90.0, "cpu_s": 3.0,
           "layers": layer_metrics([], 0)}
    assert set(run.per_layer([rep], [rep], 0.0)) == set(per_layer)
    assert len(per_layer) == len(BENCHMARK["per_layer"])
    assert set(run.end_to_end([rep])) == set(end_to_end)
    assert run.END_TO_END == end_to_end
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
