"""Tests of the benchmark itself: self times, the report checks, the metric
lists and a smoke run of the whole runner.  Run with
``python3 -m pytest perfbench``."""

import json
import math
import threading
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, OrderReference, Workload, check_report

HERE = Path(__file__).resolve().parent


def _span(sid, start, end, parent=None, thread=1, name="x"):
    return spans.Span(sid, name, start, end, parent, thread)


def test_self_time_nested():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 2.0, 8.0, parent=1),
        _span(3, 3.0, 5.0, parent=2),
    ]
    assert spans.self_times(tree) == {1: 4.0, 2: 4.0, 3: 2.0}


def test_self_time_takes_union_of_children_on_threads():
    tree = [
        _span(1, 0.0, 10.0, thread=1),
        _span(2, 1.0, 5.0, parent=1, thread=2),
        _span(3, 3.0, 8.0, parent=1, thread=3),
        _span(4, 9.0, 9.5, parent=1, thread=1),
    ]
    # union [1, 8] + [9, 9.5] = 7.5, not the sum 4 + 5 + 0.5
    assert spans.self_times(tree)[1] == pytest.approx(2.5)


def test_self_time_clips_children_to_parent():
    tree = [_span(1, 0.0, 4.0), _span(2, 3.0, 6.0, parent=1)]
    assert spans.self_times(tree)[1] == pytest.approx(3.0)


def test_pool_tasks_inherit_the_submitting_span():
    tracer = spans.Tracer()
    pool_cls = tracer.executor_class()
    barrier = threading.Barrier(2, timeout=10)

    def task():
        barrier.wait()
        return tracer.call("child", lambda: threading.get_ident())

    def outer():
        with pool_cls(max_workers=2) as pool:
            futs = [pool.submit(task) for _ in range(2)]
            return [f.result(timeout=10) for f in futs]

    threads = tracer.call("outer", outer)
    assert len(set(threads)) == 2
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    children = [s for s in tracer.spans if s.name == "child"]
    assert [c.parent for c in children] == [outer_span.sid] * 2
    totals = spans.span_totals(tracer.spans)
    assert totals["child"][0] == 2


def _rows(workload):
    return [
        {"k": k, "cells": r.cells, "dofs": r.dofs, "energy_final": r.energy_final,
         "err_l2": r.err_l2, "err_h1": r.err_h1, "cond": 1.0}
        for k, r in workload.references.items()
    ]


# three orders on one mesh, as the seed commit reported them at area 1e-2
SWEEP = Workload("sweep", 1e-2, 0.25, (1, 2, 3), "several orders on one mesh", {
    1: OrderReference(1547, 1382, 689373, 0.011583665096276898, 0.42497320376902503),
    2: OrderReference(1547, 5857, 689373, 0.00029423008560074403, 0.022455326903729235),
    3: OrderReference(1547, 11879, 689373, 7.167070720135908e-06, 0.0006486504683037559),
})


def test_check_report_accepts_references_and_flags_changes():
    w = SWEEP
    assert check_report(w, 0, _rows(w)) == []
    rows = _rows(w)
    rows[1]["cells"] += 1
    rows[2]["err_l2"] *= 1.001
    assert len(check_report(w, 0, rows)) == 2
    assert check_report(w, 0, _rows(w)[:2]) != []


def test_check_report_flags_non_finite_and_ceilings():
    w = WORKLOADS["n1-k3"]
    rows = _rows(w)
    rows[0]["cond"] = math.nan
    assert any("cond" in p for p in check_report(w, 0, rows))
    rows = _rows(w)
    rows[0]["err_h1"] *= 3.0
    assert check_report(w, 7, rows) != []
    assert check_report(w, 7, _rows(w)) == []


def test_seed_zero_runs_the_nominal_area():
    w = WORKLOADS["n1-agglo"]
    assert w.area_for(0) == w.area
    assert w.area_for(3) == w.area_for(3) != w.area


def test_benchmark_json_matches_runner_and_predictions():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.expected_metrics(False)
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layers == run.expected_metrics(True)
    groups = json.loads((HERE / "predictions.json").read_text())["groups"]
    cited = [m for g in groups for m in g["metrics"]]
    assert sorted(cited) == sorted(layers)
    e2e = set(run.END_TO_END) | {"energy_final"}
    for g in groups:
        named = set(g["moves"]) | set(g["must_not_move"])
        assert named <= e2e, g["name"]
        workloads = {w for ws in (*g["moves"].values(), *g["must_not_move"].values(),
                                  g["no_change_on"]) for w in ws}
        assert workloads <= set(WORKLOADS), g["name"]


SMOKE = Workload("smoke", 0.1, 1.0, (1, 2), "coarse mesh for a quick run")


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_smoke(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, SMOKE.name, SMOKE)
    code = run.main(["--workload", SMOKE.name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == run.expected_metrics(bool(trace))
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    record = json.loads(lines[-2].removeprefix("record "))
    assert record["env"]["seed"] == 5 and record["env"]["cpu_count"] >= 1
    if trace:
        assert metrics["agglomerate.swaps"]["value"] > 0
        assert metrics["vem.build_element.calls"]["value"] > 0
