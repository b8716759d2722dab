"""The layer trace reports the metrics BENCHMARK.json names, per traced round."""

import json
import os

import numpy as np

import child
import layertrace
from workloads import Query

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_layer_metrics_are_the_per_layer_metrics_of_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert names == list(layertrace.LAYER_METRICS) + ["trace.overhead_s"]


def _traced_metrics(monkeypatch, timed_rounds):
    import setcensus

    monkeypatch.setattr(child, "MIN_TIMED_ROUNDS", timed_rounds)
    queries = [
        Query("count", "count", {},
              lambda ctx, state: setcensus.exact.count(ctx["trees"], 30, 5), int),
        Query("forests", "forests", {},
              lambda ctx, state: [setcensus.sampler.sample_forest(8, 6, rng=ctx["rng"])
                                  for _ in range(5)], len),
    ]
    recorder = layertrace.Recorder()
    recorder.install()
    ctx = {"trees": setcensus.species.builtin("trees"), "rng": np.random.default_rng(0)}
    setup_spans = recorder.take()
    with child.SpeedSampler() as sampler:
        _records, latencies, errors, spans = child.traced_run(queries, ctx, 0.0, sampler, recorder)
    assert errors == [] and len(latencies["count"]) == timed_rounds
    return layertrace.layer_metrics(setup_spans, spans, timed_rounds // 2, 1.0)


def test_layer_counts_do_not_depend_on_the_number_of_rounds(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the trace directory is relative to the working directory
    few, many = (_traced_metrics(monkeypatch, rounds) for rounds in (2, 6))
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in (few, many)]
    assert counts[0] == counts[1]
    assert counts[0]["sampler.sample_forest.calls"] == 5
    assert counts[0]["asymptotics.solve_supercritical.calls"] == 5
    assert few["exact.count.self_s"]["value"] > 0
