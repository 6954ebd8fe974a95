import json

from conftest import BENCH
from run import WORKLOADS, Run

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def names_and_units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metrics_match_the_spec():
    run = Run("sample-1943", 0, False)
    assert names_and_units(run.end_to_end(0.1)) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert names_and_units(run.per_layer()[0]) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_a_layout_without_a_whole_round_is_null_and_incorrect():
    run = Run("campaign-small", 0, False)
    metrics = run.end_to_end(0.1)
    assert metrics["setup_s"] == (0.1, "s")
    assert all(value is None for name, (value, _) in metrics.items() if name != "setup_s")
    assert len(run.problems) == 2
