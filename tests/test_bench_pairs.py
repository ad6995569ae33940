"""tools/bench_pairs.py on two synthetic checkouts' perfbench results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "logprob_rows_per_s", "better": "higher", "bound": 0.24},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_runs(checkout, src, runs, machine="m1", failed=None):
    """One trace-0 result per (workload, seed): {(workload, seed): metrics}.
    Each run attempts 10 train and 5 invert ops; `failed` maps a (workload,
    seed) to its failed invert ops (none by default)."""
    results = checkout / ".perfbench" / "results" / machine
    results.mkdir(parents=True, exist_ok=True)
    for (workload, seed), metrics in runs.items():
        env = {"machine_id": machine, "src_sha256": src, "workload": workload, "seed": seed}
        phases = {"train": {"attempted": 10, "failed": 0},
                  "invert": {"attempted": 5, "failed": (failed or {}).get((workload, seed), 0)}}
        (results / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps({"env": env, "metrics": metrics, "phases": phases}))


@pytest.fixture
def checkouts(tmp_path):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": METRICS}))
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "old", {("w", s): {"logprob_rows_per_s": 100.0 + s, "peak_rss_mb": 50.0}
                               for s in (1, 2, 3, 4)})
    # seed 4 has no change run, seed 5 no parent run; seed 3 is slower
    write_runs(change, "new", {("w", s): {"logprob_rows_per_s": 110.0 + s - 20 * (s == 3),
                                          "peak_rss_mb": 40.0} for s in (1, 2, 3, 5)})
    return benchmark, parent, change


def test_pairs_medians_quartiles_and_wins(checkouts, tmp_path):
    benchmark, parent, change = checkouts
    out = tmp_path / "BENCH_1.json"
    assert load_tool().main([str(parent), str(change), "-o", str(out),
                             "--benchmark", str(benchmark)]) == 0
    report = json.loads(out.read_text())
    assert report["machine_id"] == "m1"
    assert report["env"]["parent"] == {"machine_id": "m1", "src_sha256": "old"}
    assert report["env"]["change"]["src_sha256"] == "new"
    # seeds 4 and 5 have no partner, so neither side's summary reads them
    logprob = report["workloads"]["w"]["logprob_rows_per_s"]
    assert logprob["parent"]["per_seed"] == {"1": 101.0, "2": 102.0, "3": 103.0}
    assert logprob["parent"]["median"] == 102.0
    assert (logprob["parent"]["p25"], logprob["parent"]["p75"]) == (101.5, 102.5)
    assert logprob["change"]["per_seed"] == {"1": 111.0, "2": 112.0, "3": 93.0}
    assert (logprob["wins"], logprob["pairs"]) == (2, 3)
    rss = report["workloads"]["w"]["peak_rss_mb"]
    assert rss["better"] == "lower" and (rss["wins"], rss["pairs"]) == (3, 3)
    assert logprob["unresolved"] is False and rss["unresolved"] is False


@pytest.mark.parametrize("metric, parent_values, change_values, unresolved", [
    # spread (p75 - p25) / |median|: 1.5 / 101.5 against the bound 0.24
    ("logprob_rows_per_s", (100.0, 101.0, 102.0, 103.0), (90.0, 91.0, 92.0, 93.0), False),
    # 60 / 120 = 0.5 > 0.24
    ("logprob_rows_per_s", (60.0, 100.0, 140.0, 180.0), (70.0, 110.0, 150.0, 190.0), True),
    # as wide, but every change run beats every parent run
    ("logprob_rows_per_s", (60.0, 100.0, 140.0, 180.0), (181.0, 190.0, 200.0, 210.0), False),
    # 30 / 70 > 0.1 on a lower-is-better metric, separated and not
    ("peak_rss_mb", (40.0, 60.0, 80.0, 100.0), (10.0, 20.0, 30.0, 39.0), False),
    ("peak_rss_mb", (40.0, 60.0, 80.0, 100.0), (10.0, 20.0, 30.0, 45.0), True),
], ids=["narrow", "wide", "wide_but_separated", "wide_lower_separated", "wide_lower"])
def test_unresolved_when_the_parent_spread_exceeds_the_bound(
        tmp_path, metric, parent_values, change_values, unresolved):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": METRICS}))
    parent, change = tmp_path / "parent", tmp_path / "change"
    steady = {"logprob_rows_per_s": 100.0, "peak_rss_mb": 50.0}
    for checkout, src, values in ((parent, "old", parent_values), (change, "new", change_values)):
        write_runs(checkout, src, {("w", s): {**steady, metric: v}
                                   for s, v in enumerate(values, start=1)})
    out = tmp_path / "BENCH_1.json"
    assert load_tool().main([str(parent), str(change), "-o", str(out),
                             "--benchmark", str(benchmark)]) == 0
    rows = json.loads(out.read_text())["workloads"]["w"]
    assert rows[metric]["unresolved"] is unresolved
    # the other metric is the same on every run: no spread
    other = next(m["name"] for m in METRICS if m["name"] != metric)
    assert rows[other]["unresolved"] is False


def test_unpaired_runs_leave_every_summary_unchanged(checkouts, tmp_path):
    benchmark, parent, change = checkouts

    def workloads():
        out = tmp_path / "BENCH_1.json"
        assert load_tool().main([str(parent), str(change), "-o", str(out),
                                 "--benchmark", str(benchmark)]) == 0
        return json.loads(out.read_text())["workloads"]

    before = workloads()
    # one more parent run, far from the others, with no change run; and a
    # workload that only one seed of each side ran
    write_runs(parent, "old", {("w", 6): {"logprob_rows_per_s": 1e6, "peak_rss_mb": 1e6},
                               ("v", 1): {"logprob_rows_per_s": 1.0, "peak_rss_mb": 1.0}})
    write_runs(change, "new", {("v", 2): {"logprob_rows_per_s": 2.0, "peak_rss_mb": 2.0}})
    assert workloads() == before


def test_failed_ops_summed_over_the_pairs(tmp_path):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": METRICS}))
    parent, change = tmp_path / "parent", tmp_path / "change"
    metrics = {"logprob_rows_per_s": 100.0, "peak_rss_mb": 50.0}
    write_runs(parent, "old", {("w", s): metrics for s in (1, 2, 3)})
    # seed 4 has no parent run, so its failures are not counted
    write_runs(change, "new", {("w", s): metrics for s in (1, 2, 3, 4)},
               failed={("w", 2): 3, ("w", 3): 1, ("w", 4): 5})
    out = tmp_path / "BENCH_1.json"
    assert load_tool().main([str(parent), str(change), "-o", str(out),
                             "--benchmark", str(benchmark)]) == 0
    ops = json.loads(out.read_text())["workloads"]["w"]["ops"]
    assert ops == {"parent": {"attempted": 45, "failed": 0},
                   "change": {"attempted": 45, "failed": 4},
                   "failed_differs": {"2": {"parent": 0, "change": 3},
                                      "3": {"parent": 0, "change": 1}}}


def test_failed_differs_names_only_seeds_whose_counts_differ(tmp_path):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": METRICS}))
    parent, change = tmp_path / "parent", tmp_path / "change"
    metrics = {"logprob_rows_per_s": 100.0, "peak_rss_mb": 50.0}
    seeds = {(w, s): metrics for w in ("v", "w") for s in (1, 2, 3)}
    # w: seed 1 fails equally on both sides, seed 2 fails only at the parent,
    # seed 3 more often in the change; v fails nowhere
    write_runs(parent, "old", seeds, failed={("w", 1): 2, ("w", 2): 1, ("w", 3): 1})
    write_runs(change, "new", seeds, failed={("w", 1): 2, ("w", 3): 2})
    out = tmp_path / "BENCH_1.json"
    assert load_tool().main([str(parent), str(change), "-o", str(out),
                             "--benchmark", str(benchmark)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["w"]["ops"]["failed_differs"] == {"2": {"parent": 1, "change": 0},
                                                       "3": {"parent": 1, "change": 2}}
    assert workloads["w"]["ops"]["parent"]["failed"] == workloads["w"]["ops"]["change"]["failed"]
    assert workloads["v"]["ops"]["failed_differs"] == {}


def test_mixed_source_trees_are_refused(checkouts, tmp_path):
    benchmark, parent, change = checkouts
    write_runs(change, "stale", {("w", 9): {"logprob_rows_per_s": 1.0, "peak_rss_mb": 1.0}})
    with pytest.raises(SystemExit, match="source trees"):
        load_tool().main([str(parent), str(change), "-o", str(tmp_path / "x.json"),
                          "--benchmark", str(benchmark)])


def test_other_or_several_machines_are_refused(checkouts, tmp_path):
    benchmark, parent, change = checkouts
    args = [str(parent), str(change), "-o", str(tmp_path / "x.json"), "--benchmark", str(benchmark)]
    results = change / ".perfbench" / "results"
    (results / "m1").rename(results / "m2")
    with pytest.raises(SystemExit, match="machines m1 and m2"):
        load_tool().main(args)
    write_runs(change, "new", {("w", 1): {"logprob_rows_per_s": 1.0, "peak_rss_mb": 1.0}})
    with pytest.raises(SystemExit, match="not of one"):
        load_tool().main(args)
