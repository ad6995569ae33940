"""Summarise paired benchmark runs of two checkouts as one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE -o BENCH_22.json

PARENT and CHANGE are checkouts in which ``perfbench/run.py --trace 0`` has
run, each leaving ``.perfbench/results/<machine_id>/<workload>-seed<s>-trace0.json``.
Runs of the same workload and seed on the two sides form a pair; a run
without a partner is left out.  For every workload and every end-to-end
metric of BENCHMARK.json the output holds each side's per-seed values,
median and quartiles over the pairs, and the number of pairs in which the
change is better, in the metric's direction (a tie is no win).  A metric is
marked ``unresolved`` when the parent's own spread, (p75 - p25) / |median|,
is wider than the metric's ``bound``, unless every change run beats every
parent run: such a spread cannot tell a change within the bound from one
beyond it.  Under
``ops`` it holds each side's ``attempted`` and ``failed`` ops, summed over
the phases of every paired run (the ``phases`` block of each result), since
a larger share of failed ops counts against a change like a slower metric,
and under ``ops.failed_differs`` each paired seed whose ``failed`` counts
differ between the sides, with both counts, so such a verdict names its seeds.
It also holds each side's ``env`` block, without its per-run workload and
seed.

Each side must hold the results of one machine, the same on both sides, and
each side's runs must come from one source tree (``src_sha256``), so stale
results in a checkout are refused, not mixed.

``src_sha256`` names the code a run measured: the hash of the ``src/tnaf``
files it imported.  ``env.git_commit`` is only HEAD of the checkout when the
run was made, so a change measured before it is committed shows its parent's
hash there.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")
OPS = ("attempted", "failed")


def load_side(checkout: Path) -> tuple[str, dict, dict]:
    """(machine id, env, {workload: {seed: metrics}}) of one checkout's runs;
    each run's metrics also hold its ``attempted`` and ``failed`` op counts."""
    results = checkout / ".perfbench" / "results"
    machines = sorted(p.name for p in results.glob("*") if p.is_dir())
    if len(machines) != 1:
        raise SystemExit(f"bench_pairs: {results} holds results of machines {machines}, "
                         "not of one")
    machine = machines[0]
    runs, envs = {}, {}
    for path in sorted((results / machine).glob("*-trace0.json")):
        match = RUN.fullmatch(path.name)
        if match is None:
            continue
        report = json.loads(path.read_text())
        env = {k: v for k, v in report["env"].items() if k not in ("workload", "seed")}
        envs.setdefault(env["src_sha256"], env)
        ops = {key: sum(phase[key] for phase in report["phases"].values()) for key in OPS}
        runs.setdefault(match["workload"], {})[int(match["seed"])] = {**report["metrics"], **ops}
    if not runs:
        raise SystemExit(f"bench_pairs: no trace-0 results under {results / machine}")
    if len(envs) != 1:
        raise SystemExit(f"bench_pairs: {results / machine} mixes runs of {len(envs)} "
                         "source trees")
    return machine, envs.popitem()[1], runs


def summary(values: dict) -> dict:
    p25, median, p75 = (float(q) for q in np.quantile(list(values.values()), [0.25, 0.5, 0.75]))
    return {"per_seed": {str(s): v for s, v in sorted(values.items())},
            "median": median, "p25": p25, "p75": p75}


def compare(parent: dict, change: dict, metrics: list) -> dict:
    """Per workload and metric: both sides' summaries over the paired seeds,
    the change's wins, and whether the parent's spread leaves the metric
    unresolved; under ``ops``, both sides' op counts summed over the paired
    seeds, and the seeds whose failed counts differ.  A workload without a
    pair is left out."""
    out = {}
    for workload in sorted(set(parent) & set(change)):
        old, new = parent[workload], change[workload]
        seeds = sorted(set(old) & set(new))
        if not seeds:
            continue
        rows = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            before = summary({s: old[s][name] for s in seeds})
            spread = before["p75"] - before["p25"]
            separated = min(sign * new[s][name] for s in seeds) > max(
                sign * old[s][name] for s in seeds)
            rows[name] = {
                "better": metric["better"],
                "parent": before,
                "change": summary({s: new[s][name] for s in seeds}),
                "wins": sum(sign * (new[s][name] - old[s][name]) > 0 for s in seeds),
                "pairs": len(seeds),
                "unresolved": spread > metric["bound"] * abs(before["median"]) and not separated,
            }
        rows["ops"] = {side: {key: sum(runs[s][key] for s in seeds) for key in OPS}
                       for side, runs in (("parent", old), ("change", new))}
        rows["ops"]["failed_differs"] = {
            str(s): {"parent": old[s]["failed"], "change": new[s]["failed"]}
            for s in seeds if old[s]["failed"] != new[s]["failed"]}
        out[workload] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    machine, parent_env, parent = load_side(args.parent)
    change_machine, change_env, change = load_side(args.change)
    if change_machine != machine:
        raise SystemExit(f"bench_pairs: the checkouts ran on machines {machine} and "
                         f"{change_machine}")
    report = {"machine_id": machine, "env": {"parent": parent_env, "change": change_env},
              "workloads": compare(parent, change, metrics)}
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
