"""T-NAF benchmark: train, log_prob, invert_rows and sample on three workloads.

    python3 perfbench/run.py --workload d8-cdf --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` splits
the budget in two halves on identically built models: an untraced pass, then
a pass with every layer wrapped in spans, and reports the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; call before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    """Import tnaf from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tnaf
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import tnaf from {src}: {err}")
    if Path(tnaf.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: tnaf imported from {tnaf.__file__}, not from {src}")
    return tnaf


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run set-up only and say "ready"; used to time set-up
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(args, clock) -> tuple[list[float], list[float]]:
    """Time from process spawn to the end of set-up, in fresh processes;
    returns (reference seconds, wall seconds) of each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, raw = [], []
    for _ in range(SETUP_REPS):
        before = clock.kernel()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        raw.append(t1 - t0)
        times.append(clock.scaled(t1 - t0, before, clock.kernel()))
    return times, raw


def environment(args, threads: int) -> dict:
    import numpy as np
    import tnaf

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(Path(tnaf.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    machine = f"{cpu} | {nproc} cpu | {platform.system()} {platform.machine()}"
    return {
        "machine": machine,
        "machine_id": hashlib.sha256(machine.encode()).hexdigest()[:12],
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# -- metrics -------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "logprob_rows_per_s": "rows/s",
    "invert_rows_per_s": "rows/s",
    "heldout_nll": "nats",
    "peak_rss_mb": "MiB",
}


def rows_per_s(times: list[float], rows_per_op: int) -> float:
    return rows_per_op / statistics.median(times) if times else 0.0


def end_to_end(w, result, setup_times) -> dict[str, float]:
    train = result.phases["train"]
    return {
        "setup_s": statistics.median(setup_times),
        # every train step takes one batch, so rows per step = rows / steps
        "train_rows_per_s": rows_per_s(train.times, train.rows / max(len(train.times), 1)),
        "logprob_rows_per_s": rows_per_s(result.phases["logprob"].times, w.batch),
        "invert_rows_per_s": rows_per_s(result.phases["invert"].times, w.invert_rows),
        "heldout_nll": result.heldout_nll,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def distributions(harness, w, result) -> dict:
    """Per-op time distributions, in reference and in wall seconds, per phase."""
    out = {}
    for name, res in result.phases.items():
        rows = w.batch if name in ("train", "logprob") else w.invert_rows
        out[name] = dict(harness.distribution(res.times), rows_per_op=rows,
                         attempted=res.attempted, failed=res.failed, wrong=res.wrong,
                         wall=harness.distribution(res.raw_times),
                         times=res.times, raw_times=res.raw_times)
    return out


SPAN_METRICS = (
    # (span name, phases, self time or total time)
    ("diffcore.backward", ("train",), "self"),
    ("diffcore.masked_softmax", ("train", "logprob", "invert"), "self"),
    ("diffcore.layer_norm", ("train", "logprob", "invert"), "self"),
    ("conditioner.condition", ("train", "logprob", "invert"), "total"),
    ("conditioner.encoder_layer", ("train", "logprob", "invert"), "self"),
    ("conditioner.embed_sequence", ("train", "logprob", "invert"), "self"),
    ("flow.head_proj", ("train", "logprob"), "self"),
    ("transforms.head_forward", ("train", "logprob"), "self"),
    ("flow.invert_rows", ("invert",), "self"),
    ("trainer.clip_gradients", ("train",), "self"),
    ("trainer.adam_step", ("train",), "self"),
    ("data.batch_wait", ("train",), "self"),
)
# Layers only some heads reach; reported where present, outside the final line.
HEAD_SPECIFIC = (
    ("transforms.monotone_bisect", ("invert",), "self"),
    ("transforms.spline_inverse_np", ("invert",), "self"),
)
MIB = float(2 ** 20)


def per_layer(tracer, traced) -> tuple[dict, dict]:
    """Per-op layer times and counts; returns (named metrics, head-specific).

    Span times are wall times; each phase's are scaled to reference seconds
    by the ratio of that phase's reference to wall op times.
    """
    table = tracer.layer_times()
    counts = tracer.counts
    ops = {p: r.attempted for p, r in traced.phases.items()}
    scale = {p: sum(r.times) / sum(r.raw_times) if r.raw_times else 1.0
             for p, r in traced.phases.items()}

    def times(specs, keep_absent):
        out = {}
        for span, phases, kind in specs:
            for phase in phases:
                row = table.get((phase, span))
                if row is None and not keep_absent:
                    continue
                value = row[kind] if row else 0.0
                out[f"{span}.{phase}_ms"] = 1e3 * value * scale[phase] / ops[phase]
        return out

    named = times(SPAN_METRICS, True)
    steps = ops["train"]
    named.update({
        "diffcore.nodes.train": counts[("train", "nodes")] / steps,
        "diffcore.node_mb.train": counts[("train", "node_bytes")] / MIB / steps,
        "diffcore.grad_copy_mb.train": counts[("train", "grad_copy_bytes")] / MIB / steps,
        "conditioner.tokens_per_dim.invert":
            counts[("invert", "tokens")] / max(counts[("invert", "row_dims")], 1),
    })
    extra = times(HEAD_SPECIFIC, False)
    if counts[("invert", "bisect_calls")]:
        extra["transforms.bisect_evals.invert"] = (
            counts[("invert", "bisect_evals")] / counts[("invert", "bisect_calls")])
    return named, extra


COUNT_METRICS = ("diffcore.nodes.train", "diffcore.node_mb.train", "diffcore.grad_copy_mb.train",
                 "conditioner.tokens_per_dim.invert", "transforms.bisect_evals.invert")


def counts_repeat(env: dict, counts: dict) -> bool:
    """Compare count metrics with an earlier traced run of the same code."""
    key = f"{env['workload']}-seed{env['seed']}-s{env['seconds']:g}-{env['src_sha256'][:16]}"
    path = OUT / "counts" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if "_mb." in name:
        return "MiB"
    return "count"


def overhead_pct(untraced, traced) -> dict[str, float]:
    def pct(a, b):
        return 100.0 * (b - a) / a
    out = {"trace.overhead.train_pct": pct(sum(untraced.phases["train"].times),
                                           sum(traced.phases["train"].times))}
    for phase in ("logprob", "invert"):
        a, b = untraced.phases[phase].times, traced.phases[phase].times
        if a and b:
            out[f"trace.overhead.{phase}_pct"] = pct(statistics.median(a), statistics.median(b))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    import_program()
    sys.path.insert(0, str(HERE))
    import harness
    from refclock import RefClock
    from spans import Tracer
    from workloads import WORKLOADS, op_counts

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        harness.setup(w, args.seed)
        print("ready", flush=True)
        return 0

    env = environment(args, threads)
    clock = RefClock(w.scores_shape, w.kernel_s)
    setup_times, setup_raw = measure_setup(args, clock)
    splits, model = harness.setup(w, args.seed)

    report = {"env": env, "setup_times_s": setup_times, "setup_wall_s": setup_raw}
    if args.trace == 0:
        counts = op_counts(w, args.seconds)
        result = harness.run_pass(w, splits, model, args.seed, counts, clock)
        passes = [result]
        metrics = end_to_end(w, result, setup_times)
        report["phases"] = distributions(harness, w, result)
        ok_counts = True
    else:
        counts = op_counts(w, args.seconds / 2)
        untraced = harness.run_pass(w, splits, model, args.seed, counts, clock)
        tracer = Tracer()
        traced = harness.run_pass(w, splits, harness.build(w, args.seed), args.seed,
                                  counts, clock, tracer)
        passes = [untraced, traced]
        metrics, extra = per_layer(tracer, traced)
        metrics.update(overhead_pct(untraced, traced))
        count_values = {k: v for k, v in {**metrics, **extra}.items() if k in COUNT_METRICS}
        ok_counts = counts_repeat(env, count_values)
        report.update({
            "end_to_end_untraced": end_to_end(w, untraced, setup_times),
            "end_to_end_traced": end_to_end(w, traced, setup_times),
            "phases_untraced": distributions(harness, w, untraced),
            "phases_traced": distributions(harness, w, traced),
            "head_specific": extra,
            "counts_repeat": ok_counts,
        })
        write_json(OUT / "spans" / f"{w.name}-seed{args.seed}.json",
                   {"fields": ["name", "phase", "start", "end", "parent"],
                    "spans": tracer.spans})

    attempted = sum(r.attempted for p in passes for r in p.phases.values())
    failed = sum(r.failed for p in passes for r in p.phases.values())
    wrong = sum(r.wrong for p in passes for r in p.phases.values())
    finite = all(math.isfinite(p.heldout_nll) for p in passes)
    correct = wrong == 0 and finite and ok_counts
    report.update({"op_counts": counts, "fail_frac": failed / attempted,
                   "max_roundtrip_err": max(p.max_roundtrip_err for p in passes),
                   "metrics": metrics, "correct": correct})
    write_json(OUT / "results" / env["machine_id"] /
               f"{w.name}-seed{args.seed}-trace{args.trace}.json", report)

    print_report(w, env, report, metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))


def print_report(w, env, report, metrics) -> None:
    print(f"perfbench {w.name}: D={w.D} head={w.head} seed={env['seed']} "
          f"seconds={env['seconds']:g} trace={env['trace']}")
    print(f"  machine {env['machine_id']}: {env['machine']}; python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']} x{env['blas_threads']} threads, "
          f"commit {env['git_commit'] or 'unknown'}, src {env['src_sha256'][:12]}")
    print(f"  ops per phase {report['op_counts']}; fail_frac {report['fail_frac']:.6g}; "
          f"max round-trip error {report['max_roundtrip_err']:.3g}; "
          f"correct {report['correct']}")
    phases = report.get("phases") or report.get("phases_untraced")
    for name, d in phases.items():
        if d["n"]:
            tail = f", p{d['tail_pct']} {d['tail']:.4g}" if "tail" in d else ""
            print(f"  {name:8s} per-op s: median {d['median']:.4g}, p25 {d['p25']:.4g}, "
                  f"p75 {d['p75']:.4g}{tail}, n={d['n']}, {d['rows_per_op']} rows/op")
        else:
            print(f"  {name:8s} no successful op ({d['failed']} of {d['attempted']} failed)")
    for name, value in {**metrics, **report.get("head_specific", {})}.items():
        print(f"  {name:42s} {value:14.6g} {unit_of(name)}")


if __name__ == "__main__":
    sys.exit(main())
