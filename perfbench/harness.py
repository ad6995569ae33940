"""Set-up and the four timed phases, run against the public tnaf API.

A run is one closed loop with one caller: each op starts when the previous
one has returned.  Per-op checks decide whether an op failed:

* train: ``tnaf.train`` raises ``TrainingFault`` on a non-finite loss, and
  the loss it reports must be finite;
* log_prob: every returned log-density is finite;
* invert: the round trip x -> y -> x is within the tolerance
  ``tnaf.checks.check_inversion`` uses for the head;
* sample: every returned row is finite.

An op that raises one of the program's documented errors is a failed op.  An
op that returns a wrong value is also a failed op, and makes the run
incorrect.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import tnaf
from tnaf import flow, trainer
from tnaf.diffcore import ContractViolation, DimensionError
from tnaf.transforms import InversionError

from refclock import RefClock
from spans import Tracer, patched
from workloads import (
    PHASES, WARM_ROWS, Workload, heldout_batches, inversion_tol, make_splits,
    sample_seed,
)

# Errors the program documents for bad inputs or uninvertible transforms.
REFUSALS = (InversionError, ContractViolation, DimensionError)


@dataclass
class PhaseResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # failed ops that returned a wrong value
    rows: int = 0           # rows processed by ops that succeeded
    times: list[float] = field(default_factory=list)      # reference s per successful op
    raw_times: list[float] = field(default_factory=list)  # wall s per successful op


@dataclass
class PassResult:
    phases: dict[str, PhaseResult]
    heldout_nll: float
    max_roundtrip_err: float


def build(w: Workload, seed: int):
    return tnaf.build_model(tnaf.ModelConfig(D=w.D, head_type=w.head), seed=seed)


def setup(w: Workload, seed: int):
    """Data generation, model build and one untimed warm-up of each op."""
    splits = make_splits(w, seed)
    warm = build(w, seed)
    batch = splits.train.data[:w.batch]
    small = tnaf.Splits(*(tnaf.DatasetMatrix(batch[:n])
                          for n in (w.batch, WARM_ROWS, WARM_ROWS)))
    tnaf.train(warm, small, tnaf.TrainConfig(batch_size=w.batch, max_steps=1,
                                             eval_every=1, seed=seed))
    y = tnaf.log_prob(warm, batch).y[:WARM_ROWS]
    for op, args in ((flow.invert_rows, (warm, y)),
                     (tnaf.sample, (warm, WARM_ROWS, sample_seed(seed, -1)))):
        try:
            op(*args)
        except REFUSALS:
            pass  # a warm-up op may hit a known defect; it is not measured
    return splits, build(w, seed)


def _step_clock(clock: RefClock, marks: list, rows: list[int]):
    """Wraps trainer.batches: runs the reference kernel between train steps,
    and records (end of previous step, kernel time, start of step) and rows."""
    inner = trainer.batches

    def batches(*args, **kwargs):
        for batch in inner(*args, **kwargs):
            end = time.perf_counter()
            ref = clock.kernel()
            marks.append((end, ref, time.perf_counter()))
            rows.append(batch.shape[0])
            yield batch
    return batches


def _train(w, model, splits, seed, steps, clock: RefClock) -> PhaseResult:
    """One tnaf.train call of `steps` steps, validating once at the last."""
    res = PhaseResult(attempted=steps)
    cfg = tnaf.TrainConfig(batch_size=w.batch, max_steps=steps, eval_every=steps, seed=seed)
    marks: list[tuple[float, float, float]] = []
    rows: list[int] = []
    with patched(trainer, "batches", _step_clock(clock, marks, rows)):
        try:
            report = tnaf.train(model, splits, cfg)
        except trainer.TrainingFault as err:
            res.failed = steps - err.step + 1
            report = None
        end = time.perf_counter()
    if report is not None and not np.isfinite(report.history[-1][1]):
        res.failed = res.wrong = steps
    res.rows = sum(rows)
    clock.last = clock.kernel()
    after = [(m[0], m[1]) for m in marks[1:]] + [(end, clock.last)]
    for (_, before, start), (stop, ref) in zip(marks, after):
        res.raw_times.append(stop - start)
        res.times.append(clock.scaled(stop - start, before, ref))
    return res


def _op(res: PhaseResult, clock: RefClock, check, fn, *args):
    """One timed op; returns its result, or None when it failed."""
    res.attempted += 1
    try:
        out, ref, raw = clock.timed(fn, *args)
    except REFUSALS:
        res.failed += 1
        return None
    if not check(out):
        res.failed += 1
        res.wrong += 1
        return None
    res.times.append(ref)
    res.raw_times.append(raw)
    return out


def run_pass(w: Workload, splits, model, seed: int, counts: dict[str, int],
             clock: RefClock, tracer: Tracer | None = None) -> PassResult:
    """Train, then log_prob, invert_rows and sample, each a fixed op count."""
    phases = {p: PhaseResult() for p in PHASES}
    tol = inversion_tol(w.head)
    pairs = []          # (x, y) of successful log_prob calls, inverted later
    logps = []
    errors = [0.0]

    def phase(name):
        if tracer is not None:
            tracer.phase = name
        return phases[name]

    def round_trip(x):
        def check(back):
            errors.append(float(np.max(np.abs(back - x))))
            return errors[-1] <= tol
        return check

    def finite(out):
        return bool(np.all(np.isfinite(out)))

    with tracer.installed() if tracer is not None else nullcontext():
        phase("train")
        phases["train"] = _train(w, model, splits, seed, counts["train"], clock)

        res = phase("logprob")
        batches = heldout_batches(w, splits)
        for i in range(counts["logprob"]):
            x = batches[i % len(batches)]
            out = _op(res, clock, lambda r: finite(r.logp), tnaf.log_prob, model, x)
            if out is not None:
                res.rows += x.shape[0]
                logps.append(out.logp)
                pairs.append((x[:w.invert_rows], out.y[:w.invert_rows]))

        res = phase("invert")
        for i in range(counts["invert"]):
            if not pairs:  # nothing to invert: every log_prob call failed
                res.attempted += 1
                res.failed += 1
                continue
            x, y = pairs[i % len(pairs)]
            if _op(res, clock, round_trip(x), flow.invert_rows, model, y) is not None:
                res.rows += y.shape[0]

        res = phase("sample")
        for i in range(counts["sample"]):
            out = _op(res, clock, finite, tnaf.sample, model, w.invert_rows, sample_seed(seed, i))
            if out is not None:
                res.rows += out.shape[0]

    nll = -float(np.concatenate(logps).mean()) if logps else float("nan")
    return PassResult(phases, nll, max(errors))


def distribution(times: list[float]) -> dict:
    """Median, quartiles and the highest percentile with 10 samples beyond it."""
    n = len(times)
    if n == 0:
        return {"n": 0}
    p25, median, p75 = (float(q) for q in np.quantile(times, [0.25, 0.5, 0.75]))
    out = {"n": n, "median": median, "p25": p25, "p75": p75}
    if n > 20:  # fewer samples would put this percentile at or below the median
        ordered = sorted(times)
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail"] = ordered[n - 11]
    return out
