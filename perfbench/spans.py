"""Span tracer that wraps the public functions of tnaf from outside.

Each wrapped call records a span (name, phase, start, end, parent) in memory;
self time is a span's duration minus the time its child spans cover.  A few
wrappers also count work: graph nodes and their bytes, first-touch gradient
copies, tokens encoded by the conditioner and bisection evaluations.

Functions are patched where they are looked up: ``flow`` binds ``condition``,
``project_head`` and ``linear`` by name, ``trainer`` binds ``nll_loss``,
``log_prob`` and ``batches`` by name, and the ``diffcore`` ops reach
``make_node`` through the module global.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

from tnaf import conditioner, diffcore, flow, trainer, transforms

NAME, PHASE, START, END, PARENT = range(5)

# (module, attribute, span name)
SPANNED = (
    (diffcore, "backward", "diffcore.backward"),
    (diffcore, "masked_softmax", "diffcore.masked_softmax"),
    (diffcore, "layer_norm", "diffcore.layer_norm"),
    (conditioner, "embed_sequence", "conditioner.embed_sequence"),
    (conditioner, "encoder_layer", "conditioner.encoder_layer"),
    (flow, "project_head", "flow.head_proj"),
    (flow, "linear", "flow.head_proj"),
    (transforms, "affine_forward_node", "transforms.head_forward"),
    (transforms, "cdf_forward_node", "transforms.head_forward"),
    (transforms, "shared_cdf_forward_node", "transforms.head_forward"),
    (transforms, "spline_forward_node", "transforms.head_forward"),
    (transforms, "mix_forward_node", "transforms.head_forward"),
    (transforms, "spline_inverse_np", "transforms.spline_inverse_np"),
    (trainer, "log_prob", "flow.log_prob"),
    (trainer, "clip_gradients", "trainer.clip_gradients"),
    (trainer.Adam, "step", "trainer.adam_step"),
)


@contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records spans and counters; `phase` labels everything recorded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []
        self._in_loss = 0

    def _open(self, name: str) -> list:
        rec = [name, self.phase, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, key)] += amount

    # -- wrappers that also count work ---------------------------------

    def _nll_loss(self, fn):
        traced = self.span("flow.nll_loss", fn)

        def wrapped(*args, **kwargs):
            self._in_loss += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._in_loss -= 1
        return wrapped

    def _make_node(self, fn):
        def wrapped(value, parents):
            if self._in_loss:
                self.count("nodes")
                self.count("node_bytes", getattr(value, "nbytes", 8))
            return fn(value, parents)
        return wrapped

    def _accumulate_grad(self, fn):
        def wrapped(node, g):
            if node._grad is None:  # first touch: accumulate_grad copies g
                self.count("grad_copy_bytes", g.size * 8)
            return fn(node, g)
        return wrapped

    def _condition(self, fn):
        traced = self.span("conditioner.condition", fn)

        def wrapped(x, *args, **kwargs):
            shape = getattr(x, "shape", ())
            self.count("tokens", shape[0] * shape[1] if len(shape) == 2 else len(x))
            return traced(x, *args, **kwargs)
        return wrapped

    def _invert_rows(self, fn):
        traced = self.span("flow.invert_rows", fn)

        def wrapped(model, targets):
            self.count("row_dims", targets.shape[0] * targets.shape[1])
            return traced(model, targets)
        return wrapped

    def _monotone_bisect(self, fn):
        traced = self.span("transforms.monotone_bisect", fn)

        def wrapped(f, y, *args, **kwargs):
            def counted(x):
                self.count("bisect_evals")
                return f(x)
            self.count("bisect_calls")
            return traced(counted, y, *args, **kwargs)
        return wrapped

    def _batches(self, fn):
        def wrapped(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                rec = self._open("data.batch_wait")
                try:
                    batch = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield batch
        return wrapped

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        with ExitStack() as stack:
            for owner, attr, name in SPANNED:
                stack.enter_context(patched(owner, attr, self.span(name, getattr(owner, attr))))
            special = (
                (diffcore, "make_node", self._make_node),
                (diffcore.Node, "accumulate_grad", self._accumulate_grad),
                (trainer, "nll_loss", self._nll_loss),
                (trainer, "batches", self._batches),
                (flow, "condition", self._condition),
                (flow, "invert_rows", self._invert_rows),
                (transforms, "monotone_bisect", self._monotone_bisect),
            )
            for owner, attr, wrap in special:
                stack.enter_context(patched(owner, attr, wrap(getattr(owner, attr))))
            yield self

    # -- aggregation ----------------------------------------------------

    def layer_times(self) -> dict[tuple[str, str], dict[str, float]]:
        """(phase, span name) -> total and self seconds and call count."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[tuple[str, str], dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            row = out.setdefault((rec[PHASE], rec[NAME]), {"total": 0.0, "self": 0.0, "calls": 0})
            dur = rec[END] - rec[START]
            row["total"] += dur
            row["self"] += dur - child[i]
            row["calls"] += 1
        return out

