"""Print a sha256 for every model output a bit-identical change must keep.

Run this script against each of two checkouts' ``src/`` and diff the results:

    PYTHONPATH=src python tools/output_hashes.py > new.txt
    PYTHONPATH=../other/src python tools/output_hashes.py > old.txt

The D=17 model ends its attention rows in a block of one row (masked_softmax
tiles its rows eight at a time), and D=63 in a block of seven.

The ``bench.*`` lines run the benchmark's own shapes on the default
ModelConfig (BENCH): ``log_prob`` and the float32 loss and gradients on the
benchmark's batch, ``invert_rows`` on INVERT_ROWS rows, and ``invert_rows``
and ``sample`` on one row, the benchmark's warm-up size, whose products run
in a single padded row tile.  The
``bench.*.N<rows>`` lines (RAGGED) do the same on a batch that ends the
attention's row chunks in a short one.  The forward products run in fixed
row tiles (``diffcore.rows_matmul``), but the float32 weight gradients' sums
over rows (``bench.*.grad32.*``) reach the BLAS library's threaded GEMM,
whose rounding can depend on its thread count; compare those lines only
between runs under the same BLAS thread count (for example the same
OPENBLAS_NUM_THREADS).

Each line is ``name sha256``.  Arrays are hashed as their float64 bytes, and
the CLI quantities as the exact bytes of the files and stdout they produce.
For each (head, D) model, and each STACKED one, the script hashes the loss
and every parameter gradient of one batch, once from the float64 graph and
once from the float32 graph a training step runs (``float32_gradients``: its
loss and every gradient widened to float64), ``log_prob`` (y, logdet, logp),
``invert_rows`` of the ``log_prob`` outputs, and the parameters, validation
history and ``sample`` after 12 ``train`` steps.  For each head it also
hashes the checkpoint and stdout of ``tnaf train`` on a 2-D toy, the csv of
``tnaf sample`` from that checkpoint, and the stdout of ``tnaf inspect
--count-with-psi`` on it (its parameter and psi counts).  The ``cli.ablate.*``
lines hash the exit code, stdout and stderr of ``tnaf ablate`` on ABLATE's
grid, and on the same grid with a later cell refused (``layers`` 0).  The
``cache.D<D>.h<heads>`` lines (CACHE) hash the hidden rows of D
``KVCache.step`` calls directly, so a change to the cached path shows in
lines of its own and not only through each head's ``invert_rows``.  The
``blocks.*``
lines hash ``evaluate`` and ``invert_rows`` of a small model on BLOCK_ROWS
rows, which both split into blocks of ``flow.ROW_BLOCK`` rows, the last one
short.  An output that raises is hashed as the exception's type and message,
so failures must match too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from tnaf import diffcore as dc
from tnaf.checkpoint import parse_run_config
from tnaf.cli import main as cli_main
from tnaf.conditioner import KVCache
from tnaf.data import DatasetMatrix, make_splits
from tnaf.flow import ModelConfig, build_model, invert_rows, log_prob, nll_loss, sample
from tnaf.trainer import TrainConfig, evaluate, float32_gradients, train

MODELS = (
    ("affine", 2), ("affine", 17), ("affine", 63),
    ("cdf", 8), ("cdf", 63),
    ("shared_cdf", 4), ("shared_cdf", 32),
    ("spline", 16), ("spline", 63),
)
SMALL = {"E": 16, "heads": 2, "layers": 2, "mlp_hidden": 32, "H": 8, "K": 4}
# (head, D, blocks) of SMALL models with more spline blocks than the default,
# tagged <head>.J<blocks>.D<D>: three blocks give psi three gradient
# contributions, one per block
STACKED = (("spline", 8, 3),)
ROWS = 16
# (head, D, rows) of the benchmark's d63-spline and d8-cdf workloads
BENCH = (("spline", 63, 64), ("cdf", 8, 256))
# the default d63 spline on a row count whose attention ends in a ragged row
# chunk (conditioner.ATTN_CHUNK_BYTES): 61 rows are 15 chunks of 4 and one of
# 1 in float64, and 7 chunks of 8 and one of 5 in float32
RAGGED = (("spline", 63, 61),)
INVERT_ROWS = 4
# (D, heads) of the cache.* lines, each on ROWS rows of a default-width
# conditioner: one head of head_dim 32, or eight of head_dim 4
CACHE = ((5, 1), (8, 8), (63, 8))
# (head, D) of the blocks.* lines, on 2 * flow.ROW_BLOCK + 3 rows: written
# out, so that the script also runs on a checkout from before ROW_BLOCK
BLOCKS = ("cdf", 8)
BLOCK_ROWS = 515
# the grid of the cli.ablate.table line: 2 head types x 2 depths
ABLATE = {"head_type": ["affine", "spline"], "layers": [1, 2]}


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def emit(name: str, data) -> None:
    print(f"{name} {digest(data)}", flush=True)


def guarded(fn, *args):
    """fn's result, or the bytes of the exception it raised."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 -- a raised error is an output too
        return f"{type(err).__name__}: {err}".encode()


def model_config(head: str, d: int, shape: dict = SMALL) -> ModelConfig:
    # built from the config keys, which every checkout reads the same way;
    # the data section is required but unused
    doc = {"model": {"D": d, "head_type": head, **shape}, "data": {"toy": "ring", "n": 1}}
    return parse_run_config(doc).model


def model_hashes(head: str, d: int, shape: dict = SMALL, tag: str | None = None) -> None:
    tag = tag or f"{head}.D{d}"
    cfg = model_config(head, d, shape)
    rng = np.random.default_rng(d)
    batch = rng.standard_normal((ROWS, d))

    model = build_model(cfg, seed=1)
    loss = nll_loss(model, batch)
    dc.backward(loss)
    emit(f"{tag}.loss", loss.value)
    for name, p in model.params.items():
        emit(f"{tag}.grad.{name}", p.grad)
    model.params.zero_grad()
    emit(f"{tag}.loss32", guarded(float32_gradients, model, batch))
    for name, p in model.params.items():
        emit(f"{tag}.grad32.{name}", p.grad)
    model.params.zero_grad()

    res = log_prob(model, batch)
    emit(f"{tag}.log_prob.y", res.y)
    emit(f"{tag}.log_prob.logdet", res.logdet)
    emit(f"{tag}.log_prob.logp", res.logp)
    emit(f"{tag}.invert_rows", guarded(invert_rows, model, res.y))

    splits = make_splits(DatasetMatrix(rng.standard_normal((160, d))), seed=2)
    report = train(model, splits, TrainConfig(batch_size=16, max_steps=12, eval_every=5))
    emit(f"{tag}.train.history", np.array(report.history))
    for name, p in model.params.items():
        emit(f"{tag}.trained.{name}", p.value)
    emit(f"{tag}.trained.sample", guarded(sample, model, ROWS, 5))


def bench_hashes(head: str, d: int, rows: int, tag: str) -> None:
    model = build_model(model_config(head, d, {}), seed=1)
    batch = np.random.default_rng(d).standard_normal((rows, d))
    res = log_prob(model, batch)
    emit(f"{tag}.log_prob.y", res.y)
    emit(f"{tag}.log_prob.logdet", res.logdet)
    emit(f"{tag}.log_prob.logp", res.logp)
    emit(f"{tag}.loss32", guarded(float32_gradients, model, batch))
    for name, p in model.params.items():
        emit(f"{tag}.grad32.{name}", p.grad)
    emit(f"{tag}.invert_rows", guarded(invert_rows, model, res.y[:INVERT_ROWS]))
    emit(f"{tag}.invert_rows.N1", guarded(invert_rows, model, res.y[:1]))
    emit(f"{tag}.sample.N1", guarded(sample, model, 1, 5))


def cache_hashes(d: int, heads: int) -> None:
    cfg = model_config("affine", d, {"heads": heads})
    cache = KVCache(build_model(cfg, seed=1).params, cfg, ROWS)
    x = np.random.default_rng(d).standard_normal((ROWS, d))
    emit(f"cache.D{d}.h{heads}", np.stack([cache.step(x[:, i - 1:i]) for i in range(d)], 1))


def block_hashes(head: str, d: int) -> None:
    tag = f"blocks.{head}.D{d}.N{BLOCK_ROWS}"
    model = build_model(model_config(head, d), seed=1)
    rows = np.random.default_rng(d).standard_normal((BLOCK_ROWS, d))
    emit(f"{tag}.evaluate", guarded(evaluate, model, DatasetMatrix(rows)))
    emit(f"{tag}.invert_rows", guarded(invert_rows, model, rows))


def run_cli(argv) -> bytes:
    """The exit code, stdout and stderr of one tnaf command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}".encode()


def ablate_hashes(workdir: str) -> None:
    base = {
        "model": {"D": 2, **SMALL},
        "train": {"batch_size": 32, "max_steps": 6, "eval_every": 3, "seed": 4},
        "data": {"toy": "ring", "n": 200, "seed": 3},
    }
    for name, grid in (("table", ABLATE), ("refused", {**ABLATE, "layers": [1, 0]})):
        config = os.path.join(workdir, f"ablate-{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"base": base, "grid": grid}, fh)
        emit(f"cli.ablate.{name}", run_cli(["ablate", "-c", config]))


def cli_hashes(head: str, workdir: str) -> None:
    doc = {
        "model": {"D": 2, "head_type": head, **SMALL},
        "train": {"batch_size": 32, "max_steps": 37, "eval_every": 10, "seed": 4},
        "data": {"toy": "ring", "n": 400, "seed": 3},
    }
    config = os.path.join(workdir, f"{head}.json")
    ckpt = os.path.join(workdir, f"{head}.ckpt")
    rows = os.path.join(workdir, f"{head}.csv")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    emit(f"cli.{head}.train.stdout", run_cli(["train", "-c", config, "-o", ckpt]))
    with open(ckpt, "rb") as fh:
        emit(f"cli.{head}.train.checkpoint", fh.read())
    # sample writes nothing to stdout: a failure hashes as its code and stderr
    sampled = run_cli(["sample", "-m", ckpt, "-n", "16", "--seed", "3", "-o", rows])
    if sampled.startswith(b"0\n"):
        with open(rows, "rb") as fh:
            sampled = fh.read()
    emit(f"cli.{head}.sample", sampled)
    emit(f"cli.{head}.inspect", run_cli(["inspect", "-m", ckpt, "--count-with-psi"]))


def main() -> int:
    for head, d in MODELS:
        model_hashes(head, d)
    for head, d, blocks in STACKED:
        model_hashes(head, d, {**SMALL, "blocks": blocks}, f"{head}.J{blocks}.D{d}")
    for head, d, rows in BENCH:
        bench_hashes(head, d, rows, f"bench.{head}.D{d}")
    for head, d, rows in RAGGED:
        bench_hashes(head, d, rows, f"bench.{head}.D{d}.N{rows}")
    for d, heads in CACHE:
        cache_hashes(d, heads)
    block_hashes(*BLOCKS)
    with tempfile.TemporaryDirectory() as workdir:
        for head in ("affine", "cdf", "shared_cdf", "spline"):
            cli_hashes(head, workdir)
        ablate_hashes(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
