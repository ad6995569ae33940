"""Command-line surface: train, eval, sample, invert, check, inspect, ablate.

Exit codes: 0 success, 1 internal error, 2 config/usage error (including a
count or size numpy cannot allocate), 3 data error (including dimension
mismatch and a file that cannot be read or written), 4 corrupt checkpoint
(including non-finite weights, a malformed header or unusable
standardization stats), 5 inversion failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .checkpoint import (
    CheckpointError,
    ConfigError,
    RunConfig,
    load_checkpoint,
    load_run_config,
    parse_run_config,
    read_json,
    round_to_stored,
    save_checkpoint,
)
from .checks import run_all_checks
from .data import (
    DataError,
    DatasetMatrix,
    ParseError,
    Splits,
    StandardizationStats,
    load_matrix,
    make_splits,
    save_csv,
    standardize,
    toy_generate,
)
from .diffcore import DimensionError
from .flow import FlowModel, build_model, invert_rows, sample
from .trainer import TrainingFault, evaluate, train
from .transforms import InversionError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_INVERSION = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_dataset(rc: RunConfig) -> DatasetMatrix:
    if rc.data.toy is not None:
        return toy_generate(rc.data.toy, rc.data.n, rc.data.seed)
    return load_matrix(rc.data.path, rc.data.format)


def _pipeline(rc: RunConfig) -> tuple[Splits, StandardizationStats]:
    matrix = _load_dataset(rc)
    if matrix.n_cols != rc.model.D:
        raise DataError(
            f"dataset has {matrix.n_cols} columns but model.D={rc.model.D}"
        )
    splits = make_splits(matrix, rc.data.fractions, rc.data.seed)
    return standardize(splits)


def _train_run(rc: RunConfig, log_fn) -> tuple[FlowModel, StandardizationStats, float, float]:
    splits, stats = _pipeline(rc)
    model = build_model(rc.model, seed=rc.train.seed)
    train(model, splits, rc.train, log_fn=log_fn)
    # the reported test_ll is the checkpoint's own, which `tnaf eval` reproduces
    round_to_stored(model)
    test_ll, test_err = evaluate(model, splits.test)
    return model, stats, test_ll, test_err


def _printed_count(model: FlowModel, with_psi: bool) -> int:
    count = model.params.total_count()
    if with_psi:
        count += model.D * model.head.width
    return count


def _require_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, before any training,
    without creating, truncating or removing path."""
    if os.path.exists(path):
        os.close(os.open(path, os.O_WRONLY))
    else:
        with tempfile.TemporaryFile(dir=os.path.dirname(path) or "."):
            pass


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    _require_writable(args.output)
    model, stats, test_ll, test_err = _train_run(rc, log_fn=print)
    save_checkpoint(args.output, model, stats, rc)
    count = _printed_count(model, args.count_with_psi)
    print(f"test_ll={test_ll:.6f} ± {test_err:.6f} param_count={count}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, stats, _ = load_checkpoint(args.model)
    matrix = load_matrix(args.data, args.format)
    if matrix.n_cols != model.D:
        raise DataError(f"dataset has {matrix.n_cols} columns but model expects {model.D}")
    standardized = DatasetMatrix(stats.apply(matrix.data))
    mean_ll, std_err = evaluate(model, standardized)
    print(f"test_ll={mean_ll:.6f} ± {std_err:.6f}")
    return EXIT_OK


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise CliError(f"seed must be >= 0, got {seed}", EXIT_CONFIG)


def cmd_sample(args) -> int:
    if args.n < 1:
        raise CliError(f"sample count must be >= 1, got {args.n}", EXIT_CONFIG)
    _require_seed(args.seed)
    model, stats, _ = load_checkpoint(args.model)
    rows = sample(model, args.n, args.seed)
    save_csv(stats.unapply(rows), args.output)
    return EXIT_OK


def cmd_invert(args) -> int:
    model, stats, _ = load_checkpoint(args.model)
    matrix = load_matrix(args.data, "csv")
    if matrix.n_cols != model.D:
        raise DataError(f"targets have {matrix.n_cols} columns but model expects {model.D}")
    rows = invert_rows(model, matrix.data)
    save_csv(stats.unapply(rows), args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    if (args.model is None) == (args.config is None):
        raise CliError("check needs exactly one of -m/--model or -c/--config", EXIT_CONFIG)
    _require_seed(args.seed)
    if args.model is not None:
        model, _, _ = load_checkpoint(args.model)
    else:
        rc = load_run_config(args.config)
        model = build_model(rc.model, seed=rc.train.seed)
    results = run_all_checks(model, seed=args.seed)
    for res in results:
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_INTERNAL


def cmd_inspect(args) -> int:
    model, stats, rc = load_checkpoint(args.model)
    cfg = model.config
    print(f"head_type={cfg.head_type}")
    print(f"D={cfg.D} E={cfg.E} heads={cfg.heads} layers={cfg.layers} "
          f"mlp_hidden={cfg.mlp_hidden}")
    if model.head.keys:
        print(" ".join(f"{key}={getattr(cfg, key)}" for key in model.head.keys))
    print(f"param_count={_printed_count(model, args.count_with_psi)}")
    print(f"standardized_columns={len(stats.mean)}")
    return EXIT_OK


_ABLATE_GRID_KEYS = {"head_type", "layers"}


def cmd_ablate(args) -> int:
    doc = read_json(args.config)
    if not isinstance(doc, dict) or set(doc) - {"base", "grid"}:
        raise ConfigError("ablation config needs exactly the keys base and grid")
    grid, base_doc = doc.get("grid", {}), doc.get("base", {})
    if not isinstance(grid, dict) or not isinstance(base_doc, dict):
        raise ConfigError("ablation base and grid must be JSON objects")
    if set(grid) - _ABLATE_GRID_KEYS:
        raise ConfigError(f"grid keys must be within {sorted(_ABLATE_GRID_KEYS)}")
    if not all(isinstance(values, list) and values for values in grid.values()):
        raise ConfigError("grid values must be nonempty lists")
    # every cell is parsed before the first trains; an axis the grid omits
    # keeps the base's value
    base = asdict(parse_run_config(base_doc))
    head_types, layer_counts = (grid.get(key, [base["model"][key]])
                                for key in ("head_type", "layers"))
    cells = [parse_run_config({**base, "model": {**base["model"], "head_type": head_type,
                                                 "layers": layers}})
             for head_type in head_types for layers in layer_counts]
    if args.output:
        _require_writable(args.output)

    lines = ["head_type\tlayers\ttest_ll\tstd_err\tparam_count"]
    for rc in cells:
        model, _, test_ll, test_err = _train_run(rc, log_fn=None)
        lines.append(
            f"{rc.model.head_type}\t{rc.model.layers}\t{test_ll:.6f}\t{test_err:.6f}"
            f"\t{model.params.total_count()}"
        )
    table = "\n".join(lines)
    print(table)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnaf",
        description="Autoregressive flow density estimation with a transformer conditioner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", required=True, help="checkpoint path")
    p.add_argument("--count-with-psi", action="store_true",
                   help="include per-input pseudo-parameters in the printed count")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="mean log-likelihood of a dataset")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-d", "--data", required=True)
    p.add_argument("--format", choices=("csv", "raw_f32"), default="csv")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sample", help="draw samples into a csv")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("invert", help="map base-space rows back to data space")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-d", "--data", required=True, help="csv of base-space rows")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("check", help="run the correctness oracles")
    p.add_argument("-m", "--model")
    p.add_argument("-c", "--config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("inspect", help="describe a checkpoint")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--count-with-psi", action="store_true")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("ablate", help="run a head-type/depth comparison grid")
    p.add_argument("-c", "--config", required=True, help="json with base and grid")
    p.add_argument("-o", "--output", help="also write the table to this file")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, DataError, DimensionError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except InversionError as err:
        print(f"inversion error: {err}", file=sys.stderr)
        return EXIT_INVERSION
    except TrainingFault as err:
        print(f"training fault: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as err:
        print(f"memory error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
