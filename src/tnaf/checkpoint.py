"""Run configuration parsing and the portable checkpoint format.

Checkpoint layout (all little-endian):

    8 bytes   magic "TNAFCKPT"
    4 bytes   uint32 header length
    header    canonical JSON: format version, full run-config echo,
              standardization stats, ordered parameter manifest
              (name, shape, byte offset into the blob), blob crc32
    blob      concatenated float32 parameter buffers

Parameters are stored float32 and widened to float64 on load; every
tolerance that crosses a save/load boundary allows for that rounding.  A
checkpoint holding a non-finite parameter is rejected as corrupt.
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import StandardizationStats
from .flow import FlowModel, ModelConfig, build_model
from .trainer import TrainConfig

MAGIC = b"TNAFCKPT"
FORMAT_VERSION = 1
_HEADER_LEN = struct.Struct("<I")


class ConfigError(ValueError):
    """Malformed or contradictory run configuration."""


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


@dataclass
class DataConfig:
    path: Optional[str] = None
    format: Optional[str] = None
    toy: Optional[str] = None
    n: Optional[int] = None
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)


_MODEL_KEYS = {
    "D": "D",
    "E": "E",
    "heads": "heads",
    "layers": "layers",
    "mlp_hidden": "mlp_hidden",
    "head_type": "head_type",
    "H": "cdf_hidden",
    "K": "spline_bins",
    "B": "spline_bound",
    "blocks": "spline_blocks",
}
_TRAIN_KEYS = {
    "learning_rate", "batch_size", "max_steps", "clip_norm",
    "patience", "eval_every", "seed",
}
_DATA_KEYS = {"path", "format", "toy", "n", "fractions", "seed"}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def parse_run_config(doc: dict) -> RunConfig:
    """Strict parse: unknown keys anywhere are rejected; absent keys take the
    documented defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    _reject_unknown(doc, {"model", "train", "data"}, "config")
    model_doc = doc.get("model", {})
    train_doc = doc.get("train", {})
    data_doc = doc.get("data", {})
    for name, section in (("model", model_doc), ("train", train_doc), ("data", data_doc)):
        if not isinstance(section, dict):
            raise ConfigError(f"{name} section must be a JSON object")
    _reject_unknown(model_doc, _MODEL_KEYS, "model")
    _reject_unknown(train_doc, _TRAIN_KEYS, "train")
    _reject_unknown(data_doc, _DATA_KEYS, "data")

    if "D" not in model_doc:
        raise ConfigError("model.D is required")
    try:
        model = ModelConfig(**{_MODEL_KEYS[k]: v for k, v in model_doc.items()})
        train = TrainConfig(**train_doc)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None

    data_kwargs = dict(data_doc)
    if "fractions" in data_kwargs:
        fr = data_kwargs["fractions"]
        if not isinstance(fr, (list, tuple)) or len(fr) != 3:
            raise ConfigError("data.fractions must be a list of three numbers")
        data_kwargs["fractions"] = tuple(float(f) for f in fr)
    data = DataConfig(**data_kwargs)
    if data.toy is None and data.path is None:
        raise ConfigError("data section needs either toy or path")
    if data.toy is not None and data.path is not None:
        raise ConfigError("data.toy and data.path are mutually exclusive")
    if data.toy is not None and (data.n is None or data.n < 1):
        raise ConfigError("toy data needs a positive row count data.n")
    if data.path is not None and data.format not in ("csv", "raw_f32"):
        raise ConfigError("data.format must be csv or raw_f32 when data.path is set")
    return RunConfig(model=model, train=train, data=data)


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: malformed JSON: {err}") from None
    return parse_run_config(doc)


def run_config_to_dict(rc: RunConfig) -> dict:
    """Canonical full echo (defaults filled in), as stored in checkpoints."""
    model = {key: getattr(rc.model, field) for key, field in _MODEL_KEYS.items()}
    train = {k: getattr(rc.train, k) for k in sorted(_TRAIN_KEYS)}
    data = {
        "path": rc.data.path,
        "format": rc.data.format,
        "toy": rc.data.toy,
        "n": rc.data.n,
        "fractions": list(rc.data.fractions),
        "seed": rc.data.seed,
    }
    return {"model": model, "train": train, "data": data}


def run_config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    data = dict(doc.get("data", {}))
    # the canonical echo stores explicit nulls; strict parsing expects absence
    for key in ("path", "format", "toy", "n"):
        if data.get(key) is None:
            data.pop(key, None)
    doc["data"] = data
    return parse_run_config(doc)


# ---------------------------------------------------------------------------
# binary checkpoint
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, model: FlowModel, stats: StandardizationStats,
                    run_config: RunConfig) -> None:
    manifest = []
    blobs = []
    offset = 0
    for name, node in model.params.items():
        raw = np.ascontiguousarray(node.value, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(node.value.shape), "offset": offset})
        offset += len(raw)
        blobs.append(raw)
    blob = b"".join(blobs)
    header = {
        "format_version": FORMAT_VERSION,
        "run_config": run_config_to_dict(run_config),
        "standardization": {
            "mean": [float(v) for v in stats.mean],
            "std": [float(v) for v in stats.std],
        },
        "manifest": manifest,
        "crc32": zlib.crc32(blob),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER_LEN.pack(len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)


def load_checkpoint(path: str) -> tuple[FlowModel, StandardizationStats, RunConfig]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise CheckpointError(f"{path}: {err}") from None
    if len(raw) < len(MAGIC) + _HEADER_LEN.size or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: checkpoint corrupt (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(raw, len(MAGIC))
    body_start = len(MAGIC) + _HEADER_LEN.size
    if len(raw) < body_start + header_len:
        raise CheckpointError(f"{path}: checkpoint corrupt (truncated header)")
    try:
        header = json.loads(raw[body_start:body_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(f"{path}: checkpoint corrupt (unreadable header)") from None
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    blob = raw[body_start + header_len:]
    if zlib.crc32(blob) != header.get("crc32"):
        raise CheckpointError(f"{path}: checkpoint corrupt (crc mismatch)")
    try:
        rc = run_config_from_dict(header["run_config"])
    except (KeyError, ConfigError) as err:
        raise CheckpointError(f"{path}: checkpoint corrupt ({err})") from None

    model = build_model(rc.model, seed=rc.train.seed)
    manifest = header.get("manifest", [])
    names = [entry["name"] for entry in manifest]
    if names != model.params.names():
        raise CheckpointError(f"{path}: manifest does not match the architecture")
    offset = 0
    for entry in manifest:
        if entry["offset"] != offset:
            raise CheckpointError(f"{path}: manifest offsets not contiguous")
        shape = tuple(entry["shape"])
        node = model.params[entry["name"]]
        if shape != node.value.shape:
            raise CheckpointError(
                f"{path}: parameter {entry['name']} has shape {shape}, "
                f"expected {node.value.shape}"
            )
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if end > len(blob):
            raise CheckpointError(f"{path}: checkpoint corrupt (truncated blob)")
        values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: parameter {entry['name']} has non-finite values")
        node.value = values.astype(np.float64).reshape(shape)
        offset = end
    if offset != len(blob):
        raise CheckpointError(f"{path}: checkpoint corrupt (trailing bytes)")

    std = header.get("standardization", {})
    stats = StandardizationStats(
        mean=np.asarray(std.get("mean", []), dtype=np.float64),
        std=np.asarray(std.get("std", []), dtype=np.float64),
    )
    if stats.mean.shape != (rc.model.D,) or stats.std.shape != (rc.model.D,):
        raise CheckpointError(f"{path}: standardization stats do not match D")
    return model, stats, rc
