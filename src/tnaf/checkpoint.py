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
checkpoint holding a non-finite parameter is rejected as corrupt, as is one
whose header is malformed, whose manifest is not, as JSON text, the one
save_checkpoint writes for the model its run config builds, or whose
standardization stats are not finite with std > 0.
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import numbers
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .conditioner import require_ints
from .data import StandardizationStats
from .flow import FlowModel, ModelConfig, build_model
from .trainer import TrainConfig

MAGIC = b"TNAFCKPT"
FORMAT_VERSION = 1
PARAM_DTYPE = "<f4"  # the blob's parameter values
_ITEMSIZE = np.dtype(PARAM_DTYPE).itemsize
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

    def __post_init__(self):
        for key in ("path", "format", "toy"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"data.{key} must be a string, got {value!r}")
        if self.n is not None:
            require_ints(1, n=self.n)
        require_ints(0, seed=self.seed)
        fr = self.fractions
        if (not isinstance(fr, (list, tuple)) or len(fr) != 3
                or any(isinstance(f, bool) or not isinstance(f, numbers.Real) for f in fr)):
            raise ConfigError("data.fractions must be a list of three numbers")
        self.fractions = tuple(float(f) for f in fr)
        if self.toy is None and self.path is None:
            raise ConfigError("data section needs either toy or path")
        if self.toy is not None and self.path is not None:
            raise ConfigError("data.toy and data.path are mutually exclusive")
        if self.toy is not None and self.n is None:
            raise ConfigError("toy data needs a positive row count data.n")
        if self.path is not None and self.format not in ("csv", "raw_f32"):
            raise ConfigError("data.format must be csv or raw_f32 when data.path is set")


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data: DataConfig


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def parse_run_config(doc: dict) -> RunConfig:
    """Strict parse: unknown keys anywhere are rejected, absent keys take the
    documented defaults, and each section checks its own fields."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    _reject_unknown(doc, _SECTIONS, "config")
    built = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name} section must be a JSON object")
        _reject_unknown(section, [f.name for f in fields(cls)], name)
        if cls is ModelConfig and "D" not in section:
            raise ConfigError("model.D is required")
        try:
            built[name] = cls(**section)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from None
    return RunConfig(**built)


def read_json(path: str):
    """The JSON document in a UTF-8 file; ConfigError if it is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: malformed JSON: {err}") from None


def load_run_config(path: str) -> RunConfig:
    return parse_run_config(read_json(path))


# ---------------------------------------------------------------------------
# binary checkpoint
# ---------------------------------------------------------------------------


def _canonical(obj) -> str:
    """The JSON text a checkpoint header is written in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _manifest(model: FlowModel) -> list[dict]:
    """Name, shape and byte offset in the blob of every parameter, in order."""
    manifest, offset = [], 0
    for name, node in model.params.items():
        manifest.append({"name": name, "shape": list(node.value.shape), "offset": offset})
        offset += node.value.size * _ITEMSIZE
    return manifest


def save_checkpoint(path: str, model: FlowModel, stats: StandardizationStats,
                    run_config: RunConfig) -> None:
    blob = b"".join(np.ascontiguousarray(node.value, dtype=PARAM_DTYPE).tobytes()
                    for _, node in model.params.items())
    header = {
        "format_version": FORMAT_VERSION,
        "run_config": asdict(run_config),
        "standardization": {
            "mean": [float(v) for v in stats.mean],
            "std": [float(v) for v in stats.std],
        },
        "manifest": _manifest(model),
        "crc32": zlib.crc32(blob),
    }
    header_bytes = _canonical(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER_LEN.pack(len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)


def round_to_stored(model: FlowModel) -> None:
    """Round every parameter in place to the value a checkpoint stores, so
    the model in memory is the one save_checkpoint writes and load_checkpoint
    reads back."""
    for _, node in model.params.items():
        node.value = node.value.astype(PARAM_DTYPE).astype(np.float64)


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
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint corrupt (header is not a JSON object)")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    blob = raw[body_start + header_len:]
    if zlib.crc32(blob) != header.get("crc32"):
        raise CheckpointError(f"{path}: checkpoint corrupt (crc mismatch)")
    try:
        rc = parse_run_config(header["run_config"])
    except (KeyError, ConfigError) as err:
        raise CheckpointError(f"{path}: checkpoint corrupt ({err})") from None

    model = build_model(rc.model, seed=rc.train.seed)
    stored, expected = header.get("manifest"), _manifest(model)
    if not isinstance(stored, list):
        raise CheckpointError(f"{path}: checkpoint corrupt (malformed manifest)")
    for got, want in zip(stored, expected):
        if _canonical(got) != _canonical(want):
            raise CheckpointError(
                f"{path}: manifest does not match the architecture: parameter {want['name']} "
                f"is stored as {_canonical(got)}, expected {_canonical(want)}"
            )
    if len(stored) != len(expected):
        raise CheckpointError(f"{path}: manifest does not match the architecture: "
                              f"{len(stored)} entries, expected {len(expected)}")
    if len(blob) != model.params.total_count() * _ITEMSIZE:
        raise CheckpointError(f"{path}: checkpoint corrupt (blob size does not match "
                              "the manifest)")
    values = np.frombuffer(blob, dtype=PARAM_DTYPE)
    for entry, (name, node) in zip(expected, model.params.items()):
        start = entry["offset"] // _ITEMSIZE
        chunk = values[start:start + node.value.size]
        if not np.isfinite(chunk).all():
            raise CheckpointError(f"{path}: parameter {name} has non-finite values")
        node.value = chunk.astype(np.float64).reshape(node.value.shape)

    std = header.get("standardization", {})
    if not isinstance(std, dict):
        raise CheckpointError(f"{path}: checkpoint corrupt (malformed standardization)")
    try:
        stats = StandardizationStats(
            mean=np.asarray(std.get("mean", []), dtype=np.float64),
            std=np.asarray(std.get("std", []), dtype=np.float64),
        )
    except (TypeError, ValueError, OverflowError):
        raise CheckpointError(f"{path}: checkpoint corrupt (standardization stats "
                              "are not numbers)") from None
    if stats.mean.shape != (rc.model.D,) or stats.std.shape != (rc.model.D,):
        raise CheckpointError(f"{path}: standardization stats do not match D")
    if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()
            and (stats.std > 0.0).all()):
        raise CheckpointError(f"{path}: standardization stats must be finite with std > 0")
    return model, stats, rc
