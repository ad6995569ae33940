"""Config parsing, checkpoint format, and the CLI command surface."""

import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tnaf.checkpoint import (
    CheckpointError,
    ConfigError,
    DataConfig,
    RunConfig,
    load_checkpoint,
    parse_run_config,
    save_checkpoint,
)
from tnaf import checks
from tnaf.cli import _pipeline, _train_run, main
from tnaf.data import StandardizationStats, load_matrix, save_csv
from tnaf.flow import ModelConfig, build_model, forward_values
from tnaf.trainer import TrainConfig, evaluate

from test_flow import pathological_spline_model


def tiny_model_doc(head_type="affine", layers=1, with_train=True, **data):
    doc = {
        "model": {"D": 2, "E": 8, "heads": 2, "layers": layers,
                  "mlp_hidden": 16, "head_type": head_type, "H": 4, "K": 4},
        "data": data or {"toy": "ring", "n": 400, "seed": 3},
    }
    if with_train:
        doc["train"] = {"batch_size": 64, "max_steps": 40, "eval_every": 20,
                        "patience": 5, "seed": 3, "learning_rate": 1e-3}
    return doc


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunConfig:
    def test_defaults_follow_reference_setup(self):
        rc = parse_run_config({"model": {"D": 6}, "data": {"toy": "ring", "n": 100}})
        assert rc.model.E == 32
        assert rc.model.heads == 8
        assert rc.model.layers == 3
        assert rc.model.mlp_hidden == 64
        assert rc.model.head_type == "cdf"
        assert rc.model.H == 128
        assert rc.train.learning_rate == 1e-3
        assert rc.train.batch_size == 256
        assert rc.data.fractions == (0.8, 0.1, 0.1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="dropout"):
            parse_run_config({"model": {"D": 2, "dropout": 0.1},
                              "data": {"toy": "ring", "n": 10}})
        with pytest.raises(ConfigError, match="momentum"):
            parse_run_config({"model": {"D": 2}, "train": {"momentum": 0.9},
                              "data": {"toy": "ring", "n": 10}})

    def test_missing_d_rejected(self):
        with pytest.raises(ConfigError, match="model.D"):
            parse_run_config({"model": {}, "data": {"toy": "ring", "n": 10}})

    def test_data_source_required(self):
        with pytest.raises(ConfigError):
            parse_run_config({"model": {"D": 2}, "data": {}})
        with pytest.raises(ConfigError):
            parse_run_config({"model": {"D": 2},
                              "data": {"toy": "ring", "path": "x.csv", "n": 5}})

    def test_bad_head_type(self):
        with pytest.raises(ConfigError):
            parse_run_config({"model": {"D": 2, "head_type": "planar"},
                              "data": {"toy": "ring", "n": 10}})

    def test_roundtrip_through_dict(self):
        rc = parse_run_config(tiny_model_doc())
        echo = asdict(rc)
        rc2 = parse_run_config(echo)
        assert asdict(rc2) == echo

    def test_echo_of_a_full_config(self, tmp_path):
        rc = RunConfig(
            model=ModelConfig(D=3, head_type="spline", E=12, heads=3, layers=2,
                              mlp_hidden=20, H=5, K=6, B=2.5, blocks=3),
            train=TrainConfig(learning_rate=0.01, batch_size=32, max_steps=70,
                              clip_norm=2.0, patience=4, eval_every=9, seed=6),
            data=DataConfig(path="x.csv", format="csv", n=80,
                            fractions=(0.5, 0.25, 0.25), seed=2),
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), build_model(rc.model),
                        StandardizationStats(np.zeros(3), np.ones(3)), rc)
        assert read_header(path)["run_config"] == {
            "model": {"D": 3, "E": 12, "heads": 3, "layers": 2, "mlp_hidden": 20,
                      "head_type": "spline", "H": 5, "K": 6, "B": 2.5, "blocks": 3},
            "train": {"learning_rate": 0.01, "batch_size": 32, "max_steps": 70,
                      "clip_norm": 2.0, "patience": 4, "eval_every": 9, "seed": 6},
            "data": {"path": "x.csv", "format": "csv", "toy": None, "n": 80,
                     "fractions": [0.5, 0.25, 0.25], "seed": 2},
        }


class TestCheckpointFormat:
    def make(self, tmp_path, head_type="spline"):
        rc = parse_run_config(tiny_model_doc(head_type=head_type))
        model = build_model(rc.model, seed=1)
        stats = StandardizationStats(mean=np.array([0.5, -1.0]),
                                     std=np.array([2.0, 0.25]))
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model, stats, rc)
        return rc, model, stats, path

    def test_roundtrip_within_f32(self, tmp_path):
        rc, model, stats, path = self.make(tmp_path)
        loaded, lstats, lrc = load_checkpoint(str(path))
        assert loaded.params.names() == model.params.names()
        for name, node in model.params.items():
            f32 = node.value.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded.params[name].value, f32)
        np.testing.assert_array_equal(lstats.mean, stats.mean)
        np.testing.assert_array_equal(lstats.std, stats.std)
        assert lrc == rc

    def test_save_load_save_byte_identical(self, tmp_path):
        rc, model, stats, path = self.make(tmp_path)
        loaded, lstats, lrc = load_checkpoint(str(path))
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(str(path2), loaded, lstats, lrc)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncation_detected(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_blob_corruption_detected(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="crc"):
            load_checkpoint(str(path))

    def test_bad_magic_detected(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))


def _drop_offset(h):
    del h["manifest"][0]["offset"]


def _float_offset(h):
    h["manifest"][1]["offset"] = float(h["manifest"][1]["offset"])


def _bool_shape_entry(h):
    # input_proj.w is [1, E]; True == 1 in Python, but not in the manifest
    shape = h["manifest"][0]["shape"]
    assert shape[0] == 1
    shape[0] = True


# each edit changes the header in place or returns a replacement; the blob
# and its crc stay intact
MALFORMED_HEADERS = {
    "entry_without_offset": _drop_offset,
    "string_manifest": lambda h: h.update(manifest="head.w"),
    "non_list_shape": lambda h: h["manifest"][0].update(shape=4),
    "non_numeric_mean": lambda h: h["standardization"].update(mean=["a", "b"]),
    "list_header": lambda h: [h],
    "zero_std": lambda h: h["standardization"].update(std=[0.0, 1.0]),
    # appended, so the earlier cases keep their ids
    "float_offset": _float_offset,
    "bool_shape_entry": _bool_shape_entry,
    "entry_with_extra_key": lambda h: h["manifest"][0].update(dtype="<f4"),
    "manifest_without_its_last_entry": lambda h: h.update(manifest=h["manifest"][:-1]),
}


def read_header(path):
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[12:12 + n])


def rewrite_header(path, edit):
    """Apply edit to a checkpoint's header, keeping its blob and crc."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = read_header(path)
    header = edit(header) or header
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + n:])


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_checkpoint_header_exits_4(tmp_path, capsys, edit):
    rc = parse_run_config(tiny_model_doc())
    stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), build_model(rc.model, seed=1), stats, rc)
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    assert main(["inspect", "-m", str(path)]) == 4
    assert "checkpoint error" in capsys.readouterr().err


def _per_block_projections(header):
    """A two-block spline's manifest as it was with one projection head{j} per
    block."""
    manifest, old, offset = header["manifest"], [], 0
    for entry in manifest:
        if entry["name"] in ("head.w", "head.b"):
            continue
        if entry["name"] == "mix0":
            # head.w [E, 2W] and head.b [2W] as head0.{w,b} and head1.{w,b}
            e, width = next(x["shape"] for x in manifest if x["name"] == "head.w")
            for j in range(2):
                old += [{"name": f"head{j}.w", "shape": [e, width // 2]},
                        {"name": f"head{j}.b", "shape": [width // 2]}]
        old.append(entry)
    for entry in old:
        entry["offset"] = offset
        offset += 4 * int(np.prod(entry["shape"]))
    header["manifest"] = old


def _conditioning_weight_as_out_by_e(header):
    """shared_cdf's manifest with phi.w1_cond in its old [H, E] shape."""
    for entry in header["manifest"]:
        if entry["name"] == "phi.w1_cond":
            entry["shape"] = entry["shape"][::-1]


# the message names the first parameter whose entry differs and shows both entries
@pytest.mark.parametrize("head_type, edit, message", [
    ("spline", _per_block_projections,
     r'manifest does not match the architecture: parameter head\.w is stored as '
     r'\{"name":"head0\.w","offset":(\d+),"shape":\[8,11\]\}, '
     r'expected \{"name":"head\.w","offset":\1,"shape":\[8,22\]\}'),
    ("shared_cdf", _conditioning_weight_as_out_by_e,
     r'parameter phi\.w1_cond is stored as '
     r'\{"name":"phi\.w1_cond","offset":(\d+),"shape":\[4,8\]\}, '
     r'expected \{"name":"phi\.w1_cond","offset":\1,"shape":\[8,4\]\}'),
])
def test_old_projection_layout_exits_4(tmp_path, capsys, head_type, edit, message):
    rc = parse_run_config(tiny_model_doc(head_type=head_type))
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), build_model(rc.model, seed=1),
                    StandardizationStats(mean=np.zeros(2), std=np.ones(2)), rc)
    rewrite_header(path, edit)
    assert main(["inspect", "-m", str(path)]) == 4
    assert re.search(message, capsys.readouterr().err)


class TestCliTrainEval:
    def test_train_writes_checkpoint_and_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        assert main(["train", "-c", cfg, "-o", str(ckpt)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        last = out[-1]
        assert last.startswith("test_ll=")
        assert "param_count=" in last
        # the parameters of tiny_model_doc's D=2 affine model
        assert int(last.split("param_count=")[1]) == 650
        assert ckpt.exists()

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        ckpt = tmp_path / "out.ckpt"
        assert main(["train", "-c", str(bad), "-o", str(ckpt)]) == 2
        assert not ckpt.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        doc = tiny_model_doc()
        doc["model"]["warp"] = 9
        assert main(["train", "-c", write_config(tmp_path, doc),
                     "-o", str(tmp_path / "o.ckpt")]) == 2

    def test_eval_reproduces_train_metric(self, tmp_path, capsys):
        from tnaf.data import make_splits, toy_generate

        doc = tiny_model_doc()
        cfg = write_config(tmp_path, doc)
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        printed = capsys.readouterr().out.strip().splitlines()[-1]

        # rebuild the raw test split with the same deterministic pipeline
        matrix = toy_generate("ring", 400, seed=3)
        splits = make_splits(matrix, (0.8, 0.1, 0.1), seed=3)
        test_csv = tmp_path / "test.csv"
        save_csv(splits.test.data, str(test_csv))
        assert main(["eval", "-m", str(ckpt), "-d", str(test_csv)]) == 0
        # train reports the saved float32 parameters' score, so eval of the
        # checkpoint prints the same test_ll and standard error to the digit
        evaluated = capsys.readouterr().out.strip()
        assert evaluated == printed.split(" param_count=")[0]

    @pytest.mark.parametrize("head_type", ["affine", "spline"])
    def test_train_reports_the_checkpoint_test_ll(self, tmp_path, head_type):
        # what cmd_train does: train, report, save
        rc = parse_run_config(tiny_model_doc(head_type))
        model, stats, test_ll, test_err = _train_run(rc, log_fn=None)
        ckpt = str(tmp_path / "out.ckpt")
        save_checkpoint(ckpt, model, stats, rc)
        loaded, _, _ = load_checkpoint(ckpt)
        assert evaluate(loaded, _pipeline(rc)[0].test) == (test_ll, test_err)

    def test_eval_raw_f32_format(self, tmp_path, capsys):
        from tnaf.data import DatasetMatrix, save_raw_f32

        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        rows = np.random.default_rng(2).standard_normal((20, 2))
        bin_path = tmp_path / "rows.bin"
        save_raw_f32(DatasetMatrix(rows), str(bin_path))
        assert main(["eval", "-m", str(ckpt), "-d", str(bin_path),
                     "--format", "raw_f32"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("test_ll=")

    def test_eval_dimension_mismatch_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,5,6\n")
        assert main(["eval", "-m", str(ckpt), "-d", str(bad)]) == 3

    def test_nan_split_fraction_exits_3(self, tmp_path, capsys):
        # json reads NaN as a number; it must fail the positivity check
        doc = tiny_model_doc(toy="ring", n=400, seed=3,
                             fractions=[float("nan"), 0.5, 0.5])
        cfg = write_config(tmp_path, doc)
        assert "NaN" in (tmp_path / "run.json").read_text()
        assert main(["train", "-c", cfg, "-o", str(tmp_path / "out.ckpt")]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "Traceback" not in err

    def test_eval_empty_data_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["eval", "-m", str(ckpt), "-d", str(empty)]) == 3

    def test_eval_truncated_checkpoint_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        ckpt.write_bytes(ckpt.read_bytes()[:40])
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        assert main(["eval", "-m", str(ckpt), "-d", str(data)]) == 4

    def test_count_with_psi_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "o.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt), "--count-with-psi"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        count = int(last.split("param_count=")[1])
        assert count == 650 + 2 * 2  # D * affine psi width


class TestUnreadableInput:
    """A file that cannot be read or decoded exits with a code and one
    stderr line, never a traceback."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        rc = parse_run_config(tiny_model_doc())
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), build_model(rc.model),
                        StandardizationStats(np.zeros(2), np.ones(2)), rc)
        return str(path)

    @staticmethod
    def one_line(capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_directory_as_config_exits_3(self, tmp_path, capsys, command):
        out = ["-o", str(tmp_path / "out")] if command == "train" else []
        assert main([command, "-c", str(tmp_path), *out]) == 3
        self.one_line(capsys, "file error:")

    def test_directory_as_eval_data_exits_3(self, tmp_path, capsys, ckpt):
        assert main(["eval", "-m", ckpt, "-d", str(tmp_path)]) == 3
        self.one_line(capsys, "file error:")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"model": {"D": 2}, "data": "\xff"}')
        out = ["-o", str(tmp_path / "out")] if command == "train" else []
        assert main([command, "-c", str(cfg), *out]) == 2
        self.one_line(capsys, "config error:")

    def test_non_utf8_eval_data_exits_3(self, tmp_path, capsys, ckpt):
        data = tmp_path / "d.csv"
        data.write_bytes(b"1.0,2.0\n\xff,3.0\n")
        assert main(["eval", "-m", ckpt, "-d", str(data)]) == 3
        self.one_line(capsys, "data error:")


class TestUnwritableOutput:
    """train and ablate learn that -o cannot be written before they train,
    and a run that fails leaves the file at -o as it was."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("output", ["missing/x.out", "."])
    def test_unwritable_output_exits_3_before_training(self, tmp_path, capsys,
                                                       command, output):
        doc = tiny_model_doc()
        if command == "ablate":
            doc = {"base": doc, "grid": {"layers": [1]}}
        argv = [command, "-c", write_config(tmp_path, doc), "-o", str(tmp_path / output)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("file error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("existing", [None, b"earlier bytes"])
    def test_failed_run_leaves_output_as_it_was(self, tmp_path, existing):
        doc = tiny_model_doc()
        doc["model"]["D"] = 3  # the ring toy has two columns
        out = tmp_path / "x.ckpt"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["train", "-c", write_config(tmp_path, doc), "-o", str(out)]) == 3
        assert (out.read_bytes() if out.exists() else None) == existing


class TestCliSampleInvert:
    @pytest.fixture()
    def trained(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        return ckpt

    def test_sample_deterministic(self, trained, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sample", "-m", str(trained), "-n", "5", "--seed", "9",
                     "-o", str(a)]) == 0
        assert main(["sample", "-m", str(trained), "-n", "5", "--seed", "9",
                     "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert load_matrix(str(a), "csv").data.shape == (5, 2)

    def test_sample_zero_count_usage_error(self, trained, tmp_path):
        assert main(["sample", "-m", str(trained), "-n", "0", "--seed", "1",
                     "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("command", ["sample", "check"])
    def test_negative_seed_usage_error(self, trained, tmp_path, capsys, command):
        argv = {
            "sample": ["sample", "-m", str(trained), "-n", "3", "--seed", "-1",
                       "-o", str(tmp_path / "x.csv")],
            "check": ["check", "-m", str(trained), "--seed", "-1"],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err

    def test_inversion_failure_exits_5(self, tmp_path, capsys):
        # the monotone net maps the real line onto itself, but the inverse
        # brackets roots only within +-2**64; 1e300 lies beyond
        cfg = write_config(tmp_path, tiny_model_doc(head_type="cdf"))
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        targets = tmp_path / "targets.csv"
        targets.write_text("1e300,0.5\n")
        assert main(["invert", "-m", str(ckpt), "-d", str(targets),
                     "-o", str(tmp_path / "o.csv")]) == 5

    @pytest.mark.parametrize("command", ["sample", "invert"])
    def test_non_finite_inversion_exits_5(self, tmp_path, capsys, command):
        # a fresh wide affine flow whose inverse overflows to inf/NaN by
        # dimension 8 on this noise: nothing may be written
        rc = parse_run_config({
            "model": {"D": 63, "head_type": "affine", "E": 16, "heads": 2, "layers": 2,
                      "mlp_hidden": 32},
            "data": {"toy": "ring", "n": 10},
        })
        ckpt, out = tmp_path / "wide.ckpt", tmp_path / "x.csv"
        save_checkpoint(str(ckpt), build_model(rc.model, seed=1),
                        StandardizationStats(np.zeros(63), np.ones(63)), rc)
        if command == "sample":
            argv = ["sample", "-m", str(ckpt), "-n", "16", "--seed", "5"]
        else:
            noise = tmp_path / "noise.csv"
            save_csv(np.random.default_rng(5).standard_normal((16, 63)), str(noise))
            argv = ["invert", "-m", str(ckpt), "-d", str(noise)]
        assert main(argv + ["-o", str(out)]) == 5
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_spline_inversion_failure_exits_5(self, tmp_path, capsys):
        # the spline's root check fails on row 1: exit 5 naming the row, no
        # traceback and no output
        model, y = pathological_spline_model()
        rc = parse_run_config({"model": {"D": 1, "head_type": "spline", "blocks": 1},
                               "data": {"toy": "ring", "n": 10}})
        ckpt, targets, out = tmp_path / "spline.ckpt", tmp_path / "y.csv", tmp_path / "x.csv"
        save_checkpoint(str(ckpt), model, StandardizationStats(np.zeros(1), np.ones(1)), rc)
        save_csv(np.array([[4.0], [y]]), str(targets))
        assert main(["invert", "-m", str(ckpt), "-d", str(targets), "-o", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("inversion error: ") and "sample 1, dimension 0" in err
        assert not out.exists()

    def test_invert_recovers_noise(self, trained, tmp_path, capsys):
        out = tmp_path / "s.csv"
        main(["sample", "-m", str(trained), "-n", "6", "--seed", "4", "-o", str(out)])
        # map the samples forward, then invert them back
        model, stats, _ = load_checkpoint(str(trained))
        from tnaf.flow import forward_values

        raw = load_matrix(str(out), "csv").data
        y, _ = forward_values(model, stats.apply(raw))
        ycsv = tmp_path / "y.csv"
        save_csv(y, str(ycsv))
        inv = tmp_path / "inv.csv"
        assert main(["invert", "-m", str(trained), "-d", str(ycsv),
                     "-o", str(inv)]) == 0
        np.testing.assert_allclose(load_matrix(str(inv), "csv").data, raw,
                                   atol=1e-6)


class TestCliCheck:
    def test_fresh_model_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc(head_type="spline"))
        assert main(["check", "-c", cfg]) == 0
        out = capsys.readouterr().out
        for oracle in ("triangularity", "logdet", "gradient", "inversion"):
            assert f"{oracle}: PASS" in out

    def test_trained_checkpoint_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        assert main(["check", "-m", str(ckpt)]) == 0

    def test_corrupted_checkpoint_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        raw = bytearray(ckpt.read_bytes())
        raw[-2] ^= 0x55
        ckpt.write_bytes(bytes(raw))
        assert main(["check", "-m", str(ckpt)]) != 0

    def test_needs_exactly_one_source(self, tmp_path):
        assert main(["check"]) == 2

    @pytest.mark.parametrize("head,key,value", [
        ("spline", "blocks", 0),
        ("spline", "B", -1.0),
        ("spline", "B", 0.0),
        ("spline", "B", float("inf")),
        ("spline", "B", float("nan")),
        ("spline", "K", 0),
        ("spline", "K", 3.5),
        ("cdf", "H", 0),
        ("cdf", "H", 2.5),
        ("shared_cdf", "H", 0),
        ("cdf", "H", True),
        ("spline", "B", True),
        ("spline", "B", "x"),
        # every key is checked, also one the head does not read
        ("cdf", "K", 0),
        ("affine", "blocks", 0),
        ("shared_cdf", "B", 0.0),
        ("spline", "H", 0),
    ])
    def test_bad_head_hyperparameter_exits_2(self, tmp_path, capsys, head, key, value):
        doc = tiny_model_doc(head_type=head)
        doc["model"][key] = value
        assert main(["check", "-c", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("D", 2.0),
        ("E", 8.0),
        ("heads", True),
        ("heads", 3),
        ("layers", 1.5),
        ("layers", 0),
        ("mlp_hidden", True),
    ])
    def test_bad_conditioner_shape_exits_2(self, tmp_path, capsys, key, value):
        doc = tiny_model_doc()
        doc["model"][key] = value
        assert main(["check", "-c", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "batch_size", 1.5),
        ("train", "seed", 1.5),
        ("train", "max_steps", -1),
        ("train", "patience", 0),
        ("train", "eval_every", True),
        ("data", "n", "100"),
        ("data", "n", 2.5),
        ("data", "seed", "x"),
        ("data", "fractions", ["a", 0.1, 0.1]),
        ("data", "path", 7),
        ("data", "format", 7),
        ("data", "toy", 7),
        # appended, not grouped with the train rows, so the earlier cases keep their ids
        ("train", "learning_rate", float("nan")),
        ("train", "learning_rate", float("inf")),
        ("train", "learning_rate", True),
        ("train", "learning_rate", "x"),
        ("train", "clip_norm", float("nan")),
        ("train", "clip_norm", True),
    ])
    def test_bad_train_or_data_value_exits_2(self, tmp_path, capsys, section, key, value):
        doc = tiny_model_doc()
        if key in ("path", "format"):
            doc["data"] = {"path": "rows.csv", "format": "csv"}
        doc[section][key] = value
        assert main(["check", "-c", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err

    def test_fresh_default_shared_cdf_passes(self, tmp_path, capsys):
        # the default width H=128 at D=8
        data = tmp_path / "d8.csv"
        save_csv(np.random.default_rng(0).standard_normal((40, 8)), str(data))
        doc = {"model": {"D": 8, "head_type": "shared_cdf"},
               "data": {"path": str(data), "format": "csv"}}
        assert main(["check", "-c", write_config(tmp_path, doc)]) == 0
        assert "inversion: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("corruption", [None, "sum", "split"])
    def test_logdet_oracle_at_logdet_zero(self, tmp_path, capsys, monkeypatch, corruption):
        # a fresh K=1 spline with zero mixes is the identity: log-det exactly 0
        data = tmp_path / "d4.csv"
        save_csv(np.random.default_rng(0).standard_normal((40, 4)), str(data))
        doc = {"model": {"D": 4, "head_type": "spline", "K": 1},
               "data": {"path": str(data), "format": "csv"}}
        if corruption is not None:
            # "sum" moves the total log-det; "split" keeps the total and
            # moves log-derivative from dimension 1 to dimension 0
            shift = np.array([1e-3, 0.0 if corruption == "sum" else -1e-3, 0.0, 0.0])

            def corrupted(model, x):
                y, ld = forward_values(model, x)
                return y, ld + shift

            monkeypatch.setattr(checks, "forward_values", corrupted)
        code = main(["check", "-c", write_config(tmp_path, doc)])
        out = capsys.readouterr().out
        if corruption is None:
            assert code == 0 and "logdet: PASS" in out
        else:
            assert code == 1 and "logdet: FAIL" in out

    def test_d1_model_passes(self, tmp_path, capsys):
        doc = tiny_model_doc()
        doc["model"]["D"] = 1
        doc["data"] = {"toy": "ring", "n": 40, "seed": 1}
        cfg = write_config(tmp_path, doc, name="d1.json")
        assert main(["check", "-c", cfg]) == 0


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("command", ["eval", "sample", "invert", "check", "inspect"])
    def test_non_finite_weights_exit_4(self, tmp_path, capsys, command):
        # save_checkpoint writes a valid crc over whatever it is given, so a
        # NaN weight arrives intact and must be caught on load
        rc = parse_run_config(tiny_model_doc(head_type="cdf"))
        model = build_model(rc.model, seed=1)
        model.params["head.b"].value[:] = np.nan
        ckpt = str(tmp_path / "nan.ckpt")
        save_checkpoint(ckpt, model, StandardizationStats(np.zeros(2), np.ones(2)), rc)
        data = tmp_path / "d.csv"
        data.write_text("0.5,0.5\n")
        out = str(tmp_path / "o.csv")
        argv = {
            "eval": ["eval", "-m", ckpt, "-d", str(data)],
            "sample": ["sample", "-m", ckpt, "-n", "3", "--seed", "1", "-o", out],
            "invert": ["invert", "-m", ckpt, "-d", str(data), "-o", out],
            "check": ["check", "-m", ckpt],
            "inspect": ["inspect", "-m", ckpt],
        }[command]
        assert main(argv) == 4
        assert "non-finite" in capsys.readouterr().err


class TestCliInspectAblate:
    def test_inspect(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        main(["train", "-c", cfg, "-o", str(ckpt)])
        capsys.readouterr()
        assert main(["inspect", "-m", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "head_type=affine" in out
        assert "param_count=" in out

    def test_ablate_table_structure(self, tmp_path, capsys):
        base = tiny_model_doc()
        base["train"]["max_steps"] = 10
        base["train"]["eval_every"] = 5
        matrix = {"base": base, "grid": {"head_type": ["affine", "spline"],
                                         "layers": [1, 2]}}
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(matrix))
        out_file = tmp_path / "table.tsv"
        assert main(["ablate", "-c", str(cfg), "-o", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["head_type", "layers", "test_ll",
                                        "std_err", "param_count"]
        assert len(lines) == 5
        for line in lines[1:]:
            head, layers, ll, err, count = line.split("\t")
            assert head in ("affine", "spline")
            int(layers)
            float(ll)
            float(err)
            int(count)

    @pytest.mark.parametrize("base_omits, grid, rows", [
        ((), {"layers": [1, 2]}, [["spline", "1"], ["spline", "2"]]),
        ((), {"head_type": ["affine"]}, [["affine", "1"]]),
        (("head_type", "layers"), {}, [["cdf", "3"]]),  # ModelConfig's defaults
    ])
    def test_ablate_omitted_grid_key_keeps_the_base_value(self, tmp_path, capsys,
                                                          base_omits, grid, rows):
        base = tiny_model_doc(head_type="spline", layers=1)
        for key in base_omits:
            del base["model"][key]
        base["train"].update(max_steps=4, eval_every=2)
        cfg = write_config(tmp_path, {"base": base, "grid": grid})
        assert main(["ablate", "-c", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert [line.split("\t")[:2] for line in lines] == rows

    def test_ablate_rejects_unknown_grid_key(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"base": tiny_model_doc(),
                                   "grid": {"optimizer": ["sgd"]}}))
        assert main(["ablate", "-c", str(cfg)]) == 2

    @pytest.mark.parametrize("base,grid", [
        (None, {"layers": 1}),
        ([], {}),
        ({"model": []}, {}),
        (None, []),
    ])
    def test_ablate_rejects_malformed_sections(self, tmp_path, capsys, base, grid):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"base": tiny_model_doc() if base is None else base,
                                   "grid": grid}))
        assert main(["ablate", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestMiniboonShapeReport:
    def test_default_config_param_count_scaling(self, tmp_path, capsys):
        # the default architecture at D=43 (and 44) straight from the train
        # command: count stays under 1e5 and grows by exactly E=32 per column
        rng = np.random.default_rng(0)
        counts = {}
        for d in (43, 44):
            data = tmp_path / f"wide{d}.csv"
            save_csv(rng.standard_normal((60, d)), str(data))
            doc = {
                "model": {"D": d, "head_type": "cdf"},
                "train": {"batch_size": 16, "max_steps": 2, "eval_every": 1,
                          "patience": 99, "seed": 0},
                "data": {"path": str(data), "format": "csv", "seed": 0},
            }
            ckpt = tmp_path / f"wide{d}.ckpt"
            assert main(["train", "-c", write_config(tmp_path, doc, f"w{d}.json"),
                         "-o", str(ckpt)]) == 0
            last = capsys.readouterr().out.strip().splitlines()[-1]
            counts[d] = int(last.split("param_count=")[1])
        assert counts[43] < 10 ** 5
        assert counts[44] - counts[43] == 32


class TestConcurrentEvaluation:
    def test_no_grad_log_prob_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        model = build_model(parse_run_config(tiny_model_doc()).model, seed=21)
        rows = np.random.default_rng(5).standard_normal((64, 2))
        expected = None
        from tnaf.flow import log_prob

        expected = log_prob(model, rows).logp
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: log_prob(model, rows).logp, range(8)))
        for got in results:
            np.testing.assert_array_equal(got, expected)


class TestCliDeterminism:
    def test_repeated_training_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        assert main(["train", "-c", cfg, "-o", str(a)]) == 0
        assert main(["train", "-c", cfg, "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point_warns_nothing():
    # `import tnaf` must not import tnaf.cli, or runpy warns that the module
    # it is about to run as __main__ is already in sys.modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tnaf.cli", "--help"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage" in proc.stdout
