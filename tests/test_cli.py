"""Config parsing, checkpoint format, and the CLI command surface."""

import json
import struct

import numpy as np
import pytest

from tnaf.checkpoint import (
    CheckpointError,
    ConfigError,
    load_checkpoint,
    parse_run_config,
    run_config_to_dict,
    save_checkpoint,
)
from tnaf.cli import main
from tnaf.data import StandardizationStats, load_matrix, save_csv
from tnaf.flow import build_model, total_param_count


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
        assert rc.model.cdf_hidden == 128
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
        echo = run_config_to_dict(rc)
        rc2 = parse_run_config(echo)
        assert run_config_to_dict(rc2) == echo


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
        assert run_config_to_dict(lrc) == run_config_to_dict(rc)

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


# each edit changes the header in place or returns a replacement; the blob
# and its crc stay intact
MALFORMED_HEADERS = {
    "entry_without_offset": _drop_offset,
    "string_manifest": lambda h: h.update(manifest="head.w"),
    "non_list_shape": lambda h: h["manifest"][0].update(shape=4),
    "non_numeric_mean": lambda h: h["standardization"].update(mean=["a", "b"]),
    "list_header": lambda h: [h],
    "zero_std": lambda h: h["standardization"].update(std=[0.0, 1.0]),
}


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_checkpoint_header_exits_4(tmp_path, capsys, edit):
    rc = parse_run_config(tiny_model_doc())
    stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), build_model(rc.model, seed=1), stats, rc)
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + n])
    header = edit(header) or header
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + n:])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    assert main(["inspect", "-m", str(path)]) == 4
    assert "checkpoint error" in capsys.readouterr().err


class TestCliTrainEval:
    def test_train_writes_checkpoint_and_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_model_doc())
        ckpt = tmp_path / "out.ckpt"
        assert main(["train", "-c", cfg, "-o", str(ckpt)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        last = out[-1]
        assert last.startswith("test_ll=")
        assert "param_count=" in last
        count = int(last.split("param_count=")[1])
        rc = parse_run_config(tiny_model_doc())
        assert count == total_param_count(rc.model)
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
        train_ll = float(printed.split()[0].split("=")[1])

        # rebuild the raw test split with the same deterministic pipeline
        matrix = toy_generate("ring", 400, seed=3)
        splits = make_splits(matrix, (0.8, 0.1, 0.1), seed=3)
        test_csv = tmp_path / "test.csv"
        save_csv(splits.test.data, str(test_csv))
        assert main(["eval", "-m", str(ckpt), "-d", str(test_csv)]) == 0
        eval_ll = float(capsys.readouterr().out.strip().split()[0].split("=")[1])
        assert abs(eval_ll - train_ll) < 1e-4

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
        rc = parse_run_config(tiny_model_doc())
        assert count == total_param_count(rc.model) + 2 * 2  # D * affine psi width


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
