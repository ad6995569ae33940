"""Dataset loading, splits, standardization, toy generators, batching."""

import numpy as np
import pytest

from tnaf.data import (
    DataError,
    DatasetMatrix,
    ParseError,
    Splits,
    batches,
    gauss_mixture_8_logpdf,
    gauss_mixture_8_nll_oracle,
    load_matrix,
    make_splits,
    save_csv,
    save_raw_f32,
    standardize,
    toy_generate,
)


def _trapezoid2(grid_values, h):
    """Composite 2-D trapezoid rule on an evenly spaced square grid."""
    w = np.ones(grid_values.shape[0])
    w[0] = w[-1] = 0.5
    return float(w @ grid_values @ w * h * h)


class TestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        m = load_matrix(str(path), "csv")
        np.testing.assert_array_equal(m.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("alpha,beta\n1,2\n")
        m = load_matrix(str(path), "csv")
        np.testing.assert_array_equal(m.data, [[1.0, 2.0]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(str(path), "csv")

    @pytest.mark.parametrize("text, line", [("a,b\n1,2\n\n\n3\n", "line 5 has 1 fields"),
                                            ("1,2\n\n3,x\n", "line 3:")],
                             ids=["ragged", "non_numeric"])
    def test_error_names_the_file_line_past_blank_lines(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=line):
            load_matrix(str(path), "csv")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,zap\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(str(path), "csv")

    def test_nan_rejected_with_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(ParseError, match="row 1"):
            load_matrix(str(path), "csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(str(path), "csv")

    def test_save_load_roundtrip(self, tmp_path):
        rows = np.array([[1.25, -3.5], [0.1, 2.0]])
        path = tmp_path / "m.csv"
        save_csv(rows, str(path))
        m = load_matrix(str(path), "csv")
        np.testing.assert_array_equal(m.data, rows)


class TestRawF32:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((7, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.bin"
        save_raw_f32(DatasetMatrix(data), str(path))
        loaded = load_matrix(str(path), "raw_f32")
        np.testing.assert_array_equal(loaded.data, data)
        path2 = tmp_path / "m2.bin"
        save_raw_f32(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        import struct
        path.write_bytes(struct.pack("<QQ", 0, 2))
        with pytest.raises(ParseError, match="empty"):
            load_matrix(str(path), "raw_f32")

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        import struct
        path.write_bytes(struct.pack("<QQ", 2, 2) + b"\x00" * 8)
        with pytest.raises(ParseError, match="expected"):
            load_matrix(str(path), "raw_f32")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataError):
            load_matrix("whatever", "parquet")


class TestSplits:
    def test_sizes(self):
        matrix = DatasetMatrix(np.arange(200.0).reshape(100, 2))
        s = make_splits(matrix, (0.8, 0.1, 0.1), seed=0)
        assert (s.train.n_rows, s.val.n_rows, s.test.n_rows) == (80, 10, 10)

    def test_same_seed_identical(self):
        matrix = DatasetMatrix(np.random.default_rng(1).standard_normal((50, 3)))
        a = make_splits(matrix, (0.6, 0.2, 0.2), seed=7)
        b = make_splits(matrix, (0.6, 0.2, 0.2), seed=7)
        np.testing.assert_array_equal(a.train.data, b.train.data)
        np.testing.assert_array_equal(a.test.data, b.test.data)

    def test_different_seeds_differ(self):
        matrix = DatasetMatrix(np.random.default_rng(2).standard_normal((1000, 2)))
        a = make_splits(matrix, (0.8, 0.1, 0.1), seed=1)
        b = make_splits(matrix, (0.8, 0.1, 0.1), seed=2)
        assert np.abs(a.train.data - b.train.data).max() > 0

    def test_rows_partition_dataset(self):
        matrix = DatasetMatrix(np.arange(30.0).reshape(10, 3))
        s = make_splits(matrix, (0.5, 0.3, 0.2), seed=3)
        merged = np.vstack([s.train.data, s.val.data, s.test.data])
        np.testing.assert_array_equal(
            np.sort(merged[:, 0]), np.sort(matrix.data[:, 0])
        )

    def test_bad_fractions(self):
        matrix = DatasetMatrix(np.ones((10, 1)))
        with pytest.raises(DataError):
            make_splits(matrix, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(DataError):
            make_splits(matrix, (1.0, -0.5, 0.5), seed=0)
        with pytest.raises(DataError):
            make_splits(matrix, (np.nan, 0.5, 0.5), seed=0)

    def test_zero_size_split(self):
        matrix = DatasetMatrix(np.ones((3, 1)))
        with pytest.raises(DataError, match="size 0"):
            make_splits(matrix, (0.9, 0.05, 0.05), seed=0)


class TestStandardize:
    def make_splits_of(self, data):
        m = DatasetMatrix(np.asarray(data, dtype=np.float64))
        n = m.n_rows
        return make_splits(m, (0.5, 0.25, 0.25), seed=0) if n >= 4 else None

    def test_train_statistics(self):
        rng = np.random.default_rng(4)
        matrix = DatasetMatrix(5.0 + 2.0 * rng.standard_normal((400, 3)))
        splits = make_splits(matrix, (0.5, 0.25, 0.25), seed=1)
        out, stats = standardize(splits)
        assert np.abs(out.train.data.mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(out.train.data.std(axis=0), 1.0, atol=1e-12)

    def test_already_standard_unchanged(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((100, 2))
        raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        splits = make_splits(DatasetMatrix(raw), (0.98, 0.01, 0.01), seed=0)
        # re-standardize the train split against itself
        raw_train = splits.train.data
        centered = (raw_train - raw_train.mean(0)) / raw_train.std(0)
        out, _ = standardize(splits)
        np.testing.assert_allclose(out.train.data, centered, atol=1e-12)

    def test_constant_column_rejected(self):
        data = np.random.default_rng(6).standard_normal((40, 2))
        data[:, 1] = 5.0
        splits = make_splits(DatasetMatrix(data), (0.5, 0.25, 0.25), seed=0)
        with pytest.raises(DataError, match="column 1"):
            standardize(splits)

    def test_stats_from_train_only(self):
        rng = np.random.default_rng(7)
        matrix = DatasetMatrix(rng.standard_normal((100, 2)))
        splits = make_splits(matrix, (0.5, 0.25, 0.25), seed=2)
        _, stats_a = standardize(splits)
        splits.val.data += 100.0  # mutating val must not affect the stats
        _, stats_b = standardize(splits)
        np.testing.assert_array_equal(stats_a.mean, stats_b.mean)
        np.testing.assert_array_equal(stats_a.std, stats_b.std)

    def test_apply_unapply_roundtrip(self):
        rng = np.random.default_rng(8)
        matrix = DatasetMatrix(3.0 + rng.standard_normal((60, 2)))
        splits = make_splits(matrix, (0.5, 0.25, 0.25), seed=0)
        _, stats = standardize(splits)
        rows = rng.standard_normal((5, 2))
        np.testing.assert_allclose(stats.unapply(stats.apply(rows)), rows, atol=1e-12)


class TestToys:
    def test_deterministic_bit_exact(self):
        a = toy_generate("gauss_mixture_8", 100, seed=9)
        b = toy_generate("gauss_mixture_8", 100, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_mixture_mean_near_origin(self):
        n = 20_000
        m = toy_generate("gauss_mixture_8", n, seed=10)
        # per-coordinate variance: mean-square of the means (8) + 0.3^2
        pop_std = np.sqrt(8.0 + 0.3 ** 2)
        assert np.abs(m.data.mean(axis=0)).max() < 3 * pop_std / np.sqrt(n)

    def test_mixture_logpdf_normalized_on_grid(self):
        # trapezoid over a wide grid integrates the true density to ~1
        grid = np.linspace(-6.5, 6.5, 301)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        dens = np.exp(gauss_mixture_8_logpdf(pts)).reshape(301, 301)
        h = grid[1] - grid[0]
        assert abs(_trapezoid2(dens, h) - 1.0) < 1e-3

    def test_nll_oracle_matches_component_entropy(self):
        # components are far apart, so the mixture entropy is close to
        # log(8) + the entropy of one isotropic Gaussian with std 0.3
        analytic = np.log(8.0) + 1.0 + np.log(2 * np.pi * 0.3 ** 2)
        est = gauss_mixture_8_nll_oracle(n=200_000, seed=11)
        assert abs(est - analytic) < 0.01

    def test_two_moons_and_ring_shapes(self):
        for name in ("two_moons", "ring"):
            m = toy_generate(name, 501, seed=12)
            assert m.data.shape == (501, 2)
            assert np.isfinite(m.data).all()

    def test_ring_radius(self):
        m = toy_generate("ring", 5000, seed=13)
        radii = np.linalg.norm(m.data, axis=1)
        assert abs(radii.mean() - 2.0) < 0.02

    def test_unknown_name(self):
        with pytest.raises(DataError):
            toy_generate("spiral", 10, seed=0)

    def test_bad_count(self):
        with pytest.raises(DataError):
            toy_generate("ring", 0, seed=0)


class TestBatches:
    def test_sizes_with_short_final(self):
        matrix = DatasetMatrix(np.arange(20.0).reshape(10, 2))
        sizes = [b.shape[0] for b in batches(matrix, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_epoch_is_permutation(self):
        matrix = DatasetMatrix(np.arange(14.0).reshape(7, 2))
        got = np.vstack(list(batches(matrix, 3, seed=1, epoch=0)))
        np.testing.assert_array_equal(
            np.sort(got[:, 0]), matrix.data[:, 0]
        )

    def test_epochs_reshuffle(self):
        matrix = DatasetMatrix(np.arange(60.0).reshape(30, 2))
        a = np.vstack(list(batches(matrix, 30, seed=2, epoch=0)))
        b = np.vstack(list(batches(matrix, 30, seed=2, epoch=1)))
        assert np.abs(a - b).max() > 0

    def test_deterministic(self):
        matrix = DatasetMatrix(np.random.default_rng(3).standard_normal((11, 2)))
        a = np.vstack(list(batches(matrix, 4, seed=5, epoch=3)))
        b = np.vstack(list(batches(matrix, 4, seed=5, epoch=3)))
        np.testing.assert_array_equal(a, b)

    def test_bad_batch_size(self):
        with pytest.raises(DataError):
            list(batches(DatasetMatrix(np.ones((4, 1))), 0, seed=0, epoch=0))


class TestRefusedInput:
    def test_dataset_matrix_of_a_vector(self):
        with pytest.raises(DataError, match=r"must be a matrix, got shape \(3,\)"):
            DatasetMatrix(np.zeros(3))

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n\n")
        with pytest.raises(ParseError, match="no data rows after header"):
            load_matrix(str(path), "csv")

    def test_csv_header_wider_than_its_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2\n3,4\n")
        with pytest.raises(ParseError, match="header has 3 names but rows have 2 fields"):
            load_matrix(str(path), "csv")

    def test_raw_f32_under_16_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"\x00" * 15)
        with pytest.raises(ParseError, match=r"truncated header \(15 bytes\)"):
            load_matrix(str(path), "raw_f32")

    def test_standardize_with_an_empty_train_split(self):
        empty, rows = DatasetMatrix(np.zeros((0, 2))), DatasetMatrix(np.ones((2, 2)))
        with pytest.raises(DataError, match="train split is empty"):
            standardize(Splits(empty, rows, rows))
