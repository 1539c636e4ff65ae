import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropconf.data import (
    DataError,
    Dataset,
    check_folds,
    check_split,
    load_table,
    make_synthetic,
    random_split,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_table(dataset, path):
    """Write a Dataset as a CSV that load_table reads back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y"] + [f"f{j}" for j in range(dataset.n_features)])
        for i in range(dataset.n_rows):
            # repr() keeps every float bit-exact through the round trip
            writer.writerow([dataset.ids[i], repr(float(dataset.labels[i]))]
                            + [repr(float(v)) for v in dataset.features[i]])


def synthetic_target(X):
    """make_synthetic's noise-free generating function, for d >= 3."""
    return X[:, 0] + np.sin(2.0 * X[:, 1]) + 0.5 * X[:, 2]


class TestLoadTable:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,y,f0,f1", "a,1.0,0.5,2.0", "b,2.0,1.5,3.0", "c,3.0,2.5,4.0"])
        ds = load_table(p)
        assert ds.n_rows == 3 and ds.n_features == 2
        assert ds.ids == ("a", "b", "c")
        assert ds.labels.tolist() == [1.0, 2.0, 3.0]

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,y,f0,f1", "a,1.0,0.5,2.0", "b,2.0,abc,3.0", "c,3.0,2.5,4.0"])
        with pytest.raises(DataError, match=r"row 2.*f0"):
            load_table(p)

    def test_fingerprint_width(self, tmp_path):
        p = tmp_path / "fp.csv"
        d = 2048
        rng = np.random.default_rng(0)
        header = "id,y," + ",".join(f"f{j}" for j in range(d))
        rows = [
            f"r{i}," + "6.5," + ",".join(str(b) for b in rng.integers(0, 2, d))
            for i in range(3)
        ]
        # ids must stay unique; tweak labels so rows differ
        write_lines(p, [header] + rows)
        ds = load_table(p)
        assert ds.n_features == 2048

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_table(tmp_path / "absent.csv")

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,y,f0", "a,1,2", "a,2,3", "b,0,0"])
        with pytest.raises(DataError, match="duplicate"):
            load_table(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,y,f0", "a,nan,2"])
        with pytest.raises(DataError, match="non-finite"):
            load_table(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,label,f0", "a,1,2"])
        with pytest.raises(DataError, match="header"):
            load_table(p)

    @pytest.mark.parametrize("content", [
        b"id,y,f0\na,1.0,\x80\n",  # not UTF-8
        b'id,y,f0\na,1.0,"' + b"9" * 200_000 + b'"\n',  # field over csv's size limit
    ])
    def test_unreadable_file_raises_data_error(self, tmp_path, content):
        p = tmp_path / "t.csv"
        p.write_bytes(content)
        with pytest.raises(DataError, match="not a readable UTF-8 CSV"):
            load_table(p)

    def test_round_trip_exact(self, tmp_path):
        ds = make_synthetic(50, 3, "homoscedastic", 0.4, seed=9)
        p = tmp_path / "rt.csv"
        save_table(ds, p)
        back = load_table(p)
        assert back.ids == ds.ids
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.features, ds.features)


class TestRandomSplit:
    def test_70_15_15_sizes(self):
        s = random_split(100, (0.70, 0.15, 0.15), seed=1)
        assert (len(s.train), len(s.validation), len(s.test)) == (70, 15, 15)

    def test_remainder_goes_to_test(self):
        s = random_split(101, (0.70, 0.15, 0.15), seed=1)
        assert (len(s.train), len(s.validation), len(s.test)) == (70, 15, 16)

    def test_deterministic(self):
        a = random_split(57, seed=42)
        b = random_split(57, seed=42)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    def test_seed_sensitivity(self):
        a = random_split(40, seed=0)
        b = random_split(40, seed=1)
        assert not np.array_equal(a.train, b.train)

    def test_too_small(self):
        with pytest.raises(DataError):
            random_split(2, (0.70, 0.15, 0.15), seed=0)

    def test_bad_fractions(self):
        with pytest.raises(DataError):
            random_split(100, (0.5, 0.3, 0.1), seed=0)

    @pytest.mark.parametrize("fractions", [(math.nan, 0.5, 0.5), (math.inf, 0.1, 0.1)])
    def test_nonfinite_fractions(self, fractions):
        with pytest.raises(DataError, match="split fractions"):
            random_split(100, fractions, seed=0)

    def test_check_split_returns_the_cut_points(self):
        assert check_split(100, (0.70, 0.15, 0.15)) == (70, 85)
        with pytest.raises(DataError, match="too small"):
            check_split(10, (0.98, 0.01, 0.01))

    def test_check_folds(self):
        check_folds(3, 3)
        with pytest.raises(DataError, match="k=4"):
            check_folds(3, 4)
        with pytest.raises(DataError, match="k must be >= 2"):
            check_folds(10, 1)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=10, max_value=500), seed=st.integers(0, 2**32))
    def test_partition_property(self, n, seed):
        s = random_split(n, (0.70, 0.15, 0.15), seed=seed)
        merged = np.concatenate([s.train, s.validation, s.test])
        assert len(merged) == n
        assert np.array_equal(np.sort(merged), np.arange(n))
        assert min(len(s.train), len(s.validation), len(s.test)) >= 1


class TestMakeSynthetic:
    def test_zero_noise_matches_function(self):
        ds = make_synthetic(100, 4, "homoscedastic", 0.0, seed=7)
        assert np.array_equal(ds.labels, synthetic_target(ds.features))

    def test_noise_scale_monte_carlo(self):
        ds = make_synthetic(1000, 4, "homoscedastic", 0.3, seed=13)
        resid = ds.labels - synthetic_target(ds.features)
        assert abs(resid.std() - 0.3) < 0.05

    def test_heteroscedastic_spread_varies_with_x0(self):
        ds = make_synthetic(4000, 4, "heteroscedastic", 0.5, seed=3)
        resid = np.abs(ds.labels - synthetic_target(ds.features))
        low = resid[np.abs(ds.features[:, 0]) < 0.5]
        high = resid[np.abs(ds.features[:, 0]) > 1.5]
        assert high.mean() > low.mean()

    def test_deterministic(self):
        a = make_synthetic(50, 3, "heteroscedastic", 0.2, seed=5)
        b = make_synthetic(50, 3, "heteroscedastic", 0.2, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            make_synthetic(5, 4, seed=0)
        with pytest.raises(DataError):
            make_synthetic(100, 0, seed=0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -0.1])
    def test_invalid_scale(self, scale):
        with pytest.raises(DataError, match="noise scale"):
            make_synthetic(100, 2, scale=scale, seed=0)


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Dataset(ids=("a", "a"), labels=np.zeros(2), features=np.zeros((2, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Dataset(ids=("a",), labels=np.array([np.inf]), features=np.zeros((1, 1)))

    def test_subset_preserves_rows(self):
        ds = make_synthetic(20, 2, seed=1)
        sub = ds.subset([3, 5, 7])
        assert sub.ids == (ds.ids[3], ds.ids[5], ds.ids[7])
        assert np.array_equal(sub.features, ds.features[[3, 5, 7]])
