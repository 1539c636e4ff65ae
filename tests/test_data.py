import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropconf import data
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

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel and many ChEMBL exports start with one; it once hid the 'id' column
        p = tmp_path / "t.csv"
        p.write_bytes(b"\xef\xbb\xbfid,y,f0\na,1.0,0.5\n")
        ds = load_table(p)
        assert ds.ids == ("a",) and ds.labels.tolist() == [1.0] and ds.n_features == 1

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

    @pytest.mark.parametrize("header, name", [
        ("id,y,f0,y", "y"), ("id,y,f0,id", "id"), ("y,id,id,y,f0", "id")])
    def test_repeated_id_or_label_column(self, tmp_path, header, name):
        # the second one was once read as a feature column
        p = tmp_path / "t.csv"
        write_lines(p, [header, ",".join(["1"] * (header.count(",") + 1))])
        with pytest.raises(DataError, match=f"more than one '{name}' column"):
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



def oracle_load_table(path) -> Dataset:
    """load_table's rows parsed one cell at a time, as before rows were
    converted with one float map: the same arrays or the same DataError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *body = [r for r in csv.reader(fh)]
    header = [h.strip() for h in header]
    id_pos, y_pos = header.index("id"), header.index("y")
    feat_pos = [i for i in range(len(header)) if i not in (id_pos, y_pos)]

    def cell(text, rownum, j):
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"{path}: row {rownum}, column {header[j]}: "
                            f"cannot parse '{text}' as a number") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: row {rownum}, column {header[j]}: non-finite value '{text}'")
        return value

    ids, labels, rows = [], [], []
    for rownum, row in enumerate(body, start=1):
        ids.append(row[id_pos])
        labels.append(cell(row[y_pos], rownum, y_pos))
        rows.append([cell(row[j], rownum, j) for j in feat_pos])
    return Dataset(ids=tuple(ids), labels=np.array(labels), features=np.array(rows))


class TestRowParserEquivalence:
    # each odd cell in the first, a middle and the last numeric column of the
    # second row, in two column layouts
    CELLS = ["abc", "", "nan", "-nan", "inf", "-Infinity", "1e400", "1_0", " 2.5 ", "\t7\t",
             "0x10", "1e308"]
    LAYOUTS = [["id", "y", "f0", "f1", "f2"], ["f0", "y", "f1", "id", "f2"]]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("column", ["y", "f1", "f2"])
    @pytest.mark.parametrize("text", CELLS)
    def test_same_arrays_or_same_message(self, tmp_path, layout, column, text):
        rows = [{"id": f"r{i}", "y": "1.5", "f0": "1e308", "f1": "-0.0", "f2": str(i)}
                for i in range(3)]
        rows[1][column] = text
        p = tmp_path / "t.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(layout)
            writer.writerows([r[k] for k in layout] for r in rows)
        try:
            expected = oracle_load_table(p)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_table(p)
            assert str(got.value) == str(exc)
            return
        ds = load_table(p)
        assert ds.ids == expected.ids
        for a, b in ((ds.labels, expected.labels), (ds.features, expected.features)):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
            assert a.flags.c_contiguous

    def test_first_bad_cell_of_a_row_is_named(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,y,f0,f1", "a,1,2,3", "b,1,inf,x"])
        with pytest.raises(DataError, match=r"row 2, column f0: non-finite value 'inf'"):
            load_table(p)


def growth_steps(limit):
    """The row capacities at which load_table's arrays are full, up to limit:
    they start at data._FIRST_ROWS rows and grow by a quarter."""
    steps = [data._FIRST_ROWS]
    while steps[-1] + steps[-1] // 4 <= limit:
        steps.append(steps[-1] + steps[-1] // 4)
    return steps


def write_binary_table(path, n, d, seed=0):
    """An n-row fingerprint-like table: labels as repr floats, 0/1 features."""
    rng = np.random.default_rng(seed)
    labels = rng.normal(6.5, 1.0, n).tolist()
    cells = np.full((n, 2 * d), ord(","), dtype=np.uint8)  # "b,b,...,b\n" as bytes
    cells[:, 0::2] = rng.integers(0, 2, (n, d)) + ord("0")
    cells[:, -1] = ord("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["id", "y"] + [f"f{j}" for j in range(d)]) + "\n")
        fh.writelines(f"m{i},{labels[i]!r}," + cells[i].tobytes().decode() for i in range(n))


class TestPreallocatedRows:
    """load_table writes rows into arrays it grows in place and trims at the
    end; the result must be the per-cell oracle's, whatever the row count."""

    @staticmethod
    def assert_same_as_oracle(path):
        """The oracle's arrays, or None where both raise the same DataError."""
        try:
            expected = oracle_load_table(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_table(path)
            assert str(got.value) == str(exc)
            return None
        ds = load_table(path)
        assert ds.ids == expected.ids
        for a, b in ((ds.labels, expected.labels), (ds.features, expected.features)):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
            assert a.flags.c_contiguous and not a.flags.writeable
        return ds

    @pytest.mark.parametrize("n", sorted({1} | {n + k for n in growth_steps(1000)
                                                for k in (-1, 0, 1)}))
    def test_row_counts_around_every_growth_step(self, tmp_path, n):
        p = tmp_path / "t.csv"
        write_lines(p, ["id,y,f0,f1"] + [f"r{i},{i / 7!r},{i % 3},{-i * 0.25!r}" for i in range(n)])
        assert self.assert_same_as_oracle(p).n_rows == n

    @pytest.mark.parametrize("step", growth_steps(1000))
    @pytest.mark.parametrize("text", ["x", "nan"])
    def test_bad_cell_first_after_a_step_and_last(self, tmp_path, step, text):
        # rows are numbered from 1: row step + 1 is the first written after growing
        for bad_row, column in ((1, 1), (step + 1, 2), (step + 2, 3)):
            rows = [["r%d" % i, repr(i / 7), str(i % 3), "0.5"] for i in range(step + 2)]
            rows[bad_row - 1][column] = text
            p = tmp_path / f"t{bad_row}.csv"
            write_lines(p, ["id,y,f0,f1"] + [",".join(r) for r in rows])
            with pytest.raises(DataError, match=f"row {bad_row}, column "):
                oracle_load_table(p)
            self.assert_same_as_oracle(p)

    def test_wide_binary_table_bytes(self, tmp_path):
        p = tmp_path / "fp.csv"
        write_binary_table(p, 600, 1024)
        assert self.assert_same_as_oracle(p).features.shape == (600, 1024)

    def test_peak_memory_is_about_one_copy_of_the_result(self, tmp_path):
        # rows held as Python floats before one np.array peaked at 6.2x
        p = tmp_path / "fp.csv"
        write_binary_table(p, 2000, 1024, seed=1)
        tracemalloc.start()
        try:
            ds = load_table(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = ds.labels.nbytes + ds.features.nbytes
        assert ds.features.shape == (2000, 1024)
        assert peak <= 1.5 * result + 2**20, f"peak {peak / result:.2f}x the result"


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

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_one_nonfinite_feature_cell_rejected(self, cell):
        features = np.ones((3, 4))
        features[1, 2] = cell
        with pytest.raises(DataError, match="labels and features must be finite"):
            Dataset(ids=("a", "b", "c"), labels=np.zeros(3), features=features)

    def test_rows_whose_sum_overflows_accepted(self):
        # the row sums are inf, so the cells themselves are checked
        features = np.array([[1e308, 1e308], [-1e308, -1e308]])
        ds = Dataset(ids=("a", "b"), labels=np.zeros(2), features=features)
        assert np.array_equal(ds.features, features)

    def test_finiteness_check_allocates_no_array_per_cell(self):
        # np.isfinite over the features held one bool per cell: 2 MB here
        features = np.random.default_rng(0).standard_normal((2000, 1024))
        labels, ids = np.zeros(2000), tuple(range(2000))
        tracemalloc.start()
        try:
            Dataset(ids=ids, labels=labels, features=features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_subset_preserves_rows(self):
        ds = make_synthetic(20, 2, seed=1)
        sub = ds.subset([3, 5, 7])
        assert sub.ids == (ds.ids[3], ds.ids[5], ds.ids[7])
        assert np.array_equal(sub.features, ds.features[[3, 5, 7]])
