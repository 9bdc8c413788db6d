import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpm.data import (DatasetTable, LongTailSpec, class_means, generate_longtail,
                       load_csv, save_csv, split_fractions)
from adpm.errors import AdpmError, ConfigError, IngestionError, UsageError


def spec(**kw):
    base = dict(k=6, head_count=100, decay=0.57, d=8, separation=6.0, spread=1.0, seed=3)
    base.update(kw)
    return LongTailSpec(**base)


def test_counts_follow_geometric_decay():
    # round(100 * 0.57^j) for j = 0..5, floored at one sample
    assert spec().class_counts() == [100, 57, 32, 19, 11, 6]


def test_generated_census_matches_spec_counts():
    table = generate_longtail(spec())
    assert table.class_counts().tolist() == spec().class_counts()
    assert table.n == sum(spec().class_counts())
    assert table.d == 8


def test_balanced_two_class_case():
    s = spec(k=2, decay=1.0, d=4, head_count=20)
    table = generate_longtail(s)
    counts = table.class_counts()
    assert counts.tolist() == [20, 20]


def test_generation_deterministic():
    a = generate_longtail(spec())
    b = generate_longtail(spec())
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_class_means_separation():
    for s in [spec(), spec(k=4, d=3), spec(k=5, d=2)]:  # simplex and random branches
        means = class_means(s)
        diff = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        iu = np.triu_indices(s.k, 1)
        assert dist[iu].min() >= s.separation - 1e-9


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec(decay=0.0)
    with pytest.raises(ConfigError):
        spec(d=0)
    with pytest.raises(ConfigError):
        spec(spread=0.0)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        spec(seed=-1)


@pytest.mark.parametrize("field, value", [("k", 2.5), ("head_count", 10.0), ("seed", True),
                                          ("d", np.float64(3.0)), ("decay", "0.5"),
                                          ("spread", None)])
def test_spec_checks_field_types_when_built(field, value):
    with pytest.raises(ConfigError, match=rf"^{field} must be of type "):
        spec(**{field: value})


def test_onehot_rows_sum_to_one():
    table = generate_longtail(spec(k=3, head_count=10, d=3))
    assert np.array_equal(table.onehot.sum(axis=1), np.ones(table.n))
    assert np.array_equal(np.argmax(table.onehot, axis=1), table.labels)


def test_table_rejects_nan_and_bad_labels():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError):
            DatasetTable(np.array([[bad]]), np.array([0]), 1)
    with pytest.raises(ConfigError):
        DatasetTable(np.ones((2, 2)), np.array([0, 5]), 2)


def test_csv_round_trip_exact(tmp_path):
    table = generate_longtail(spec(k=3, head_count=7, d=4))
    path = tmp_path / "data.csv"
    save_csv(table, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, table.features)
    assert np.array_equal(loaded.labels, table.labels)
    assert loaded.k == table.k


def test_load_csv_toy_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n3.25,0.0,0\n")
    table = load_csv(path)
    assert table.n == 3 and table.d == 2 and table.k == 2
    assert table.labels.tolist() == [0, 1, 0]


def test_load_csv_label_gap_warns(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("f0,label\n1.0,0\n2.0,2\n3.0,0\n")
    with pytest.warns(UserWarning):
        table = load_csv(path)
    assert table.k == 3
    assert table.class_counts().tolist() == [2, 0, 1]
    # a wide label gap is counted, and only its first 10 classes are named
    wide = tmp_path / "wide.csv"
    labels = [0, *range(15, 26), *([0] * 19)]  # 26 classes in 31 rows
    wide.write_text("f0,label\n" + "".join(f"{i}.0,{y}\n" for i, y in enumerate(labels)))
    with pytest.warns(UserWarning) as record:
        assert load_csv(wide).k == 26
    message = str(record[0].message)
    assert message == f"{wide}: 14 of 26 classes have no samples: " \
                      "1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ..."


def test_load_csv_rejects_a_label_beyond_the_row_count(tmp_path):
    # label 5000000 in a 2-row file would make a 5000001-class table
    wide = tmp_path / "wide.csv"
    wide.write_text("f0,label\n1.0,0\n2.0,5000000\n")
    with pytest.raises(IngestionError) as err:
        load_csv(wide)
    assert err.value.row == 2
    assert str(err.value) == (f"{wide}: label 5000000 implies 5000001 classes, more than "
                              "the 2 data rows (row 2)")
    # one more row than classes is accepted
    wide.write_text("f0,label\n1.0,0\n2.0,1\n3.0,0\n")
    assert load_csv(wide).k == 2
    # a declared k bounds the labels instead of the row count
    with pytest.warns(UserWarning, match="4999999 of 5000001 classes have no samples"):
        assert load_csv(wide, k=5000001).k == 5000001


def test_load_csv_malformed_float_cites_row(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["f0,label"] + [f"{i}.0,0" for i in range(1, 7)] + ["oops,0", "8.0,0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestionError) as err:
        load_csv(path)
    assert err.value.row == 7
    assert "row 7" in str(err.value)


def test_load_csv_non_finite_feature_cites_row(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,{bad},1\n")
        with pytest.raises(IngestionError) as err:
            load_csv(path)
        assert err.value.row == 2


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(IngestionError):
        load_csv(path)


def test_load_csv_label_over_declared_k(tmp_path):
    path = tmp_path / "overk.csv"
    path.write_text("f0,label\n1.0,0\n2.0,3\n")
    with pytest.raises(IngestionError) as err:
        load_csv(path, k=2)
    assert err.value.row == 2


def test_load_csv_label_beyond_int64_cites_row(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"f0,label\n1.0,0\n2.0,{2 ** 63}\n")
    with pytest.raises(IngestionError) as err:
        load_csv(path)
    assert err.value.row == 2


def test_load_csv_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"f0,label\n1.0,0\n2.0,\xff\n")
    with pytest.raises(IngestionError, match="UTF-8"):
        load_csv(path)


# arbitrary text, and text under a valid header drawn from CSV-like characters;
# lone surrogates are written as they encode, which is not valid UTF-8
_CSV_TEXT = st.one_of(
    st.text(max_size=60),
    st.text(alphabet="0123456789.,-+eE\n\r\" \tnaif_\x00\ud800", max_size=60)
    .map(lambda body: "f0,f1,label\n" + body))


@settings(max_examples=200, deadline=None)
@given(text=_CSV_TEXT)
def test_load_csv_fuzz_returns_table_or_adpm_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            table = load_csv(path)
        except AdpmError:
            return
    assert isinstance(table, DatasetTable) and table.n >= 1


def test_load_csv_oversized_field_is_an_ingestion_error(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("f0,label\n" + "1" * 200_000 + ",0\n")
    with pytest.raises(IngestionError):
        load_csv(path)


def test_split_fractions_sizes():
    table = generate_longtail(spec(k=1, head_count=10, d=2))
    train, test = split_fractions(table, (0.7, 0.3), seed=0)
    assert train.n == 7 and test.n == 3


def test_split_fractions_validates_sum():
    table = generate_longtail(spec(k=1, head_count=10, d=2))
    with pytest.raises(UsageError):
        split_fractions(table, (0.7, 0.2), seed=0)


def test_split_stratification_within_one_sample():
    table = generate_longtail(spec())
    fractions = (0.7, 0.3)
    parts = split_fractions(table, fractions, seed=5)
    for j, n_j in enumerate(table.class_counts()):
        for part, f in zip(parts, fractions):
            got = int(part.class_counts()[j])
            assert abs(got - f * n_j) <= 1.0


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_splits_partition_index_set(seed):
    table = generate_longtail(spec(k=4, head_count=30, d=4))
    train, test = split_fractions(table, (0.6, 0.4), seed=seed)
    assert train.n + test.n == table.n
    stacked = np.concatenate([np.sort(train.features @ np.ones(4)),
                              np.sort(test.features @ np.ones(4))])
    assert np.array_equal(np.sort(stacked), np.sort(table.features @ np.ones(4)))
