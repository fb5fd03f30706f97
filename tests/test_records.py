import json
import math

import pytest

from chatterlab.records import CSV_COLUMNS, RateRecord, write_csv, write_manifest


def sample_records():
    return [
        RateRecord(param=0.1, cost_gap=1e-3, sup_dev=0.2, l1_dev=0.3, tv=4.0,
                   wall_ms=12.5),
        RateRecord(param=0.01, cost_gap=1e-5, sup_dev=0.02, l1_dev=0.03, tv=6.0,
                   wall_ms=3.25),
    ]


def test_header_names_columns_exactly(tmp_path):
    path = write_csv(tmp_path / "out.csv", sample_records())
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert header == "param,cost_gap,sup_dev,l1_dev,tv,wall_ms"


def test_records_sorted_by_parameter(tmp_path):
    path = write_csv(tmp_path / "out.csv", sample_records())
    rows = path.read_text().splitlines()[1:]
    params = [float(r.split(",")[0]) for r in rows]
    assert params == sorted(params)


def test_wall_column_zeroed_for_determinism(tmp_path):
    path = write_csv(tmp_path / "out.csv", sample_records())
    for row in path.read_text().splitlines()[1:]:
        assert row.split(",")[-1] == "0"


def test_repeated_writes_are_byte_identical(tmp_path):
    a = write_csv(tmp_path / "a.csv", sample_records())
    b = write_csv(tmp_path / "b.csv", sample_records())
    assert a.read_bytes() == b.read_bytes()


def test_seventeen_digit_round_trip(tmp_path):
    value = math.pi * 1e-5
    rec = RateRecord(param=value, cost_gap=value, sup_dev=0.0, l1_dev=0.0,
                     tv=0.0, wall_ms=0.0)
    path = write_csv(tmp_path / "out.csv", [rec])
    row = path.read_text().splitlines()[1]
    assert float(row.split(",")[0]) == value


def test_nonfinite_fields_rejected():
    with pytest.raises(ValueError):
        RateRecord(param=math.inf, cost_gap=0.0, sup_dev=0.0, l1_dev=0.0,
                   tv=0.0, wall_ms=0.0)
    with pytest.raises(ValueError):
        RateRecord(param=1.0, cost_gap=math.nan, sup_dev=0.0, l1_dev=0.0,
                   tv=0.0, wall_ms=0.0)


def test_manifest_is_sorted_json(tmp_path):
    path = write_manifest(tmp_path / "m.json", {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}


@pytest.mark.parametrize("write, long, short", [
    (write_csv, sample_records(), sample_records()[:1]),
    (write_manifest, {"a": list(range(50))}, {"a": 1}),
])
def test_shorter_rewrite_leaves_exactly_the_new_bytes(tmp_path, write, long, short):
    # outputs are rewritten in place; the tail of a longer earlier file
    # must not survive
    path = tmp_path / "out"
    write(path, long)
    before = path.stat().st_size
    fresh = write(tmp_path / "fresh", short).read_bytes()
    assert write(path, short) == path
    assert path.read_bytes() == fresh and len(fresh) < before


def test_missing_output_is_created(tmp_path):
    path = tmp_path / "new.csv"
    assert not path.exists()
    write_csv(path, sample_records())
    assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
