import json
import math
import struct

import numpy as np
import pytest

from fracplap.errors import GridMismatchError
from fracplap.integrator import RunReport, RunStatus, SolverConfig, run
from fracplap.io import (
    SERIES_HEADER,
    SNAPSHOT_MAGIC,
    format_series,
    read_snapshot,
    summarize_run,
    write_report_json,
    write_series,
    write_snapshot,
)
from fracplap.model import DomainSpec, Field, ModelParameters


def small_report(n_records=3, status=RunStatus("completed")):
    t = np.linspace(0.0, 1.0, n_records)
    sup = np.exp(-t)
    d = DomainSpec(half_width=1.0, n=8)
    return RunReport(status=status, times=t, sup_series=sup,
                     l2_series=0.5 * sup, l1_series=0.25 * sup,
                     min_series=np.zeros_like(t),
                     final=Field.constant(d, float(sup[-1])),
                     steps=n_records - 1, wall_time=0.123)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_zero_snapshot_is_88_bytes(tmp_path):
    d = DomainSpec(half_width=1.0, n=8)
    path = tmp_path / "zero.fplp"
    write_snapshot(Field.constant(d, 0.0), str(path))
    assert path.stat().st_size == 88
    raw = path.read_bytes()
    assert raw[:4] == SNAPSHOT_MAGIC


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 12)])
def test_snapshot_round_trip_bitwise(tmp_path, dim, n):
    d = DomainSpec(half_width=2.5, n=n)
    rng = np.random.default_rng(77)
    f = Field(rng.standard_normal(d.shape(dim)), d)
    path = tmp_path / "state.fplp"
    write_snapshot(f, str(path))
    back = read_snapshot(str(path))
    assert np.array_equal(back.values, f.values)
    assert back.domain == d
    assert back.dim == dim


def test_snapshot_rejects_corruption(tmp_path):
    d = DomainSpec(half_width=1.0, n=8)
    path = tmp_path / "state.fplp"
    write_snapshot(Field.constant(d, 1.0), str(path))
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.fplp"
    bad.write_bytes(raw[:40])                    # truncated payload
    with pytest.raises(GridMismatchError):
        read_snapshot(str(bad))

    bad.write_bytes(raw[:10])                    # truncated header
    with pytest.raises(GridMismatchError):
        read_snapshot(str(bad))

    wrong_magic = bytearray(raw)
    wrong_magic[:4] = b"XXXX"
    bad.write_bytes(wrong_magic)
    with pytest.raises(GridMismatchError):
        read_snapshot(str(bad))

    wrong_version = bytearray(raw)
    wrong_version[4] = 9
    bad.write_bytes(wrong_version)
    with pytest.raises(GridMismatchError):
        read_snapshot(str(bad))

    wrong_dim = bytearray(raw)
    wrong_dim[8] = 3
    bad.write_bytes(wrong_dim)
    with pytest.raises(GridMismatchError):
        read_snapshot(str(bad))


def write_raw_snapshot(path, n, half_width, dim=1):
    """A well-formed file whose header may name a grid DomainSpec rejects."""
    path.write_bytes(struct.pack("<4sIIId", SNAPSHOT_MAGIC, 1, dim, n, half_width)
                     + np.zeros(n ** dim).tobytes())


@pytest.mark.parametrize("n,half_width", [
    (9, 1.0),               # odd
    (6, 1.0),               # below 8
    (8, math.nan),
    (8, math.inf),
    (8, 0.0),
])
def test_snapshot_rejects_invalid_grid_header(tmp_path, n, half_width):
    path = tmp_path / "grid.fplp"
    write_raw_snapshot(path, n, half_width)
    with pytest.raises(GridMismatchError, match="invalid grid header"):
        read_snapshot(str(path))


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def test_series_line_count_and_header():
    text = format_series(small_report(3))
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == SERIES_HEADER


def test_series_round_trips_floats(tmp_path):
    rep = small_report(5)
    # bit-ugly values to stress the 17-digit rendering
    rep.sup_series[2] = 1.0 / 3.0
    rep.l2_series[3] = 1e-17
    rep.min_series[4] = -math.pi
    path = tmp_path / "series.csv"
    write_series(rep, str(path))
    cols = np.genfromtxt(path, delimiter=",", names=True)
    assert np.array_equal(cols["t"], rep.times)
    assert np.array_equal(cols["sup_norm"], rep.sup_series)
    assert np.array_equal(cols["l2_norm"], rep.l2_series)
    assert np.array_equal(cols["l1_norm"], rep.l1_series)
    assert np.array_equal(cols["min_value"], rep.min_series)


def test_format_series_is_deterministic():
    a = format_series(small_report(4))
    b = format_series(small_report(4))
    assert a == b


# ---------------------------------------------------------------------------
# run summaries
# ---------------------------------------------------------------------------

def test_summary_keys_and_values():
    s = summarize_run(small_report(3))
    assert s["status"] == "completed"
    assert s["steps"] == 2
    assert s["final_time"] == 1.0
    assert math.isclose(s["sup_norm_final"], math.exp(-1.0), rel_tol=1e-15)
    assert s["sup_norm_peak"] == 1.0
    assert s["warnings"] == []
    assert "halt_time" not in s


def test_summary_carries_halt_time():
    rep = small_report(3, status=RunStatus("blowup", time=0.5))
    s = summarize_run(rep)
    assert s["status"] == "blowup"
    assert s["halt_time"] == 0.5


def test_summary_of_real_run_is_json_clean(tmp_path):
    d = DomainSpec(half_width=1.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=1.0)
    rep = run(Field.constant(d, 0.5), params,
              SolverConfig(dt=0.01, t_final=0.1, record_every=2))
    path = tmp_path / "report.json"
    write_report_json(rep, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["status"] == "completed"
    assert loaded["steps"] == 10
    assert loaded["history_rows"] == rep.history_rows > 0
    assert loaded["soe_terms"] == rep.soe_terms > 0
    assert abs(loaded["final_time"] - 0.1) < 1e-12
    assert 0.0 < loaded["sup_norm_final"] < 0.5


def test_report_json_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(small_report(3), str(a))
    write_report_json(small_report(3), str(b))
    assert a.read_bytes() == b.read_bytes()
    keys = list(json.loads(a.read_text()))
    assert keys == sorted(keys)
