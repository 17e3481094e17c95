import csv
import json
import math
import os
import re
import struct

import numpy as np
import pytest

from fracplap import cli, integrator
from fracplap.cli import (
    EXIT_CONFIG,
    EXIT_FAILED,
    EXIT_OK,
    _manifest_id,
    _set_pointer,
    main,
)
from fracplap.errors import ConfigError, SolverConvergenceError
from fracplap.io import read_snapshot, write_snapshot
from fracplap.model import AnalysisConstants, DomainSpec, Field


def write_manifest(tmp_path, overrides=None, name="run.json"):
    manifest = {
        "model": {"alpha": 0.5, "p": 1.5, "mu": 1.0, "k": 1.0,
                  "gamma": 0.1875},
        "domain": {"half_width": 4.0, "n": 32},
        "solver": {"dt": 0.01, "t_final": 0.2, "record_every": 5},
        "initial": {"kind": "constant", "value": 0.2},
    }
    for key, value in (overrides or {}).items():
        manifest[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return path


# ---------------------------------------------------------------------------
# small subcommands
# ---------------------------------------------------------------------------

def test_roots_prints_rest_states(capsys):
    code = main(["roots", "--mu", "1", "--k", "1", "--gamma", "0.1875"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "a = 0.25" in out
    assert "A = 0.75" in out
    assert "k_star = 0" in out


def test_roots_two_dimensional_threshold(capsys):
    code = main(["roots", "--mu", "1", "--k", "1", "--gamma", "0.1",
                 "--dim", "2", "--c-gn", "1", "--eta", "0.5"])
    assert code == EXIT_OK
    assert "k_star = 4" in capsys.readouterr().out


def test_roots_defaults_are_the_analysis_constants(capsys):
    args = ["roots", "--mu", "1", "--k", "1", "--gamma", "0.1", "--dim", "2"]
    assert main(args) == EXIT_OK
    implicit = capsys.readouterr().out
    assert main(args + ["--c-gn", repr(AnalysisConstants.c_gn),
                        "--eta", repr(AnalysisConstants.eta)]) == EXIT_OK
    assert capsys.readouterr().out == implicit


@pytest.mark.parametrize("extra,named", [
    (["--gamma", "0.3"], "exceeds 1"),
    (["--gamma", "0.1", "--mu", "nan"], "finite"),
    (["--gamma", "0.1", "--dim", "2", "--eta", "0"], "eta"),
    (["--gamma", "0.1", "--dim", "2", "--eta", "-1"], "eta"),
    (["--gamma", "0.1", "--dim", "2", "--c-gn", "nan"], "c_gn"),
    (["--gamma", "0.1", "--eta", "0"], "eta"),       # unused in 1D, still invalid
], ids=["overdamped", "nan-mu", "zero-eta", "negative-eta", "nan-c-gn", "zero-eta-1d"])
def test_roots_rejects_overdamped(capsys, extra, named):
    code = main(["roots", "--mu", "1", "--k", "1", *extra])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("error:") and named in captured.err
    assert captured.out == ""


def test_mlf_exponential(capsys):
    code = main(["mlf", "--alpha", "1", "--beta", "1", "--z", "1"])
    out = capsys.readouterr().out.strip()
    assert code == EXIT_OK
    assert math.isclose(float(out), math.e, rel_tol=1e-14)
    assert out.startswith("2.71828182845905")


@pytest.mark.parametrize("argv,truth", [
    (["--alpha", "1", "--beta", "2", "--z", "1"], math.e - 1.0),
    (["--alpha", "0.5", "--z", "3"], math.exp(9.0) * math.erfc(-3.0)),
])
def test_mlf_positive_argument(capsys, argv, truth):
    assert main(["mlf", *argv]) == EXIT_OK
    assert math.isclose(float(capsys.readouterr().out), truth, rel_tol=1e-12)


def test_mlf_range_error(capsys):
    code = main(["mlf", "--alpha", "0.5", "--z", "1e8"])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["transmogrify"]) == 2
    assert main([]) == 2


def test_verify_caputo_passes(capsys):
    code = main(["verify", "caputo"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines
    assert all(ln.startswith("PASS caputo/") for ln in lines)
    assert re.search(r"(\d+)/\1 checks passed in \d+\.\d\d s$", out, re.M)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_standard_outputs(tmp_path, capsys):
    cfg = write_manifest(tmp_path, overrides={
        "solver": {"dt": 0.01, "t_final": 0.2, "record_every": 5,
                   "snapshot_times": [0.1]},
    })
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg),
                 "--output-dir", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status: completed" in stdout
    for name in ("manifest.json", "series.csv", "final.fplp", "report.json",
                 "snapshot_t0.fplp", "snapshot_t0.1.fplp"):
        assert (out_dir / name).exists(), name

    cols = np.genfromtxt(out_dir / "series.csv", delimiter=",", names=True)
    assert cols["t"][0] == 0.0
    assert math.isclose(cols["t"][-1], 0.2, rel_tol=1e-12)
    final = read_snapshot(str(out_dir / "final.fplp"))
    assert final.values.shape == (32,)
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "completed"
    assert report["steps"] == 20


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    cfg = write_manifest(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(a)]) \
        == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(b)]) \
        == EXIT_OK
    capsys.readouterr()
    for name in ("series.csv", "final.fplp", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = write_manifest(tmp_path, overrides={
        "model": {"alpha": 1.5, "p": 1.5, "mu": 1.0, "k": 1.0,
                  "gamma": 0.1875}})
    code = main(["simulate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "/model/alpha" in err


def test_simulate_rejects_the_removed_explicit_scheme(tmp_path, capsys):
    cfg = write_manifest(tmp_path, overrides={
        "solver": {"dt": 0.01, "t_final": 0.2, "scheme": "explicit"}})
    code = main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "/solver/scheme" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_snapshot_time_past_horizon(tmp_path, capsys):
    cfg = write_manifest(tmp_path, overrides={
        "solver": {"dt": 0.01, "t_final": 0.2, "snapshot_times": [0.1, 5.0]}})
    code = main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "/solver" in err and "snapshot_times" in err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_nan_blowup_threshold(tmp_path, capsys):
    # NaN passes `threshold <= 0` and then flags every step as a blow-up
    cfg = write_manifest(tmp_path, overrides={
        "solver": {"dt": 0.01, "t_final": 0.2, "blowup_threshold": math.nan}})
    code = main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "/solver/blowup_threshold" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_simulate_blowup_exits_1(tmp_path, capsys):
    cfg = write_manifest(tmp_path, overrides={
        "model": {"alpha": 0.5, "p": 2.0, "mu": 1.0, "k": 0.0, "gamma": 0.0},
        "domain": {"half_width": 1.0, "n": 8},
        "solver": {"dt": 1e-3, "t_final": 0.5, "record_every": 1000},
        "initial": {"kind": "constant", "value": 2.0},
    })
    out_dir = tmp_path / "boom"
    code = main(["simulate", "--config", str(cfg),
                 "--output-dir", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == EXIT_FAILED
    assert "status: blowup" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "blowup"
    assert report["halt_time"] > 0


def test_simulate_writes_partial_outputs_on_solver_failure(tmp_path, capsys,
                                                          monkeypatch):
    real, calls = integrator._pcg, []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise SolverConvergenceError("frozen-diffusivity solve missed residual")
        return real(*args, **kwargs)

    monkeypatch.setattr(integrator, "_pcg", flaky)
    cfg = write_manifest(tmp_path, overrides={
        "model": {"alpha": 0.5, "p": 1.8, "mu": 1.0, "k": 0.5, "gamma": 0.2,
                  "dim": 2},
        "domain": {"half_width": 4.0, "n": 16},
        "kernel": {"shape": "box", "delta0": 0.5, "eta": 0.05},
        "solver": {"dt": 0.01, "t_final": 0.2, "record_every": 2},
    })
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == EXIT_FAILED
    assert "status: solver_failed  steps: 4" in stdout
    assert "missed residual" in stdout
    for name in ("manifest.json", "series.csv", "final.fplp", "report.json",
                 "snapshot_t0.fplp"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "solver_failed" and report["steps"] == 4
    assert math.isclose(report["halt_time"], 0.05, rel_tol=1e-12)
    assert math.isclose(report["final_time"], 0.04, rel_tol=1e-12)


@pytest.mark.parametrize("n,half_width", [(9, 4.0), (32, math.nan)])
def test_simulate_reports_an_invalid_snapshot_header(tmp_path, capsys, n, half_width):
    snapshot = tmp_path / "u0.fplp"
    snapshot.write_bytes(struct.pack("<4sIIId", b"FPLP", 1, 1, n, half_width)
                         + bytes(8 * n))
    cfg = write_manifest(tmp_path, overrides={
        "initial": {"kind": "file", "path": str(snapshot)}})
    code = main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "invalid grid header" in capsys.readouterr().err


def test_simulate_rejects_nonfinite_initial_data(tmp_path, capsys):
    values = np.full(32, 0.2)
    values[7] = math.nan
    snapshot = tmp_path / "u0.fplp"
    write_snapshot(Field(values, DomainSpec(half_width=4.0, n=32)), str(snapshot))
    cfg = write_manifest(tmp_path, overrides={
        "initial": {"kind": "file", "path": str(snapshot)}})
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(out_dir)])
    assert code == EXIT_CONFIG
    assert "NaN or an inf" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_checks_its_output_dir_before_the_march(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr(cli, "run", refuse)
    (tmp_path / "blocker").write_text("")
    code = main(["simulate", "--config", str(write_manifest(tmp_path)),
                 "--output-dir", str(tmp_path / "blocker" / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_FAILED
    assert len(lines) == 1 and lines[0].startswith("run failed:")


def write_mismatched_snapshot_sweep(tmp_path):
    """Two variants whose `file` initial data sit on a 16-point grid under
    a 32-point manifest domain: a configuration error found at run time."""
    snapshot = tmp_path / "u0.fplp"
    write_snapshot(Field.constant(DomainSpec(half_width=4.0, n=16), 0.3),
                   str(snapshot))
    manifest = json.loads(write_manifest(tmp_path, overrides={
        "initial": {"kind": "file", "path": str(snapshot)}}).read_text())
    manifest["sweep"] = {"/model/gamma": [0.15, 0.1875]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest))
    return cfg


def test_simulate_and_sweep_agree_on_the_exit_code(tmp_path, capsys):
    cfg = write_mismatched_snapshot_sweep(tmp_path)
    single = json.loads(cfg.read_text())
    del single["sweep"]
    (tmp_path / "single.json").write_text(json.dumps(single))
    assert main(["simulate", "--config", str(tmp_path / "single.json"),
                 "--output-dir", str(tmp_path / "one")]) == EXIT_CONFIG
    assert main(["sweep", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "grid")]) == EXIT_CONFIG
    capsys.readouterr()


def test_sweep_table_quotes_statuses_with_commas(tmp_path, capsys):
    cfg = write_mismatched_snapshot_sweep(tmp_path)
    base = tmp_path / "grid"
    main(["sweep", "--config", str(cfg), "--output-dir", str(base)])
    capsys.readouterr()
    with open(base / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["run_id", "/model/gamma", "status", "final_sup_norm"]
    assert len(rows) == 2
    for row in rows:
        assert len(row) == len(header)
        assert row[2].startswith("error: ConfigError: /initial/path: snapshot grid "
                                 "(L=4.0, n=16, dim=1) does not match")
        assert row[3] == "nan"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_runs_grid_and_writes_table(tmp_path, capsys):
    manifest = json.loads(write_manifest(tmp_path).read_text())
    manifest["sweep"] = {"/model/gamma": [0.15, 0.1875]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest))
    base = tmp_path / "grid"
    code = main(["sweep", "--config", str(cfg), "--output-dir", str(base)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK

    table = (base / "sweep.csv").read_text().strip().splitlines()
    assert table[0] == "run_id,/model/gamma,status,final_sup_norm"
    assert len(table) == 3
    run_ids = [ln.split(",")[0] for ln in table[1:]]
    assert len(set(run_ids)) == 2
    for rid in run_ids:
        assert re.fullmatch(r"[0-9a-f]{12}", rid)
        assert (base / rid / "series.csv").exists()
        assert rid in stdout
    assert all(ln.split(",")[2] == "completed" for ln in table[1:])


def test_sweep_without_overrides_runs_base_once(tmp_path, capsys):
    cfg = write_manifest(tmp_path)
    base = tmp_path / "single"
    code = main(["sweep", "--config", str(cfg), "--output-dir", str(base)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "(no overrides)" in out
    table = (base / "sweep.csv").read_text().strip().splitlines()
    assert len(table) == 2


def test_sweep_keeps_table_when_one_variant_raises(tmp_path, capsys, monkeypatch):
    # an OSError is reported like fracplap's own errors, in one status
    # line; any other exception is a bug and also prints its traceback
    real = cli._execute_manifest

    def flaky(manifest, out_dir):
        if manifest.model.gamma == 0.15:
            raise OSError(28, "No space left on device")
        if manifest.model.gamma == 0.16:
            raise RuntimeError("unexpected state")
        return real(manifest, out_dir)

    monkeypatch.setattr(cli, "_execute_manifest", flaky)
    manifest = json.loads(write_manifest(tmp_path).read_text())
    manifest["sweep"] = {"/model/gamma": [0.15, 0.16, 0.1875]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest))
    base = tmp_path / "grid"
    code = main(["sweep", "--config", str(cfg), "--output-dir", str(base)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILED
    assert captured.err.count("Traceback") == 1
    assert "RuntimeError: unexpected state" in captured.err
    assert "OSError" not in captured.err
    rows = [ln.split(",") for ln in
            (base / "sweep.csv").read_text().strip().splitlines()[1:]]
    status = {row[1]: row[2] for row in rows}
    assert status == {"0.15": "error: OSError: [Errno 28] No space left on device",
                      "0.16": "error: RuntimeError: unexpected state",
                      "0.1875": "completed"}
    assert "error: OSError" in captured.out


def test_sweep_rejects_empty_ranges(tmp_path, capsys):
    manifest = json.loads(write_manifest(tmp_path).read_text())
    manifest["sweep"] = {"/model/gamma": []}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "/sweep" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "error: sweep config must be a JSON object\n"),
    ("{not json", "error: cannot read sweep config: Expecting property name"),
])
def test_sweep_rejects_a_config_that_is_no_json_object(tmp_path, capsys, text, message):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.out == ""


def test_sweep_rejects_invalid_variant(tmp_path, capsys):
    manifest = json.loads(write_manifest(tmp_path).read_text())
    manifest["sweep"] = {"/model/alpha": [0.5, 1.5]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "/model/alpha" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one failure path
# ---------------------------------------------------------------------------

def blocked_dir(tmp_path):
    """An output directory that cannot be made: its parent is a file."""
    (tmp_path / "blocker").write_text("")
    return str(tmp_path / "blocker" / "out")


def sweep_config(tmp_path, sweep):
    manifest = json.loads(write_manifest(tmp_path).read_text())
    manifest["sweep"] = sweep
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest))
    return str(cfg)


def corrupt_initial_config(tmp_path):
    snapshot = tmp_path / "bad.fplp"
    snapshot.write_bytes(struct.pack("<4sIIId", b"BADM", 1, 1, 32, 4.0) + bytes(8 * 32))
    return str(write_manifest(tmp_path, overrides={
        "initial": {"kind": "file", "path": str(snapshot)}}))


FAILURES = {
    "simulate-missing-config": (EXIT_CONFIG, lambda tmp: [
        "simulate", "--config", str(tmp / "nope.json")]),
    "simulate-invalid-config": (EXIT_CONFIG, lambda tmp: [
        "simulate", "--config", str(write_manifest(tmp, overrides={
            "model": {"alpha": 1.5, "p": 1.5, "mu": 1.0, "k": 1.0, "gamma": 0.1875}}))]),
    "simulate-uncreatable-output-dir": (EXIT_FAILED, lambda tmp: [
        "simulate", "--config", str(write_manifest(tmp)), "--output-dir", blocked_dir(tmp)]),
    "simulate-corrupt-initial-file": (EXIT_CONFIG, lambda tmp: [
        "simulate", "--config", corrupt_initial_config(tmp),
        "--output-dir", str(tmp / "out")]),
    "sweep-invalid-variant": (EXIT_CONFIG, lambda tmp: [
        "sweep", "--config", sweep_config(tmp, {"/model/alpha": [0.5, 1.5]})]),
    "sweep-uncreatable-output-dir": (EXIT_FAILED, lambda tmp: [
        "sweep", "--config", sweep_config(tmp, {"/model/gamma": [0.15]}),
        "--output-dir", blocked_dir(tmp)]),
    "roots-overdamped": (EXIT_CONFIG, lambda tmp: [
        "roots", "--mu", "1", "--k", "1", "--gamma", "0.3"]),
    "roots-zero-eta": (EXIT_CONFIG, lambda tmp: [
        "roots", "--mu", "1", "--k", "1", "--gamma", "0.1", "--dim", "2", "--eta", "0"]),
    "mlf-overflow": (EXIT_CONFIG, lambda tmp: ["mlf", "--alpha", "0.5", "--z", "1e8"]),
    "mlf-alpha-out-of-range": (EXIT_CONFIG, lambda tmp: ["mlf", "--alpha", "3", "--z", "1"]),
    "mlf-alpha-above-one": (EXIT_CONFIG, lambda tmp: ["mlf", "--alpha", "1.5", "--z", "-1"]),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_every_command_fails_with_one_line(tmp_path, capsys, case):
    expected, argv = FAILURES[case]
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:" if expected == EXIT_CONFIG else "run failed:")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_set_pointer_paths():
    obj = {"model": {"gamma": 0.1}}
    _set_pointer(obj, "/model/gamma", 0.2)
    assert obj["model"]["gamma"] == 0.2
    _set_pointer(obj, "/solver/dt", 0.01)
    assert obj["solver"] == {"dt": 0.01}
    with pytest.raises(ConfigError):
        _set_pointer({"model": 5}, "/model/gamma", 1.0)
    with pytest.raises(ConfigError):
        _set_pointer({}, "///", 1.0)


def test_manifest_id_shape():
    a = _manifest_id("text")
    assert re.fullmatch(r"[0-9a-f]{12}", a)
    assert a == _manifest_id("text")
    assert a != _manifest_id("other")
