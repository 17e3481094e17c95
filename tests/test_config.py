import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracplap.config import (
    InitialSpec,
    KernelSpec,
    RunManifest,
    build_initial,
    parse_config,
    serialize_config,
)
from fracplap.errors import ConfigError
from fracplap.io import write_snapshot
from fracplap.model import DomainSpec, Field
from fracplap.operators import discretize_kernel

MINIMAL = {
    "model": {"alpha": 0.5, "p": 1.5, "mu": 1.0, "k": 1.0, "gamma": 0.1},
    "domain": {"half_width": 4.0, "n": 64},
}


def parse(obj):
    return parse_config(json.dumps(obj))


def err_path(obj):
    with pytest.raises(ConfigError) as info:
        parse(obj)
    return info.value.path


def test_minimal_manifest_defaults():
    m = parse(MINIMAL)
    assert m.solver.dt == 1e-3
    assert m.solver.t_final == 1.0
    assert m.solver.eps_reg == 1e-6
    assert m.solver.record_every == 10
    assert m.solver.blowup_threshold == 1e8
    assert m.kernel == KernelSpec(shape="box", delta0=0.5, eta=0.25)
    assert m.initial.kind == "constant"
    assert m.initial.value == 0.5
    assert m.output_dir == "out"
    assert m.seed == 0
    # analysis constants inherit the kernel geometry
    assert m.analysis.delta0 == 0.5
    assert m.analysis.eta == 0.25
    assert m.analysis.delta == 0.25


def test_default_kernel_is_admissible():
    m = parse(MINIMAL)
    discretize_kernel(m.kernel.shape, m.kernel.delta0, m.kernel.eta, m.domain)
    assert m.kernel.delta0 == 0.5


def test_missing_required_sections():
    assert err_path({"domain": MINIMAL["domain"]}) == "/model"
    assert err_path({"model": MINIMAL["model"]}) == "/domain"
    assert err_path({**MINIMAL, "model": {"alpha": 0.5, "p": 1.5, "mu": 1.0,
                                          "k": 1.0}}) == "/model/gamma"


def test_model_validation_paths():
    bad = dict(MINIMAL)
    bad["model"] = {**MINIMAL["model"], "alpha": 1.5}
    assert err_path(bad) == "/model/alpha"
    bad["model"] = {**MINIMAL["model"], "p": 3.0}
    assert err_path(bad) == "/model/p"
    bad["model"] = {**MINIMAL["model"], "m": 2.0}
    assert err_path(bad) == "/model/m"


def test_unknown_keys_are_pinpointed():
    assert err_path({**MINIMAL, "extra": 1}) == "/extra"
    bad = dict(MINIMAL)
    bad["model"] = {**MINIMAL["model"], "nu": 2.0}
    assert err_path(bad) == "/model/nu"
    assert err_path({**MINIMAL, "solver": {"dt": 0.01, "steps": 5}}) \
        == "/solver/steps"
    assert err_path({**MINIMAL, "initial": {"kind": "constant", "width": 1.0}}) \
        == "/initial/width"


def test_type_errors():
    bad = dict(MINIMAL)
    bad["model"] = {**MINIMAL["model"], "alpha": True}
    assert err_path(bad) == "/model/alpha"
    bad["model"] = {**MINIMAL["model"], "alpha": "half"}
    assert err_path(bad) == "/model/alpha"
    assert err_path({**MINIMAL, "domain": {"half_width": 4.0, "n": 64.0}}) \
        == "/domain/n"
    assert err_path({**MINIMAL, "domain": []}) == "/domain"
    assert err_path({**MINIMAL, "solver": {"snapshot_times": 5}}) \
        == "/solver/snapshot_times"
    assert err_path({**MINIMAL, "solver": {"snapshot_times": [0.1, "x"]}}) \
        == "/solver/snapshot_times/1"
    assert err_path({**MINIMAL, "seed": "zero"}) == "/seed"


def test_not_json_at_all():
    with pytest.raises(ConfigError) as info:
        parse_config("{not json")
    assert "JSON" in info.value.message


def test_solver_time_consistency():
    assert err_path({**MINIMAL, "solver": {"dt": 1.0, "t_final": 0.5}}) \
        .startswith("/solver")
    assert err_path({**MINIMAL, "solver": {"dt": 0.3, "t_final": 1.0}}) == "/solver"
    for scheme in ("magic", "explicit", "Lagged_Implicit", 1):
        assert err_path({**MINIMAL, "solver": {"scheme": scheme}}) == "/solver/scheme"


def test_solver_scheme_lagged_implicit_is_accepted_and_not_written():
    # every manifest.json an earlier `simulate` wrote names the scheme
    m = parse({**MINIMAL, "solver": {"dt": 0.5, "t_final": 0.5,
                                     "scheme": "lagged_implicit"}})
    assert m == parse({**MINIMAL, "solver": {"dt": 0.5, "t_final": 0.5}})
    assert "scheme" not in json.loads(serialize_config(m))["solver"]


def test_analysis_c1_is_accepted_and_not_written():
    # no estimate reads c1, but manifest.json files earlier versions wrote carry it
    m = parse({**MINIMAL, "analysis": {"c1": 1.0}})
    assert m == parse(MINIMAL)
    assert "c1" not in json.loads(serialize_config(m))["analysis"]
    assert err_path({**MINIMAL, "analysis": {"c1": "one"}}) == "/analysis/c1"


def test_one_step_run_is_accepted_at_any_horizon():
    for t in (0.5, 100.0):
        m = parse({**MINIMAL, "solver": {"dt": t, "t_final": t}})
        assert m.solver.dt == m.solver.t_final == t


def test_kernel_section_constraints():
    assert err_path({**MINIMAL, "kernel": {"delta0": 1.0}}) == "/kernel/delta0"
    assert err_path({**MINIMAL, "kernel": {"shape": "bell"}}) == "/kernel/shape"
    assert err_path({**MINIMAL, "kernel": {"eta": -1.0}}) == "/kernel/eta"
    m = parse({**MINIMAL, "kernel": {"shape": "gaussian", "delta0": 0.25,
                                     "eta": 0.01}})
    assert m.kernel == KernelSpec(shape="gaussian", delta0=0.25, eta=0.01)


def global_mass_manifest():
    return {
        "model": {"alpha": 0.5, "p": 2.0, "mu": 1.0, "k": 1.0, "gamma": 1.0,
                  "m": 1.5, "coupling_mode": "global_mass"},
        "domain": {"half_width": 4.0, "n": 32},
    }


def test_global_mass_mode_has_no_kernel():
    m = parse(global_mass_manifest())
    assert m.kernel is None
    bad = {**global_mass_manifest(), "kernel": {"shape": "box"}}
    assert err_path(bad) == "/kernel"


@pytest.mark.parametrize("initial", [
    {"kind": "constant", "value": 0.2},
    {"kind": "gaussian_bump", "center": [1.0], "width": 0.3, "height": 0.8},
    {"kind": "random", "seed": 7, "amplitude": 0.5},
    {"kind": "file", "path": "state.fplp"},
])
def test_initial_kinds_parse(initial):
    m = parse({**MINIMAL, "initial": initial})
    assert m.initial.kind == initial["kind"]


def test_initial_validation():
    assert err_path({**MINIMAL, "initial": {"kind": "plateau"}}) \
        == "/initial/kind"
    assert err_path({**MINIMAL, "initial": {"kind": "gaussian_bump",
                                            "center": [0.0, 0.0]}}) \
        == "/initial/center"
    assert err_path({**MINIMAL, "initial": {"kind": "gaussian_bump",
                                            "width": 0.0}}) == "/initial/width"
    assert err_path({**MINIMAL, "initial": {"kind": "random",
                                            "amplitude": -1.0}}) \
        == "/initial/amplitude"
    assert err_path({**MINIMAL, "initial": {"kind": "file"}}) == "/initial/path"


def test_initial_without_a_kind_is_pinpointed():
    with pytest.raises(ConfigError) as info:
        parse({**MINIMAL, "initial": {"value": 0.2}})
    assert (info.value.path, info.value.message) == ("/initial/kind", "required key missing")


def test_round_trip_kernel_manifest():
    src = {
        **MINIMAL,
        "solver": {"dt": 0.01, "t_final": 2.0, "scheme": "lagged_implicit",
                   "record_every": 5, "snapshot_times": [0.5, 1.0]},
        "kernel": {"shape": "triangle", "delta0": 0.4, "eta": 0.05},
        "analysis": {"c_gn": 2.0, "delta": 0.2},
        "initial": {"kind": "gaussian_bump", "center": [0.5], "width": 0.25,
                    "height": 1.5},
        "output": {"directory": "runs/a"},
        "seed": 42,
    }
    m = parse(src)
    again = parse_config(serialize_config(m))
    assert again == m


def test_round_trip_global_mass_manifest():
    m = parse(global_mass_manifest())
    assert parse_config(serialize_config(m)) == m


@pytest.mark.parametrize("dim", [1, 2])
def test_default_bump_center_is_written_as_the_origin(dim):
    # a library caller's InitialSpec leaves center at (), which build_initial
    # reads as the origin; the written manifest must parse back to it
    m = parse({"model": {**MINIMAL["model"], "dim": dim},
               "domain": {"half_width": 2.0, "n": 16}})
    m = replace(m, initial=InitialSpec(kind="gaussian_bump"))
    text = serialize_config(m)
    again = parse_config(text)
    assert again.initial.center == (0.0,) * dim
    assert serialize_config(again) == text
    assert np.array_equal(build_initial(again).values, build_initial(m).values)


def test_serialize_is_canonical():
    m = parse(MINIMAL)
    text = serialize_config(m)
    assert text == serialize_config(parse_config(text))
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_first_fault_reported_is_stable():
    # with several faults in a section, the one earlier versions reported
    assert err_path({**MINIMAL, "solver": {"scheme": "explicit", "dt": -1.0}}) \
        == "/solver/scheme"
    assert err_path({**MINIMAL, "solver": {"snapshot_times": 5, "dt": "x",
                                           "scheme": "explicit"}}) \
        == "/solver/snapshot_times"
    assert err_path({**MINIMAL, "kernel": {"shape": "bell", "delta0": "x"}}) \
        == "/kernel/shape"
    assert err_path({**MINIMAL, "analysis": {"c1": "x", "c_gn": "y"}}) \
        == "/analysis/c1"
    assert err_path({**MINIMAL, "initial": {"kind": "gaussian_bump",
                                            "center": ["x"], "width": 0.0}}) \
        == "/initial/width"
    assert err_path({**MINIMAL, "initial": {"kind": "random", "seed": "x",
                                            "amplitude": -1.0}}) \
        == "/initial/amplitude"


def test_null_is_a_value_only_for_the_initial_seed():
    assert err_path({**MINIMAL, "analysis": {"delta": None}}) == "/analysis/delta"
    assert err_path({**MINIMAL, "solver": {"eps_reg": None}}) == "/solver/eps_reg"
    assert err_path({**MINIMAL, "kernel": {"eta": None}}) == "/kernel/eta"
    m = parse({**MINIMAL, "initial": {"kind": "random", "seed": None}})
    assert m.initial.seed is None


@pytest.mark.parametrize("section,value,pointer", [
    ("solver", {"blowup_threshold": math.nan}, "/solver/blowup_threshold"),
    ("solver", {"eps_reg": math.nan}, "/solver/eps_reg"),
    ("initial", {"kind": "random", "amplitude": math.nan}, "/initial/amplitude"),
    ("initial", {"kind": "gaussian_bump", "height": math.inf}, "/initial/height"),
])
def test_non_finite_numbers_are_rejected(section, value, pointer):
    # json reads NaN and Infinity; no manifest number may be either
    assert err_path({**MINIMAL, section: value}) == pointer


@pytest.mark.parametrize("half_width", [4.0, 8.0])
def test_default_kernel_is_admissible_in_2d(half_width):
    m = parse({"model": {**MINIMAL["model"], "dim": 2},
               "domain": {"half_width": half_width, "n": 64}})
    discretize_kernel(m.kernel.shape, m.kernel.delta0, m.kernel.eta,
                      m.domain, dim=2)
    assert m.kernel.delta0 == half_width / 8.0
    assert m.kernel.eta == 0.5 / (4.0 * m.kernel.delta0) ** 2


# canonical manifests covering every section and every initial kind; the
# digests were taken before the parsers were derived from the dataclasses,
# and a sweep names each run directory by this text
PINNED = {
    "minimal": MINIMAL,
    "every-key": {
        "model": {"alpha": 0.8, "p": 1.8, "mu": 2.0, "k": 12.0, "gamma": 0.1,
                  "m": 1.0, "dim": 1, "coupling_mode": "kernel"},
        "domain": {"half_width": 8.0, "n": 128},
        "solver": {"dt": 0.01, "t_final": 2.0, "eps_reg": 1e-8,
                   "blowup_threshold": 1e6, "scheme": "lagged_implicit",
                   "record_every": 5, "snapshot_times": [0.5, 1.0]},
        "kernel": {"shape": "triangle", "delta0": 0.4, "eta": 0.05},
        "analysis": {"c_gn": 2.0, "c4": 3.0, "eta": 0.04, "delta0": 0.4,
                     "delta": 0.2, "c1": 5.0, "c2": 0.5},
        "initial": {"kind": "gaussian_bump", "center": [0.5], "width": 0.25,
                    "height": 1.5},
        "output": {"directory": "runs/a"},
        "seed": 42,
    },
    "bump-defaults": {**MINIMAL, "initial": {"kind": "gaussian_bump"}},
    "global-mass-random": {**global_mass_manifest(),
                           "initial": {"kind": "random", "seed": 7,
                                       "amplitude": 0.5}},
    "random-manifest-seed": {**MINIMAL, "seed": 3,
                             "initial": {"kind": "random", "amplitude": 0.25}},
    "file": {**MINIMAL, "initial": {"kind": "file", "path": "state.fplp"}},
    "constant-2d": {
        "model": {**MINIMAL["model"], "dim": 2},
        "domain": {"half_width": 2.0, "n": 16},
        "kernel": {"shape": "gaussian", "delta0": 0.25, "eta": 0.5},
        "initial": {"kind": "constant", "value": 0.2},
        "output": {},
    },
    "bump-2d": {
        "model": {**MINIMAL["model"], "dim": 2},
        "domain": {"half_width": 4.0, "n": 32},
        "kernel": {"eta": 0.1},
        "solver": {"dt": 0.05, "t_final": 1.0, "snapshot_times": []},
        "initial": {"kind": "gaussian_bump", "center": [1.0, -1.0]},
    },
}
DIGESTS = {
    "minimal": "b51ab570d4c963fe1d3cf7a50d462b8631500102dfe1159d99ac9575c6f0933d",
    "every-key": "4197b7d0167769277ccaaf5819d25b63d0e81f0949b5e14e696250fc18350d60",
    "bump-defaults": "1708f96b21f042175374b6267712c136400b64e4c918226462d0934e0cc57351",
    "global-mass-random": "5ef7e92edec1147d738e3c92f7ca57b1613a0872cffdd50552b8c6cd8e2e132e",
    "random-manifest-seed": "687e395e24c5fe101717e4cd26ef1391b1a52603c45ff7592ab1d5fe980df14e",
    "file": "250b967c3cc9fe17ed08e427a94723b35170e23f523c5a1055248a1547409302",
    "constant-2d": "806e56799b5d7e63329818c0dc92a10c82a154d55bd8fc8966d6ab9693998e08",
    "bump-2d": "2c10b145241b9f00436bbc28a9f36d2a48e5c68955e60a14a2a29719f141c074",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_serialized_manifest_bytes_are_pinned(name):
    text = serialize_config(parse(PINNED[name]))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == DIGESTS[name]
    assert parse_config(text) == parse(PINNED[name])


def test_readme_manifest_example_is_the_canonical_form():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Manifest schema", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    # every documented key is written back, and nothing else is
    assert json.loads(serialize_config(parse(example))) == example


# ---------------------------------------------------------------------------
# initial-state construction
# ---------------------------------------------------------------------------

def test_build_constant_initial():
    m = parse({**MINIMAL, "initial": {"kind": "constant", "value": 0.3}})
    f = build_initial(m)
    assert np.all(f.values == 0.3)
    assert f.values.shape == (64,)


def test_build_gaussian_bump_periodic():
    m = parse({**MINIMAL,
               "initial": {"kind": "gaussian_bump", "center": [3.75],
                           "width": 0.5, "height": 2.0}})
    f = build_initial(m)
    x = m.domain.axis_coords()
    i_center = int(np.argmax(f.values))
    assert x[i_center] == 3.75
    assert math.isclose(f.values[i_center], 2.0, rel_tol=1e-14)
    # periodic distance: symmetric across the wrap
    i_left = int(np.where(x == 3.25)[0][0])
    i_right = int(np.where(x == -3.75)[0][0])   # 0.5 past the seam
    assert math.isclose(f.values[i_left], f.values[i_right], rel_tol=1e-12)


def test_build_gaussian_bump_2d():
    m = parse({
        "model": {**MINIMAL["model"], "dim": 2},
        "domain": {"half_width": 2.0, "n": 16},
        "initial": {"kind": "gaussian_bump", "center": [0.0, 0.0],
                    "width": 0.5, "height": 1.0},
    })
    f = build_initial(m)
    assert f.values.shape == (16, 16)
    assert math.isclose(f.values[8, 8], 1.0, rel_tol=1e-14)


def test_build_random_initial_seeding():
    base = {**MINIMAL, "initial": {"kind": "random", "amplitude": 0.5}}
    a = build_initial(parse({**base, "seed": 3}))
    b = build_initial(parse({**base, "seed": 3}))
    c = build_initial(parse({**base, "seed": 4}))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.values >= 0.0) and np.all(a.values < 0.5)
    # an explicit initial seed wins over the manifest seed
    d = build_initial(parse({**base, "seed": 3,
                             "initial": {"kind": "random", "amplitude": 0.5,
                                         "seed": 4}}))
    assert np.array_equal(d.values, c.values)


def test_build_file_initial_round_trip(tmp_path):
    d = DomainSpec(half_width=4.0, n=64)
    rng = np.random.default_rng(1)
    orig = Field(rng.uniform(0.0, 1.0, 64), d)
    path = tmp_path / "state.fplp"
    write_snapshot(orig, str(path))
    m = parse({**MINIMAL, "initial": {"kind": "file", "path": str(path)}})
    f = build_initial(m)
    assert np.array_equal(f.values, orig.values)


def test_build_file_initial_grid_mismatch(tmp_path):
    d = DomainSpec(half_width=4.0, n=32)      # manifest says n=64
    path = tmp_path / "state.fplp"
    write_snapshot(Field.constant(d, 1.0), str(path))
    m = parse({**MINIMAL, "initial": {"kind": "file", "path": str(path)}})
    with pytest.raises(ConfigError) as info:
        build_initial(m)
    assert info.value.path == "/initial/path"


def test_build_file_initial_rejects_nonfinite_values(tmp_path):
    values = np.full(64, 0.2)
    values[5] = np.inf
    path = tmp_path / "state.fplp"
    write_snapshot(Field(values, DomainSpec(half_width=4.0, n=64)), str(path))
    m = parse({**MINIMAL, "initial": {"kind": "file", "path": str(path)}})
    with pytest.raises(ConfigError, match="NaN or an inf") as info:
        build_initial(m)
    assert info.value.path == "/initial/path"


def test_build_file_initial_missing_file():
    m = parse({**MINIMAL, "initial": {"kind": "file", "path": "no/such.fplp"}})
    with pytest.raises(ConfigError):
        build_initial(m)


def test_manifest_dataclass_equality():
    a = parse(MINIMAL)
    b = parse(MINIMAL)
    assert a == b
    assert isinstance(a, RunManifest)
    assert isinstance(a.initial, InitialSpec)
