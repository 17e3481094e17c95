"""Run manifests: a strict JSON schema describing one simulation.

Top-level keys: ``model`` and ``domain`` (required), ``solver``,
``analysis``, ``kernel``, ``initial``, ``output``, ``seed`` (optional
with documented defaults).  Unknown keys anywhere are rejected, and
every parse error carries the JSON-pointer path of the offending
entry.  ``parse_config(serialize_config(m))`` reproduces ``m``
exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError
from .integrator import SolverConfig
from .model import (AnalysisConstants, DomainSpec, Field, ModelParameters,
                    validate_params)
from .operators import KERNEL_SHAPES

INITIAL_KINDS = ("constant", "gaussian_bump", "random", "file")


@dataclass(frozen=True)
class KernelSpec:
    shape: str
    delta0: float
    eta: float


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    value: float = 0.5                       # constant
    center: Tuple[float, ...] = ()           # gaussian_bump; () means the origin
    width: float = 0.5
    height: float = 1.0
    seed: Optional[int] = None               # random; None falls back to the manifest seed
    amplitude: float = 1.0
    path: str = ""                           # file


@dataclass
class RunManifest:
    model: ModelParameters
    domain: DomainSpec
    solver: SolverConfig
    analysis: AnalysisConstants
    kernel: Optional[KernelSpec]
    initial: InitialSpec
    output_dir: str = "out"
    seed: int = 0


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

def _require_object(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    return node

def _reject_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown key")

def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    return float(v)

def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v

def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {v!r}")
    return v


def _parse_model(node, path: str) -> ModelParameters:
    obj = _require_object(node, path)
    allowed = ("alpha", "p", "mu", "k", "gamma", "m", "dim", "coupling_mode")
    _reject_unknown(obj, allowed, path)
    for key in ("alpha", "p", "mu", "k", "gamma"):
        if key not in obj:
            raise ConfigError(f"{path}/{key}", "required key missing")
    params = ModelParameters(
        alpha=_as_float(obj["alpha"], f"{path}/alpha"),
        p=_as_float(obj["p"], f"{path}/p"),
        mu=_as_float(obj["mu"], f"{path}/mu"),
        k=_as_float(obj["k"], f"{path}/k"),
        gamma=_as_float(obj["gamma"], f"{path}/gamma"),
        m=_as_float(obj.get("m", 1.0), f"{path}/m"),
        dim=_as_int(obj.get("dim", 1), f"{path}/dim"),
        coupling_mode=_as_str(obj.get("coupling_mode", "kernel"),
                              f"{path}/coupling_mode"),
    )
    for violation in validate_params(params):
        field_name = violation.split(":", 1)[0]
        raise ConfigError(f"{path}/{field_name}", violation)
    return params


def _parse_domain(node, path: str) -> DomainSpec:
    obj = _require_object(node, path)
    _reject_unknown(obj, ("half_width", "n"), path)
    for key in ("half_width", "n"):
        if key not in obj:
            raise ConfigError(f"{path}/{key}", "required key missing")
    try:
        return DomainSpec(half_width=_as_float(obj["half_width"], f"{path}/half_width"),
                          n=_as_int(obj["n"], f"{path}/n"))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_solver(node, path: str) -> SolverConfig:
    obj = _require_object(node, path)
    allowed = ("dt", "t_final", "eps_reg", "blowup_threshold", "scheme",
               "record_every", "snapshot_times")
    _reject_unknown(obj, allowed, path)
    snaps = obj.get("snapshot_times", [])
    if not isinstance(snaps, list):
        raise ConfigError(f"{path}/snapshot_times", "expected a list of times")
    snaps = tuple(_as_float(t, f"{path}/snapshot_times/{i}") for i, t in enumerate(snaps))
    # the one march there is; manifests written by earlier versions name it
    scheme = _as_str(obj.get("scheme", "lagged_implicit"), f"{path}/scheme")
    if scheme != "lagged_implicit":
        raise ConfigError(f"{path}/scheme",
                          f"expected 'lagged_implicit' (the only scheme), got {scheme!r}")
    try:
        return SolverConfig(
            dt=_as_float(obj.get("dt", 1e-3), f"{path}/dt"),
            t_final=_as_float(obj.get("t_final", 1.0), f"{path}/t_final"),
            eps_reg=_as_float(obj.get("eps_reg", 1e-6), f"{path}/eps_reg"),
            blowup_threshold=_as_float(obj.get("blowup_threshold", 1e8),
                                       f"{path}/blowup_threshold"),
            record_every=_as_int(obj.get("record_every", 10), f"{path}/record_every"),
            snapshot_times=snaps,
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_kernel(node, path: str, domain: DomainSpec) -> KernelSpec:
    obj = _require_object(node, path)
    _reject_unknown(obj, ("shape", "delta0", "eta"), path)
    shape = _as_str(obj.get("shape", "box"), f"{path}/shape")
    if shape not in KERNEL_SHAPES:
        raise ConfigError(f"{path}/shape",
                          f"expected one of {KERNEL_SHAPES}, got {shape!r}")
    delta0 = _as_float(obj.get("delta0", domain.half_width / 8.0), f"{path}/delta0")
    if not (0 < delta0 < domain.half_width / 4.0):
        raise ConfigError(f"{path}/delta0",
                          f"sensing radius must lie in (0, L/4) = "
                          f"(0, {domain.half_width / 4.0}), got {delta0}")
    eta = _as_float(obj.get("eta", _default_eta(delta0, 1)), f"{path}/eta")
    if not (eta > 0 and math.isfinite(eta)):
        raise ConfigError(f"{path}/eta", f"must be positive and finite, got {eta}")
    return KernelSpec(shape=shape, delta0=delta0, eta=eta)


def _default_eta(delta0: float, dim: int) -> float:
    # half the interior level of the normalized box kernel: safely below
    # the sensing-box floor of every built-in shape
    return 0.5 / (4.0 * delta0) ** dim


def _parse_analysis(node, path: str, kernel: Optional[KernelSpec]) -> AnalysisConstants:
    obj = _require_object(node, path)
    allowed = ("c_gn", "c4", "eta", "delta0", "delta", "c1", "c2")
    _reject_unknown(obj, allowed, path)
    # no estimate reads c1; manifests written by earlier versions carry it
    if "c1" in obj:
        _as_float(obj["c1"], f"{path}/c1")
    delta0 = obj.get("delta0", kernel.delta0 if kernel else 0.5)
    eta = obj.get("eta", kernel.eta if kernel else 0.1)
    consts = AnalysisConstants(
        c_gn=_as_float(obj.get("c_gn", 1.0), f"{path}/c_gn"),
        c4=_as_float(obj.get("c4", 1.0), f"{path}/c4"),
        eta=_as_float(eta, f"{path}/eta"),
        delta0=_as_float(delta0, f"{path}/delta0"),
        delta=_as_float(obj["delta"], f"{path}/delta") if "delta" in obj else None,
        c2=_as_float(obj.get("c2", 1.0), f"{path}/c2"),
    )
    for violation in consts.violations():
        field_name = violation.split(":", 1)[0]
        raise ConfigError(f"{path}/{field_name}", violation)
    return consts


def _parse_initial(node, path: str, dim: int) -> InitialSpec:
    obj = _require_object(node, path)
    if "kind" not in obj:
        raise ConfigError(f"{path}/kind", "required key missing")
    kind = _as_str(obj["kind"], f"{path}/kind")
    if kind == "constant":
        _reject_unknown(obj, ("kind", "value"), path)
        return InitialSpec(kind=kind, value=_as_float(obj.get("value", 0.5),
                                                      f"{path}/value"))
    if kind == "gaussian_bump":
        _reject_unknown(obj, ("kind", "center", "width", "height"), path)
        center = obj.get("center", [0.0] * dim)
        if not isinstance(center, list) or len(center) != dim:
            raise ConfigError(f"{path}/center",
                              f"expected a list of {dim} coordinates, got {center!r}")
        width = _as_float(obj.get("width", 0.5), f"{path}/width")
        if width <= 0:
            raise ConfigError(f"{path}/width", f"must be positive, got {width}")
        return InitialSpec(
            kind=kind,
            center=tuple(_as_float(c, f"{path}/center/{i}") for i, c in enumerate(center)),
            width=width,
            height=_as_float(obj.get("height", 1.0), f"{path}/height"))
    if kind == "random":
        _reject_unknown(obj, ("kind", "seed", "amplitude"), path)
        amplitude = _as_float(obj.get("amplitude", 1.0), f"{path}/amplitude")
        if amplitude <= 0:
            raise ConfigError(f"{path}/amplitude", f"must be positive, got {amplitude}")
        seed = obj.get("seed")
        return InitialSpec(kind=kind, amplitude=amplitude,
                           seed=None if seed is None else _as_int(seed, f"{path}/seed"))
    if kind == "file":
        _reject_unknown(obj, ("kind", "path"), path)
        if "path" not in obj:
            raise ConfigError(f"{path}/path", "required key missing")
        return InitialSpec(kind=kind, path=_as_str(obj["path"], f"{path}/path"))
    raise ConfigError(f"{path}/kind",
                      f"expected one of {INITIAL_KINDS}, got {kind!r}")


def parse_config(text: str) -> RunManifest:
    """Parse a JSON manifest, applying defaults and rejecting anything
    off-schema with a JSON-pointer error path."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"not valid JSON: {exc}") from exc
    root = _require_object(root, "")
    allowed = ("model", "domain", "solver", "analysis", "kernel", "initial",
               "output", "seed")
    _reject_unknown(root, allowed, "")
    for key in ("model", "domain"):
        if key not in root:
            raise ConfigError(f"/{key}", "required section missing")

    model = _parse_model(root["model"], "/model")
    domain = _parse_domain(root["domain"], "/domain")
    solver = _parse_solver(root.get("solver", {}), "/solver")
    kernel = None
    if model.coupling_mode == "kernel":
        kernel = _parse_kernel(root.get("kernel", {}), "/kernel", domain)
    elif "kernel" in root:
        raise ConfigError("/kernel", "kernel section is only valid with kernel coupling")
    analysis = _parse_analysis(root.get("analysis", {}), "/analysis", kernel)
    initial = _parse_initial(root.get("initial", {"kind": "constant"}),
                             "/initial", model.dim)

    output_dir = "out"
    if "output" in root:
        out_obj = _require_object(root["output"], "/output")
        _reject_unknown(out_obj, ("directory",), "/output")
        output_dir = _as_str(out_obj.get("directory", "out"), "/output/directory")
    seed = _as_int(root.get("seed", 0), "/seed")

    return RunManifest(model=model, domain=domain, solver=solver,
                       analysis=analysis, kernel=kernel, initial=initial,
                       output_dir=output_dir, seed=seed)


def serialize_config(manifest: RunManifest) -> str:
    """Canonical JSON for a manifest; parse_config inverts it exactly."""
    m, d, s, a = manifest.model, manifest.domain, manifest.solver, manifest.analysis
    root = {
        "model": {"alpha": m.alpha, "p": m.p, "mu": m.mu, "k": m.k,
                  "gamma": m.gamma, "m": m.m, "dim": m.dim,
                  "coupling_mode": m.coupling_mode},
        "domain": {"half_width": d.half_width, "n": d.n},
        "solver": {"dt": s.dt, "t_final": s.t_final, "eps_reg": s.eps_reg,
                   "blowup_threshold": s.blowup_threshold,
                   "record_every": s.record_every,
                   "snapshot_times": list(s.snapshot_times)},
        "analysis": {"c_gn": a.c_gn, "c4": a.c4, "eta": a.eta,
                     "delta0": a.delta0, "delta": a.delta, "c2": a.c2},
        "initial": _initial_to_dict(manifest.initial),
        "output": {"directory": manifest.output_dir},
        "seed": manifest.seed,
    }
    if manifest.kernel is not None:
        root["kernel"] = {"shape": manifest.kernel.shape,
                          "delta0": manifest.kernel.delta0,
                          "eta": manifest.kernel.eta}
    return json.dumps(root, indent=2, sort_keys=True)


def _initial_to_dict(init: InitialSpec) -> dict:
    if init.kind == "constant":
        return {"kind": init.kind, "value": init.value}
    if init.kind == "gaussian_bump":
        return {"kind": init.kind, "center": list(init.center),
                "width": init.width, "height": init.height}
    if init.kind == "random":
        out = {"kind": init.kind, "amplitude": init.amplitude}
        if init.seed is not None:
            out["seed"] = init.seed
        return out
    return {"kind": init.kind, "path": init.path}


def build_initial(manifest: RunManifest) -> Field:
    """Materialize the initial state described by the manifest."""
    init = manifest.initial
    domain = manifest.domain
    dim = manifest.model.dim
    if init.kind == "constant":
        return Field.constant(domain, init.value, dim=dim)
    if init.kind == "gaussian_bump":
        center = init.center if init.center else (0.0,) * dim
        x = domain.axis_coords()
        l2 = 2.0 * domain.half_width
        dists = []
        for c in center:
            d = np.mod(x - c + domain.half_width, l2) - domain.half_width
            dists.append(d ** 2)
        if dim == 1:
            r2 = dists[0]
        else:
            r2 = dists[0][:, None] + dists[1][None, :]
        return Field(init.height * np.exp(-r2 / (2.0 * init.width ** 2)), domain)
    if init.kind == "random":
        seed = manifest.seed if init.seed is None else init.seed
        rng = np.random.default_rng(seed)
        return Field(rng.uniform(0.0, init.amplitude, size=domain.shape(dim)), domain)
    # file
    from .io import read_snapshot
    try:
        field = read_snapshot(init.path)
    except OSError as exc:
        raise ConfigError("/initial/path", f"cannot read snapshot: {exc}") from exc
    if field.domain != domain or field.dim != dim:
        raise ConfigError(
            "/initial/path",
            f"snapshot grid (L={field.domain.half_width}, n={field.domain.n}, "
            f"dim={field.dim}) does not match the manifest domain")
    return field
