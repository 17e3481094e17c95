"""Run manifests: a strict JSON schema describing one simulation.

Top-level keys: ``model`` and ``domain`` (required), ``solver``,
``analysis``, ``kernel``, ``initial``, ``output``, ``seed`` (optional).
The input dataclasses are the schema: each field of ``ModelParameters``,
``DomainSpec``, ``SolverConfig``, ``AnalysisConstants``, ``KernelSpec``
and ``InitialSpec`` is a key of its section, its annotation picks the
coercion and its default is the key's default.  ``parse_config`` adds
only what a dataclass cannot know: required keys, defaults derived from
the domain and the kernel, legacy keys and range checks.  Unknown keys,
wrong types and non-finite numbers are rejected, and every parse error
carries the JSON-pointer path of the offending entry.
``parse_config(serialize_config(m))`` reproduces ``m`` exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, GridMismatchError
from .integrator import SolverConfig
from .model import (COUPLING_KERNEL, AnalysisConstants, DomainSpec, Field,
                    ModelParameters, validate_params)
from .operators import KERNEL_SHAPES


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


# the keys each initial kind reads, in the order they are checked; the
# writer emits the same keys
_INITIAL_KEYS = {"constant": ("value",),
                 "gaussian_bump": ("width", "center", "height"),
                 "random": ("amplitude", "seed"),
                 "file": ("path",)}


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
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return float(v)

def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v

def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {v!r}")
    return v

def _as_floats(v, path: str) -> tuple:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected a list of numbers, got {v!r}")
    return tuple(_as_float(x, f"{path}/{i}") for i, x in enumerate(v))


# coercion by field annotation (a string: the input modules postpone
# annotations); null is a manifest value only for initial.seed, where it
# means "use the manifest seed"
_COERCE = {"float": _as_float, "int": _as_int, "str": _as_str,
           "Tuple[float, ...]": _as_floats, "Optional[float]": _as_float,
           "Optional[int]": lambda v, path: None if v is None else _as_int(v, path)}


def _positive(v) -> Optional[str]:
    return None if v > 0 else f"must be positive, got {v}"


def _lagged_implicit(v, path: str) -> None:
    # the one march there is; manifests written by earlier versions name it
    if _as_str(v, path) != "lagged_implicit":
        raise ConfigError(path, f"expected 'lagged_implicit' (the only scheme), got {v!r}")


def _parse_fields(cls, node, path: str, keys=None, required=(), defaults={},
                  checks={}, legacy={}, violations=None):
    """Parse one manifest section into the dataclass ``cls``.

    The keys are ``keys`` (a subset of the fields, checked in that
    order) or else every field, list-valued ones first, then ``legacy``
    keys.  A key is required when it is in ``required`` or has neither
    a default here nor a dataclass default.  An absent key takes
    ``defaults[key]``, called with the values parsed so far when it is
    callable, or else the dataclass default.  ``checks[key]`` returns
    an error message for a bad value; ``legacy[key]`` validates a key
    earlier versions wrote and nothing reads; ``violations`` lists the
    faults of the built object as ``"field: message"``.
    """
    obj = _require_object(node, path)
    spec = {f.name: f for f in fields(cls)}
    if keys is None:   # the order of earlier versions, so the first fault reported stays
        lists = [k for k in spec if spec[k].type == "Tuple[float, ...]"]
        keys = lists + list(legacy) + [k for k in spec if k not in lists]
    _reject_unknown(obj, keys, path)
    for key in keys:
        if key in spec and key not in obj and key not in defaults and (
                key in required or spec[key].default is MISSING):
            raise ConfigError(f"{path}/{key}", "required key missing")
    values = {}
    for key in keys:
        key_path = f"{path}/{key}"
        if key in legacy:
            if key in obj:
                legacy[key](obj[key], key_path)
            continue
        if key in obj:
            raw = obj[key]
        elif key in defaults:
            raw = defaults[key](values) if callable(defaults[key]) else defaults[key]
        else:
            continue
        values[key] = _COERCE[spec[key].type](raw, key_path)
        fault = checks[key](values[key]) if key in checks else None
        if fault:
            raise ConfigError(key_path, fault)
    try:
        parsed = cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    for violation in violations(parsed) if violations else ():
        raise ConfigError(f"{path}/{violation.split(':', 1)[0]}", violation)
    return parsed


def _parse_initial(node, path: str, dim: int) -> InitialSpec:
    obj = _require_object(node, path)
    if "kind" not in obj:
        raise ConfigError(f"{path}/kind", "required key missing")
    kind = _as_str(obj["kind"], f"{path}/kind")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"{path}/kind",
                          f"expected one of {tuple(_INITIAL_KEYS)}, got {kind!r}")
    keys = ("kind", *_INITIAL_KEYS[kind])
    _reject_unknown(obj, keys, path)
    center = obj.get("center", [0.0] * dim)
    if kind == "gaussian_bump" and not (isinstance(center, list) and len(center) == dim):
        raise ConfigError(f"{path}/center",
                          f"expected a list of {dim} coordinates, got {center!r}")
    return _parse_fields(InitialSpec, obj, path, keys=keys, required=("path",),
                         defaults={"center": center},
                         checks={"width": _positive, "amplitude": _positive})


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

    model = _parse_fields(ModelParameters, root["model"], "/model",
                          violations=validate_params)
    domain = _parse_fields(DomainSpec, root["domain"], "/domain")
    solver = _parse_fields(SolverConfig, root.get("solver", {}), "/solver",
                           defaults={"dt": 1e-3, "t_final": 1.0},
                           legacy={"scheme": _lagged_implicit})
    kernel = None
    if model.coupling_mode == COUPLING_KERNEL:
        quarter = domain.half_width / 4.0
        kernel = _parse_fields(
            KernelSpec, root.get("kernel", {}), "/kernel",
            # eta: half the interior level of the normalized box kernel,
            # safely below the sensing-box floor of every built-in shape
            defaults={"shape": "box", "delta0": domain.half_width / 8.0,
                      "eta": lambda v: 0.5 / (4.0 * v["delta0"]) ** model.dim},
            checks={"shape": lambda s: None if s in KERNEL_SHAPES else
                    f"expected one of {KERNEL_SHAPES}, got {s!r}",
                    "delta0": lambda d: None if 0 < d < quarter else
                    f"sensing radius must lie in (0, L/4) = (0, {quarter}), got {d}",
                    "eta": _positive})
    elif "kernel" in root:
        raise ConfigError("/kernel", "kernel section is only valid with kernel coupling")
    analysis = _parse_fields(
        AnalysisConstants, root.get("analysis", {}), "/analysis",
        defaults={"delta0": kernel.delta0, "eta": kernel.eta} if kernel else {},
        # no estimate reads c1; manifests written by earlier versions carry it
        legacy={"c1": _as_float}, violations=AnalysisConstants.violations)
    initial = _parse_initial(root.get("initial", {"kind": "constant"}),
                             "/initial", model.dim)

    output = _require_object(root.get("output", {}), "/output")
    _reject_unknown(output, ("directory",), "/output")
    output_dir = _as_str(output.get("directory", RunManifest.output_dir),
                         "/output/directory")
    seed = _as_int(root.get("seed", RunManifest.seed), "/seed")

    return RunManifest(model=model, domain=domain, solver=solver,
                       analysis=analysis, kernel=kernel, initial=initial,
                       output_dir=output_dir, seed=seed)


def serialize_config(manifest: RunManifest) -> str:
    """Canonical JSON for a manifest; parse_config inverts it exactly."""
    root = asdict(manifest)
    root["output"] = {"directory": root.pop("output_dir")}
    if root["kernel"] is None:
        del root["kernel"]
    initial = root["initial"]
    if initial["kind"] == "gaussian_bump" and not initial["center"]:
        initial["center"] = [0.0] * manifest.model.dim     # () means the origin
    # an unset random seed is left out, as parse_config reads it
    root["initial"] = {key: initial[key]
                       for key in ("kind", *_INITIAL_KEYS[initial["kind"]])
                       if initial[key] is not None}
    return json.dumps(root, indent=2, sort_keys=True)


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
    except (OSError, GridMismatchError) as exc:
        raise ConfigError("/initial/path", f"cannot read snapshot: {exc}") from exc
    if field.domain != domain or field.dim != dim:
        raise ConfigError(
            "/initial/path",
            f"snapshot grid (L={field.domain.half_width}, n={field.domain.n}, "
            f"dim={field.dim}) does not match the manifest domain")
    if not np.isfinite(field.values).all():
        raise ConfigError("/initial/path", "snapshot holds a NaN or an inf")
    return field
