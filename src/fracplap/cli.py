"""Command-line surface: simulate, verify, sweep, roots, mlf.

Exit codes: 0 success / all checks pass, 1 failed checks or a run that
did not complete, 2 configuration or argument errors.  Commands raise
their failures; ``main`` alone turns a fracplap error or an ``OSError``
into one ``error:`` or ``run failed:`` line and the code ``_exit_code``
chooses.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import sys
import time
import traceback
from typing import List, Optional

from .config import RunManifest, build_initial, parse_config, serialize_config
from .errors import (ConfigError, EvaluationRangeError, FracplapError,
                     HypothesisError, KernelAdmissibilityError)
from .integrator import RunReport, run
from .io import write_report_json, write_series, write_snapshot
from .model import competition_threshold, equilibrium_roots, AnalysisConstants
from .operators import discretize_kernel
from .fractional import mittag_leffler
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


def _exit_code(exc: BaseException) -> int:
    """2 for input the code cannot honour, 1 for any other failure."""
    if isinstance(exc, (ConfigError, HypothesisError, KernelAdmissibilityError,
                        EvaluationRangeError)):
        return EXIT_CONFIG
    return EXIT_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracplap",
        description="Memory-driven nonlocal reaction-diffusion solver and "
                    "its verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one manifest and write outputs")
    sim.add_argument("--config", required=True, help="path to a JSON manifest")
    sim.add_argument("--output-dir", default=None,
                     help="override the manifest output directory")

    ver = sub.add_parser("verify", help="run a named property suite")
    ver.add_argument("suite", choices=sorted(SUITES),
                     help="which suite to run")

    swp = sub.add_parser("sweep", help="expand a manifest over parameter "
                                       "ranges and run each combination")
    swp.add_argument("--config", required=True,
                     help="manifest JSON with a top-level 'sweep' object "
                          "mapping JSON-pointer paths to value lists")
    swp.add_argument("--output-dir", default=None,
                     help="override the base output directory")

    rts = sub.add_parser("roots", help="print the bistable rest states and "
                                       "the competition threshold")
    rts.add_argument("--mu", type=float, required=True)
    rts.add_argument("--k", type=float, required=True)
    rts.add_argument("--gamma", type=float, required=True)
    rts.add_argument("--dim", type=int, default=1, choices=(1, 2))
    rts.add_argument("--c-gn", type=float, default=AnalysisConstants.c_gn,
                     help="interpolation constant entering the 2D threshold")
    rts.add_argument("--eta", type=float, default=AnalysisConstants.eta,
                     help="kernel floor entering the 2D threshold")

    mlf = sub.add_parser("mlf", help="evaluate the Mittag-Leffler function")
    mlf.add_argument("--alpha", type=float, required=True)
    mlf.add_argument("--beta", type=float, default=1.0)
    mlf.add_argument("--z", type=float, required=True)
    return parser


def _execute_manifest(manifest: RunManifest, out_dir: str) -> RunReport:
    kernel = None
    if manifest.kernel is not None:
        kernel = discretize_kernel(manifest.kernel.shape, manifest.kernel.delta0,
                                   manifest.kernel.eta, manifest.domain,
                                   dim=manifest.model.dim)
    u0 = build_initial(manifest)
    os.makedirs(out_dir, exist_ok=True)     # before the march: a bad path costs no steps
    report = run(u0, manifest.model, manifest.solver, kernel=kernel)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        fh.write(serialize_config(manifest) + "\n")
    write_series(report, os.path.join(out_dir, "series.csv"))
    write_snapshot(report.final, os.path.join(out_dir, "final.fplp"))
    for t, field in report.snapshots:
        write_snapshot(field, os.path.join(out_dir, "snapshot_t%g.fplp" % t))
    write_report_json(report, os.path.join(out_dir, "report.json"))
    return report


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            manifest = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.output_dir or manifest.output_dir
    report = _execute_manifest(manifest, out_dir)
    print(f"status: {report.status.kind}  steps: {report.steps}  "
          f"final sup-norm: {report.sup_series[-1]:.6g}  outputs: {out_dir}")
    for line in report.warnings:
        print(f"warning: {line}")
    return EXIT_OK if report.status.completed else EXIT_FAILED


def _cmd_verify(args) -> int:
    start = time.perf_counter()
    checks = run_suite(args.suite)
    failed = 0
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        failed += not check.passed
        print(f"{tag} {args.suite}/{check.name} ({check.seconds:.3f} s): {check.detail}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed "
          f"in {time.perf_counter() - start:.2f} s")
    return EXIT_OK if failed == 0 else EXIT_FAILED


def _set_pointer(obj: dict, pointer: str, value) -> None:
    parts = [p for p in pointer.split("/") if p]
    if not parts:
        raise ConfigError(pointer, "empty sweep path")
    cur = obj
    for part in parts[:-1]:
        nxt = cur.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(pointer, f"cannot descend through {part!r}")
        cur = nxt
    cur[parts[-1]] = value


def _manifest_id(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            root = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read sweep config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(root, dict):
        print("error: sweep config must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    sweep = root.pop("sweep", {})
    if not isinstance(sweep, dict) or not all(
            isinstance(v, list) and v for v in sweep.values()):
        print("error: /sweep: must map JSON-pointer paths to non-empty lists",
              file=sys.stderr)
        return EXIT_CONFIG

    paths = sorted(sweep)
    combos = list(itertools.product(*(sweep[p] for p in paths)))
    manifests = []
    for combo in combos:
        variant = json.loads(json.dumps(root))
        for path, value in zip(paths, combo):
            _set_pointer(variant, path, value)
        manifests.append((combo, parse_config(json.dumps(variant))))

    base_dir = args.output_dir or manifests[0][1].output_dir
    os.makedirs(base_dir, exist_ok=True)

    results = []
    for combo, manifest in manifests:
        run_id = _manifest_id(serialize_config(manifest))
        out_dir = os.path.join(base_dir, run_id)
        try:
            report = _execute_manifest(manifest, out_dir)
            status = report.status.kind
            sup = report.sup_series[-1]
            code = EXIT_OK if report.status.completed else EXIT_FAILED
        except Exception as exc:   # one failed variant must not lose the table
            if not isinstance(exc, (FracplapError, OSError)):
                print(f"variant {run_id} raised:\n{traceback.format_exc()}",
                      file=sys.stderr, end="")
            status, sup = f"error: {type(exc).__name__}: {exc}", float("nan")
            code = _exit_code(exc)
        results.append((run_id, combo, status, sup, code))

    table_path = os.path.join(base_dir, "sweep.csv")
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        table = csv.writer(fh, lineterminator="\n")
        table.writerow(["run_id", *paths, "status", "final_sup_norm"])
        for run_id, combo, status, sup, _ in results:
            table.writerow([run_id, *(json.dumps(v) for v in combo), status,
                            f"{sup:.17g}"])

    for run_id, combo, status, _, _ in results:
        assignments = ", ".join(f"{p}={v}" for p, v in zip(paths, combo))
        print(f"{run_id}  {assignments or '(no overrides)'}  {status}")
    print(f"verdict table: {table_path}")
    return max(code for *_, code in results)


def _cmd_roots(args) -> int:
    roots = equilibrium_roots(args.mu, args.k, args.gamma)
    consts = AnalysisConstants(c_gn=args.c_gn, eta=args.eta)
    problems = consts.violations()
    if problems:
        raise HypothesisError("; ".join(problems))
    k_star = competition_threshold(args.dim, args.mu, consts)
    print(f"a = {roots.lower:.12g}")
    print(f"A = {roots.upper:.12g}")
    print(f"k_star = {k_star:.12g}")
    return EXIT_OK


def _cmd_mlf(args) -> int:
    value = mittag_leffler(args.alpha, args.z, beta=args.beta)
    print(f"{value:.15g}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    handlers = {"simulate": _cmd_simulate, "verify": _cmd_verify,
                "sweep": _cmd_sweep, "roots": _cmd_roots, "mlf": _cmd_mlf}
    try:
        return handlers[args.command](args)
    except (FracplapError, OSError) as exc:
        code = _exit_code(exc)
        print(f"{'error' if code == EXIT_CONFIG else 'run failed'}: {exc}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
