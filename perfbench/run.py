"""fracplap benchmark: four solver workloads timed end to end, and a
traced run that splits the time by module.

    python3 perfbench/run.py --workload allee-1d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # the four in turn

Workloads (closed loop, one process; see BENCHMARK.json for why each
exists): allee-1d, bounded-2d, linear-2d-long, mlf-envelope.  A rep is
one solution of the whole workload; reps repeat until ``--seconds`` is
about used, at least one.  Every rep's outputs are checked.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over 1 + SETUP_PROBES fresh processes of the time from
               the start of this script to the end of the workload's set-up:
               fracplap import, manifest parse, kernel, initial data and a
               short warm-up of the same path (first-use imports).
  wall_rel     mean rep time over the mean time of a fixed reference unit
               of work timed every 0.15 s during the reps, in the same
               process (hostspeed.py), each mean without its slowest tenth:
               rep time in units of host speed.  A rep is the `fracplap
               simulate` runs including their output files for the
               marches, all evaluations for mlf-envelope, less the time
               spent in the reference unit.
  peak_rss_mb  peak resident memory of the workload process over set-up and
               its first rep.
and prints, outside the result line:
  wall_s, ref_ms
               the median rep time and median reference-unit time.
  call_us_p50, call_us_p99
               per-call latency of `mittag_leffler` on mlf-envelope, pooled
               over reps, with the sample count (the marches make no calls).
  fail_frac    failed correctness checks and solver exceptions over checks
               attempted (the result line's failed / attempted).

On a shared VM the host's speed drifts by up to ~40% over seconds to
minutes, so raw rep times of one commit spread too widely to compare
two commits; wall_s is printed for reference, wall_rel is the metric.

``--trace 1`` first times untraced reps for half of ``--seconds``, then
wraps each module's functions where their callers look them up
(tracer.py) and times traced reps for the other half.  Per-layer counts
and times are per rep; ``trace.overhead_frac`` is the traced wall_rel
over the untraced one, minus 1.  Host-speed probes are spans of their
own, ``bench.host_probe``, left out of every busy and self time.  Spans
are written to ``.perfbench_out/trace-<workload>.json``.

BLAS threads are pinned to min(2, cores available) before numpy loads,
and fracplap is imported from this checkout's ``src/``; without that
package the run exits non-zero and prints no result line.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("allee-1d", "bounded-2d", "linear-2d-long", "mlf-envelope")
SETUP_PROBES = 3
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


def pin_blas_threads():
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_fracplap():
    """Import fracplap from this checkout's src/, never from an install."""
    package = SRC / "fracplap"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a fracplap checkout")
    sys.path.insert(0, str(SRC))
    import fracplap
    import fracplap.cli
    if Path(fracplap.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported fracplap from {fracplap.__file__}, not {package}")
    return SimpleNamespace(
        path=str(package), analysis=fracplap.analysis, cli=fracplap.cli,
        config=fracplap.config, fractional=fracplap.fractional,
        integrator=fracplap.integrator, io=fracplap.io, model=fracplap.model,
        operators=fracplap.operators, verify=fracplap.verify)


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_caches():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    return caches


def environment(fp, seed, threads):
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": threads, "blas_threads_runtime": _blas_runtime_threads(),
            "cpus_available": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "caches": _cpu_caches(), "fracplap_imported_from": fp.path}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def setup_probes(workload, seed):
    """Set-up time of fresh processes, each running this script's set-up only."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Tally:
    def __init__(self, wl):
        from hostspeed import HostProbe
        self.walls, self.latencies = [], []
        self.probe = HostProbe(wl.probe_sweep)
        self.attempted = self.failed = 0
        self.reported = 0
        self.peak_rss_mb = 0.0

    def add_checks(self, checks):
        self.attempted += len(checks)
        for check in checks:
            if not check.passed:
                self.failed += 1
                if self.reported < 20:
                    self.reported += 1
                    print(f"FAIL {check.name}: {check.detail}", file=sys.stderr)

    def wall_rel(self):
        return _trimmed_mean(self.walls) / _trimmed_mean(self.probe.samples)


def _trimmed_mean(values):
    """Mean without the slowest tenth.  A reference unit takes ~3.5 ms, so
    one preemption makes an outlier of it, where a rep averages it in;
    means, not medians, because a rep integrates the host's short slow
    spells that a median of short samples would skip."""
    values = sorted(values)
    return statistics.fmean(values[:len(values) - len(values) // 10])


def measure(wl, seconds, tally):
    """Run reps for about ``seconds`` (at least one); a rep that raises
    counts as one failed check and ends the measurement."""
    start = time.perf_counter()
    while True:
        try:
            wall, latencies, result = wl.rep(tally.probe)
            tally.add_checks(wl.check(result))
        except Exception:
            traceback.print_exc()
            tally.attempted += 1
            tally.failed += 1
            return
        tally.walls.append(wall)
        tally.latencies.extend(latencies)
        if len(tally.walls) == 1:
            # high-water mark of set-up plus one rep, whatever the rep count
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + wall / 2.0 >= seconds:
            return


def _pct(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def untraced_metrics(wl, args, setup_main):
    setup = [setup_main] + setup_probes(args.workload, args.seed)
    tally = Tally(wl)
    measure(wl, args.seconds, tally)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_rel": (tally.wall_rel(), "ratio"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"wall_s over {len(tally.walls)} reps: {', '.join(f'{w:.4f}' for w in tally.walls)}")
    print(f"wall_s = {statistics.median(tally.walls):.6g} s, ref_ms = "
          f"{statistics.median(tally.probe.samples) * 1e3:.6g} ms "
          f"({len(tally.probe.samples)} reference units)")
    if tally.latencies:
        lat_us = [x * 1e6 for x in tally.latencies]
        print(f"call_us_p50 = {_pct(lat_us, 50):.6g} us, call_us_p99 = {_pct(lat_us, 99):.6g} us "
              f"({len(lat_us)} calls of mittag_leffler)")
    return metrics, tally


def traced_metrics(wl, args, fp):
    import hostspeed
    import numpy as np
    from tracer import Tracer
    from workloads import Check

    plain = Tally(wl)
    measure(wl, args.seconds / 2.0, plain)
    tr = Tracer()
    tr.wrap(hostspeed, "reference_unit", "bench.host_probe")
    for owner, attr, name, extra in wl.trace_targets(fp):
        tr.wrap(owner, attr, name, extra)
    traced = Tally(wl)
    try:
        measure(wl, args.seconds / 2.0, traced)
    finally:
        tr.unwrap()
    tr.dump(str(OUT_ROOT / f"trace-{args.workload}.json"))

    reps = max(1, len(traced.walls))
    tab = tr.table()
    dur, self_t, extra, step_of = tab["dur"], tab["self"], tab["extra"], tab["step_of"]
    # host probes run between steps, as children of integrator.run: keep
    # their pauses out of busy times as the rep times leave them out
    probes = tr.mask(tab, "bench.host_probe") & (tab["parent"] >= 0)
    dur = dur - np.bincount(tab["parent"][probes], weights=dur[probes], minlength=len(dur))
    m = {}

    def layer(name, *fields):
        sel = tr.mask(tab, name)
        values = {"calls": (sel.sum() / reps, "count"),
                  "busy_s": (dur[sel].sum() / reps, "s"),
                  "self_s": (self_t[sel].sum() / reps, "s")}
        for f in fields:
            m[f"{name}.{f}"] = values[f]
        return sel

    layer("integrator.run", "calls", "busy_s", "self_s")
    steps = layer("integrator.step", "calls", "busy_s", "self_s")
    step_ms = dur[steps] * 1e3
    m["integrator.step.ms_p50"] = (_pct(step_ms, 50), "ms")
    m["integrator.step.ms_p99"] = (_pct(step_ms, 99), "ms")
    layer("integrator.detect_blowup", "busy_s")
    layer("integrator.solve", "busy_s")

    # matvecs per step = diffusion_apply calls inside it (PCG iterations + 1)
    applies = layer("operators.diffusion_apply", "calls", "busy_s")
    inside = step_of >= 0
    per_step = np.bincount(step_of[applies & inside], minlength=len(dur))[steps]
    m["integrator.solve.matvecs_mean"] = (float(per_step.mean()) if per_step.size else 0.0, "count")
    m["integrator.solve.matvecs_max"] = (float(per_step.max()) if per_step.size else 0.0, "count")

    mem = layer("fractional.memory_term", "calls", "busy_s")
    mem_bytes = extra[mem].sum()
    m["fractional.memory_term.bytes_read_computed"] = (mem_bytes / reps, "bytes")
    m["fractional.memory_term.gbps_computed"] = (
        mem_bytes / dur[mem].sum() / 1e9 if mem.any() else 0.0, "GB/s")
    m["fractional.history.peak_bytes_computed"] = (
        float(extra[mem].max()) if mem.any() else 0.0, "bytes")

    # cost growth with step count: first and last tenth of each march's steps
    first = np.zeros(len(dur), dtype=bool)
    last = np.zeros(len(dur), dtype=bool)
    step_idx = np.flatnonzero(steps)
    for march in np.unique(tab["parent"][step_idx]):
        idx = step_idx[tab["parent"][step_idx] == march]
        tenth = max(1, idx.size // 10)
        first[idx[:tenth]] = True
        last[idx[-tenth:]] = True
    mem_step = np.where(mem & inside, step_of, -1)
    for label, sel in (("first_tenth", first), ("last_tenth", last)):
        m[f"integrator.step.ms_{label}"] = (
            float(dur[sel].mean() * 1e3) if sel.any() else 0.0, "ms")
        mem_sel = (mem_step >= 0) & sel[np.maximum(mem_step, 0)]
        m[f"fractional.memory_term.ms_{label}"] = (
            float(dur[mem_sel].mean() * 1e3) if mem_sel.any() else 0.0, "ms")

    layer("operators.convolve_kernel", "calls", "busy_s")
    layer("operators.face_diffusivity", "calls", "busy_s")
    layer("fractional.weights", "busy_s")
    ml = layer("fractional.mittag_leffler", "calls", "busy_s")
    ml_us = dur[ml] * 1e6
    m["fractional.mittag_leffler.us_p50"] = (_pct(ml_us, 50), "us")
    m["fractional.mittag_leffler.us_p99"] = (_pct(ml_us, 99), "us")
    for branch in ("series", "asymptotic", "mpmath"):
        layer(f"fractional.mittag_leffler.{branch}", "calls", "busy_s")
    writes = layer("io.write", "calls", "busy_s")
    m["io.write.bytes"] = (extra[writes].sum() / reps, "bytes")
    layer("config.parse_config", "busy_s")
    layer("config.build_initial", "busy_s")
    layer("operators.discretize_kernel", "busy_s")
    m["trace.overhead_frac"] = (
        traced.wall_rel() / plain.wall_rel() - 1.0
        if traced.walls and plain.walls else 0.0, "ratio")

    # the tracer's own invariant: self times inside each step fit in its busy time
    nested = float(self_t[inside & ~steps].sum())
    busy = float(dur[steps].sum())
    negative = int((self_t[steps] < -1e-9).sum())
    traced.add_checks([Check("trace-nesting", nested <= busy * (1 + 1e-9) and negative == 0,
                             f"self time inside steps {nested:.6f} s of {busy:.6f} s busy; "
                             f"{negative} steps with negative self time")])
    print(f"traced reps: {len(traced.walls)}, untraced reps: {len(plain.walls)}, "
          f"seed {args.seed}: integrator.solve.matvecs_mean "
          f"{m['integrator.solve.matvecs_mean'][0]:.4f}")
    tally = Tally(wl)
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    return m, tally


# --------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print the set-up time and exit")
    return ap.parse_args(argv)


def run_all(args):
    """Every workload, each in its own process; the last line maps each
    workload to its result line."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    threads = pin_blas_threads()
    fp = import_fracplap()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(fp, str(out_dir), args.seed)
        setup_main = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        print("env " + json.dumps(environment(fp, args.seed, threads), sort_keys=True))
        if args.trace:
            metrics, tally = traced_metrics(wl, args, fp)
        else:
            metrics, tally = untraced_metrics(wl, args, setup_main)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = max(1, tally.attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {tally.failed / attempted:.6g} ({tally.failed}/{attempted} checks)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
