"""The four benchmark workloads.

Each workload is driven through the package's public calls.  ``setup``
is what a fresh process pays before its first timed step; ``rep`` is one
timed solution of the whole workload; ``check`` judges the outputs of
one rep.  The seed only generates inputs: a relative perturbation of
the initial state for the marches, the z sample for ``mlf-envelope``.
"""
from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import os
import shutil
import time
from collections import namedtuple

import numpy as np
from scipy.special import erfcx

# Relative amplitude of the seeded perturbation of every march's u0: small
# enough to keep each march in its regime (allee-1d stays at ~2.01
# matvecs per step), large enough that seeds give different inputs.
U0_PERTURBATION = 1e-3

# Linear oracle: sup-norm error of the T = 30 march against the exact
# spectral solution (about 8e-7 with the L1 march as written).
LINEAR_ORACLE_TOL = 1e-5
# |E_{1/2}(z) - erfcx(-z)| on the negative axis (worst about 5e-14).
MLF_ERFCX_TOL = 1e-12
# |E_{a,1}(z) - z E_{a,1+a}(z) - 1| relative to the larger summand
# max(1, |z E_{a,1+a}(z)|); the +1 cancels, so |E_{a,1}| is no scale.
MLF_RECURRENCE_TOL = 1e-11


Check = namedtuple("Check", "name passed detail")


# --------------------------------------------------------------------------
# marches through `fracplap simulate`
# --------------------------------------------------------------------------

class March:
    """One or more `fracplap simulate` runs timed together.

    Each manifest's u0 is the manifest's own initial data times
    (1 + 1e-3 xi), xi ~ U(-1, 1) from the seed, handed to the solver as a
    snapshot file so the manifest parser and the snapshot reader stay on
    the path.  Outputs (series, snapshots, report) are written every rep
    and checked against the in-memory report.
    """

    # host-speed reference (hostspeed.py): interpreter work only, unless
    # the march's time is mostly the memory term's BLAS sweep
    probe_sweep = False

    def __init__(self, name, manifests):
        self.name = name
        self.manifests = manifests

    def setup(self, fp, out_dir, seed):
        rng = np.random.default_rng(seed)
        self.fp = fp
        self.out_dir = out_dir
        self.configs = []
        for i, base in enumerate(self.manifests):
            manifest = fp.config.parse_config(json.dumps(base))
            u0 = fp.config.build_initial(manifest)
            xi = rng.uniform(-1.0, 1.0, size=u0.values.shape)
            u0 = fp.model.Field(u0.values * (1.0 + U0_PERTURBATION * xi), u0.domain)
            u0_path = os.path.join(out_dir, f"u0_{i}.fplp")
            fp.io.write_snapshot(u0, u0_path)
            spec = dict(base, initial={"kind": "file", "path": u0_path})
            path = os.path.join(out_dir, f"manifest_{i}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(spec, fh)
            self.configs.append((path, os.path.join(out_dir, f"run_{i}"),
                                 fp.config.parse_config(json.dumps(spec))))
        self._warm_up(fp, spec)
        self._capture_reports(fp)

    def _warm_up(self, fp, spec):
        """A five-step march on the same path, plus the starting-layer
        weights at the full horizon: `run` imports scipy.signal lazily
        for horizons beyond 512 steps, and that first-use cost belongs
        to set-up."""
        solver = spec["solver"]
        warm = os.path.join(self.out_dir, "warm_manifest.json")
        with open(warm, "w", encoding="ascii") as fh:
            json.dump(dict(spec, solver=dict(solver, t_final=5 * solver["dt"],
                                             snapshot_times=[])), fh)
        with contextlib.redirect_stdout(_stdio.StringIO()):
            rc = fp.cli.main(["simulate", "--config", warm, "--output-dir",
                              os.path.join(self.out_dir, "warm")])
        if rc != 0:
            raise RuntimeError(f"warm-up march exited with {rc}")
        lazy = getattr(fp.fractional, "layer_correction_weights", None)
        if lazy is not None:
            lazy(spec["model"]["alpha"], int(round(solver["t_final"] / solver["dt"])))

    def _capture_reports(self, fp):
        """Keep the RunReport each `simulate` computes, for the checks."""
        run = fp.cli.run
        self._reports = reports = []

        def capture_run(*args, **kwargs):
            report = run(*args, **kwargs)
            reports.append(report)
            return report

        fp.cli.run = capture_run

    def rep(self, probe):
        """One timed pass; ``probe`` (hostspeed.HostProbe) is called before
        every step and its pauses are left out of the wall time."""
        for _, run_dir, _ in self.configs:
            shutil.rmtree(run_dir, ignore_errors=True)
        del self._reports[:]
        runs = []
        sink = _stdio.StringIO()
        integ = self.fp.integrator
        step = integ.step

        def probed_step(*args, **kwargs):
            probe()
            return step(*args, **kwargs)

        integ.step = probed_step
        paused = probe.paused
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                for path, run_dir, _ in self.configs:
                    before = len(self._reports)
                    code = self.fp.cli.main(["simulate", "--config", path,
                                             "--output-dir", run_dir])
                    runs.append((code, self._reports[-1] if len(self._reports) > before else None))
        finally:
            integ.step = step
        wall = time.perf_counter() - t0 - (probe.paused - paused)
        return wall, [], runs

    def check(self, runs):
        checks = []
        for i, ((code, report), (_, run_dir, manifest)) in enumerate(zip(runs, self.configs)):
            expected = int(round(manifest.solver.t_final / manifest.solver.dt))
            if code != 0 or report is None:
                checks.append(Check(f"outputs-{i}", False, f"simulate exited with {code}"))
            else:
                checks.append(self._check_outputs(i, run_dir, report, expected))
        if all(code == 0 and report is not None for code, report in runs):
            checks.extend(self.check_reports([report for _, report in runs]))
        return checks

    def _check_outputs(self, i, run_dir, report, expected):
        """The files `simulate` wrote agree with the run it reports."""
        with open(os.path.join(run_dir, "report.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        final = self.fp.io.read_snapshot(os.path.join(run_dir, "final.fplp"))
        with open(os.path.join(run_dir, "series.csv"), encoding="ascii") as fh:
            rows = sum(1 for _ in fh) - 1
        snaps = sum(1 for f in os.listdir(run_dir) if f.startswith("snapshot_t"))
        ok = (report.status.completed and report.steps == expected
              and summary["status"] == "completed" and summary["steps"] == expected
              and np.array_equal(final.values, report.final.values)
              and rows == len(report.times) and snaps == len(report.snapshots))
        return Check(f"outputs-{i}", ok,
                     f"status {report.status.kind}, {report.steps}/{expected} steps, "
                     f"{rows} series rows, {snaps} snapshots")

    def check_reports(self, reports):
        raise NotImplementedError

    def trace_targets(self, fp):
        integ = fp.integrator
        history_bytes = lambda args, _: len(args[0]) * args[0].size * 8
        written = lambda args, _: os.path.getsize(args[1])
        return [
            (fp.cli, "run", "integrator.run", None),
            (fp.cli, "parse_config", "config.parse_config", None),
            (fp.cli, "build_initial", "config.build_initial", None),
            (fp.cli, "discretize_kernel", "operators.discretize_kernel", None),
            (fp.cli, "write_series", "io.write", written),
            (fp.cli, "write_snapshot", "io.write", written),
            (fp.cli, "write_report_json", "io.write", written),
            (integ, "step", "integrator.step", None),
            (integ, "_pcg", "integrator.solve", None),
            (integ, "detect_blowup", "integrator.detect_blowup", None),
            (integ, "memory_term", "fractional.memory_term", history_bytes),
            (integ, "l1_weights", "fractional.weights", None),
            (integ, "layer_correction_weights", "fractional.weights", None),
            (integ, "convolve_kernel", "operators.convolve_kernel", None),
            (integ, "face_diffusivity", "operators.face_diffusivity", None),
            (integ, "diffusion_apply", "operators.diffusion_apply", None),
        ]


class AlleeMarch(March):
    def check_reports(self, reports):
        fp = self.fp
        roots = fp.model.equilibrium_roots(1.0, 1.0, 3.0 / 16.0)
        ext = fp.analysis.allee_classify(
            reports[0], roots, tol_extinction=fp.verify.ALLEE_EXTINCTION_TOL)
        per = fp.analysis.allee_classify(reports[1], roots)
        gap = abs(per.terminal_sup - roots.upper)
        return [
            Check("extinction", ext.verdict == "extinction",
                  f"u0=0.2: '{ext.verdict}', terminal sup {ext.terminal_sup:.4g} "
                  f"(band {ext.tol_extinction})"),
            Check("persistence",
                  per.verdict == "persistence" and gap <= 0.05 * roots.upper,
                  f"u0=0.5: '{per.verdict}', terminal sup {per.terminal_sup:.4g} "
                  f"vs A = {roots.upper} (band {0.05 * roots.upper:.4g})"),
        ]


class BoundedMarch(March):
    def check_reports(self, reports):
        fp = self.fp
        manifest = self.configs[0][2]
        u0 = fp.config.build_initial(manifest)
        bound = fp.model.sup_norm_bound(manifest.model, manifest.analysis,
                                        u0.sup_norm(), manifest.solver.t_final)
        res = fp.analysis.boundedness_check(reports[0], bound)
        return [Check("bounded", res.status == "pass",
                      f"peak sup / a priori bound = {res.ratio:.4g}")]


class LinearMarch(March):
    probe_sweep = True

    def check_reports(self, reports):
        """Exact solution of the semi-discrete linear problem: each Fourier
        mode decays by E_{1/2}((lambda - gamma) T^{1/2}) = erfcx((gamma - lambda) sqrt T),
        lambda the symbol of the 5-point Laplacian."""
        fp = self.fp
        manifest = self.configs[0][2]
        domain = manifest.domain
        u0 = fp.config.build_initial(manifest).values
        lam_axis = -(2.0 * np.sin(np.pi * np.arange(domain.n) / domain.n) / domain.h) ** 2
        lam = lam_axis[:, None] + lam_axis[None, :]
        t_final = manifest.solver.t_final
        mult = erfcx((manifest.model.gamma - lam) * math.sqrt(t_final))
        exact = np.fft.ifftn(np.fft.fftn(u0) * mult).real
        final = fp.io.read_snapshot(os.path.join(self.configs[0][1], "final.fplp"))
        err = float(np.max(np.abs(final.values - exact)))
        return [Check("linear-oracle", err <= LINEAR_ORACLE_TOL,
                      f"sup error {err:.3g} at T = {t_final} (tolerance {LINEAR_ORACLE_TOL:g})")]


# --------------------------------------------------------------------------
# Mittag-Leffler evaluations
# --------------------------------------------------------------------------

class MlfEnvelope:
    """E_{alpha,beta}(z), one public call per point, as the envelope check
    and `fracplap mlf` call it.  z is stratified over [-50, 0): one
    uniform draw in each of POINTS equal strata, so the share of points
    in each evaluation branch hardly moves with the seed."""

    ALPHAS = (0.3, 0.5, 0.8)
    POINTS = 200
    probe_sweep = False

    def __init__(self, name):
        self.name = name

    def setup(self, fp, out_dir, seed):
        rng = np.random.default_rng(seed)
        self.fp = fp
        strata = np.arange(self.POINTS)
        self.samples = [(alpha, -50.0 + 50.0 * (strata + rng.random(self.POINTS)) / self.POINTS)
                        for alpha in self.ALPHAS]
        # first use of every branch, including the mpmath import
        for alpha in self.ALPHAS:
            for z in (-1.0, -3.0, -10.0, -30.0):
                fp.fractional.mittag_leffler(alpha, z)
                fp.fractional.mittag_leffler(alpha, z, beta=1.0 + alpha)

    def rep(self, probe):
        """One timed pass; ``probe`` is called before every point and its
        pauses are left out of the wall time."""
        frac = self.fp.fractional
        clock = time.perf_counter
        latencies = []
        values = []
        paused = probe.paused
        t0 = clock()
        for alpha, zs in self.samples:
            beta2 = 1.0 + alpha
            out = np.empty((zs.size, 2))
            for i, z in enumerate(zs):
                z = float(z)
                probe()
                c0 = clock()
                out[i, 0] = frac.mittag_leffler(alpha, z)
                c1 = clock()
                out[i, 1] = frac.mittag_leffler(alpha, z, beta=beta2)
                c2 = clock()
                latencies.append(c1 - c0)
                latencies.append(c2 - c1)
            values.append(out)
        wall = clock() - t0 - (probe.paused - paused)
        return wall, latencies, values

    def check(self, values):
        checks = []
        for (alpha, zs), out in zip(self.samples, values):
            e1, e2 = out[:, 0], out[:, 1]
            if alpha == 0.5:
                err = np.abs(e1 - erfcx(-zs))
                checks += [Check(f"erfcx-{z:.6g}", e <= MLF_ERFCX_TOL, f"error {e:.3g}")
                           for z, e in zip(zs, err)]
            else:
                scale = np.maximum(1.0, np.abs(zs * e2))
                rel = np.abs(e1 - zs * e2 - 1.0) / scale
                checks += [Check(f"recurrence-{alpha}-{z:.6g}", r <= MLF_RECURRENCE_TOL,
                                 f"relative residual {r:.3g}")
                           for z, r in zip(zs, rel)]
        return checks

    def trace_targets(self, fp):
        frac = fp.fractional
        return [
            (frac, "mittag_leffler", "fractional.mittag_leffler", None),
            (frac, "_ml_series_float", "fractional.mittag_leffler.series", None),
            (frac, "_ml_series_positive", "fractional.mittag_leffler.series", None),
            (frac, "_ml_asymptotic", "fractional.mittag_leffler.asymptotic", None),
            (frac, "_ml_mpmath", "fractional.mittag_leffler.mpmath", None),
        ]


def _allee(u0):
    return {"model": {"alpha": 0.8, "p": 1.5, "mu": 1.0, "k": 1.0, "gamma": 3.0 / 16.0},
            "domain": {"half_width": 4.0, "n": 16},
            "solver": {"dt": 0.01, "t_final": 100.0, "record_every": 100,
                       "snapshot_times": [float(t) for t in range(0, 101, 10)]},
            "kernel": {"shape": "box", "delta0": 0.5, "eta": 0.2},
            "initial": {"kind": "constant", "value": u0}}


WORKLOADS = {w.name: w for w in [
    # Tiny 1D steps: per-step overhead in run/step, the one-iteration PCG,
    # convolve_kernel and the output writes carry the time.
    AlleeMarch("allee-1d", [_allee(0.2), _allee(0.5)]),
    # The boundedness run extended to T = 50: the frozen-coefficient PCG
    # solve dominates (~15 matvecs per step) while the history stays short.
    BoundedMarch("bounded-2d", [
        {"model": {"alpha": 0.5, "p": 1.8, "mu": 1.0, "k": 12.0, "gamma": 0.1, "dim": 2},
         "domain": {"half_width": 4.0, "n": 64},
         "solver": {"dt": 0.05, "t_final": 50.0, "record_every": 10},
         "kernel": {"shape": "box", "delta0": 0.5, "eta": 0.2},
         "analysis": {"c_gn": 1.0, "c4": 1.0, "eta": 0.2, "delta0": 0.5,
                      "delta": 0.25, "c1": 1.0, "c2": 1.0},
         "initial": {"kind": "gaussian_bump", "center": [0.0, 0.0],
                     "width": 0.5, "height": 0.5}}]),
    # Constant coefficients make the FFT preconditioner exact (2 matvecs
    # per step), so the memory term over ~98 MB of history dominates.
    LinearMarch("linear-2d-long", [
        {"model": {"alpha": 0.5, "p": 2.0, "mu": 0.0, "k": 0.0, "gamma": 0.5, "dim": 2},
         "domain": {"half_width": 1.0, "n": 64},
         "solver": {"dt": 0.01, "t_final": 30.0, "record_every": 100},
         "initial": {"kind": "gaussian_bump", "center": [0.0, 0.0],
                     "width": 0.15, "height": 1.0}}]),
    # The Mittag-Leffler evaluator alone; the marches make no such call.
    MlfEnvelope("mlf-envelope"),
]}
