"""Runnable verification suites.

Each ``verify_*`` function exercises one documented property of the
solver stack end to end and returns a list of named pass/fail checks.
The suites are what ``fracplap verify <name>`` runs and what the
acceptance tests assert on; expensive simulation runs are cached
module-wide so overlapping suites don't repeat them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

import numpy as np
from scipy.special import erfcx, gamma as _gamma

from .analysis import (VERDICT_PASS, allee_classify, admissible_window_radius,
                       boundedness_check, decay_envelope_check,
                       lyapunov_monitor)
from .fractional import caputo_series, mittag_leffler, power_inequality_check
from .integrator import SolverConfig, linear_spectral_reference, run
from .io import format_series
from .model import (AnalysisConstants, DomainSpec, Field, ModelParameters,
                    competition_threshold, decay_margin, equilibrium_roots,
                    sup_norm_bound)
from .operators import (convolve_kernel, diffusion_apply, discretize_kernel,
                        face_diffusivity, global_mass)

# Known value of the one-half-order Mittag-Leffler function at 1,
# e * erfc(-1) to 25 digits; used as the series oracle anchor.
ML_HALF_AT_ONE = 5.008980080762283466309825


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name=name, passed=bool(passed), detail=detail)


# --------------------------------------------------------------------------
# shared simulation runs (cached so allee/lyapunov/determinism reuse them)
# --------------------------------------------------------------------------

# Bistable benchmark: mu=1, k=1, gamma=3/16 puts the rest states at
# a=0.25 and A=0.75.  The grid is chosen so the analysis window
# delta = h/2 makes the trapezoid window integral exact.
_ALLEE_DOMAIN = DomainSpec(half_width=4.0, n=16)
_ALLEE_KERNEL_RADIUS = 0.5
_ALLEE_ETA = 0.2

# The half-order extinction branch still carries a fat algebraic tail at
# T=200 (terminal value 0.061, far above the 2% default band), so the
# verdict for alpha=0.5 uses this explicit extinction band instead.
ALLEE_EXTINCTION_TOL = 0.08


def _allee_params(alpha: float) -> ModelParameters:
    return ModelParameters(alpha=alpha, p=1.5, mu=1.0, k=1.0, gamma=3.0 / 16.0)


@lru_cache(maxsize=None)
def _allee_kernel():
    return discretize_kernel("box", _ALLEE_KERNEL_RADIUS, _ALLEE_ETA, _ALLEE_DOMAIN)


def _allee_config() -> SolverConfig:
    return SolverConfig(dt=0.01, t_final=200.0, record_every=100,
                        snapshot_times=tuple(float(t) for t in range(0, 201, 10)))


@lru_cache(maxsize=None)
def _allee_run(alpha: float, u0_value: float):
    return run(Field.constant(_ALLEE_DOMAIN, u0_value), _allee_params(alpha),
               _allee_config(), kernel=_allee_kernel())


# --------------------------------------------------------------------------
# caputo suite
# --------------------------------------------------------------------------

def verify_caputo_convergence() -> List[Check]:
    """L1 derivative: exact on affine data, order 2 - alpha on t^2."""
    checks = []
    for alpha in (0.3, 0.5, 0.8):
        dt = 0.01
        t = dt * np.arange(101)
        deriv = caputo_series(t, alpha, dt)
        exact = t[1:] ** (1.0 - alpha) / _gamma(2.0 - alpha)
        rel = float(np.max(np.abs(deriv - exact) / np.abs(exact)))
        checks.append(_check(
            f"affine-exactness-alpha-{alpha}", rel <= 1e-12,
            f"max relative error {rel:.3e} on u(t)=t (tolerance 1e-12)"))

    for alpha in (0.3, 0.5, 0.8):
        dts = [1.0 / 40, 1.0 / 80, 1.0 / 160, 1.0 / 320]
        errs = []
        for dt in dts:
            n = int(round(1.0 / dt))
            t = dt * np.arange(n + 1)
            deriv = caputo_series(t ** 2, alpha, dt)[-1]
            errs.append(abs(deriv - 2.0 / _gamma(3.0 - alpha)))
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        target = 2.0 - alpha
        checks.append(_check(
            f"quadratic-order-alpha-{alpha}", abs(order - target) <= 0.15,
            f"fitted order {order:.3f} at t=1 (target {target:.2f} +/- 0.15)"))
    return checks


# --------------------------------------------------------------------------
# mlf suite
# --------------------------------------------------------------------------

def verify_mittag_leffler_accuracy() -> List[Check]:
    checks = []
    zs = np.arange(-20.0, 5.0 + 1e-9, 0.05)
    worst = 0.0
    for z in zs:
        worst = max(worst, abs(mittag_leffler(1.0, float(z)) - math.exp(float(z))))
    checks.append(_check(
        "exponential-match", worst <= 1e-12,
        f"max |E_1(z) - exp(z)| = {worst:.3e} on z in [-20, 5] (tolerance 1e-12)"))

    val = mittag_leffler(0.5, 1.0)
    err = abs(val - ML_HALF_AT_ONE)
    checks.append(_check(
        "half-order-at-one", err <= 1e-9,
        f"E_0.5(1) = {val:.15f}, error {err:.3e} vs series oracle (tolerance 1e-9)"))

    bad = [a for a in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0)
           if mittag_leffler(a, 0.0) != 1.0]
    checks.append(_check(
        "unit-at-zero", not bad,
        "E_alpha(0) == 1 exactly for all sampled alpha" if not bad
        else f"E_alpha(0) != 1 for alpha in {bad}"))

    # away from the shortcuts: 200 points of the decay range [-50, 0)
    zs = np.linspace(-50.0, 0.0, 200, endpoint=False)
    err = float(np.max(np.abs(mittag_leffler(0.5, zs) - erfcx(-zs))))
    checks.append(_check(
        "half-order-erfcx", err <= 1e-12,
        f"max |E_0.5(z) - erfcx(-z)| = {err:.3e} on z in [-50, 0) (tolerance 1e-12)"))
    for alpha in (0.3, 0.8):
        shifted = zs * mittag_leffler(alpha, zs, beta=1.0 + alpha)
        rel = float(np.max(np.abs(mittag_leffler(alpha, zs) - shifted - 1.0)
                           / np.maximum(1.0, np.abs(shifted))))
        checks.append(_check(
            f"beta-recurrence-alpha-{alpha}", rel <= 1e-11,
            f"max |E_a,1(z) - z E_a,1+a(z) - 1| = {rel:.3e} relative on z in "
            "[-50, 0) (tolerance 1e-11)"))
    return checks


# --------------------------------------------------------------------------
# linear-oracle suite
# --------------------------------------------------------------------------

def _linear_oracle_error(dt: float) -> float:
    domain = DomainSpec(half_width=1.0, n=64)
    x = domain.axis_coords()
    u0 = Field(np.exp(-x ** 2 / (2 * 0.15 ** 2)), domain)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.5)
    config = SolverConfig(dt=dt, t_final=1.0, record_every=10 ** 9)
    report = run(u0, params, config)
    ref = linear_spectral_reference(u0, params, [1.0])[0]
    return float(np.max(np.abs(report.final.values - ref.values)))


def verify_linear_oracle() -> List[Check]:
    """Full march against the exact-in-time spectral solution at p=2, mu=0."""
    t0 = time.perf_counter()
    err_fine = _linear_oracle_error(1e-3)
    elapsed = time.perf_counter() - t0
    err_coarse = _linear_oracle_error(2e-3)
    order = math.log2(err_coarse / err_fine)
    return [
        _check("sup-error", err_fine <= 1e-3,
               f"sup-norm error {err_fine:.3e} at T=1, dt=1e-3 (tolerance 1e-3)"),
        _check("temporal-order", order >= 1.3,
               f"error ratio under dt halving gives order {order:.2f} (need >= 1.3)"),
        _check("runtime", elapsed < 60.0,
               f"dt=1e-3 run took {elapsed:.1f} s (limit 60 s)"),
    ]


# --------------------------------------------------------------------------
# allee suite (dichotomy, decay envelope, Lyapunov monitor, determinism)
# --------------------------------------------------------------------------

def verify_allee_dichotomy() -> List[Check]:
    roots = equilibrium_roots(1.0, 1.0, 3.0 / 16.0)
    checks = []
    for alpha in (0.5, 0.8):
        ext = allee_classify(_allee_run(alpha, 0.20), roots,
                             tol_extinction=ALLEE_EXTINCTION_TOL)
        checks.append(_check(
            f"extinction-alpha-{alpha}", ext.verdict == "extinction",
            f"u0=0.20 -> verdict '{ext.verdict}', terminal sup "
            f"{ext.terminal_sup:.4f} (band {ext.tol_extinction:.3f})"))
        per = allee_classify(_allee_run(alpha, 0.50), roots)
        checks.append(_check(
            f"persistence-alpha-{alpha}", per.verdict == "persistence",
            f"u0=0.50 -> verdict '{per.verdict}', terminal sup "
            f"{per.terminal_sup:.4f} vs carrying level {roots.upper} "
            f"(band {per.tol_persistence:.4f})"))
    return checks


def verify_decay_envelope() -> List[Check]:
    params = ModelParameters(alpha=0.5, p=1.5, mu=0.01, k=1.0, gamma=1.0)
    u0 = Field.constant(_ALLEE_DOMAIN, 0.5)
    sigma = decay_margin(params.gamma, params.mu, u0.sup_norm())
    config = SolverConfig(dt=0.01, t_final=20.0, record_every=20)
    report = run(u0, params, config, kernel=_allee_kernel())
    res = decay_envelope_check(report, sigma, params.alpha)
    return [_check(
        "mittag-leffler-envelope", res.status == VERDICT_PASS,
        f"sigma = {sigma}, worst sup-norm/envelope ratio {res.worst_ratio:.4f} "
        f"(slack 1.05); pure-exponential envelope "
        f"{'also holds' if res.exponential_holds else 'fails, as expected'}")]


def verify_lyapunov_monotonicity() -> List[Check]:
    roots = equilibrium_roots(1.0, 1.0, 3.0 / 16.0)
    report = _allee_run(0.5, 0.20)
    sup_peak = float(np.max(report.sup_series))
    delta = admissible_window_radius(roots, mu=1.0, k=1.0, sup_bound=sup_peak,
                                     delta0=_ALLEE_KERNEL_RADIUS)
    series = lyapunov_monitor(report, roots, delta=delta)
    peak = max(series.max_potential)
    first = series.max_potential[0]
    return [_check(
        "potential-non-increasing", series.verdict == VERDICT_PASS,
        f"window radius {delta}, max potential starts at {first:.6e}, "
        f"never exceeds {peak:.6e} over {len(series.times)} snapshots "
        f"(verdict '{series.verdict}')")]


def verify_determinism() -> List[Check]:
    first = _allee_run(0.5, 0.20)
    second = _allee_run.__wrapped__(0.5, 0.20)      # uncached: a second run
    csv_a = format_series(first)
    csv_b = format_series(second)
    same_csv = csv_a == csv_b
    same_final = np.array_equal(first.final.values, second.final.values)
    return [_check(
        "repeat-run-bit-identical", same_csv and same_final,
        f"CSV bytes {'identical' if same_csv else 'DIFFER'} "
        f"({len(csv_a)} chars), final state "
        f"{'bit-identical' if same_final else 'DIFFERS'}")]


# --------------------------------------------------------------------------
# boundedness suite
# --------------------------------------------------------------------------

def verify_boundedness_contrast() -> List[Check]:
    checks = []

    # strong-competition 2D run stays under the a priori sup bound
    domain = DomainSpec(half_width=4.0, n=64)
    consts = AnalysisConstants(c_gn=1.0, c4=1.0, eta=0.2, delta0=0.5,
                               delta=0.25, c2=1.0)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=12.0, gamma=0.1, dim=2)
    k_star = competition_threshold(2, params.mu, consts)
    kernel = discretize_kernel("box", consts.delta0, consts.eta, domain, dim=2)
    x = domain.axis_coords()
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    u0 = Field(0.5 * np.exp(-r2 / (2 * 0.5 ** 2)), domain)
    config = SolverConfig(dt=0.05, t_final=10.0, record_every=10)
    report = run(u0, params, config, kernel=kernel)
    bound = sup_norm_bound(params, consts, u0.sup_norm(), config.t_final)
    res = boundedness_check(report, bound)
    checks.append(_check(
        "bounded-above-threshold",
        params.k > k_star and report.status.completed and res.status == VERDICT_PASS,
        f"k = {params.k} > k_star = {k_star}; run status '{report.status.kind}', "
        f"peak sup {float(np.max(report.sup_series)):.4f} vs bound "
        f"{bound.value:.4f} (ratio {res.ratio:.3f})"))

    # no competition, no death: homogeneous data ride the scalar ODE to blow-up
    blow_domain = DomainSpec(half_width=1.0, n=8)
    blow_params = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=0.0, gamma=0.0)
    dt = 1e-3
    blow_config = SolverConfig(dt=dt, t_final=5.0, record_every=100,
                               blowup_threshold=1e8)
    blow_report = run(Field.constant(blow_domain, 2.0), blow_params, blow_config)
    t_grid = blow_report.status.time
    # same dt as the grid run: mesh blow-up times of the fractional
    # Riccati converge only slowly in dt, so an equal-resolution oracle
    # is the sharp comparison; the code paths stay fully independent
    t_oracle = _scalar_blowup_time(alpha=0.5, mu=1.0, u0=2.0, dt=dt,
                                   t_max=5.0, threshold=1e8)
    detected = blow_report.status.kind == "blowup" and t_grid is not None
    agree = (detected and t_oracle is not None
             and abs(t_grid - t_oracle) <= 0.10 * t_oracle)
    checks.append(_check(
        "blowup-vs-scalar-oracle", detected and agree,
        f"grid blow-up at t = {t_grid}, scalar oracle at t = {t_oracle} "
        f"(must agree within 10%)"))
    return checks


def _scalar_blowup_time(alpha: float, mu: float, u0: float, dt: float,
                        t_max: float, threshold: float):
    """Blow-up time of D^alpha u = mu u^2 with the reaction taken explicitly.

    Written against the weight recursion directly (no solver machinery)
    so it is an independent cross-check of the grid march.
    """
    n_steps = int(round(t_max / dt))
    j = np.arange(n_steps + 1, dtype=np.float64)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    scale = dt ** (-alpha) / _gamma(2.0 - alpha)
    u = np.empty(n_steps + 1)
    u[0] = u0
    diffs = np.empty(n_steps)
    for n in range(1, n_steps + 1):
        hist = 0.0
        if n > 1:
            hist = float(np.dot(b[1:n], diffs[n - 2::-1]))
        un = u[n - 1] + mu * u[n - 1] ** 2 / scale - hist
        u[n] = un
        if not math.isfinite(un) or abs(un) > threshold:
            return n * dt
        diffs[n - 1] = un - u[n - 1]
    return None


# --------------------------------------------------------------------------
# theorem3 suite: degenerate diffusion with global-mass saturation
# --------------------------------------------------------------------------

def verify_degenerate_diffusion_runs() -> List[Check]:
    checks = []
    cases = [(2, 2.5, DomainSpec(half_width=1.0, n=64), 0.025),
             (1, 1.5, DomainSpec(half_width=1.0, n=64), 0.02),
             (1, 3.0, DomainSpec(half_width=1.0, n=64), 0.02)]
    for dim, m, domain, dt in cases:
        params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=1.0, gamma=1.0,
                                 m=m, dim=dim, coupling_mode="global_mass")
        rng = np.random.default_rng(7)
        u0 = Field(rng.uniform(0.0, 1.0, size=domain.shape(dim)), domain)
        config = SolverConfig(dt=dt, t_final=50.0, record_every=50)
        report = run(u0, params, config)
        peak = float(np.max(report.sup_series))
        ok = report.status.completed and math.isfinite(peak)
        checks.append(_check(
            f"global-mass-dim-{dim}-m-{m}", ok,
            f"status '{report.status.kind}' after {report.steps} steps, "
            f"max sup-norm {peak:.4f}, final mass "
            f"{global_mass(report.final):.4f}"))
    return checks


# --------------------------------------------------------------------------
# inequalities suite
# --------------------------------------------------------------------------

def verify_discrete_inequalities() -> List[Check]:
    rng = np.random.default_rng(20260817)
    n_trials = 1000
    dt = 0.05
    alphas = (0.3, 0.5, 0.8)
    ali_fail = pow_fail = 0
    worst_ali = math.inf
    worst_pow = math.inf
    for _ in range(n_trials):
        v = np.cumsum(rng.normal(0.0, 0.3, size=40))
        u = rng.uniform(0.0, 2.0, size=40)
        for alpha in alphas:
            rep = power_inequality_check(v, 2, alpha, dt)
            worst_ali = min(worst_ali, rep.worst)
            ali_fail += not rep.passed
            for m in (2, 3):
                rep = power_inequality_check(u, m, alpha, dt)
                worst_pow = min(worst_pow, rep.worst)
                pow_fail += not rep.passed
    total = n_trials * len(alphas)
    return [
        _check("chain-rule-surrogate", ali_fail == 0,
               f"{total - ali_fail}/{total} random walks satisfy "
               f"v D^a v >= (1/2) D^a v^2 (worst margin {worst_ali:.3e})"),
        _check("power-inequality", pow_fail == 0,
               f"{2 * total - pow_fail}/{2 * total} nonnegative sequences satisfy "
               f"u^(n-1) D^a u >= (1/n) D^a u^n for n=2,3 "
               f"(worst margin {worst_pow:.3e})"),
    ]


# --------------------------------------------------------------------------
# operators suite
# --------------------------------------------------------------------------

def verify_operator_identities() -> List[Check]:
    checks = []
    rng = np.random.default_rng(90125)

    worst_rel = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            domain = DomainSpec(half_width=1.0, n=64)
            vals = rng.normal(0.0, 1.0, size=(64,))
        else:
            domain = DomainSpec(half_width=2.0, n=24)
            vals = rng.normal(0.0, 1.0, size=(24, 24))
        p = float(rng.uniform(1.05, 2.0))
        m = 2.5 if trial % 4 >= 2 else 1.0      # both dims at both exponents
        out = diffusion_apply(face_diffusivity(vals, domain, p, 1e-6, m=m), vals, domain)
        denom = max(float(np.sum(np.abs(out))), 1e-30)
        worst_rel = max(worst_rel, abs(float(np.sum(out))) / denom)
    checks.append(_check(
        "flux-conservation", worst_rel <= 1e-12,
        f"worst relative grid-sum {worst_rel:.3e} over 100 random fields, "
        f"m = 1 and 2.5 (tolerance 1e-12)"))

    domain = DomainSpec(half_width=1.0, n=64)
    vals = rng.normal(0.0, 1.0, size=(64,))
    linear = diffusion_apply(face_diffusivity(vals, domain, 2.0, 1e-6), vals, domain)
    ones = (np.ones(64),)
    ref_flux = diffusion_apply(ones, vals, domain)
    h = domain.h
    stencil = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / h ** 2
    exact = np.array_equal(linear, ref_flux)
    close = float(np.max(np.abs(linear - stencil))) <= 1e-10 * max(
        1.0, float(np.max(np.abs(stencil))))
    checks.append(_check(
        "linear-reduction", exact and close,
        f"p=2 flux form is bitwise the unit-coefficient flux ({exact}) and "
        f"matches the centered second-difference stencil ({close})"))

    rel = 0.0
    for dim, n in ((1, 64), (2, 24)):
        domain = DomainSpec(half_width=2.0, n=n)
        kernel = discretize_kernel("triangle", 0.3, 1e-3, domain, dim=dim)
        u = rng.normal(0.0, 1.0, size=domain.shape(dim))
        fast = convolve_kernel(Field(u, domain), kernel).values
        direct = np.empty_like(u)
        for point in np.ndindex(u.shape):
            rows = [(n // 2 + i - np.arange(n)) % n for i in point]
            direct[point] = float(np.sum(kernel.values[np.ix_(*rows)] * u)) * domain.h ** dim
        scale = max(1.0, float(np.max(np.abs(direct))))
        rel = max(rel, float(np.max(np.abs(fast - direct))) / scale)
    checks.append(_check(
        "fft-convolution", rel <= 1e-10,
        f"dense circulant (1D, n=64) and eigenbasis (2D, n=24) convolutions "
        f"vs direct sums differ by {rel:.3e} relative (tolerance 1e-10)"))
    return checks


# --------------------------------------------------------------------------
# suite registry
# --------------------------------------------------------------------------

def _allee_suite() -> List[Check]:
    out = []
    out.extend(verify_allee_dichotomy())
    out.extend(verify_decay_envelope())
    out.extend(verify_lyapunov_monotonicity())
    out.extend(verify_determinism())
    return out


SUITES: Dict[str, Callable[[], List[Check]]] = {
    "caputo": verify_caputo_convergence,
    "mlf": verify_mittag_leffler_accuracy,
    "operators": verify_operator_identities,
    "linear-oracle": verify_linear_oracle,
    "allee": _allee_suite,
    "boundedness": verify_boundedness_contrast,
    "inequalities": verify_discrete_inequalities,
    "theorem3": verify_degenerate_diffusion_runs,
}


def run_suite(name: str) -> List[Check]:
    """Run one suite; the runs it shared are dropped when it returns."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    try:
        return SUITES[name]()
    finally:
        _allee_kernel.cache_clear()
        _allee_run.cache_clear()
