"""Verification harness for the qualitative claims: Allee-type
dichotomy classification, Mittag-Leffler decay envelopes, a priori
boundedness, and the windowed Lyapunov monitor for the extinction
branch.

Checks return verdict objects rather than raising on mathematical
failure; structured errors are reserved for inputs that violate the
hypotheses a quantity needs to be defined at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import HypothesisError
from .fractional import mittag_leffler
from .integrator import RunReport
from .model import EquilibriumRoots, Field, SupBound
from .operators import box_window_integral

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_UNDECIDED = "undecided"

_LYAPUNOV_SLACK = 1e-6
_ENVELOPE_SLACK = 1.05


# --------------------------------------------------------------------------
# Lyapunov functionals on the extinction branch
# --------------------------------------------------------------------------

def lyapunov_density(u, roots: EquilibriumRoots):
    """Pointwise density g(u) = A ln(1 - u/A) - a ln(1 - u/a) with
    a = roots.lower, A = roots.upper.

    Defined for u < a; increasing and nonnegative on [0, a) with
    g(u) ~ u^2 (A - a)/(2 a A) near zero.  Inputs with sup u >= a are
    rejected since the density blows up at the lower root.
    """
    u = np.asarray(u, dtype=np.float64)
    a, big_a = roots.lower, roots.upper
    if a <= 0:
        raise HypothesisError(f"lower root must be positive, got {a}")
    sup = float(np.max(u))
    if sup >= a:
        raise HypothesisError(
            f"density undefined: sup u = {sup:.6g} reaches the lower root a = {a:.6g}")
    return big_a * np.log(1.0 - u / big_a) - a * np.log(1.0 - u / a)


def lyapunov_potential(field: Field, roots: EquilibriumRoots, delta: float) -> Field:
    """Windowed potential H(x) = int_{||y-x||_inf <= delta} g(u(y)) dy."""
    dens = lyapunov_density(field.values, roots)
    return box_window_integral(Field(dens, field.domain), delta)


@dataclass
class LyapunovSeries:
    """max_x H sampled on the stored snapshots."""

    times: np.ndarray
    max_potential: np.ndarray
    verdict: str
    violating_time: Optional[float] = None


def lyapunov_monitor(report: RunReport, roots: EquilibriumRoots,
                     delta: float) -> LyapunovSeries:
    """Monitor max_x H(x, t) over a run's snapshots.

    H is the potential of window radius ``delta``; mu and k enter only
    through ``roots`` and the choice of ``delta`` (see
    ``admissible_window_radius``).  Passes when the max never exceeds
    its initial value beyond 1e-6 relative slack.  If any snapshot
    reaches the lower root the potential stops being defined there and
    the verdict is undecided, carrying the first violating time.
    """
    if not report.snapshots:
        raise HypothesisError("run stored no snapshots; set snapshot_times")
    times, hmax = [], []
    for t, snap in report.snapshots:
        sup = float(np.max(snap.values))
        if sup >= roots.lower:
            return LyapunovSeries(
                times=np.asarray(times), max_potential=np.asarray(hmax),
                verdict=VERDICT_UNDECIDED, violating_time=t)
        pot = lyapunov_potential(snap, roots, delta)
        times.append(t)
        hmax.append(float(np.max(pot.values)))
    hmax_arr = np.asarray(hmax)
    ok = bool(np.all(hmax_arr <= hmax_arr[0] * (1.0 + _LYAPUNOV_SLACK) + 1e-300))
    bad = None
    if not ok:
        bad = float(np.asarray(times)[hmax_arr > hmax_arr[0] * (1.0 + _LYAPUNOV_SLACK)][0])
    return LyapunovSeries(
        times=np.asarray(times), max_potential=hmax_arr,
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
        violating_time=bad)


def admissible_window_radius(roots: EquilibriumRoots, mu: float, k: float,
                             sup_bound: float, delta0: float) -> float:
    """Largest dyadic window radius delta0/2^j making the potential a
    monitor: the drift coefficient

        -(A-a)^2/(A^2 a) + (A-a) K^4 mu k (2 delta)^2 / (2 (A-K)^2 (a-K)^2)

    must be nonpositive for states bounded by K < a.  Starts at
    delta0/2 and halves until the sign condition holds.
    """
    a, big_a = roots.lower, roots.upper
    if not 0 <= sup_bound < a:
        raise HypothesisError(
            f"window radius needs a state bound below the lower root; got "
            f"K = {sup_bound} with a = {a:.6g}")
    neg = -(big_a - a) ** 2 / (big_a ** 2 * a)
    coef = (big_a - a) * sup_bound ** 4 * mu * k \
        / (2.0 * (big_a - sup_bound) ** 2 * (a - sup_bound) ** 2)
    delta = delta0 / 2.0
    for _ in range(200):
        if neg + coef * (2.0 * delta) ** 2 <= 0.0:
            return delta
        delta *= 0.5
    raise HypothesisError(
        "no admissible window radius found; the drift coefficient "
        f"{coef:.6g} dominates at every dyadic radius")


# --------------------------------------------------------------------------
# decay envelope
# --------------------------------------------------------------------------

def _reached_verdict(report: RunReport) -> bool:
    """Whether the run's history can be judged: it completed or blew up."""
    return report.status.kind in ("completed", "blowup")


@dataclass(frozen=True)
class EnvelopeResult:
    """Outcome of the Mittag-Leffler decay-envelope comparison."""

    status: str                 # pass | fail | undecided
    worst_ratio: float          # max over recorded times of sup / envelope
    exponential_holds: bool     # informational: the literal exp(-sigma^(1/alpha) t) bound


def decay_envelope_check(report: RunReport, sigma: float,
                         alpha: float) -> EnvelopeResult:
    """Check recorded sup-norms against ||u0|| E_alpha(-sigma t^alpha).

    The envelope is the comparison solution of the linearized decay;
    a 5% slack absorbs discretization error.  sigma <= 0 leaves the
    hypothesis unmet, hence undecided.  The literal exponential
    envelope exp(-sigma^(1/alpha) t) is evaluated as well but reported
    informationally only: the Mittag-Leffler decay is algebraic in the
    tail, so the exponential form cannot hold at late times.  A run that
    halted early (neither completed nor blown up) is undecided: its
    recorded history says nothing about the horizon.
    """
    if sigma <= 0 or not _reached_verdict(report):
        return EnvelopeResult(status=VERDICT_UNDECIDED, worst_ratio=math.nan,
                              exponential_holds=False)
    u0_sup = float(report.sup_series[0])
    if u0_sup == 0.0:
        return EnvelopeResult(status=VERDICT_PASS, worst_ratio=0.0,
                              exponential_holds=True)
    times = np.asarray(report.times, dtype=np.float64)
    sup = np.asarray(report.sup_series, dtype=np.float64)
    env = u0_sup * mittag_leffler(alpha, -sigma * times ** alpha)
    worst = float(np.max(sup / env))
    exp_ok = bool(np.all(sup <= u0_sup * np.exp(-sigma ** (1.0 / alpha) * times)
                         * _ENVELOPE_SLACK))
    status = VERDICT_PASS if worst <= _ENVELOPE_SLACK else VERDICT_FAIL
    return EnvelopeResult(status=status, worst_ratio=worst,
                          exponential_holds=exp_ok)


# --------------------------------------------------------------------------
# dichotomy classification and boundedness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AlleeVerdict:
    verdict: str                # extinction | persistence | blowup | undecided
    terminal_sup: float
    tol_extinction: float
    tol_persistence: float


def allee_classify(report: RunReport, roots: EquilibriumRoots,
                   tol_extinction: Optional[float] = None) -> AlleeVerdict:
    """Classify a run against the bistable dichotomy.

    Extinction when the terminal sup-norm falls below ``tol_extinction``
    (default 0.02 * lower root), persistence when it lands within
    0.05 * upper root of the upper root.  The extinction band is
    settable because the fractional dynamics relax only algebraically,
    so a finite horizon leaves a tail above zero that depends on alpha
    and T.  A blow-up status overrides everything; anything else
    outside both bands is undecided.
    """
    tol_ext = 0.02 * roots.lower if tol_extinction is None else tol_extinction
    tol_per = 0.05 * roots.upper
    terminal = float(report.sup_series[-1])
    if report.status.kind == "blowup":
        verdict = "blowup"
    elif report.status.kind != "completed":
        verdict = VERDICT_UNDECIDED
    elif terminal < tol_ext:
        verdict = "extinction"
    elif abs(terminal - roots.upper) <= tol_per:
        verdict = "persistence"
    else:
        verdict = VERDICT_UNDECIDED
    return AlleeVerdict(verdict=verdict, terminal_sup=terminal,
                        tol_extinction=tol_ext, tol_persistence=tol_per)


@dataclass(frozen=True)
class BoundednessResult:
    status: str                 # pass | fail | undecided
    ratio: float                # max recorded sup / bound


def boundedness_check(report: RunReport, bound: SupBound) -> BoundednessResult:
    """Compare the recorded sup-norm history against an a priori bound.

    A degenerate bound (failure marker) propagates as undecided rather
    than pass or fail, and so does a run that halted early (neither
    completed nor blown up).
    """
    if not bound.ok:
        return BoundednessResult(status=VERDICT_UNDECIDED, ratio=math.nan)
    peak = float(np.max(report.sup_series))
    ratio = peak / bound.value if bound.value > 0 else math.inf
    if not _reached_verdict(report):
        status = VERDICT_UNDECIDED
    else:
        status = VERDICT_PASS if peak <= bound.value else VERDICT_FAIL
    return BoundednessResult(status=status, ratio=ratio)
