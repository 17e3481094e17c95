"""Verification harness for the qualitative claims: Allee-type
dichotomy classification, Mittag-Leffler decay envelopes, a priori
boundedness, and the windowed Lyapunov monitor for the extinction
branch.

Checks return a ``Verdict`` rather than raising on mathematical
failure; structured errors are reserved for inputs that violate the
hypotheses a quantity needs to be defined at all.  ``allee_classify``
alone returns its own ``AlleeVerdict``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check that passes when ``quantity <= limit``."""

    status: str                 # pass | fail | undecided
    quantity: float
    limit: float
    detail: str = ""

    @property
    def ratio(self) -> float:
        """quantity / limit; zero data under a zero bound read 0."""
        if self.limit == 0.0:
            return 0.0 if self.quantity == 0.0 else math.inf
        return self.quantity / self.limit


def _judge(report: RunReport, quantity: float, limit: float,
           detail: str = "") -> Verdict:
    """Pass when quantity <= limit; undecided when the run halted early
    or either side is NaN (a hypothesis the comparison needs is unmet)."""
    if report.status.halted or math.isnan(quantity) or math.isnan(limit):
        status = VERDICT_UNDECIDED
    else:
        status = VERDICT_PASS if quantity <= limit else VERDICT_FAIL
    return Verdict(status, quantity, limit, detail)


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


def lyapunov_monitor(report: RunReport, roots: EquilibriumRoots,
                     delta: float) -> Verdict:
    """Monitor max_x H(x, t) over a run's snapshots.

    H is the potential of window radius ``delta``; mu and k enter only
    through ``roots`` and the choice of ``delta`` (see
    ``admissible_window_radius``).  The quantity is the peak of max H,
    the limit its initial value plus 1e-6 relative slack.  If any
    snapshot reaches the lower root the potential stops being defined
    there and the verdict is undecided; the detail names that time, or
    the first time max H rose above the limit.
    """
    if not report.snapshots:
        raise HypothesisError("run stored no snapshots; set snapshot_times")
    hmax = []
    for t, snap in report.snapshots:
        sup = float(np.max(snap.values))
        if sup >= roots.lower:
            return _judge(report, math.nan, math.nan,
                          f"snapshot at t = {t} reaches the lower root a = {roots.lower:.6g}")
        hmax.append(float(np.max(lyapunov_potential(snap, roots, delta).values)))
    limit = hmax[0] * (1.0 + _LYAPUNOV_SLACK) + 1e-300
    above = [t for (t, _), h in zip(report.snapshots, hmax) if h > limit]
    detail = (f"max potential starts at {hmax[0]:.6e}, peaks at {max(hmax):.6e} "
              f"over {len(hmax)} snapshots")
    if above:
        detail += f", first above the start at t = {above[0]}"
    return _judge(report, max(hmax), limit, detail)


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

def decay_envelope_check(report: RunReport, sigma: float,
                         alpha: float) -> Verdict:
    """Check recorded sup-norms against ||u0|| E_alpha(-sigma t^alpha).

    The envelope is the comparison solution of the linearized decay;
    the quantity is the worst sup / envelope ratio over recorded times
    and the limit a 5% slack for discretization error.  sigma <= 0
    leaves the hypothesis unmet, hence undecided.  The literal
    exponential envelope exp(-sigma^(1/alpha) t) is evaluated as well
    but reported in the detail only: the Mittag-Leffler decay is
    algebraic in the tail, so the exponential form cannot hold at late
    times.
    """
    if sigma <= 0:
        return _judge(report, math.nan, _ENVELOPE_SLACK, f"sigma = {sigma} is not positive")
    u0_sup = float(report.sup_series[0])
    if u0_sup == 0.0:
        return _judge(report, 0.0, _ENVELOPE_SLACK, "zero data")
    times = np.asarray(report.times, dtype=np.float64)
    sup = np.asarray(report.sup_series, dtype=np.float64)
    env = u0_sup * mittag_leffler(alpha, -sigma * times ** alpha)
    exp_ok = bool(np.all(sup <= u0_sup * np.exp(-sigma ** (1.0 / alpha) * times)
                         * _ENVELOPE_SLACK))
    return _judge(report, float(np.max(sup / env)), _ENVELOPE_SLACK,
                  "pure-exponential envelope "
                  + ("also holds" if exp_ok else "fails, as expected"))


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
    elif report.status.halted:
        verdict = VERDICT_UNDECIDED
    elif terminal < tol_ext:
        verdict = "extinction"
    elif abs(terminal - roots.upper) <= tol_per:
        verdict = "persistence"
    else:
        verdict = VERDICT_UNDECIDED
    return AlleeVerdict(verdict=verdict, terminal_sup=terminal,
                        tol_extinction=tol_ext, tol_persistence=tol_per)


def boundedness_check(report: RunReport, bound: SupBound) -> Verdict:
    """Compare the recorded peak sup-norm against an a priori bound.

    A degenerate bound (failure marker) has no limit, so the verdict is
    undecided with the marker as its detail.
    """
    return _judge(report, float(np.max(report.sup_series)),
                  bound.value if bound.ok else math.nan, bound.failure or "")
