import math

import numpy as np
import pytest

from fracplap.analysis import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_UNDECIDED,
    admissible_window_radius,
    allee_classify,
    boundedness_check,
    decay_envelope_check,
    lyapunov_density,
    lyapunov_monitor,
    lyapunov_potential,
)
from fracplap.errors import HypothesisError
from fracplap.integrator import RunReport, RunStatus, SolverConfig, run
from fracplap.model import (
    AnalysisConstants,
    DomainSpec,
    EquilibriumRoots,
    Field,
    ModelParameters,
    SupBound,
    equilibrium_roots,
    sup_norm_bound,
)
from fracplap.operators import discretize_kernel

ROOTS = EquilibriumRoots(lower=0.25, upper=0.75)


def fake_report(sup_values, status_kind="completed", status_time=None,
                snapshots=(), domain=None):
    """Assemble a RunReport by hand from a sup-norm history."""
    sup = np.asarray(sup_values, dtype=np.float64)
    times = np.arange(len(sup), dtype=np.float64)
    d = domain or DomainSpec(half_width=2.0, n=16)
    final = Field.constant(d, float(sup[-1]) if len(sup) else 0.0)
    return RunReport(
        status=RunStatus(status_kind, time=status_time),
        times=times, sup_series=sup, l2_series=sup.copy(),
        l1_series=sup.copy(), min_series=np.zeros_like(sup),
        final=final, steps=len(sup),
        snapshots=list(snapshots))


# ---------------------------------------------------------------------------
# Lyapunov machinery
# ---------------------------------------------------------------------------

def test_density_vanishes_at_zero_and_grows():
    u = np.linspace(0.0, 0.9 * ROOTS.lower, 40)
    g = lyapunov_density(u, ROOTS)
    assert g[0] == 0.0
    assert np.all(g >= 0.0)
    assert np.all(np.diff(g) > 0)


def test_density_quadratic_near_zero():
    a, big_a = ROOTS.lower, ROOTS.upper
    u = 1e-4
    g = lyapunov_density(np.array([u]), ROOTS)[0]
    assert math.isclose(g / u ** 2, (big_a - a) / (2.0 * a * big_a),
                        rel_tol=1e-3)


def test_density_derivative_identity():
    # g'(u) = (A - a) u / ((A - u)(a - u)) on [0, 0.9 a]
    a, big_a = ROOTS.lower, ROOTS.upper
    h = 1e-7
    for u in np.linspace(0.01 * a, 0.9 * a, 25):
        fd = (lyapunov_density(np.array([u + h]), ROOTS)[0]
              - lyapunov_density(np.array([u - h]), ROOTS)[0]) / (2.0 * h)
        exact = (big_a - a) * u / ((big_a - u) * (a - u))
        assert math.isclose(fd, exact, rel_tol=1e-6)


def test_density_guards():
    with pytest.raises(HypothesisError):
        lyapunov_density(np.array([0.25]), ROOTS)
    with pytest.raises(HypothesisError):
        lyapunov_density(np.array([0.1]), EquilibriumRoots(lower=0.0, upper=1.0))


def test_potential_of_constant_state():
    d = DomainSpec(half_width=2.0, n=32)
    delta = 0.5
    c = 0.1
    pot = lyapunov_potential(Field.constant(d, c), ROOTS, delta)
    expect = 2.0 * delta * lyapunov_density(np.array([c]), ROOTS)[0]
    assert np.allclose(pot.values, expect, rtol=1e-12)


def test_monitor_passes_on_relaxing_run():
    domain = DomainSpec(half_width=4.0, n=32)
    kern = discretize_kernel("box", 0.5, 0.2, domain)
    params = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=1.0, gamma=3.0 / 16.0)
    roots = equilibrium_roots(params.mu, params.k, params.gamma)
    cfg = SolverConfig(dt=0.01, t_final=2.0, record_every=50,
                       snapshot_times=tuple(np.linspace(0.0, 2.0, 9)))
    report = run(Field.constant(domain, 0.1), params, cfg, kernel=kern)
    res = lyapunov_monitor(report, roots, delta=0.25)
    assert res.status == VERDICT_PASS
    assert res.quantity <= res.limit
    assert res.detail.endswith("over 9 snapshots")


def test_monitor_flags_growth():
    d = DomainSpec(half_width=2.0, n=16)
    snaps = [(0.0, Field.constant(d, 0.05)), (1.0, Field.constant(d, 0.10))]
    rep = fake_report([0.05, 0.10], snapshots=snaps, domain=d)
    res = lyapunov_monitor(rep, ROOTS, delta=0.5)
    assert res.status == VERDICT_FAIL
    assert res.quantity > res.limit
    assert res.detail.endswith("first above the start at t = 1.0")


def test_monitor_undecided_past_lower_root():
    d = DomainSpec(half_width=2.0, n=16)
    snaps = [(0.0, Field.constant(d, 0.05)), (1.0, Field.constant(d, 0.30))]
    rep = fake_report([0.05, 0.30], snapshots=snaps, domain=d)
    res = lyapunov_monitor(rep, ROOTS, delta=0.5)
    assert res.status == VERDICT_UNDECIDED
    assert res.detail.startswith("snapshot at t = 1.0 reaches the lower root")


def test_monitor_needs_snapshots():
    rep = fake_report([0.05, 0.04])
    with pytest.raises(HypothesisError):
        lyapunov_monitor(rep, ROOTS, delta=0.5)


def test_window_radius_dyadic_search():
    r = admissible_window_radius(ROOTS, 1.0, 1.0, 0.01, 0.5)
    assert r == 0.25          # negligible state bound: first candidate works

    tight = admissible_window_radius(ROOTS, 1.0, 1.0, 0.24, 0.5)
    assert tight < 0.25
    # returned radius is dyadic and satisfies the sign condition
    a, big_a = ROOTS.lower, ROOTS.upper
    neg = -(big_a - a) ** 2 / (big_a ** 2 * a)
    coef = (big_a - a) * 0.24 ** 4 / (2.0 * (big_a - 0.24) ** 2 * (a - 0.24) ** 2)
    assert neg + coef * (2.0 * tight) ** 2 <= 0.0
    assert neg + coef * (4.0 * tight) ** 2 > 0.0
    assert math.log2(0.25 / tight) == int(math.log2(0.25 / tight))


def test_window_radius_guards():
    with pytest.raises(HypothesisError):
        admissible_window_radius(ROOTS, 1.0, 1.0, 0.25, 0.5)
    with pytest.raises(HypothesisError):
        admissible_window_radius(ROOTS, 1.0, 1.0, -0.1, 0.5)


# ---------------------------------------------------------------------------
# decay envelope
# ---------------------------------------------------------------------------

def test_envelope_zero_data_passes():
    rep = fake_report([0.0, 0.0, 0.0])
    res = decay_envelope_check(rep, 1.0, 0.5)
    assert res.status == VERDICT_PASS
    assert res.quantity == 0.0


def test_envelope_nonpositive_sigma_is_undecided():
    rep = fake_report([1.0, 0.5])
    res = decay_envelope_check(rep, 0.0, 0.5)
    assert res.status == VERDICT_UNDECIDED
    assert math.isnan(res.quantity)


def test_envelope_flat_series_fails():
    rep = fake_report([1.0, 1.0, 1.0])
    res = decay_envelope_check(rep, 1.0, 0.5)
    assert res.status == VERDICT_FAIL
    assert res.quantity > res.limit == 1.05
    assert res.detail == "pure-exponential envelope fails, as expected"


@pytest.mark.parametrize("kind", ["solver_failed", "nonfinite"])
def test_envelope_halted_run_is_undecided(kind):
    """A run that halted early is undecided under all four classifiers,
    the envelope check among them, whatever its history shows."""
    d = DomainSpec(half_width=2.0, n=16)
    snaps = [(0.0, Field.constant(d, 0.2)), (1.0, Field.constant(d, 1e-6))]
    rep = fake_report([0.2, 1e-6], status_kind=kind, status_time=1.0,
                      snapshots=snaps, domain=d)
    statuses = {
        "envelope": decay_envelope_check(rep, 1.0, 0.5).status,
        "boundedness": boundedness_check(rep, SupBound(value=1.0)).status,
        "lyapunov": lyapunov_monitor(rep, ROOTS, delta=0.5).status,
        "allee": allee_classify(rep, ROOTS).verdict,
    }
    assert statuses == dict.fromkeys(statuses, VERDICT_UNDECIDED)


def test_envelope_tracks_linear_relaxation_run():
    domain = DomainSpec(half_width=1.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=1.0)
    cfg = SolverConfig(dt=0.01, t_final=5.0, record_every=20)
    report = run(Field.constant(domain, 0.5), params, cfg)
    res = decay_envelope_check(report, 1.0, 0.5)
    assert res.status == VERDICT_PASS
    assert res.quantity <= 1.05
    # the pure-exponential envelope is too strong for fractional decay
    assert res.detail == "pure-exponential envelope fails, as expected"


# ---------------------------------------------------------------------------
# dichotomy classification and boundedness
# ---------------------------------------------------------------------------

def test_classify_extinction():
    v = allee_classify(fake_report([0.2, 0.05, 1e-6]), ROOTS)
    assert v.verdict == "extinction"
    assert v.terminal_sup == 1e-6
    assert v.tol_extinction == 0.02 * ROOTS.lower


def test_classify_persistence():
    v = allee_classify(fake_report([0.5, 0.7, 0.74]), ROOTS)
    assert v.verdict == "persistence"
    assert v.tol_persistence == 0.05 * ROOTS.upper


def test_classify_undecided_between_bands():
    v = allee_classify(fake_report([0.5, 0.5, 0.5]), ROOTS)
    assert v.verdict == VERDICT_UNDECIDED


def test_classify_blowup_overrides():
    rep = fake_report([2.0, 1e9], status_kind="blowup", status_time=1.0)
    assert allee_classify(rep, ROOTS).verdict == "blowup"


def test_classify_incomplete_run_is_undecided():
    rep = fake_report([0.2, 1e-6], status_kind="nonfinite", status_time=1.0)
    assert allee_classify(rep, ROOTS).verdict == VERDICT_UNDECIDED


def test_classify_custom_bands():
    v = allee_classify(fake_report([0.5, 0.4]), ROOTS, tol_extinction=0.45)
    assert v.verdict == "extinction"
    assert v.tol_extinction == 0.45


def test_boundedness_verdicts():
    ok = boundedness_check(fake_report([0.5, 0.75]), SupBound(value=1.0))
    assert ok.status == VERDICT_PASS
    assert math.isclose(ok.ratio, 0.75, rel_tol=1e-14)

    bad = boundedness_check(fake_report([0.5, 1.5]), SupBound(value=1.0))
    assert bad.status == VERDICT_FAIL
    assert bad.ratio > 1.0


def test_boundedness_degenerate_bound_is_undecided():
    res = boundedness_check(fake_report([0.5]),
                            SupBound(value=None, failure="bracket collapsed"))
    assert res.status == VERDICT_UNDECIDED
    assert math.isnan(res.ratio)
    assert res.detail == "bracket collapsed"


def test_boundedness_zero_data_passes_with_finite_ratio():
    # zero data give a zero bound; 0 <= 0 passes, and 0/0 must not read inf
    bound = sup_norm_bound(ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=12.0,
                                           gamma=0.1, dim=2),
                           AnalysisConstants(), 0.0, 10.0)
    res = boundedness_check(fake_report([0.0, 0.0]), bound)
    assert bound.value == 0.0
    assert res.status == VERDICT_PASS
    assert 0.0 <= res.ratio <= 1.0


@pytest.mark.parametrize("kind", ["solver_failed", "nonfinite"])
def test_boundedness_halted_run_is_undecided(kind):
    rep = fake_report([0.5, 0.6], status_kind=kind, status_time=1.0)
    res = boundedness_check(rep, SupBound(value=1.0))
    assert res.status == VERDICT_UNDECIDED
    assert math.isclose(res.ratio, 0.6, rel_tol=1e-14)
