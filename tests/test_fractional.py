import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dense_l1 import (HistoryBuffer, RecurrenceMemory, l1_weight_table,
                      memory_coefficients)
from fracplap import fractional
from fracplap.errors import EvaluationRangeError, GridMismatchError, HypothesisError
from fracplap.fractional import (
    SOE_TOL,
    L1Memory,
    caputo_series,
    layer_correction_weights,
    memory_term,
    mittag_leffler,
    power_inequality_check,
    soe_kernel,
)


# ---------------------------------------------------------------------------
# L1 weights and history
# ---------------------------------------------------------------------------

def unit_jump_response(alpha, dt, n):
    """caputo_series of 0, 1, 1, ..., 1 (n + 1 samples): the lone unit
    increment leaves the weights alone, scale * (b_0, ..., b_{n-1})."""
    return caputo_series(np.concatenate(([0.0], np.ones(n))), alpha, dt)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 0.99])
def test_l1_weights_lead_entry_is_one(alpha):
    r = unit_jump_response(alpha, 0.01, 20)
    assert math.isclose(r[0], 0.01 ** -alpha / math.gamma(2.0 - alpha), rel_tol=1e-14)
    assert np.all(r > 0)
    assert np.all(np.diff(r) < 0)


def test_l1_weights_half_order_second_entry():
    r = unit_jump_response(0.5, 0.1, 4)
    assert math.isclose(r[1] / r[0], math.sqrt(2.0) - 1.0, rel_tol=1e-15)


def test_l1_weights_scale():
    r = unit_jump_response(0.3, 0.02, 4)
    assert math.isclose(r[0], 0.02 ** -0.3 / math.gamma(1.7), rel_tol=1e-15)


def test_l1_weights_input_guards():
    for alpha, dt, n in [(0.0, 0.1, 4), (1.0, 0.1, 4), (0.5, 0.0, 4),
                         (0.5, -0.1, 4), (0.5, math.inf, 4), (0.5, 0.1, 0)]:
        with pytest.raises(HypothesisError):
            unit_jump_response(alpha, dt, n)


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_memory_coefficients_are_convex(n):
    b = l1_weight_table(0.6, n)
    c = memory_coefficients(b, n)
    assert c.shape == (n,)
    assert np.all(c > 0)
    assert math.isclose(float(np.sum(c)), 1.0, rel_tol=1e-14)


def test_memory_coefficients_range_guard():
    b = l1_weight_table(0.6, 3)
    with pytest.raises(HypothesisError):
        memory_coefficients(b, 4)
    with pytest.raises(HypothesisError):
        memory_coefficients(b, 0)


def test_history_buffer_growth_and_snapshots():
    rng = np.random.default_rng(3)
    states = [rng.standard_normal((6,)) for _ in range(40)]
    hist = HistoryBuffer(states[0], l1_weight_table(0.5, 40))
    for s in states[1:]:
        hist.append(s)
    assert len(hist) == 40
    assert hist.matrix().shape == (40, 6)
    assert np.array_equal(hist.snapshot(17), states[17])
    assert np.array_equal(hist.last(), states[-1])


def test_history_buffer_keeps_2d_shape():
    hist = HistoryBuffer(np.zeros((4, 4)), l1_weight_table(0.5, 2))
    hist.append(np.ones((4, 4)))
    assert hist.last().shape == (4, 4)
    with pytest.raises(GridMismatchError):
        hist.append(np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# discrete Caputo operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_caputo_series_exact_on_affine(alpha):
    # D^alpha (a + b t) = b t^(1-alpha) / Gamma(2 - alpha), and the L1
    # quadrature reproduces it to rounding
    dt = 1.0 / 40.0
    t = dt * np.arange(41)
    series = caputo_series(2.0 + 3.0 * t, alpha, dt)
    exact = 3.0 * t[1:] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert np.allclose(series, exact, rtol=1e-12, atol=0)


def test_caputo_series_linear_reference_value():
    dt = 0.125
    t = dt * np.arange(9)
    series = caputo_series(t, 0.5, dt)
    assert math.isclose(series[-1], 1.0 / math.gamma(1.5), rel_tol=1e-13)


def test_caputo_series_quadratic_reference_value_and_rate():
    def endpoint_error(nsteps):
        dt = 1.0 / nsteps
        t = dt * np.arange(nsteps + 1)
        series = caputo_series(t ** 2, 0.5, dt)
        return abs(series[-1] - 2.0 / math.gamma(2.5))

    e50, e100 = endpoint_error(50), endpoint_error(100)
    assert e50 < 5e-3
    # L1 is O(dt^{2-alpha}); halving dt should gain close to 2^1.5
    assert e50 / e100 > 2.5


def test_caputo_series_needs_two_samples():
    with pytest.raises(HypothesisError):
        caputo_series(np.array([1.0]), 0.5, 0.1)


def test_dense_history_matches_series_form():
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.0, 2.0, size=(13, 5))
    dt = 0.05
    hist = HistoryBuffer(vals[0], l1_weight_table(0.7, 12))
    for row in vals[1:-1]:
        hist.append(row)
    scale = dt ** -0.7 / math.gamma(1.3)
    point = scale * (vals[-1] - memory_term(hist))
    for j in range(5):
        col = caputo_series(vals[:, j], 0.7, dt)
        assert math.isclose(point[j], col[-1], rel_tol=1e-12)


def test_memory_term_of_constant_history_is_the_constant():
    hist = HistoryBuffer(np.full(3, 0.4), l1_weight_table(0.5, 7))
    for _ in range(6):
        hist.append(np.full(3, 0.4))
    assert np.allclose(memory_term(hist), 0.4, rtol=1e-14)


# ---------------------------------------------------------------------------
# sum-of-exponentials history against the dense reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [10, 1000, 20000])
def test_soe_kernel_size_and_relative_error(alpha, n):
    nodes, weights = soe_kernel(alpha, n)
    assert nodes.size <= 64
    assert np.all(nodes > 0) and np.all(weights > 0)
    # every integer plus a log grid 100x finer than the one the rank is chosen on
    tau = np.unique(np.concatenate([np.arange(1.0, n + 1.0),
                                    np.geomspace(1.0, n, 100000)]))
    err = max(float(np.max(np.abs(np.exp(-np.outer(chunk, nodes)) @ weights
                                  * chunk ** alpha - 1.0)))
              for chunk in np.array_split(tau, 20))
    assert err <= SOE_TOL


def test_soe_kernel_is_built_once_and_read_only():
    soe_kernel.cache_clear()
    nodes, weights = soe_kernel(0.5, 300)
    again = soe_kernel(0.5, 300)
    assert again[0] is nodes and again[1] is weights
    assert soe_kernel.cache_info().misses == 1
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_soe_memory_term_matches_dense(alpha):
    n_steps = 2000
    rng = np.random.default_rng(5)
    states = np.cumsum(rng.standard_normal((n_steps, 6)), axis=0)
    dense = HistoryBuffer(states[0], l1_weight_table(alpha, n_steps))
    soe = L1Memory(states[0], alpha, 0.01, n_steps)
    variation = 0.0
    for k in range(1, n_steps):
        dense.append(states[k])
        soe.append(states[k])
        variation += float(np.max(np.abs(states[k] - states[k - 1])))
        if k % 199 == 0 or k == n_steps - 1:
            # the soe memory's term comes scaled.  Each L1 weight b_j the
            # kernel stands in for is within SOE_TOL of it, relative, and
            # b_j <= 1, so the two terms part by at most SOE_TOL times the
            # summed increments
            gap = np.max(np.abs(memory_term(soe) - soe.scale * memory_term(dense)))
            assert gap <= SOE_TOL * soe.scale * variation
    assert np.array_equal(soe.last(), dense.last())
    assert len(soe) == soe.matrix().shape[0] <= 65


def test_soe_memory_term_of_constant_history_is_exact():
    hist = L1Memory(np.full((4, 4), 0.4), 0.5, 0.1, 50)
    for _ in range(49):
        assert np.array_equal(memory_term(hist), np.full((4, 4), hist.scale * 0.4))
        hist.append(np.full((4, 4), 0.4))


def test_soe_history_guards():
    hist = L1Memory(np.zeros(4), 0.5, 0.1, 2)
    with pytest.raises(GridMismatchError):
        hist.append(np.zeros(5))
    hist.append(np.ones(4))
    memory_term(hist)
    hist.append(np.ones(4))
    with pytest.raises(HypothesisError):
        memory_term(hist)


# a horizon that is not a whole number of folds: three full folds and a
# partial block
BLOCKED_HORIZON = 3 * fractional._FOLD + 5


def wandering_states(shape, count, seed):
    """States near 1 that drift and jitter from step to step."""
    rng = np.random.default_rng(seed)
    return 1.0 + np.cumsum(rng.normal(0.0, 0.05, (count,) + shape), axis=0)


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_blocked_memory_term_matches_the_step_by_step_recurrence(shape):
    states = wandering_states(shape, BLOCKED_HORIZON, 41)
    blocked = L1Memory(states[0], 0.6, 0.01, BLOCKED_HORIZON)
    reference = RecurrenceMemory(states[0], 0.6, BLOCKED_HORIZON)
    # step n finds (n - 1) mod R increments pending: every count from 0
    # to R - 1, before and after each of the three folds
    for n in range(1, BLOCKED_HORIZON + 1):
        expected = blocked.scale * memory_term(reference)
        gap = np.max(np.abs(memory_term(blocked) - expected))
        assert gap <= 1e-13 * np.max(np.abs(expected)), n
        if n < BLOCKED_HORIZON:
            blocked.append(states[n])
            reference.append(states[n])
    assert np.array_equal(blocked.last(), states[-1])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_memory_term_matches_the_recurrence_at_every_step_of_four_folds(alpha):
    # steps 1 .. 4R find every pending count r < R, in each of four blocks
    horizon = 4 * fractional._FOLD
    states = wandering_states((5,), horizon, 44)
    blocked = L1Memory(states[0], alpha, 0.01, horizon)
    reference = RecurrenceMemory(states[0], alpha, horizon)
    constant = L1Memory(np.full(5, 0.4), alpha, 0.01, horizon)
    variation = 0.0
    for n in range(1, horizon + 1):
        gap = np.max(np.abs(memory_term(blocked) - blocked.scale * memory_term(reference)))
        assert gap <= 1e-10 * blocked.scale * variation, n
        assert np.array_equal(memory_term(constant), np.full(5, constant.scale * 0.4)), n
        if n < horizon:
            blocked.append(states[n])
            reference.append(states[n])
            constant.append(np.full(5, 0.4))
            variation += float(np.max(np.abs(states[n] - states[n - 1])))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("horizon", [100, 1000, 20000])
def test_memory_term_reads_two_plus_pending_rows_whatever_k(alpha, horizon):
    memory = L1Memory(np.zeros(3), alpha, 0.01, horizon)
    for n in range(1, 2 * fractional._FOLD + 1):
        # u^{n-1}, the r pending increments and the projection P_r
        assert memory.coefficients().size == 2 + (n - 1) % fractional._FOLD, n
        memory.append(np.full(3, float(n)))


def predicted_from_the_table(states, n, alpha, horizon):
    """The guess of u^{n+1} from the states u^0 .. u^n by the predictor
    table's row n + 1 and the increments taken apart."""
    c = fractional._predictor_table(alpha, horizon)[n]
    guess = states[n].copy()
    for j in range(min(n, fractional._RECENT)):
        guess += c[j] * (states[n - j] - states[n - j - 1])
    return guess


@pytest.mark.parametrize("fold", [1, 2])
def test_l1_memory_predict_right_after_a_fold(fold):
    # the fold must leave the seven increments predict reads until the
    # seventh append after it
    recent = fractional._RECENT
    states = wandering_states((6,), fold * fractional._FOLD + recent + 1, 45)
    memory = L1Memory(states[0], 0.6, 0.01, states.shape[0])
    # the last eight appends leave 0 .. 7 increments pending
    for n in range(1, states.shape[0]):
        memory.append(states[n])
        if n >= fold * fractional._FOLD:
            expected = predicted_from_the_table(states, n, 0.6, states.shape[0])
            assert np.allclose(memory.predict(), expected, rtol=0.0, atol=1e-14), n


@pytest.mark.parametrize("alpha,horizon", [(0.3, 100), (0.5, 3000), (0.8, 20000)])
def test_l1_memory_fold_tables_drop_terms_below_the_kernel_accuracy(alpha, horizon):
    # an entry e of node l is zero exactly where its term beta_l e is
    # below 2^-52 SOE_TOL b_N, b_N the smallest L1 weight; every other
    # entry keeps its bits.  The projection's entries are the terms
    fold = fractional._FOLD
    memory = L1Memory(np.zeros(3), alpha, 0.01, horizon)
    nodes, w = soe_kernel(alpha, horizon)
    decay = np.exp(-nodes)
    beta = w * (1.0 - alpha) * decay * -np.expm1(-nodes) / nodes
    powers = decay ** np.arange(fold + 1.0)[:, None]
    cut = 2.0 ** -52 * SOE_TOL * ((horizon + 1.0) ** (1.0 - alpha) - horizon ** (1.0 - alpha))
    gather = powers[fold - 1::-1].T
    tables = ((memory._fold_decay, powers[fold][:, None], beta[:, None] * powers[fold][:, None]),
              (memory._fold_gather, gather, beta[:, None] * gather),
              (memory._fold_project, beta * powers[:fold], beta * powers[:fold]))
    for table, entries, terms in tables:
        assert np.array_equal(table, np.where(terms < cut, 0.0, entries))
        if alpha == 0.5:    # the fastest nodes lose entries in every table
            assert np.count_nonzero(terms < cut) > 0


@pytest.mark.parametrize("shape", [(7,), (16, 16)])
def test_l1_memory_fold_projects_every_ring_slot(shape):
    # the fold reads the sums once: right after it every ring slot holds
    # its projection, the last seven among them, and the appends after
    # it write only u^{n-1} and their own slot
    fold, recent = fractional._FOLD, fractional._RECENT
    states = wandering_states(shape, 2 * fold + 4, 46)
    memory = L1Memory(states[0], 0.6, 0.01, states.shape[0])
    for n in range(1, states.shape[0]):
        before = memory.matrix().copy()
        memory.append(states[n])
        rows = memory.matrix()
        if n % fold == 0:
            # bit for bit the products of the first 9 and of the last 7
            # slots taken apart
            sums = rows[-memory.terms:]
            project = memory._fold_project
            assert np.array_equal(rows[1:1 + fold - recent], project[:-recent] @ sums), n
            assert np.array_equal(rows[1 + fold - recent:1 + fold],
                                  project[-recent:] @ sums), n
            increments = [np.subtract(states[i], states[i - 1]).ravel()
                          for i in range(n - recent + 1, n + 1)]
            assert np.array_equal(rows[1 + fold:1 + fold + recent], increments), n
        elif n > fold:
            changed = np.flatnonzero(np.any(rows != before, axis=1))
            assert set(changed.tolist()) <= {0, n % fold}, (n, changed)


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_l1_memory_predict_across_folds(shape):
    states = wandering_states(shape, 2 * fractional._FOLD + 4, 42)
    memory = L1Memory(states[0], 0.3, 0.01, states.shape[0])
    for n in range(states.shape[0] - 1):
        # a few roundings of numbers of order one
        expected = predicted_from_the_table(states, n, 0.3, states.shape[0])
        assert np.allclose(memory.predict(), expected, rtol=0.0, atol=1e-14), n
        memory.append(states[n + 1])


def least_squares_row(alpha, n):
    """Row n of the predictor table by a per-row least-squares solve:
    the cubic (or lower, with fewer states) in s through the last
    min(n, 8) states, in Legendre polynomials of the nodes mapped onto
    [-1, 1], evaluated at s_n.  The gaps s_n - s_{n-i} are taken as
    n^alpha (1 - (1 - i/n)^alpha), which keeps their relative accuracy
    at large n."""
    states = fractional._RECENT + 1
    m = min(n, states)
    x = np.array([1.0 if i == n else -math.expm1(alpha * math.log1p(-i / n))
                  for i in range(1, m + 1)])
    x /= x[0]
    lo, hi = x[0], x[-1]
    mapped = (2.0 * x - lo - hi) / (hi - lo) if m > 1 else x - x
    at_s_n = -(lo + hi) / (hi - lo) if m > 1 else 0.0
    degree = min(3, m - 1)
    fit = np.linalg.lstsq(np.polynomial.legendre.legvander(mapped, degree), np.eye(m),
                          rcond=None)[0]
    w = np.polynomial.legendre.legvander(np.array([at_s_n]), degree)[0] @ fit
    c = [-math.fsum(w[j:]) for j in range(1, m)]
    return np.array(c + [0.0] * (states - m))


def state_weights(table):
    """The weights w_1 .. w_8 of u^{n-1} .. u^{n-8} in each row's guess:
    c_j = -sum_{i>j} w_i and the weights sum to one."""
    weights = np.diff(np.pad(table, ((0, 0), (1, 1))), axis=1)
    weights[:, 0] += 1.0
    return weights


@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_predictor_table_is_the_least_squares_cubic_in_t_alpha(alpha):
    # row by row against a least-squares solve, out to the horizons a
    # march reaches; both keep about 14 digits of the O(1) coefficients
    rows = 20000
    table = fractional._predictor_table(alpha, rows)
    assert table.shape == (rows, fractional._RECENT)
    for n in list(range(1, 40)) + [999, 3000, 12345, rows]:
        assert np.allclose(table[n - 1], least_squares_row(alpha, n), rtol=0.0,
                           atol=1e-13), n


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_predictor_amplifies_the_states_errors_at_most_5_3_times(alpha):
    # an error e in each state enters the guess as sum_i w_i e: the
    # cubic through four states has sum |w| = 15 at alpha = 1 and the fit
    # over eight 37/7 = 5.29
    weights = state_weights(fractional._predictor_table(alpha, 20000))
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(weights[7:]).sum(axis=1)) <= 5.3


def exact_fit_weights(m):
    """The weights of the least-squares cubic through the states at the
    integer nodes 1 .. m, at 0, in exact rational arithmetic."""
    moments = [sum(Fraction(x) ** k for x in range(1, m + 1)) for k in range(7)]
    gram = [[moments[j + k] for k in range(4)] + [Fraction(j == 0)] for j in range(4)]
    for j in range(4):      # Gauss-Jordan on the SPD normal equations
        gram[j] = [v / gram[j][j] for v in gram[j]]
        for i in range(4):
            if i != j:
                gram[i] = [a - gram[i][j] * b for a, b in zip(gram[i], gram[j])]
    coeffs = [row[4] for row in gram]
    return [sum(c * Fraction(x) ** k for k, c in enumerate(coeffs)) for x in range(1, m + 1)]


def test_predictor_table_at_alpha_one_has_the_exact_weights():
    # integer nodes: the guesses u^0, u^1 + d1, u^2 + 2 d1 - d2 and
    # u^3 + 3 d1 - 3 d2 + d3 through the states, then the least-squares
    # cubics over five to seven, then over eight states, to the table's
    # 1e-13 (its weights of up to 6 in size cancel)
    table = fractional._predictor_table(1.0, 40)
    weights = state_weights(table)
    through = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, -1.0, 0.0], [3.0, -3.0, 1.0]]
    assert np.allclose(table[:4], np.pad(through, ((0, 0), (0, 4))), rtol=0.0, atol=1e-13)
    for m in (5, 6, 7):
        exact = [float(w) for w in exact_fit_weights(m)] + [0.0] * (8 - m)
        assert np.allclose(weights[m - 1], exact, rtol=0.0, atol=1e-13), m
    eight = [2.0, -1 / 7, -6 / 7, -9 / 14, 0.0, 4 / 7, 4 / 7, -1 / 2]
    assert [float(w) for w in exact_fit_weights(8)] == eight
    assert np.allclose(weights[7:], eight, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_l1_memory_horizon_guard_off_the_fold_grid(shape):
    states = wandering_states(shape, BLOCKED_HORIZON + 1, 43)
    memory = L1Memory(states[0], 0.6, 0.01, BLOCKED_HORIZON)
    for n in range(1, BLOCKED_HORIZON + 1):
        memory_term(memory)             # step n is inside the horizon
        memory.predict()
        memory.append(states[n])
    with pytest.raises(HypothesisError):
        memory_term(memory)             # step horizon + 1 is not
    with pytest.raises(HypothesisError):
        memory.predict()


@pytest.mark.parametrize("shape", [(6,), (4, 5)])
def test_l1_memory_predict_extrapolates_low_order_at_the_start(shape):
    # in s = t^alpha, dt^alpha units, the states sit at s = 0, 1, 2^alpha
    # and the guesses at 2^alpha and 3^alpha: the line through the first
    # two, then the parabola through all three
    rng = np.random.default_rng(31)
    u0, u1, u2 = rng.uniform(0.2, 1.0, (3,) + shape)
    alpha = 0.5
    s2, s3 = 2.0 ** alpha, 3.0 ** alpha
    memory = L1Memory(u0, alpha, 0.1, 10)
    guess = memory.predict()
    assert guess.shape == shape and np.array_equal(guess, u0)
    # the states are at most 1: a few roundings of numbers below 8
    memory.append(u1)
    assert np.allclose(memory.predict(), u1 + (s2 - 1.0) * (u1 - u0), rtol=0.0, atol=1e-14)
    memory.append(u2)
    parabola = (u0 * (s3 - 1.0) * (s3 - s2) / s2
                + u1 * s3 * (s3 - s2) / (1.0 - s2)
                + u2 * s3 * (s3 - 1.0) / (s2 * (s2 - 1.0)))
    assert np.allclose(memory.predict(), parabola, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("shape", [(6,), (4, 5)])
def test_l1_memory_predict_is_exact_on_cubics(shape):
    # states cubic in s = t^alpha, as solutions leave t = 0 like
    # u^0 + c t^alpha, over two folds
    rng = np.random.default_rng(32)
    c0, c1, c2, c3 = rng.uniform(-1.0, 1.0, (4,) + shape)
    for alpha in (0.3, 0.5, 0.8):
        def state(n):
            s = (0.1 * n) ** alpha
            return c0 + s * (c1 + s * (c2 + s * c3))

        memory = L1Memory(state(0), alpha, 0.1, 40)
        for n in range(1, 2 * fractional._FOLD + 4):
            memory.append(state(n))
            if n >= 3:
                gap = np.max(np.abs(memory.predict() - state(n + 1)))
                assert gap <= 1e-12 * np.max(np.abs(state(n + 1))), (alpha, n)


def test_l1_memory_predict_returns_a_new_array():
    rng = np.random.default_rng(33)
    memory = L1Memory(rng.uniform(size=(4, 4)), 0.5, 0.1, 10)
    for _ in range(4):
        memory.append(rng.uniform(size=(4, 4)))
        last, rows = memory.last().copy(), memory.matrix().copy()
        guess = memory.predict()
        assert not np.shares_memory(guess, memory.matrix())
        guess[:] = -1.0
        assert np.array_equal(memory.last(), last)
        assert np.array_equal(memory.matrix(), rows)


@pytest.mark.parametrize("alpha", [0.4, 0.6])
def test_l1_memory_scale_and_starting_loads(alpha):
    dt, horizon = 0.01, 5
    g1, g2 = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    assert L1Memory(g1, alpha, dt, horizon).scale == unit_jump_response(alpha, dt, 1)[0]
    # no load without R(u0), nor when R(u0) vanishes: the L1 part of a
    # constant history is the scale times the constant
    for unloaded in (L1Memory(g1, alpha, dt, horizon, g2=g2),
                     L1Memory(g1, alpha, dt, horizon, np.zeros(2), g2)):
        assert np.array_equal(memory_term(unloaded), unloaded.scale * g1)
    w1 = layer_correction_weights(alpha, horizon)
    w2 = dt ** alpha * layer_correction_weights(alpha, horizon, layer=2)
    memory = L1Memory(g1, alpha, dt, horizon, g1, g2)
    for n in range(1, horizon + 1):
        # the memory applies the loads it is given: the solve plan alone
        # decides whether g2 applies
        expected = memory.scale * g1 + w1[n - 1] * g1 + w2[n - 1] * g2
        gap = np.max(np.abs(memory_term(memory) - expected))
        assert gap <= 1e-14 * np.max(np.abs(expected)), n
        memory.append(g1)


def test_l1_memory_past_512_steps_does_not_import_scipy_signal():
    # its starting weights take caputo_series onto the FFT branch, and
    # scipy.signal alone takes about a second to import
    import fracplap
    code = ("import sys, numpy as np\n"
            "from fracplap.fractional import L1Memory\n"
            "L1Memory(np.zeros(4), 0.5, 0.01, 600, np.ones(4))\n"
            "assert 'scipy.signal' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(fracplap.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_fft_length_is_scipys_real_transform_length():
    # the same length keeps caputo_series' FFT branch bit for bit
    from scipy.fft import next_fast_len
    for n in list(range(1, 6001)) + list(range(39_000, 40_001)):
        assert fractional._next_5_smooth(n) == next_fast_len(n, True), n


def test_weights_past_512_steps_do_not_import_scipy_fft():
    # 600 steps take caputo_series onto its FFT branch
    import fracplap
    code = ("import sys\n"
            "from fracplap.fractional import layer_correction_weights\n"
            "layer_correction_weights(0.5, 600)\n"
            "assert 'scipy.fft' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(fracplap.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


# ---------------------------------------------------------------------------
# starting-weight corrections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_layer_one_first_weight_closed_form(alpha):
    # s_1 = (1/Gamma(2-alpha) - Gamma(1+alpha)) / Gamma(1+alpha)
    w = layer_correction_weights(alpha, 8)
    expect = (1.0 / math.gamma(2.0 - alpha) - math.gamma(1.0 + alpha)) \
        / math.gamma(1.0 + alpha)
    assert math.isclose(w[0], expect, rel_tol=1e-12)
    assert np.all(w > 0)
    assert np.all(np.diff(w) < 0)


def test_layer_two_vanishes_when_it_hits_an_affine_layer():
    # layer 2 at alpha = 1/2 targets t^1, which L1 differentiates exactly
    w = layer_correction_weights(0.5, 30, layer=2)
    assert np.max(np.abs(w)) < 1e-13


def test_layer_weights_decay_rate():
    # eps_n ~ n^(alpha-2) for layer 1
    w = layer_correction_weights(0.5, 400)
    ratio = w[99] / w[199]
    assert abs(ratio / 2.0 ** 1.5 - 1.0) < 0.05


def test_layer_weights_fft_path_matches_direct():
    long = layer_correction_weights(0.4, 600)
    short = layer_correction_weights(0.4, 512)
    assert np.allclose(long[:512], short, rtol=1e-11, atol=1e-15)


def test_layer_weights_guards():
    with pytest.raises(HypothesisError):
        layer_correction_weights(0.5, 0)
    with pytest.raises(HypothesisError):
        layer_correction_weights(0.5, 5, layer=3)


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------

def test_ml_reduces_to_exp():
    assert mittag_leffler(1.0, 1.0) == math.e
    for z in np.linspace(-20.0, 5.0, 23):
        assert math.isclose(mittag_leffler(1.0, float(z)), math.exp(z),
                            rel_tol=1e-12)


def test_ml_classical_identities():
    # E_{1,2}(z) = (e^z - 1)/z
    assert math.isclose(mittag_leffler(1.0, 1.0, beta=2.0), math.e - 1.0,
                        rel_tol=1e-13)


def test_ml_half_order_erfc_identity():
    # E_{1/2}(z) = e^{z^2} erfc(-z)
    assert math.isclose(mittag_leffler(0.5, 1.0), math.e * math.erfc(-1.0),
                        rel_tol=1e-12)
    assert math.isclose(mittag_leffler(0.5, -2.0),
                        math.exp(4.0) * math.erfc(2.0), rel_tol=1e-12)


def test_ml_at_zero_is_reciprocal_gamma():
    for beta in (0.7, 1.0, 1.8, 3.0):
        assert math.isclose(mittag_leffler(0.6, 0.0, beta=beta),
                            1.0 / math.gamma(beta), rel_tol=1e-15)


# truth values from a plain high-precision Taylor sum of the defining
# series (200+ digits, stable under a 60-digit precision increase)
ML_NEGATIVE_AXIS = [
    (0.8, 1.0, -10.0, 0.024902819761976532186),
    (0.8, 1.0, -14.8628, 0.016003572512385291645),
    (0.8, 1.0, -14.9, 0.015959934933139324692),
    (0.8, 1.0, -25.875, 0.0088450729098613590997),
    (0.8, 1.0, -50.0, 0.0044677761579029922645),
    (0.8, 0.8, -6.0, 0.00758508165856241128),
    (0.8, 1.8, -8.0, 0.12096577144414552608),
    (0.5, 1.0, -2.0, 0.25539567631050574387),
    (0.5, 1.0, -30.0, 0.018795888861416751497),
    (0.3, 1.0, -4.0, 0.16650174431551664971),
]


@pytest.mark.parametrize("alpha,beta,z,truth", ML_NEGATIVE_AXIS)
def test_ml_negative_axis_frozen_values(alpha, beta, z, truth):
    assert math.isclose(mittag_leffler(alpha, z, beta=beta), truth,
                        rel_tol=5e-13)


# the documented contract |error| <= 1e-12 max(1, |E|) on the positive
# axis, next to the origin and on the negative axis (40+ digit
# references, stable under a 60-digit precision increase).  The last six
# rows sit at 0.5 and 0.999 times the overflow edge z^(1/alpha) = 700,
# where the series' terms carry exponents up to ~4600 at alpha = 0.05
ML_CONTRACT = [
    (0.7, 1.0, 10.0, 639295673243.01708451),
    (0.3, 1.3, 2.0, 39742.453812591779214),
    (0.25, 1.0, 0.019, 1.021376930836366573789),
    (0.9, 2.0, -1e-3, 0.99945297394715034216),
    (0.8, 1.8, -1e-6, 1.0736705745468234551),
    (0.05, 1.0, 0.6937850006492776, 3.413459620467784773161909304976176601235),
    (0.05, 1.0, 1.3861824312972566, 1.925132601007830088826651454038605619949e+299),
    (0.5, 1.5, 13.228756555322953, 1.51720863018001653407652512360773891521e+75),
    (0.5, 1.5, 26.43105559753526, 1.893845521065328219834387884820035499325e+302),
    (0.99, 2.0, 327.80612494229797, 2.54610114471180965808200672486996051083e+148),
    (0.99, 2.0, 654.9566376347113, 7.223832102116338701628679601779305582198e+300),
]


@pytest.mark.parametrize("alpha,beta,z,truth", ML_CONTRACT)
def test_ml_documented_accuracy(alpha, beta, z, truth):
    assert abs(mittag_leffler(alpha, z, beta=beta) - truth) <= 1e-12 * max(1.0, abs(truth))


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0])
@pytest.mark.parametrize("beta", [1.0, 1.7])
def test_ml_array_matches_scalar_calls(alpha, beta):
    zs = np.array([-30.0, 2.0, -2.5, 0.0, -1e-3, 1e-3, 0.019, -7.0, 6.5])
    values = mittag_leffler(alpha, zs, beta=beta)
    expected = np.array([mittag_leffler(alpha, float(z), beta=beta) for z in zs])
    assert np.array_equal(values, expected)
    assert np.array_equal(mittag_leffler(alpha, zs.reshape(3, 3), beta=beta),
                          expected.reshape(3, 3))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
def test_ml_cached_contour_gives_the_first_call_bits(alpha):
    rng = np.random.default_rng(7)
    arguments = [-3.7, rng.uniform(-50.0, 0.0, 9), rng.uniform(-50.0, 0.0, (3, 4)),
                 np.array([-20.0, 2.5, 0.0, -0.4, 1e-3, -1e-3]),
                 rng.uniform(-50.0, 5.0, (2, 5))]
    for beta in (1.0, 1.0 + alpha, 2.5):
        for z in arguments:
            fractional._ml_shared_nodes.cache_clear()
            first = mittag_leffler(alpha, z, beta=beta)
            for _ in range(3):
                assert np.array_equal(mittag_leffler(alpha, z, beta=beta), first)


def test_ml_pole_free_contour_is_built_once(monkeypatch):
    calls = []
    build = fractional._ml_unbounded

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fractional, "_ml_unbounded", counted)
    fractional._ml_shared_nodes.cache_clear()
    for z in np.linspace(-40.0, -0.5, 50):
        mittag_leffler(0.6, float(z), beta=1.3)
    assert len(calls) == 1


def test_ml_cached_contour_is_read_only():
    fractional._ml_shared_nodes.cache_clear()
    mittag_leffler(0.5, -2.0)
    _, g, s_alpha = fractional._ml_shared_nodes(0.5, 1.0)
    for a in (g, s_alpha):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_ml_recurrence_in_beta():
    # E_{a,b}(z) = z E_{a,b+a}(z) + 1/Gamma(b)
    for alpha in (0.6, 0.8):
        for beta in (1.0, 1.4):
            for z in (-8.0, -3.0, 0.5, 2.0):
                lhs = mittag_leffler(alpha, z, beta=beta)
                rhs = z * mittag_leffler(alpha, z, beta=beta + alpha) \
                    + 1.0 / math.gamma(beta)
                assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-14)


def test_ml_completely_monotone_on_negative_axis():
    z = -np.linspace(0.0, 40.0, 81)
    vals = np.array([mittag_leffler(0.8, float(zz)) for zz in z])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_ml_positive_argument_growth():
    # exp-dominant growth: E_{1/2}(3) = e^9 erfc(-3)
    assert math.isclose(mittag_leffler(0.5, 3.0),
                        math.exp(9.0) * math.erfc(-3.0), rel_tol=1e-12)


def test_ml_parameter_guards():
    for alpha, beta in [(0.0, 1.0), (-0.5, 1.0), (1.5, 1.0), (2.0, 1.0), (2.5, 1.0),
                        (0.5, 0.0), (0.5, -2.0), (0.5, math.inf)]:
        with pytest.raises(HypothesisError):
            mittag_leffler(alpha, 1.0, beta=beta)


def test_ml_range_guards():
    with pytest.raises(EvaluationRangeError):
        mittag_leffler(0.5, math.nan)
    with pytest.raises(EvaluationRangeError):
        mittag_leffler(0.5, math.inf)
    with pytest.raises(EvaluationRangeError):
        mittag_leffler(0.5, 1e8)
    with pytest.raises(EvaluationRangeError):
        mittag_leffler(1.0, 1000.0)


# a float z < 0 at alpha <= 1 (bar E_1,1 = exp) takes the scalar path;
# everything else, arrays included, the array path
ML_POLE_FREE_PAIRS = [(a, b) for a in (0.1, 0.3, 0.5, 0.8, 1.0)
                      for b in (0.5, 1.0, 1.0 + a, 2.7) if (a, b) != (1.0, 1.0)]


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("alpha,beta", ML_POLE_FREE_PAIRS)
def test_ml_scalar_path_gives_the_array_path_bits(alpha, beta):
    rng = np.random.default_rng(24)
    zs = np.concatenate((rng.uniform(-60.0, 0.0, 500), [-1e-12, -1e-300, -5e-324]))
    array = mittag_leffler(alpha, zs, beta=beta)
    scalar = [mittag_leffler(alpha, float(z), beta=beta) for z in zs]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(bits(scalar), bits(array))


@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.8, 1.8), (1.0, 2.7)])
def test_ml_every_real_scalar_type_gives_the_same_bits(alpha, beta):
    expected = mittag_leffler(alpha, np.array([-3.0]), beta=beta)[0]
    for z in (-3.0, np.float64(-3.0), -3, np.int64(-3), np.array(-3.0), np.float32(-3.0)):
        value = mittag_leffler(alpha, z, beta=beta)
        assert type(value) is float
        assert bits(value) == bits(expected)
    # -0.0 is not below 0: it gives E(0) = 1/Gamma(beta) exactly
    for z in (-0.0, np.float64(-0.0), np.array(-0.0)):
        assert bits(mittag_leffler(alpha, z, beta=beta)) == bits(fractional._rgamma(beta))


@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.8, 1.8), (1.0, 1.0)])
@pytest.mark.parametrize("z,text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_ml_non_finite_argument_keeps_its_error(alpha, beta, z, text):
    for arg in (z, np.float64(z), np.array([-1.0, z])):
        with pytest.raises(EvaluationRangeError) as info:
            mittag_leffler(alpha, arg, beta=beta)
        assert str(info.value) == f"argument must be finite, got {text}"


def test_ml_scalar_path_skips_the_array_sum(monkeypatch):
    expected = mittag_leffler(0.5, -2.0)

    def refuse(*args):
        raise AssertionError("array sum reached")

    monkeypatch.setattr(fractional, "_ml_sum", refuse)
    assert mittag_leffler(0.5, -2.0) == expected
    assert mittag_leffler(0.8, np.float64(-7.5), beta=1.8) > 0.0
    # z > 0 takes the series, which never sums the contour
    assert mittag_leffler(0.5, 2.0) > 1.0
    for z in (np.array([-2.0]), -2):
        with pytest.raises(AssertionError, match="array sum reached"):
            mittag_leffler(0.5, z)
    # the parameter guards still come first
    with pytest.raises(HypothesisError):
        mittag_leffler(0.0, -2.0)
    with pytest.raises(HypothesisError):
        mittag_leffler(0.5, -2.0, beta=math.inf)


def test_ml_takes_real_numbers_numpy_holds_as_objects():
    assert mittag_leffler(0.5, -10**20) == mittag_leffler(0.5, -1e20)
    for z in ([-10**20, Fraction(-3, 2)], np.array([-1e20, -1.5], dtype=object)):
        assert np.array_equal(mittag_leffler(0.5, z),
                              mittag_leffler(0.5, np.array([-1e20, -1.5])))


@pytest.mark.parametrize("z", [np.array([-1.0 + 2.0j]), np.complex128(-2.0 + 1.0j), -2.0 + 0.0j,
                               "3", "-1.5", None, [None], np.array([-1.0, None], dtype=object),
                               True, np.array([True, False]), [-(10**20), True],
                               [Decimal("-1.5")]])
def test_ml_rejects_non_real_arguments(z):
    # any conversion would evaluate another argument: E(-1) for -1 + 2j,
    # E(3) for "3", E(1) for True
    with pytest.raises(HypothesisError, match="z must be real"):
        mittag_leffler(0.5, z)


# ---------------------------------------------------------------------------
# inequality checkers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_alikhanov_inequality_on_ramp(alpha):
    dt = 0.05
    t = dt * np.arange(25)
    rep = power_inequality_check(t, 2, alpha, dt)
    assert rep.passed
    assert rep.margins.shape == (24,)


def test_alikhanov_equality_on_constants():
    rep = power_inequality_check(np.full(10, 0.7), 2, 0.5, 0.1)
    assert rep.passed
    assert rep.worst == 0.0


def test_alikhanov_on_random_walks():
    rng = np.random.default_rng(99)
    for _ in range(25):
        v = np.cumsum(rng.normal(0.0, 0.3, size=30))
        rep = power_inequality_check(v, 2, 0.6, 0.02)
        assert rep.passed


def test_power_inequality_cube_holds():
    rng = np.random.default_rng(17)
    for _ in range(25):
        u = rng.uniform(0.0, 2.0, size=40)
        rep = power_inequality_check(u, 3, 0.8, 0.05)
        assert rep.passed


def test_power_inequality_guards():
    with pytest.raises(HypothesisError):
        power_inequality_check(np.ones(5), 1, 0.5, 0.1)
    # signed data pass at m = 2, where the inequality holds for every
    # real series, and are rejected from m = 3 on
    with pytest.raises(HypothesisError):
        power_inequality_check(np.array([1.0, -0.5, 1.0]), 3, 0.5, 0.1)
