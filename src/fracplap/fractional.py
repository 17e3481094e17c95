"""Fractional-in-time machinery: L1 discretization of the Caputo
derivative, Mittag-Leffler evaluation, and the discrete power-rule
inequality checker used by the verification harness.

The L1 scheme approximates the Caputo derivative of order alpha on a
uniform grid t_n = n dt through the weights

    b_j = (j+1)^(1-alpha) - j^(1-alpha),      scale = dt^(-alpha) / Gamma(2-alpha),

    D^alpha u(t_n) ~ scale * sum_{j=0}^{n-1} b_j (u^{n-j} - u^{n-j-1}).

It is exact on functions affine in t and carries O(dt^{2-alpha}) error
on smooth data.  ``caputo_series`` evaluates the sum densely for a
scalar series; the march keeps it in sum-of-exponentials form
(``L1Memory``), whose K sums are projected once every 16 steps so that
each step's memory term reads only the last state, the increments
since and one projection.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gamma as _gamma, gammaln as _gammaln, rgamma as _rgamma

from .errors import EvaluationRangeError, GridMismatchError, HypothesisError

_OVERFLOW_EXPONENT = 700.0
# relative accuracy of the sum-of-exponentials kernel tau^(-alpha) on [1, N]
SOE_TOL = 5e-11


# --------------------------------------------------------------------------
# L1 scale and history
# --------------------------------------------------------------------------

def _l1_scale(alpha: float, dt: float) -> float:
    """Prefactor dt^(-alpha) / Gamma(2 - alpha) of the L1 scheme."""
    if not 0.0 < alpha < 1.0:
        raise HypothesisError(f"alpha must lie in (0, 1), got {alpha}")
    if dt <= 0 or not math.isfinite(dt):
        raise HypothesisError(f"dt must be positive and finite, got {dt}")
    return dt ** (-alpha) / _gamma(2.0 - alpha)


@lru_cache(maxsize=64, typed=True)
def soe_kernel(alpha: float, n: int):
    """Nodes s and weights w with sum_l w_l exp(-s_l tau) = tau^(-alpha)
    to relative accuracy SOE_TOL on 1 <= tau <= n, read-only and built
    once per (alpha, n) and per process.

    The quadrature of tau^(-alpha) = int_0^inf exp(-tau s) s^(alpha-1) ds
    / Gamma(alpha) is Gauss-Jacobi on [0, 1/n] plus 8-point Gauss-Legendre
    on dyadic intervals up to s = 10 - ln(SOE_TOL) (Jiang, Zhang, Zhang &
    Zhang, CiCP 21, 2017).  Symmetric balanced truncation compresses it
    (Baffet & Hesthaven, SINUM 55, 2017): keep the leading eigenvectors V
    of the Cauchy Gramian c_i c_j / (s_i + s_j), c = sqrt(w), and
    diagonalize V^T diag(s) V through the SVD of diag(sqrt(s)) V, which
    resolves the slowest nodes (~1e-3 / n) to the relative accuracy the
    error at tau ~ n needs.  The rank is the smallest meeting SOE_TOL / 2
    on a 1000-point log grid: the error falls with the rank, and the
    halved target covers the points between samples.
    """
    if not 0.0 < alpha < 1.0:
        raise HypothesisError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 1:
        raise HypothesisError(f"need a horizon of at least one step, got n={n}")
    # Gauss-Jacobi for the weight (1 + x)^(alpha - 1) on [-1, 1] by
    # Golub-Welsch; scipy's roots_jacobi would import scipy.linalg (~80 ms)
    beta = alpha - 1.0
    k = np.arange(8.0)
    diag = beta ** 2 / ((2.0 * k + beta) * (2.0 * k + beta + 2.0))
    k = k[1:]
    off = (2.0 * k * (k + beta) / (2.0 * k + beta)
           / np.sqrt((2.0 * k + beta + 1.0) * (2.0 * k + beta - 1.0)))
    x, jac = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    h = 1.0 / n
    s = [0.5 * h * (1.0 + x)]
    # (h/2)^alpha from mapping onto [0, h], times the weight mass 2^alpha / alpha
    w = [h ** alpha / alpha * jac[0] ** 2]
    x, wx = np.polynomial.legendre.leggauss(8)
    a = h
    while a < 10.0 - math.log(SOE_TOL):
        s_ab = 0.5 * a * (3.0 + x)              # mapped onto [a, 2a]
        s.append(s_ab)
        w.append(0.5 * a * wx * s_ab ** (alpha - 1.0))
        a *= 2.0
    s = np.concatenate(s)
    c = np.sqrt(np.concatenate(w) * _rgamma(alpha))
    _, vecs = np.linalg.eigh(np.outer(c, c) / np.add.outer(s, s))
    vecs = vecs[:, ::-1]
    tau = np.geomspace(1.0, n, 1000)

    def truncate(rank: int):
        v = vecs[:, :rank]
        _, sv, rot = np.linalg.svd(np.sqrt(s)[:, None] * v, full_matrices=False)
        return sv ** 2, (rot @ (v.T @ c)) ** 2

    lo, hi = 0, s.size          # the untruncated quadrature meets the target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        nodes, weights = truncate(mid)
        err = np.max(np.abs(np.exp(-np.outer(tau, nodes)) @ weights * tau ** alpha - 1.0))
        if err <= 0.5 * SOE_TOL:
            hi = mid
        else:
            lo = mid
    nodes, weights = truncate(hi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# increments predict reads: the cubic extrapolation's order
_RECENT = 3
# increments an L1Memory holds before it folds them into its sums
_FOLD = 16


def _predictor_table(alpha: float, rows: int) -> np.ndarray:
    """Row n - 1 holds the coefficients (c_1, c_2, c_3) of the guess
    u^{n-1} + sum_j c_j d_j of u^n, for n = 1 .. rows, with d_j the
    increment u^{n-j} - u^{n-j-1}: the polynomial in s = t^alpha through
    the last min(n, 4) states, evaluated at s_n.

    In units of dt^alpha the nodes are s_k = k^alpha, and the Lagrange
    weights w_i of the states u^{n-i} at s_n give c_j = -sum_{i>j} w_i,
    since u^{n-i} = u^{n-1} - d_1 - ... - d_{i-1} and the weights sum to
    one.  Each weight is one product of node gaps over another, so at
    alpha = 1 (integer nodes) the cubic's coefficients are exactly the
    backward-difference ones (3, -3, 1).  Unused orders are zeros."""
    table = np.zeros((max(rows, _RECENT + 1), _RECENT))
    for order in range(1, _RECENT + 1):
        # the predicted states of this order: n = order + 1, or every
        # n > _RECENT at the highest order
        n = np.arange(order + 1.0, order + 2.0 if order < _RECENT else rows + 1.0)
        s = (n[:, None] - np.arange(order + 2.0)) ** alpha     # s_n, s_{n-1}, ...
        nodes = s[:, 1:]
        own = np.eye(order + 1, dtype=bool)
        ahead = np.where(own, 1.0, (s[:, :1] - nodes)[:, None, :])
        gaps = np.where(own, 1.0, nodes[:, :, None] - nodes[:, None, :])
        w = np.prod(ahead, axis=2) / np.prod(gaps, axis=2)
        table[n.astype(int) - 1, :order] = -np.cumsum(w[:, :0:-1], axis=1)[:, ::-1]
    return table[:rows]


class L1Memory:
    """All the L1 state a march carries from step to step.

    It owns the sum-of-exponentials kernel ``soe_kernel(alpha, N)`` and
    its K = ``terms`` sums, the scale dt^(-alpha) / Gamma(2-alpha), the
    horizon N past which the kernel loses its accuracy, and the starting
    loads.

    With b_j = (1-alpha) int_j^{j+1} tau^(-alpha) dtau and tau^(-alpha)
    replaced by the kernel, the L1 history sum becomes the recurrence
    (Jiang, Zhang, Zhang & Zhang, CiCP 21, 2017)

        sum_{j=1}^{n-1} b_j (u^{n-j} - u^{n-j-1}) = beta . A,
        A_l <- d_l A_l + (u^n - u^{n-1})                      on append,
        d_l = exp(-s_l),  beta_l = w_l (1-alpha) d_l (1 - d_l) / s_l,

    so the memory term is u^{n-1} - beta . A.  A constant history has
    A = 0 and reproduces the constant exactly.

    The recurrence is applied in blocks of R = 16 appends.  Each append
    only stores its increment delta_j = u^n - u^{n-1}; with r increments
    pending since the sums A(n0) were last brought up to date,

        A(n0 + r) = D^r A(n0) + sum_{j<r} D^(r-1-j) delta_j,   D = diag(d),

    so the memory term is u^{n-1} - sum_{j<r} (beta . d^(r-1-j)) delta_j
    - P_r with P_r = (beta d^r) . A(n0).  The R-th append folds the block
    into the sums with one matrix product, A <- D^R A + G delta,
    G_lj = d_l^(R-1-j), and a second writes each P_r into ring slot r,
    which the fold has just emptied and the r-th append overwrites with
    delta_r.  The memory term thus reads 2 + r rows, u^{n-1},
    delta_0 .. delta_{r-1} and P_r, whatever K.  The rows held are
    u^{n-1}, the ring of R slots, three recent increments and the K sums
    (``matrix``): an append writes O(size), and the sums are read,
    rewritten and projected once per R steps; memory is
    O((K + R) size).  The fold tables hold zeros where the term
    beta_l e of an entry e of node l stays below 2^-52 SOE_TOL b_N,
    b_N = (N+1)^(1-alpha) - N^(1-alpha) the smallest L1 weight: 2^-52
    of the error the kernel itself may make on that weight.  So the SOE
    accuracy is unchanged by construction, and the fold makes no
    subnormal products (the fastest nodes leave entries down to 1e-303).

    The ring also gives the last three increments d1, d2, d3 (newest
    first): ``predict`` extrapolates them in s = t^alpha to a guess of
    u^n, which the 2D PCG step uses as the first iterate of its solve.
    So the fold copies the last three slots into the three recent rows
    before it projects over them, and ``predict`` reads those copies
    until three appends on.

    The memory term and the load are linear in the states and the g's it
    is given, so a memory of their images under one linear map returns
    their images too.  The march's solve plan builds its memory in the
    coordinates its path solves in, and alone knows which they are.

    ``g1 = R(u^0)`` and ``g2 = R'(u^0)[R(u^0)]`` (either may be None)
    give the starting load of step n, s_n g1 + dt^alpha s2_n g2 with the
    weights of ``layer_correction_weights``.  There are no loads when g1
    vanishes; otherwise both loads given apply.  Whether g2 is given is
    the solve plan's choice.
    """

    def __init__(self, u0: np.ndarray, alpha: float, dt: float, horizon: int,
                 g1: Optional[np.ndarray] = None, g2: Optional[np.ndarray] = None):
        u0 = np.asarray(u0, dtype=np.float64)
        self.shape = u0.shape
        self.size = u0.size
        self.horizon = horizon
        self.scale = _l1_scale(alpha, dt)
        self._alpha = alpha
        self._predictor = None      # predict's table, built on its first call
        nodes, w = soe_kernel(alpha, horizon)
        self.terms = k = nodes.size
        decay = np.exp(-nodes)
        beta = w * (1.0 - alpha) * decay * -np.expm1(-nodes) / nodes
        powers = decay ** np.arange(_FOLD + 1.0)[:, None]      # d^0 .. d^R
        # with r increments pending: 1, -beta . d^(r-1-j) for increment
        # j < r, then -1 for P_r
        decayed = powers[:_FOLD - 1] @ beta
        self._coefficients = tuple(
            np.concatenate(([1.0], -decayed[:r][::-1], [-1.0]))
            for r in range(_FOLD))
        reach = beta * powers                                   # row k: beta d^k
        unseen = reach < np.finfo(np.float64).eps * SOE_TOL * (
            (horizon + 1.0) ** (1.0 - alpha) - horizon ** (1.0 - alpha))
        powers[unseen] = reach[unseen] = 0.0
        self._fold_decay = powers[_FOLD][:, None]
        self._fold_gather = powers[_FOLD - 1::-1].T
        self._fold_project = reach[:_FOLD]
        self._data = np.zeros((1 + _FOLD + _RECENT + k, self.size), dtype=np.float64)
        self._data[0] = u0.ravel()
        self._ring = self._data[1:1 + _FOLD]
        # the ring, then its last _RECENT slots as the last fold found
        # them: predict's index wraps below 0 into those copies
        self._window = self._data[1:1 + _FOLD + _RECENT]
        self._sums = self._data[1 + _FOLD + _RECENT:]
        self._last = self._data[0].reshape(self.shape)     # a view: appends update it
        self._pending = 0
        self._states = 1
        self._g1 = self._g2 = None
        if g1 is not None and np.any(g1 != 0.0):
            self._g1 = g1
            self._w1 = layer_correction_weights(alpha, horizon)
            if g2 is not None:
                self._g2 = g2
                self._w2 = dt ** alpha * layer_correction_weights(alpha, horizon, layer=2)

    def __len__(self) -> int:
        return self._data.shape[0]

    def append(self, u: np.ndarray) -> None:
        """Take in the state u^n, a float64 array of the history's shape;
        another shape raises GridMismatchError."""
        if u.shape != self.shape:
            raise GridMismatchError(
                f"snapshot shape {u.shape} does not match history shape {self.shape}")
        flat = u.ravel()
        last = self._data[0]
        np.subtract(flat, last, out=self._ring[self._pending])
        last[...] = flat
        self._states += 1
        self._pending += 1
        if self._pending == _FOLD:
            # a K x size temporary: a held buffer measured no faster in
            # the march and raised its peak memory.  Gathering before the
            # decay gives the same bits in a fold 2-3% faster at 64 x 64
            gathered = self._fold_gather @ self._ring
            self._sums *= self._fold_decay
            self._sums += gathered
            self._window[_FOLD:] = self._ring[-_RECENT:]
            np.matmul(self._fold_project, self._sums, out=self._ring)
            self._pending = 0

    def predict(self) -> np.ndarray:
        """A guess of the next state u^n, n inside the horizon: the cubic
        in s = t^alpha through the last four states, evaluated at s_n,
        u^{n-1} + c1 d1 + c2 d2 + c3 d3.  Solutions leave t = 0 like
        u^0 + c t^alpha, which is smooth in s and not in n; the guess is
        exact on states cubic in t^alpha, and at alpha = 1 it would be
        u^{n-1} + 3 d1 - 3 d2 + d3.  With fewer increments it drops to
        the order they allow: u^{n-1}, then the line and the parabola
        in s.  The coefficients come from ``_predictor_table``, built on
        the first call, so only a march that predicts builds it.
        Returns a new array."""
        n = self._next_step()
        if self._predictor is None:
            self._predictor = _predictor_table(self._alpha, self.horizon)
        guess = self._data[0].copy()
        coefficients = self._predictor[n - 1]
        for i in range(min(n - 1, _RECENT)):
            guess += coefficients[i] * self._window[self._pending - 1 - i]   # wraps below 0
        return guess.reshape(self.shape)

    def matrix(self) -> np.ndarray:
        """Rows u^{n-1}, the ring of R slots, the last three increments
        the last fold took in, then A_1 .. A_K at that fold, shape
        (1 + R + 3 + K, size).  With r increments pending, ring slots
        0 .. r-1 hold them and slot r holds the projection P_r; only
        these first ``coefficients().size`` = 2 + r rows enter the
        memory term."""
        return self._data

    def last(self) -> np.ndarray:
        return self._last

    def _next_step(self) -> int:
        """The index n of the next step, which must lie inside the horizon."""
        if self._states > self.horizon:
            raise HypothesisError(
                f"step index {self._states} outside the kernel horizon {self.horizon}")
        return self._states

    def coefficients(self) -> np.ndarray:
        self._next_step()
        return self._coefficients[self._pending]

    def load(self) -> Optional[np.ndarray]:
        """Starting load of the next step, or None when there is none."""
        if self._g1 is None:
            return None
        n = self._states
        load = self._w1[n - 1] * self._g1
        if self._g2 is not None:
            load = load + self._w2[n - 1] * self._g2
        return load


def memory_term(memory) -> np.ndarray:
    """Past part of the L1 update: the memory's coefficients applied to
    the leading rows it holds (2 + r rows of an ``L1Memory`` with r
    increments pending, whatever its K), so that the L1 value at step n
    is scale * (u^n - memory_term).  ``dot`` computes what ``@`` does, by
    the same BLAS call, at half its call overhead."""
    coefficients = memory.coefficients()
    return coefficients.dot(memory.matrix()[:coefficients.size]).reshape(memory.shape)


def _next_5_smooth(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, the FFT length scipy.fft.next_fast_len(n, True)
    picks for real transforms (equal for every n <= 40 000), without the
    ~34 ms import of scipy.fft."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def caputo_series(values: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """L1 Caputo derivative of a scalar time series at every step n >= 1.

    Returns an array of length len(values) - 1 holding the derivative
    at t_1 .. t_{N-1}.  Beyond 512 differences the convolution with the
    weights b_0 .. b_{N-1} runs by FFT (O(N log N) instead of O(N^2)).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0] - 1
    if n < 1:
        raise HypothesisError("need at least two samples to differentiate")
    scale = _l1_scale(alpha, dt)
    b = np.diff(np.arange(n + 1.0) ** (1.0 - alpha))
    diffs = np.diff(values)
    if n > 512:
        size = _next_5_smooth(2 * n - 1)
        conv = np.fft.irfft(np.fft.rfft(diffs, size) * np.fft.rfft(b, size),
                            size)[:n]
    else:
        conv = np.convolve(diffs, b)[:n]
    return scale * conv


def layer_correction_weights(alpha: float, n: int, layer: int = 1) -> np.ndarray:
    """Starting weights s_1..s_n canceling the L1 error on the t^(layer alpha) layer.

    Solutions leave t = 0 like u0 + c1 t^alpha + c2 t^(2 alpha) + ...
    with c_L = R-expansion coefficients satisfying
    c_L Gamma(L alpha + 1) = (directional RHS iterate at u0); the L1
    quadrature overshoots the Caputo derivative of t^(L alpha) by the
    dt-independent sequence

        eps_n = L1[t^(L alpha)](t_n) - D^alpha t^(L alpha)(t_n)   (dt = 1 units),

    positive and decaying like n^(L alpha - 2).  Adding
    dt^((L-1) alpha) s_n g_L with s_n = eps_n / Gamma(L alpha + 1) to
    the load of step n, where g_1 = R(u0) and g_2 = R'(u0)[R(u0)],
    makes the march exact on the corresponding layer, lifting the
    global order from 1 toward the smooth-data rate.  The weights
    multiply RHS values that vanish at rest states, so equilibria are
    untouched.
    """
    if n < 1:
        raise HypothesisError(f"need at least one step, got n={n}")
    if layer not in (1, 2):
        raise HypothesisError(f"layer must be 1 or 2, got {layer}")
    sigma = layer * alpha
    steps = np.arange(n + 1, dtype=np.float64)
    g_top = _gamma(sigma + 1.0)
    exact = g_top / _gamma(sigma - alpha + 1.0) * steps[1:] ** (sigma - alpha)
    return (caputo_series(steps ** sigma, alpha, 1.0) - exact) / g_top


# --------------------------------------------------------------------------
# Mittag-Leffler function
# --------------------------------------------------------------------------

_LOG_EPS = math.log(np.finfo(np.float64).eps)
_ML_LOG_TOL = math.log(1e-15)
_ML_MAX_NODES = 200
_ML_LOG_CUT = math.log(1e-17)


def _ml_unbounded(p: float, log_tol: float):
    """Garrappa's optimal parabola (mu, h, N) right of the singularity at
    the origin of strength p."""
    phi_bar = 0.01
    sq_bar = math.sqrt(phi_bar)
    while True:
        ratio = log_tol / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        f_bar = (sq_bar / sq_mu) ** -p
        if p < 1e-14 or 1.0 < f_bar < 10.0:
            break
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu
        phi_bar = sq_bar ** 2
    mu = sq_mu ** 2
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # keep exp(mu) from amplifying rounding beyond the tolerance
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu
        phi_bar = q ** 2
        if phi_bar >= threshold:
            return 0.0, 0.0, math.inf
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phi_bar / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


@lru_cache(maxsize=64, typed=True)
def _ml_shared_nodes(alpha: float, beta: float):
    """Nodes (h, g, s^alpha) of the optimal parabolic contour for z < 0,
    read-only, built once per (alpha, beta) and per process; the sum
    over them is ``_ml_sum``."""
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))   # strength of the origin
    log_tol = _ML_LOG_TOL
    while True:
        mu, h, n = _ml_unbounded(p0, log_tol)
        if n <= _ML_MAX_NODES:
            break
        log_tol += math.log(10.0)
    # trapezoidal rule for (h / 2 pi i) sum e^s F(s) s'(u) on s(u) = mu (1 + iu)^2;
    # E is its real part, the sum of the imaginary parts over 2 pi.  The
    # term at -u is minus the conjugate of the one at u, with the same
    # imaginary part, so u > 0 is summed twice and u < 0 not at all
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    g = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * (1j - u))
    g[1:] *= 2.0
    s_alpha = s ** alpha
    g.flags.writeable = s_alpha.flags.writeable = False
    return h, g, s_alpha


def _ml_sum(h: float, g: np.ndarray, s_alpha: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Trapezoidal sum of ``_ml_shared_nodes`` at every z (a 1D array)."""
    return h / (2.0 * math.pi) * (g / (s_alpha - z[:, None])).imag.sum(axis=1)


def _ml_series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z > 0 by its power series sum_k z^k /
    Gamma(alpha k + beta), whose terms are all positive.  The terms are
    log-concave in k and peak near alpha k + beta = z^(1/alpha); the sum
    keeps those within 1e-17 of the largest, and stops past the peak at
    the first one below."""
    scale = z ** (1.0 / alpha)
    if scale > _OVERFLOW_EXPONENT:
        raise EvaluationRangeError(
            f"E_({alpha},{beta})({z}) is on the exp({scale:.3g}) scale; "
            "beyond float64 range")
    n = math.ceil((scale + 10.0 * math.sqrt(scale) + 50.0) / alpha)
    while True:
        k = np.arange(n)
        log_terms = k * math.log(z) - _gammaln(alpha * k + beta)
        top = log_terms.max()
        kept = np.flatnonzero(log_terms >= top + _ML_LOG_CUT)
        if kept[-1] < n - 1:
            return math.exp(top) * math.fsum(np.exp(log_terms[kept] - top))
        n *= 2


def mittag_leffler(alpha: float, z, beta: float = 1.0):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z
    and 0 < alpha <= 1, the model's Caputo orders.

    z is a number (a float is returned) or an array (an array of the same
    shape is returned, element for element equal to the scalar calls).
    The absolute error is at most 1e-12 * max(1, |E|); against 40-digit
    references the worst measured is 9.5e-13 for z < 0 (alpha near 1,
    beta near 2, |z| <= 1e-3) and 7.8e-13 for z > 0, next to the
    overflow edge.

    z < 0 takes Garrappa's optimal parabolic contour (SIAM J. Numer. Anal.
    53, 2015), the trapezoidal rule for the inverse Laplace transform of
    s^(alpha-beta) / (s^alpha - z) at t = 1.  It has no pole on the
    principal sheet, so every z shares one contour, built once per
    (alpha, beta) and per process.  A float z costs one sum over its
    ~30 nodes, the array path's arithmetic, so the two agree bit for
    bit.  z > 0 takes the positive power series: tens to hundreds of
    microseconds, milliseconds next to the overflow edge at small alpha.
    E(0) = 1/Gamma(beta), and E_1,1 = exp.

    z must be real: ints, floats or other ``numbers.Real`` values, as
    numbers or in arrays.  bool, complex, string and other object input
    (None included) raise HypothesisError, since any conversion would
    evaluate some other argument.  Positive arguments whose result would
    exceed the float64 range (z^(1/alpha) beyond 700) raise
    EvaluationRangeError instead of saturating silently.
    """
    if not (0.0 < alpha <= 1.0):
        raise HypothesisError(f"alpha must lie in (0, 1], got {alpha}")
    if beta <= 0 or not math.isfinite(beta):
        raise HypothesisError(f"beta must be positive, got {beta}")
    plain_exp = alpha == 1.0 and beta == 1.0
    if isinstance(z, float) and not plain_exp and math.isfinite(z) and z < 0.0:
        h, g, s_alpha = _ml_shared_nodes(alpha, beta)
        return h / (2.0 * math.pi) * float(np.add.reduce((g / (s_alpha - z)).imag))
    zs = np.asarray(z)
    if zs.dtype == object and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                  for v in zs.flat):
        zs = zs.astype(np.float64)      # ints beyond int64, Fractions
    if zs.dtype.kind not in "iuf":
        raise HypothesisError(
            f"z must be real, got {type(z).__name__} of dtype {zs.dtype}")
    flat = zs.ravel().astype(np.float64, copy=False)
    if not np.isfinite(flat).all():
        raise EvaluationRangeError(
            f"argument must be finite, got {flat[~np.isfinite(flat)][0]}")

    if plain_exp:
        if (flat > _OVERFLOW_EXPONENT).any():
            raise EvaluationRangeError(
                f"E_1(z) = exp(z) overflows float64 at z = {flat.max()}")
        out = np.exp(flat)
    else:
        out = np.full(flat.shape, float(_rgamma(beta)))
        negative = flat < 0.0
        if negative.any():
            out[negative] = _ml_sum(*_ml_shared_nodes(alpha, beta), flat[negative])
        for i in np.flatnonzero(flat > 0.0):
            out[i] = _ml_series(alpha, beta, float(flat[i]))
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


# --------------------------------------------------------------------------
# discrete inequality checker
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Per-step margins of a discrete fractional inequality."""

    passed: bool
    margins: np.ndarray     # lhs - rhs at steps 1..N-1; >= 0 when the inequality holds
    worst: float


def power_inequality_check(u_series, m: int, alpha: float,
                           dt: float) -> InequalityReport:
    """Check the discrete power-rule inequality of the L1 operator,

        (u^n)^(m-1) (D^alpha u)^n >= (1/m) (D^alpha u^m)^n    for every step n,

    which holds structurally for decreasing positive weights: for every
    real series at m = 2 (Alikhanov's v D^alpha v >= (1/2) D^alpha v^2),
    for nonnegative ones at integer m >= 3.  Margins down to
    -1e-12 scale max(1, max|u|^m), with the L1 scale, count as rounding.
    """
    if int(m) != m or m < 2:
        raise HypothesisError(f"exponent must be an integer >= 2, got {m}")
    u = np.asarray(u_series, dtype=np.float64)
    if m > 2 and np.any(u < 0):
        raise HypothesisError(
            f"power inequality with m = {m} requires a nonnegative series")
    lhs = u[1:] ** (m - 1) * caputo_series(u, alpha, dt)
    margins = lhs - caputo_series(u ** m, alpha, dt) / m
    tol = 1e-12 * _l1_scale(alpha, dt) * max(1.0, float(np.max(np.abs(u))) ** m)
    worst = float(np.min(margins)) if margins.size else 0.0
    return InequalityReport(passed=bool(np.all(margins >= -tol)),
                            margins=margins, worst=worst)
