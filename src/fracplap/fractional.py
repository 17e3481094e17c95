"""Fractional-in-time machinery: L1 discretization of the Caputo
derivative, Mittag-Leffler evaluation, and the discrete inequality
checkers used by the verification harness.

The L1 scheme approximates the Caputo derivative of order alpha on a
uniform grid t_n = n dt through the weights

    b_j = (j+1)^(1-alpha) - j^(1-alpha),      scale = dt^(-alpha) / Gamma(2-alpha),

    D^alpha u(t_n) ~ scale * sum_{j=0}^{n-1} b_j (u^{n-j} - u^{n-j-1}).

It is exact on functions affine in t and carries O(dt^{2-alpha}) error
on smooth data.  The march keeps the sum in sum-of-exponentials form
(``SoeHistory``); the dense ``HistoryBuffer`` is the reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma, gammaln as _gammaln, rgamma as _rgamma

from .errors import EvaluationRangeError, GridMismatchError, HypothesisError

# float64 series summation keeps ~1e-13 absolute accuracy as long as the
# peak term stays below roughly this condition bound; compensated
# summation loses about (bound * 5e-15) to cancellation at the edge
_SERIES_COND_LIMIT = 40.0
_ML_TARGET = 1e-13
_OVERFLOW_EXPONENT = 700.0
# relative accuracy of the sum-of-exponentials kernel tau^(-alpha) on [1, N]
SOE_TOL = 5e-11


# --------------------------------------------------------------------------
# L1 weights and history
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class L1Weights:
    """Convolution weights of the L1 scheme for one (alpha, dt) pair."""

    alpha: float
    dt: float
    b: np.ndarray           # b_0 = 1 > b_1 > ... > 0
    scale: float            # dt^(-alpha) / Gamma(2 - alpha)


def l1_weights(alpha: float, dt: float, n: int) -> L1Weights:
    """Weights b_0..b_{n-1} and the prefactor of the L1 scheme."""
    if not 0.0 < alpha < 1.0:
        raise HypothesisError(f"alpha must lie in (0, 1), got {alpha}")
    if dt <= 0 or not math.isfinite(dt):
        raise HypothesisError(f"dt must be positive and finite, got {dt}")
    if n < 1:
        raise HypothesisError(f"need at least one weight, got n={n}")
    j = np.arange(n + 1, dtype=np.float64)
    powers = j ** (1.0 - alpha)
    b = powers[1:] - powers[:-1]
    scale = dt ** (-alpha) / _gamma(2.0 - alpha)
    return L1Weights(alpha=alpha, dt=dt, b=b, scale=scale)


class HistoryBuffer:
    """Dense store of all past states u^0 .. u^{n-1}: the reference L1 history.

    Snapshots are kept in one contiguous (capacity, size) array that
    doubles on demand; ``matrix()`` exposes the filled part without
    copying.  Memory and work grow with the step count, so the march
    uses ``SoeHistory``; this class backs the tests that check the
    march against the exact L1 sum.
    """

    def __init__(self, u0: np.ndarray, dt: float):
        u0 = np.asarray(u0, dtype=np.float64)
        self.shape = u0.shape
        self.size = u0.size
        self.dt = float(dt)
        self._data = np.empty((16, self.size), dtype=np.float64)
        self._n = 0
        self.append(u0)

    def __len__(self) -> int:
        return self._n

    def append(self, u: np.ndarray) -> None:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.shape:
            raise GridMismatchError(
                f"snapshot shape {u.shape} does not match history shape {self.shape}")
        if self._n == self._data.shape[0]:
            grown = np.empty((2 * self._n, self.size), dtype=np.float64)
            grown[:self._n] = self._data
            self._data = grown
        self._data[self._n] = u.ravel()
        self._n += 1

    def matrix(self) -> np.ndarray:
        """View of shape (n, size), oldest state first."""
        return self._data[:self._n]

    def last(self) -> np.ndarray:
        return self._data[self._n - 1].reshape(self.shape)

    def snapshot(self, i: int) -> np.ndarray:
        return self._data[:self._n][i].reshape(self.shape)

    def coefficients(self, weights: L1Weights) -> np.ndarray:
        return memory_coefficients(weights.b, self._n)


def soe_kernel(alpha: float, n: int):
    """Nodes s and weights w with sum_l w_l exp(-s_l tau) = tau^(-alpha)
    to relative accuracy SOE_TOL on 1 <= tau <= n.

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
    return truncate(hi)


class SoeHistory:
    """Sum-of-exponentials L1 history: O(K size) memory and work per step.

    With b_j = (1-alpha) int_j^{j+1} tau^(-alpha) dtau and tau^(-alpha)
    replaced by ``soe_kernel(alpha, N)`` (N = len(weights.b)), the L1
    history sum becomes

        sum_{j=1}^{n-1} b_j (u^{n-j} - u^{n-j-1}) = beta . A,
        A_l <- exp(-s_l) A_l + (u^n - u^{n-1})               on append,
        beta_l = w_l (1-alpha) exp(-s_l) (1 - exp(-s_l)) / s_l,

    so the memory term is u^{n-1} - beta . A.  The rows held are u^{n-1}
    followed by the K sums A_l; a constant history has A = 0 and
    reproduces the constant exactly.
    """

    def __init__(self, u0: np.ndarray, weights: L1Weights):
        u0 = np.asarray(u0, dtype=np.float64)
        self.shape = u0.shape
        self.size = u0.size
        self.alpha = weights.alpha
        self.horizon = weights.b.shape[0]
        nodes, w = soe_kernel(weights.alpha, self.horizon)
        decay = np.exp(-nodes)
        beta = w * (1.0 - weights.alpha) * decay * -np.expm1(-nodes) / nodes
        self._decay = decay[:, None]
        self._coefficients = np.concatenate(([1.0], -beta))
        self._data = np.zeros((nodes.size + 1, self.size), dtype=np.float64)
        self._data[0] = u0.ravel()
        self._states = 1

    def __len__(self) -> int:
        return self._data.shape[0]

    def append(self, u: np.ndarray) -> None:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.shape:
            raise GridMismatchError(
                f"snapshot shape {u.shape} does not match history shape {self.shape}")
        flat = u.ravel()
        sums = self._data[1:]
        sums *= self._decay
        sums += flat - self._data[0]
        self._data[0] = flat
        self._states += 1

    def matrix(self) -> np.ndarray:
        """Rows u^{n-1}, A_1 .. A_K, shape (K + 1, size)."""
        return self._data

    def last(self) -> np.ndarray:
        return self._data[0].reshape(self.shape)

    def coefficients(self, weights: L1Weights) -> np.ndarray:
        if weights.alpha != self.alpha or weights.b.shape[0] != self.horizon:
            raise HypothesisError(
                f"weights (alpha={weights.alpha}, N={weights.b.shape[0]}) do not match "
                f"the history kernel (alpha={self.alpha}, N={self.horizon})")
        if self._states > self.horizon:
            raise HypothesisError(
                f"step index {self._states} outside the kernel horizon {self.horizon}")
        return self._coefficients


def memory_coefficients(b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients c with sum(c) = 1 so that the L1 value at step n is
    scale * (u^n - c . (u^0, ..., u^{n-1})).

    c[0] = b_{n-1} and c[i] = b_{n-1-i} - b_{n-i} for 1 <= i <= n-1.
    """
    if n < 1 or n > b.shape[0]:
        raise HypothesisError(f"step index {n} outside the weight table of size {b.shape[0]}")
    c = np.empty(n, dtype=np.float64)
    c[0] = b[n - 1]
    if n > 1:
        c[1:] = b[n - 2::-1] - b[n - 1:0:-1]
    return c


def memory_term(history, weights: L1Weights) -> np.ndarray:
    """Past part of the L1 update: the history's coefficients applied to
    the rows it holds (the exact convex combination of past states for
    ``HistoryBuffer``, its sum-of-exponentials form for ``SoeHistory``)."""
    return (history.coefficients(weights) @ history.matrix()).reshape(history.shape)


def caputo_series(values: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """L1 Caputo derivative of a scalar time series at every step n >= 1.

    Returns an array of length len(values) - 1 holding the derivative
    at t_1 .. t_{N-1}.  Beyond 512 differences the convolution with the
    weights runs by FFT (O(N log N) instead of O(N^2)).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0] - 1
    if n < 1:
        raise HypothesisError("need at least two samples to differentiate")
    w = l1_weights(alpha, dt, n)
    diffs = np.diff(values)
    if n > 512:
        from scipy.signal import fftconvolve
        conv = fftconvolve(diffs, w.b)[:n]
    else:
        conv = np.convolve(diffs, w.b)[:n]
    return w.scale * conv


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

_mp_gamma_cache: dict = {}


def _ml_series_float(alpha: float, beta: float, z: float) -> float:
    """Kahan-compensated Taylor series; caller guarantees conditioning."""
    total = _rgamma(beta)
    comp = 0.0
    j = 0
    # past the peak the terms decay monotonically; stop once negligible
    peak = abs(z) ** (1.0 / alpha) / alpha + 10.0
    while True:
        j += 1
        term = z ** j * _rgamma(alpha * j + beta)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if j > peak and abs(term) < 1e-17 * (abs(total) + 1e-300):
            return total
        if j > 200000:
            raise EvaluationRangeError(
                f"Mittag-Leffler series failed to converge at alpha={alpha}, "
                f"beta={beta}, z={z}")


def _ml_series_positive(alpha: float, beta: float, z: float) -> float:
    """All-positive series in log space.

    Raw powers z**j can overflow float64 long before the Gamma division
    brings the term back in range, so each term is assembled as
    exp(j log z - logGamma(alpha j + beta)).
    """
    lz = math.log(z)
    total = _rgamma(beta)
    comp = 0.0
    j = 0
    peak = z ** (1.0 / alpha) / alpha + 10.0
    while True:
        j += 1
        term = math.exp(j * lz - _gammaln(alpha * j + beta))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if j > peak and term < 1e-17 * total:
            return total
        if j > 200000:
            raise EvaluationRangeError(
                f"Mittag-Leffler series failed to converge at alpha={alpha}, "
                f"beta={beta}, z={z}")


def _ml_asymptotic(alpha: float, beta: float, z: float):
    """Algebraic expansion for z -> -inf; returns (value, error_estimate).

    Sums -z^{-k} / Gamma(beta - alpha k), truncating at the optimal
    point.  Truncation is controlled by the pole-safe envelope
    |z|^-k Gamma(1 + alpha k - beta) / pi (the reflection formula with
    |sin| replaced by 1), not by the terms themselves: when
    beta - alpha k lands within rounding distance of a Gamma pole the
    term collapses to ~1e-19 without the series having converged, and a
    term-magnitude rule would both stop the sum early and report a
    wildly optimistic error.  The envelope is smooth in k, bounds every
    term, and is unimodal, so first growth marks optimal truncation and
    the smallest retained envelope is a conservative error estimate.
    """
    total = 0.0
    comp = 0.0
    smallest = math.inf
    prev_env = math.inf
    zk = 1.0
    for k in range(1, 400):
        zk /= z
        x = beta - alpha * k
        term = -zk * _rgamma(x)
        if x < 0.5:
            env = abs(zk) * _gamma(1.0 - x) / math.pi
        else:
            env = abs(term)
        if env > prev_env:
            break
        prev_env = env
        smallest = env
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if env < 1e-18:
            break
    return total, smallest


def _ml_mpmath(alpha: float, beta: float, z: float) -> float:
    """Arbitrary-precision series for the cancellation band.

    Working precision is scaled to the peak term ~ exp(|z|^(1/alpha)),
    with Gamma values cached per (alpha, beta, precision) since sweeps
    hit the same parameter pair many times.

    The Gamma argument alpha*j + beta must be formed in working
    precision: float64 rounding of the product perturbs peak terms by
    ~ psi(arg) * 1e-15 relative, which the alternating sum amplifies
    far above the final cancellation level.  The cache uses idempotent
    per-index writes so concurrent sweeps cannot corrupt it.
    """
    import mpmath as mp

    s = abs(z) ** (1.0 / alpha)
    dps = 20 * (int((s / math.log(10.0) + 40.0) / 20) + 1)
    key = (alpha, beta, dps)
    gammas = _mp_gamma_cache.setdefault(key, {})
    with mp.workdps(dps):
        am = mp.mpf(alpha)
        bm = mp.mpf(beta)
        zm = mp.mpf(z)
        total = mp.mpf(0)
        j = 0
        jmax = int(s / alpha) + 60
        zj = mp.mpf(1)
        cutoff = mp.mpf(10) ** (-dps + 5)
        while True:
            g = gammas.get(j)
            if g is None:
                g = mp.gamma(am * j + bm)
                gammas[j] = g
            term = zj / g
            total += term
            j += 1
            zj *= zm
            if j > jmax and abs(term) < cutoff:
                break
            if j > 500000:
                raise EvaluationRangeError(
                    f"Mittag-Leffler fallback failed at alpha={alpha}, beta={beta}, z={z}")
        return float(total)


def mittag_leffler(alpha: float, z: float, beta: float = 1.0) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Absolute accuracy 1e-12 on |z| <= 50.  The evaluation strategy is
    chosen by conditioning: a compensated Taylor series where float64
    carries it, the algebraic large-negative expansion where its
    optimal-truncation error is below target, and an arbitrary-
    precision series in the cancellation band between the two.

    Large positive arguments whose result would exceed the float64
    range (exp scale beyond ~700) raise EvaluationRangeError instead of
    saturating silently.
    """
    if not (0.0 < alpha <= 2.0):
        raise HypothesisError(f"alpha must lie in (0, 2], got {alpha}")
    if beta <= 0 or not math.isfinite(beta):
        raise HypothesisError(f"beta must be positive, got {beta}")
    z = float(z)
    if not math.isfinite(z):
        raise EvaluationRangeError(f"argument must be finite, got {z}")

    if z == 0.0:
        return float(_rgamma(beta))
    if alpha == 1.0 and beta == 1.0:
        if z > _OVERFLOW_EXPONENT:
            raise EvaluationRangeError(
                f"E_1(z) = exp(z) overflows float64 at z = {z}")
        return math.exp(z)

    s = abs(z) ** (1.0 / alpha)
    if z > 0:
        if s > _OVERFLOW_EXPONENT:
            raise EvaluationRangeError(
                f"E_({alpha},{beta})({z}) is on the exp({s:.3g}) scale; "
                "beyond float64 range")
        return _ml_series_positive(alpha, beta, z)

    # negative axis: pick the cheapest branch meeting the target
    if s - beta * math.log(s) <= math.log(_SERIES_COND_LIMIT) or s <= 2.0:
        return _ml_series_float(alpha, beta, z)
    if alpha < 1.0:
        value, err = _ml_asymptotic(alpha, beta, z)
        if err <= _ML_TARGET:
            return value
    return _ml_mpmath(alpha, beta, z)


# --------------------------------------------------------------------------
# discrete inequality checkers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Per-step margins of a discrete fractional inequality."""

    passed: bool
    margins: np.ndarray     # lhs - rhs at steps 1..N-1; >= 0 when the inequality holds
    worst: float


def _inequality_tolerance(scale: float, magnitude: float) -> float:
    return 1e-12 * scale * max(1.0, magnitude)


def alikhanov_check(v_series, alpha: float, dt: float) -> InequalityReport:
    """Check the discrete product inequality of the L1 operator,

        v^n (D^alpha v)^n >= (1/2) (D^alpha v^2)^n      for every step n,

    which holds structurally for decreasing positive weights.  Margins
    within float rounding of zero count as passing.
    """
    v = np.asarray(v_series, dtype=np.float64)
    dv = caputo_series(v, alpha, dt)
    dv2 = caputo_series(v ** 2, alpha, dt)
    lhs = v[1:] * dv
    rhs = 0.5 * dv2
    margins = lhs - rhs
    scale = dt ** (-alpha) / _gamma(2.0 - alpha)
    tol = _inequality_tolerance(scale, float(np.max(np.abs(v))) ** 2)
    worst = float(np.min(margins)) if margins.size else 0.0
    return InequalityReport(passed=bool(np.all(margins >= -tol)),
                            margins=margins, worst=worst)


def power_inequality_check(u_series, n_exp: int, alpha: float,
                           dt: float) -> InequalityReport:
    """Check the discrete power-rule inequality on nonnegative data,

        (u^n)^(m-1) (D^alpha u)^n >= (1/m) (D^alpha u^m)^n,   m = n_exp >= 2.
    """
    if int(n_exp) != n_exp or n_exp < 2:
        raise HypothesisError(f"exponent must be an integer >= 2, got {n_exp}")
    u = np.asarray(u_series, dtype=np.float64)
    if np.any(u < 0):
        raise HypothesisError("power inequality requires a nonnegative series")
    du = caputo_series(u, alpha, dt)
    dum = caputo_series(u ** n_exp, alpha, dt)
    lhs = u[1:] ** (n_exp - 1) * du
    rhs = dum / n_exp
    margins = lhs - rhs
    scale = dt ** (-alpha) / _gamma(2.0 - alpha)
    tol = _inequality_tolerance(scale, float(np.max(u)) ** n_exp)
    worst = float(np.min(margins)) if margins.size else 0.0
    return InequalityReport(passed=bool(np.all(margins >= -tol)),
                            margins=margins, worst=worst)
