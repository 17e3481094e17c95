"""Time march for the fractional reaction-diffusion model.

Each step solves the L1 discretization

    scale * (u^n - memory(u^0..u^{n-1})) = RHS + starting load,

with the diffusion taken implicitly at frozen (lagged) diffusivity, the
death term implicitly and the growth term explicitly.  The frozen
system is solved directly in 1D (cyclic tridiagonal: one LAPACK
tridiagonal solve plus a Sherman-Morrison correction) and in 2D at
p = 2, m = 1, where its coefficients are constant and four dense
products in the real eigenbasis of the periodic Laplacian invert it
(``operators._eigen_product`` with ``np.divide``, the product the 2D
kernel convolution makes).  Other 2D systems are solved by
conjugate gradients preconditioned by that same solve, started from
the cubic extrapolation of the last four states (``L1Memory.predict``).
The memory term is a convex combination of all past states.  One
``L1Memory`` keeps it in sum-of-exponentials form: the last state, K
exponentially weighted sums of increments (K = 18-48 for 1 to 2e4
steps) and the up to 16 increments taken since those sums were last
updated, which every 16th step folds into them with one matrix
product.  A step costs O((K + 16) size) work and memory, whatever the
step count; the memory also holds the scale and the starting loads.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .errors import GridMismatchError, HypothesisError, SolverConvergenceError
from .fractional import L1Memory, memory_term, mittag_leffler
from .model import (COUPLING_GLOBAL_MASS, DomainSpec, Field, ModelParameters,
                    reaction, validate_params)
from .operators import (KernelGrid, _eigen_product, _laplacian_axis, _laplacian_symbol,
                        convolve_kernel, diffusion_apply, face_diffusivity, global_mass)

_CG_TOL = 1e-10
_NEGATIVE_WARN = -1e-8
# t_final / dt may miss an integer by this much (relative) and still
# count as a whole number of steps
_HORIZON_RTOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    eps_reg: float = 1e-6
    blowup_threshold: float = 1e8
    record_every: int = 10
    snapshot_times: Tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_final < math.inf:
            raise ValueError(
                f"t_final must be finite and at least one step, got {self.t_final} "
                f"with dt={self.dt}")
        ratio = self.t_final / self.dt
        if abs(ratio - round(ratio)) > _HORIZON_RTOL * ratio:
            raise ValueError(
                f"t_final = {self.t_final} is not a whole number of steps of dt = "
                f"{self.dt} (ratio {ratio:.12g})")
        if not 0 <= self.eps_reg < math.inf:
            raise ValueError(f"eps_reg must be finite and >= 0, got {self.eps_reg}")
        if not self.blowup_threshold > 0:
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold}")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")
        snaps = tuple(float(t) for t in self.snapshot_times)
        outside = [t for t in snaps if not 0.0 <= t <= self.t_final]
        if outside:
            raise ValueError(
                f"snapshot_times must lie in [0, t_final = {self.t_final}], got {outside}")
        object.__setattr__(self, "snapshot_times", snaps)


@dataclass(frozen=True)
class RunStatus:
    kind: str       # "completed" | "blowup" | "nonfinite" | "solver_failed"
    time: Optional[float] = None    # halt time for abnormal kinds

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


@dataclass
class RunReport:
    status: RunStatus
    times: np.ndarray
    sup_series: np.ndarray
    l2_series: np.ndarray
    l1_series: np.ndarray
    min_series: np.ndarray
    final: Field
    steps: int
    wall_time: float
    snapshots: List[Tuple[float, Field]] = dc_field(default_factory=list)
    warnings: List[str] = dc_field(default_factory=list)
    history_rows: int = 0           # state rows the L1 history held at its peak


def detect_blowup(values: np.ndarray, threshold: float) -> Optional[str]:
    """Classify a state: ``"nonfinite"`` wins over ``"blowup"``; None is fine."""
    if np.abs(values).max() <= threshold:       # False for a NaN peak
        return None
    if not np.all(np.isfinite(values)):
        return "nonfinite"
    return "blowup"


# --------------------------------------------------------------------------
# right-hand side pieces
# --------------------------------------------------------------------------

def _coupling_value(values: np.ndarray, params: ModelParameters,
                    domain: DomainSpec, kernel: Optional[KernelGrid]):
    if params.coupling_mode == COUPLING_GLOBAL_MASS:
        return global_mass(Field(values, domain))
    if params.k == 0.0 or params.mu == 0.0:
        return 0.0          # coupling multiplies k*mu; skip the convolution
    if kernel is None:
        raise HypothesisError("kernel coupling requested but no kernel supplied")
    return convolve_kernel(Field(values, domain), kernel).values


# --------------------------------------------------------------------------
# frozen-diffusivity solves: direct in 1D and at constant 2D
# coefficients, preconditioned CG otherwise
# --------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _dgtsv():
    """LAPACK dgtsv, looked up on the first 1D solve: the 2D path never
    imports scipy.linalg (~60 ms)."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _cyclic_tridiagonal_solve(a: np.ndarray, shift: float,
                              b: np.ndarray) -> np.ndarray:
    """Solve (shift I - D(a)) x = b exactly for the 1D periodic operator.

    ``a`` holds the face coefficients over h^2, face i joining cells i
    and i+1.  The matrix is symmetric cyclic tridiagonal: diagonal
    shift + a + roll(a, 1), off-diagonal -a[:-1], corners c = -a[-1].
    Sherman-Morrison (Temperton, J. Comput. Phys. 19, 1975) with
    gamma = -d_0 writes it as T + u v^T, u = gamma e_0 + c e_{n-1},
    v = e_0 + (c / gamma) e_{n-1}, where the tridiagonal T differs only
    in its two corner diagonal entries (and stays SPD).  One dgtsv call
    solves T y = b and T z = u together; x = y - (v.y) / (1 + v.z) z.
    The scalar arithmetic runs on Python floats, which round as numpy's
    float64 scalars do at a fraction of their cost.
    """
    diag = shift + a            # + roll(a, 1), by slices: np.roll costs ~10 us
    diag[1:] += a[:-1]
    diag[0] += a[-1]
    off = -a[:-1]
    corner = -float(a[-1])
    gamma = -float(diag[0])
    diag[0] -= gamma
    diag[-1] -= corner * corner / gamma
    rhs = np.zeros((2, b.size)).T       # Fortran order: LAPACK works in place
    rhs[:, 0] = b
    rhs[0, 1] = gamma
    rhs[-1, 1] = corner
    _, _, _, yz, info = _dgtsv()(off, diag, off, rhs, 0, 1, 0, 1)   # overwrite d, b
    if info != 0:
        raise SolverConvergenceError(
            f"frozen-diffusivity tridiagonal solve failed (LAPACK dgtsv info = {info})")
    y, z = yz[:, 0], yz[:, 1]
    ratio = corner / gamma
    weight = ((float(y[0]) + ratio * float(y[-1]))
              / (1.0 + float(z[0]) + ratio * float(z[-1])))
    return y - weight * z


def _pcg(apply_a, b: np.ndarray, x0: np.ndarray, precond, tol_abs: float,
         maxiter: int):
    """Preconditioned CG from a copy of x0; returns (x, iterations).

    ``iterations`` counts the CG iterations after the initial residual,
    one ``apply_a`` call each.  The residual norm is checked before
    each preconditioner call, so a solve that stops after k iterations
    applies ``precond`` k times, one fewer than ``apply_a``, and not at
    all when x0 already meets ``tol_abs``.
    ``apply_a`` may return a buffer of its own (never its argument): it is overwritten."""
    x = x0.copy()
    r = b - apply_a(x)
    step_p = np.empty_like(x)
    for it in range(maxiter + 1):
        if float(np.linalg.norm(r.ravel())) <= tol_abs:
            return x, it
        if it == maxiter:
            break
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        if it == 0:
            p = z.copy()
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0 or not math.isfinite(pap):
            raise SolverConvergenceError(
                f"conjugate gradients broke down (p.Ap = {pap}) after {it} iterations")
        step = rz / pap
        x += np.multiply(p, step, out=step_p)
        ap *= step
        r -= ap
    raise SolverConvergenceError(
        f"frozen-diffusivity solve missed residual {tol_abs:.3g} within "
        f"{maxiter} iterations")


def step(memory: L1Memory, params: ModelParameters, domain: DomainSpec,
         config: SolverConfig, kernel: Optional[KernelGrid] = None) -> np.ndarray:
    """Advance one step from the state ``memory`` holds; returns u^n.

    The diffusivity is frozen at u^{n-1}, the nonlinear growth term is
    explicit, and the diagonal death term gamma u is implicit (free,
    and it keeps the temporal order at 2 - alpha instead of dropping
    to 1).  The step solves the SPD system
    ((scale + gamma) I - div(a grad)) u^n
        = scale memory + growth(u^{n-1}) + load.
    In 1D the matrix is cyclic tridiagonal and
    ``_cyclic_tridiagonal_solve`` solves it directly in O(N).  In 2D at
    p = 2, m = 1 every face coefficient is one, so the matrix is
    (scale + gamma) I minus the 5-point Laplacian, diagonal in the real
    cos/sin eigenbasis Q of the periodic Laplacian:
    ``_eigen_product(b, symbol, np.divide)`` (Q^T b Q, a division by the
    symbol, Q (.) Q^T) solves it exactly, with no face coefficients,
    guess or iteration.  Other 2D systems are
    solved by preconditioned conjugate gradients (the same solve with
    the mean face coefficient as preconditioner, residual 1e-10 |b|, at
    most 10 N iterations; b = 0 returns zeros).  A solve of k
    iterations makes k + 1 operator products and k preconditioner calls.
    CG starts from ``memory.predict()``, u^{n-1} + 3 d1 - 3 d2 + d3 with
    d_j the last increments (lower order over the first three steps):
    the states are smooth in time, so the guess leaves far less
    residual than u^{n-1} does.
    ``memory`` supplies the memory term, the scale and the load, the
    starting correction s_n R(u^0): solutions leave t = 0 like
    t^alpha, which caps the uncorrected history quadrature at first
    order globally, and the correction makes the march exact on that
    layer (see ``layer_correction_weights``).  Equilibria are
    unaffected (the load vanishes there).  For m != 1 the operator uses
    the lagged chain form div(a m u^{m-1} grad u).
    """
    u_prev = memory.last()
    mem = memory_term(memory)
    coupling = _coupling_value(u_prev, params, domain, kernel)
    scale = memory.scale

    growth = np.square(u_prev)
    growth *= params.mu
    growth *= 1.0 - params.k * coupling
    shift = scale + params.gamma
    b = np.multiply(mem, scale, out=mem)
    b += growth
    load = memory.load()
    if load is not None:
        b += load

    if u_prev.ndim == 2 and params.p == 2.0 and params.m == 1.0:
        return _eigen_product(b, shift + _laplacian_symbol(domain), np.divide)
    coeffs = face_diffusivity(u_prev, domain, params.p, config.eps_reg,
                              m=params.m)
    if u_prev.ndim == 1:
        return _cyclic_tridiagonal_solve(coeffs[0] / domain.h ** 2, shift, b)

    # A x, div(a grad x) and diffusion_apply's two work arrays, once per step
    ax, div, *work = np.empty((4,) + b.shape)
    def apply_a(x: np.ndarray) -> np.ndarray:
        diffusion_apply(coeffs, x, domain, out=div, work=work)
        return np.subtract(np.multiply(x, shift, out=ax), div, out=ax)

    abar = float(np.mean([np.mean(c) for c in coeffs]))
    symbol = shift + abar * _laplacian_symbol(domain)

    b_norm = float(np.linalg.norm(b.ravel()))
    if b_norm == 0.0:
        return np.zeros_like(b)
    x, _ = _pcg(apply_a, b, memory.predict(), lambda r: _eigen_product(r, symbol, np.divide),
                _CG_TOL * b_norm, maxiter=10 * u_prev.size)
    return x


# --------------------------------------------------------------------------
# full march
# --------------------------------------------------------------------------

def run(u0: Field, params: ModelParameters, config: SolverConfig,
        kernel: Optional[KernelGrid] = None) -> RunReport:
    """March the model from u0 to t_final and record norm series.

    Records (t, sup, L2, L1, min) every ``record_every`` steps plus the
    initial and final states; snapshots are stored at t = 0 and at the
    steps nearest each requested snapshot time.  A requested time whose
    step another requested time already holds adds a warning, not a
    second snapshot.  The march halts early
    with a ``blowup`` or ``nonfinite`` status when detect_blowup fires,
    and with ``solver_failed`` when a step's solve raises
    SolverConvergenceError.  A ``blowup`` report ends at the state past
    the threshold; ``nonfinite`` and ``solver_failed`` ones end at the
    last accepted, finite state, count only the accepted steps, and
    give the failed step's time as the halt time (``solver_failed``
    carries the solver's message in ``warnings``).
    Negative excursions below -1e-8 are reported in ``warnings``; the
    state itself is never clamped.
    """
    violations = validate_params(params)
    if violations:
        raise HypothesisError("invalid model parameters: " + "; ".join(violations))
    if u0.dim != params.dim:
        raise GridMismatchError(
            f"initial field is {u0.dim}D but params.dim = {params.dim}")

    t_start = time.perf_counter()
    dt = config.dt
    n_steps = max(1, int(round(config.t_final / dt)))
    domain = u0.domain
    # starting corrections for the t^alpha layer and, where R is exactly
    # linear so that R'(u0)[R(u0)] = R(R(u0)), the t^{2 alpha} layer, with
    # the march's own diffusion frozen at u0; both vanish at rest states.
    # coupling0 also rejects a missing kernel or one on another grid
    coupling0 = _coupling_value(u0.values, params, domain, kernel)
    coeffs0 = face_diffusivity(u0.values, domain, params.p, config.eps_reg, m=params.m)
    g1 = (diffusion_apply(coeffs0, u0.values, domain)
          + reaction(u0.values, coupling0, params))
    g2 = None
    if params.p == 2.0 and params.mu == 0.0 and params.m == 1.0:
        g2 = diffusion_apply(coeffs0, g1, domain) + reaction(g1, 0.0, params)
    memory = L1Memory(u0.values, params.alpha, dt, n_steps, g1, g2)

    warnings = []
    taken = {}
    for t in config.snapshot_times:
        s = int(round(t / dt))
        if s in taken:
            warnings.append(
                f"snapshot time {t:.6g} falls on step {s} (t = {s * dt:.6g}), "
                f"already taken by snapshot time {taken[s]:.6g}; one snapshot is kept")
        else:
            taken[s] = t
    snapshots: List[Tuple[float, Field]] = [(0.0, Field(u0.values.copy(), domain))]

    rows = []

    def record(t: float, values: np.ndarray) -> None:
        f = Field(values, domain)
        rows.append((t, f.sup_norm(), f.l2_norm(), f.l1_norm(), f.min_value()))

    record(0.0, u0.values)
    status = RunStatus("completed")
    worst_negative = 0.0
    worst_negative_t = None
    u = u0.values
    steps_done = 0

    for n in range(1, n_steps + 1):
        t_n = n * dt
        try:
            u_next = step(memory, params, domain, config, kernel)
            flag = detect_blowup(u_next, config.blowup_threshold)
        except SolverConvergenceError as exc:
            warnings.append(f"step {n} (t = {t_n:.6g}) failed: {exc}")
            flag = "solver_failed"
        if flag in ("solver_failed", "nonfinite"):
            # the report ends at the last accepted state, which is finite
            status = RunStatus(flag, time=t_n)
            if steps_done % config.record_every:
                record(steps_done * dt, u)
            break
        u = u_next
        steps_done = n
        mn = float(u.min())
        if mn < worst_negative:
            worst_negative = mn
            worst_negative_t = t_n
        if flag == "blowup":
            status = RunStatus("blowup", time=t_n)
            record(t_n, u)
            break
        memory.append(u)
        if n in taken:
            snapshots.append((t_n, Field(u.copy(), domain)))
        if n % config.record_every == 0 or n == n_steps:
            record(t_n, u)

    if worst_negative < _NEGATIVE_WARN:
        warnings.append(
            f"state dipped to {worst_negative:.6g} at t = {worst_negative_t:.6g}; "
            "values are reported unclamped")

    arr = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    return RunReport(
        status=status,
        times=arr[:, 0], sup_series=arr[:, 1], l2_series=arr[:, 2],
        l1_series=arr[:, 3], min_series=arr[:, 4],
        final=Field(u, domain),
        steps=steps_done,
        wall_time=time.perf_counter() - t_start,
        snapshots=snapshots,
        warnings=warnings,
        history_rows=len(memory),
    )


def linear_spectral_reference(u0: Field, params: ModelParameters, times):
    """Exact-in-time reference for the linear regime p = 2, mu = 0.

    Evolves each discrete Fourier mode of u0 by the Mittag-Leffler
    propagator E_alpha((lambda_k - gamma) t^alpha), with alpha and gamma
    from ``params`` and lambda_k the exact symbol of the centered
    3/5-point Laplacian stencil.  Only spatially semi-discrete dynamics
    are referenced, so comparing a time march against it isolates the
    temporal error.  Returns one Field per requested time.
    """
    if params.p != 2.0 or params.mu != 0.0:
        raise HypothesisError(
            f"spectral reference is valid only for p = 2, mu = 0; got "
            f"p={params.p}, mu={params.mu}")
    alpha = params.alpha
    if not (0.0 < alpha < 1.0 or alpha == 1.0):
        raise HypothesisError(f"alpha must lie in (0, 1], got {alpha}")
    symbol = _laplacian_axis(u0.domain)
    if u0.dim == 2:
        symbol = symbol[:, None] + symbol[None, :]
    spec0 = np.fft.fftn(u0.values)
    out = []
    for t in np.atleast_1d(times):
        mult = mittag_leffler(alpha, (-symbol - params.gamma) * float(t) ** alpha)
        out.append(Field(np.fft.ifftn(spec0 * mult).real, u0.domain))
    return out
