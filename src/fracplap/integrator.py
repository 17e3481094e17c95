"""Time march for the fractional reaction-diffusion model.

Each step solves the L1 discretization

    scale * (u^n - memory(u^0..u^{n-1})) = RHS + starting load,

with the diffusion taken implicitly at frozen (lagged) diffusivity, the
death term implicitly and the growth term explicitly.  The frozen
system is solved directly in 1D (cyclic tridiagonal: one LAPACK
tridiagonal solve plus a Sherman-Morrison correction) and in 2D at
p = 2, m = 1, where its coefficients are constant and the system is
diagonal in the real eigenbasis Q of the periodic Laplacian.  That
march keeps its history in eigenbasis coordinates Q^T u Q (the history
is linear in the states), so a step divides by the symbol and makes
one inverse half-transform (``operators._from_eigenbasis``), two dense
products, to get its grid state; kernel coupling adds the convolution
of that state (four) and the growth term's forward transform (two),
eight products in all.  Other 2D systems are solved by
conjugate gradients to a residual of 1e-9 |b|, started from the cubic
extrapolation in t^alpha of the last four states
(``L1Memory.predict``), and preconditioned by the
constant-coefficient solve at the mean face coupling, both
half-transforms around the division (``operators._eigen_product``),
scaled on both sides by a diagonal that gives it the system's own
diagonal (``_scaled_eigen_solve``).  A private ``_SolvePlan``, which
``run`` builds once per march, owns the march's state: it chooses the
path, builds the starting loads and the memory in that path's
coordinates, and holds the last grid state, the path's constants, work
arrays and CG counts; ``step`` takes the plan alone.
The memory term is a convex combination of all past states.  One
``L1Memory`` keeps it in sum-of-exponentials form: the last state, K
exponentially weighted sums of increments (K = 18-48 for 1 to 2e4
steps) and the up to 16 increments taken since those sums were last
updated, which every 16th step folds into them and projects onto the
memory-term weights of the next 16 steps, two matrix products that
read the sums once.  A step's memory term reads at most 17 rows, the
fold costs O(K size) work a step amortized, and the memory holds
O((K + 19) size), whatever the step count: the 16 increments and
projections and a copy of the last 3 increments, which the predictor
reads until 3 steps after a fold.  It also holds the scale and the
starting loads.
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
from .model import (COUPLING_GLOBAL_MASS, COUPLING_KERNEL, DomainSpec, Field,
                    ModelParameters, reaction, validate_params)
from .operators import (KernelGrid, _check_same_grid, _coupling_work, _eigen_product,
                        _from_eigenbasis, _laplacian_axis, _laplacian_symbol,
                        _periodic_convolve, _periodic_diff, _to_eigenbasis,
                        diffusion_apply, face_diffusivity)

# A 2D PCG solve stops at residual |r| <= _CG_TOL |b|.  The frozen
# matrix A = (scale + gamma) I - div(a grad) has A >= (scale + gamma) I,
# so |x - x*| <= |r| / (scale + gamma); b is mostly scale times the
# memory term, near scale x*, so the step's relative 2-norm error stays
# at most about _CG_TOL.  That is some six orders of magnitude below the
# march's own time-discretization error (dt against dt / 2: 3.5e-6 on the
# bounded-2d manifest).
_CG_TOL = 1e-9
# A 2D PCG solve stops here: past it a direct solve is cheaper.  At
# n = 64 one iteration (an operator product, a preconditioner call and
# the vector updates) took 63-102 us and a sparse LU of the frozen
# system (scipy.sparse.linalg.splu, plus one solve) 18-29 ms, a
# crossover at 277-299 iterations in five processes (350-437 at
# n = 128).  Frozen couplings 40 steps into the bounded-2d manifest
# (p = 1.8), the minimum of 7 repeats, on a 2-vCPU Xeon KVM guest.  No
# step measured comes near the cap: 75 iterations at worst over 100
# steps of that manifest at n = 128, p = 1.2, and 83 in the test suite
# and ``fracplap verify``.
_CG_MAXITER = 300
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
        if not (0 <= self.eps_reg and self.eps_reg * self.eps_reg < math.inf):
            raise ValueError(f"eps_reg must be >= 0 with a finite square, got {self.eps_reg}")
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

    @property
    def halted(self) -> bool:
        """Whether the run stopped early, neither completed nor blown up:
        its recorded history says nothing about the horizon."""
        return self.kind not in ("completed", "blowup")


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
    soe_terms: int = 0              # K, the sum-of-exponentials terms among them
    worst_negative: float = 0.0     # lowest value of an accepted state, if below 0
    worst_negative_time: Optional[float] = None
    solve_path: str = ""            # "tridiagonal", "eigenbasis" or "pcg"
    cg_iterations: int = 0          # CG iterations over all solved steps
    cg_iterations_max: int = 0      # and the most in one step
    cg_residual_max: Optional[float] = None     # worst |r| / |b| a CG solve stopped at;
                                                # None off the PCG path


# --------------------------------------------------------------------------
# right-hand side pieces
# --------------------------------------------------------------------------

def _coupling_value(values: np.ndarray, params: ModelParameters,
                    domain: DomainSpec, kernel: Optional[KernelGrid]):
    """The global mass sum(u) h^dim, or J * u of the grid state ``values``
    as a new array; builds no Field and leaves the kernel's grid to
    ``run``, which checks it once."""
    if params.coupling_mode == COUPLING_GLOBAL_MASS:
        return float(np.sum(values)) * domain.h ** values.ndim
    if params.k == 0.0 or params.mu == 0.0:
        return 0.0          # coupling multiplies k*mu; skip the convolution
    if kernel is None:
        raise HypothesisError("kernel coupling requested but no kernel supplied")
    return _periodic_convolve(values, kernel.operator)


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


def _cyclic_tridiagonal_solve(a: np.ndarray, shift: float, b: np.ndarray,
                              diag: Optional[np.ndarray] = None,
                              off: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Solve (shift I - D(a)) x = b exactly for the 1D periodic operator.

    ``a`` holds the face couplings (``face_diffusivity``'s a / h^2),
    face i joining cells i and i+1.  The matrix is symmetric cyclic
    tridiagonal: diagonal shift + a + roll(a, 1), off-diagonal -a[:-1],
    corners c = -a[-1].
    Sherman-Morrison (Temperton, J. Comput. Phys. 19, 1975) with
    gamma = -d_0 writes it as T + u v^T, u = gamma e_0 + c e_{n-1},
    v = e_0 + (c / gamma) e_{n-1}, where the tridiagonal T differs only
    in its two corner diagonal entries (and stays SPD).  One dgtsv call
    solves T y = b and T z = u together; x = y - (v.y) / (1 + v.z) z.
    The code works on the negated system (off-diagonal a[:-1], corner
    a[-1], gamma d_0, -b and -u): negation is exact and commutes with
    dgtsv's partial pivoting, so x keeps its bits.  Scalars are Python
    floats (``item``, ``tolist``), which round as numpy's do, but cheaper.
    ``diag``, shaped like b, and the two arrays of ``off``, shaped
    (n - 1,), are overwritten (allocated when omitted): dgtsv overwrites
    all three diagonals, so ``off`` takes two copies of a[:-1], a is left
    as it is and scipy copies nothing.  x is a new array.
    """
    n = b.size
    diag = np.subtract(-shift, a, diag)     # - roll(a, 1), by slices: np.roll costs ~10 us
    np.subtract(diag[1:], a[:-1], diag[1:])
    corner = a.item(-1)
    gamma = -(diag.item(0) - corner)
    diag[0] = -gamma - gamma
    diag[-1] = diag.item(-1) - corner * corner / gamma
    rhs = np.zeros((2, n))      # its transpose is in Fortran order: LAPACK works in place
    np.negative(b, rhs[0])
    rhs[1, 0] = gamma
    rhs[1, -1] = corner
    lower, upper = np.empty((2, n - 1)) if off is None else off
    lower[...] = upper[...] = a[:-1]
    _, _, _, yz, info = _dgtsv()(lower, diag, upper, rhs.T, 1, 1, 1, 1)   # overwrite all
    if info != 0:
        raise SolverConvergenceError(
            f"frozen-diffusivity tridiagonal solve failed (LAPACK dgtsv info = {info})")
    (y0, z0), (y1, z1) = yz[::n - 1].tolist()
    ratio = corner / gamma
    x = yz[:, 1]                # x = y - weight z, in place
    np.multiply(x, -(y0 + ratio * y1) / (1.0 + z0 + ratio * z1), x)
    return np.add(x, yz[:, 0], x)


def _pcg(apply_a, b: np.ndarray, x: np.ndarray, precond, tol_abs: float,
         maxiter: int):
    """Preconditioned CG from x, updated in place; returns (x, iterations,
    residual).

    ``iterations`` counts the CG iterations after the initial residual,
    one ``apply_a`` call each; ``residual`` is the norm |r| of the
    residual the solve stopped at.  The residual norm is checked before
    each preconditioner call, so a solve that stops after k iterations
    applies ``precond`` k times, one fewer than ``apply_a``, and not at
    all when x already meets ``tol_abs``.
    ``apply_a`` may return a buffer of its own (never its argument): it is overwritten."""
    r = b - apply_a(x)
    r_flat = r.reshape(-1)      # a view: sqrt(r.r) is what np.linalg.norm computes for it
    step_p = np.empty_like(x)
    for it in range(maxiter + 1):
        residual = math.sqrt(r_flat.dot(r_flat))
        if residual <= tol_abs:
            return x, it, residual
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


def _scaled_eigen_solve(coeffs, shift: float, domain: DomainSpec):
    """The 2D PCG preconditioner r -> S^-1 M0^-1 S^-1 r for the frozen
    system A = shift I - div(a grad) with face couplings ``coeffs``
    (``face_diffusivity``'s a / h^2).

    M0 = shift I + abar (-Laplacian_1), abar the mean face coupling and
    -Laplacian_1 the 5-point operator of unit couplings,
    is solved by ``_eigen_product``; the diagonal S, S^2 = diag(A) /
    diag(M0), gives M = S M0 S the diagonal of A, so M follows the
    couplings' spread where abar alone cannot (Concus & Golub, SIAM
    J. Numer. Anal. 10, 1973, scale the fast solver by sqrt(a)).  S > 0
    keeps M SPD.  Constant couplings whose mean is exact, such as the
    all-zero ones of a degenerate m > 1 state, give S = 1.0 and M0's
    bits; nothing divides by abar."""
    # the mean of the axes' means, summed as np.mean sums, at a third of its cost
    abar = sum(np.add.reduce(c, axis=None) / c.size for c in coeffs) / 2.0
    symbol = shift + abar * _laplacian_symbol(domain, unit=True)
    # diag(A): shift + the couplings of a cell's four faces; the second
    # array is then the preconditioner's work array
    diag, scaled = (_periodic_diff(c, ax, np.empty_like(c), lo=-1, hi=0, op=np.add)
                    for ax, c in enumerate(coeffs))
    np.add(np.add(diag, scaled, diag), shift, diag)
    inv_s = np.sqrt(np.divide(shift + 4.0 * abar, diag, diag), diag)

    def precond(r: np.ndarray) -> np.ndarray:
        z = _eigen_product(np.multiply(r, inv_s, out=scaled), symbol, np.divide)
        return np.multiply(z, inv_s, out=z)

    return precond


class _SolvePlan:
    """A march's state and its solve, chosen once: the path, the L1
    memory in that path's coordinates, the constants and the work
    arrays, which ``step`` would otherwise rebuild on every call.

    ``path`` is "tridiagonal" in 1D, "eigenbasis" in 2D at p = 2, m = 1,
    and "pcg" otherwise (see ``step``); the plan's method of that name
    solves a step's system from its right-hand side b.  The plan builds
    the starting loads, R taking the march's own diffusion frozen at
    u^0: g1 = R(u^0) and, where R is exactly linear (p = 2, mu = 0,
    m = 1) and alpha < 1/2, g2 = R'(u^0)[R(u^0)] = R(R(u^0)).
    t^(2 alpha) is singular only below 1/2; above it the uncorrected
    rate already meets the smooth cap and g2 would only perturb stiff
    modes.  From u^0 and the loads it builds the march's ``memory``, on
    the eigenbasis path in eigenbasis coordinates Q^T u Q
    (``operators._to_eigenbasis``), in which that system is diagonal;
    ``to_coordinates`` takes a grid term of b there (None elsewhere).
    ``last`` is the grid state u^{n-1}: a view of the memory's last row,
    or on the eigenbasis path Q c Q^T of it, built here once and then
    taken from the solve that made the state.  ``accept`` appends an
    accepted state to the memory in its coordinates.  ``shift`` is
    scale + gamma, the diagonal the implicit death term adds.
    ``iterations`` and ``iterations_max`` count the CG iterations of the
    steps solved so far, their total and the most in one step;
    ``residual_max`` is the worst relative residual |r| / |b| they
    stopped at, None off the PCG path.  ``run`` builds one plan per
    march."""

    def __init__(self, u0: np.ndarray, params: ModelParameters, domain: DomainSpec,
                 config: SolverConfig, kernel: Optional[KernelGrid] = None):
        self.params, self.domain, self.config, self.kernel = params, domain, config, kernel
        # the starting loads vanish at rest states; coupling0 also rejects
        # a missing kernel
        coupling0 = _coupling_value(u0, params, domain, kernel)
        coeffs0 = face_diffusivity(u0, domain, params.p, config.eps_reg, m=params.m)
        g1 = diffusion_apply(coeffs0, u0) + reaction(u0, coupling0, params)
        g2 = None
        if (params.p == 2.0 and params.mu == 0.0 and params.m == 1.0
                and 2.0 * params.alpha < 1.0):
            g2 = diffusion_apply(coeffs0, g1) + reaction(g1, 0.0, params)
        self.path = ("tridiagonal" if u0.ndim == 1 else
                     "eigenbasis" if params.p == 2.0 and params.m == 1.0 else "pcg")
        eigen = self.path == "eigenbasis"
        self.to_coordinates = _to_eigenbasis if eigen else None
        if eigen:       # this path's memory holds eigenbasis coordinates
            u0, g1, g2 = (None if v is None else _to_eigenbasis(v) for v in (u0, g1, g2))
        self.memory = L1Memory(u0, params.alpha, config.dt,
                               int(round(config.t_final / config.dt)), g1, g2)
        u = self.memory.last()
        self.shift = self.memory.scale + params.gamma
        self.growth = np.empty_like(u)
        self.iterations = self.iterations_max = 0
        self.residual_max = 0.0 if self.path == "pcg" else None
        self.last = _from_eigenbasis(u) if eigen else u
        if eigen:
            self.symbol = self.shift + _laplacian_symbol(domain)
            self.coords = None      # of the last solve's state
        else:
            self.coupling_work = _coupling_work(domain, params.p, config.eps_reg,
                                                params.m, u.shape)
            if self.path == "tridiagonal":      # dgtsv's diagonal and two off-diagonals
                self.diag, self.off = np.empty_like(u), tuple(np.empty((2, u.size - 1)))
            else:   # A x, div(a grad x) and diffusion_apply's two work arrays
                self.work = np.empty((4,) + u.shape)
        self.solve = getattr(self, self.path)

    def accept(self, u: np.ndarray) -> None:
        """Append u^n, the state of the last solve, to the memory."""
        if self.path == "eigenbasis":
            self.memory.append(self.coords)
            self.last = u
        else:
            self.memory.append(u)       # last is a view of the row this writes

    def eigenbasis(self, b: np.ndarray) -> np.ndarray:
        self.coords = np.divide(b, self.symbol, b)
        return _from_eigenbasis(self.coords)

    def couplings(self):
        """``face_diffusivity``'s couplings a / h^2, frozen at ``last``."""
        return face_diffusivity(self.last, self.domain, self.params.p, self.config.eps_reg,
                                m=self.params.m, work=self.coupling_work)

    def tridiagonal(self, b: np.ndarray) -> np.ndarray:
        return _cyclic_tridiagonal_solve(self.couplings()[0], self.shift, b, self.diag,
                                         self.off)

    def pcg(self, b: np.ndarray) -> np.ndarray:
        coeffs = self.couplings()
        b_norm = float(np.linalg.norm(b.ravel()))
        if b_norm == 0.0:
            return np.zeros_like(b)
        shift = self.shift
        ax, div, *work = self.work

        def apply_a(x: np.ndarray) -> np.ndarray:
            diffusion_apply(coeffs, x, out=div, work=work)
            return np.subtract(np.multiply(x, shift, out=ax), div, out=ax)

        x, iterations, residual = _pcg(apply_a, b, self.memory.predict(),
                                       _scaled_eigen_solve(coeffs, shift, self.domain),
                                       _CG_TOL * b_norm, maxiter=_CG_MAXITER)
        self.iterations += iterations
        self.iterations_max = max(self.iterations_max, iterations)
        self.residual_max = max(self.residual_max, residual / b_norm)
        return x


def step(plan: _SolvePlan) -> np.ndarray:
    """Advance one step from the state ``plan.memory`` holds; returns u^n.

    The diffusivity is frozen at u^{n-1} (``plan.last``, the grid
    state), the nonlinear growth term is explicit, and the diagonal
    death term gamma u is implicit (free, and it keeps the temporal
    order at 2 - alpha instead of dropping to 1).  The step solves the
    SPD system
    ((scale + gamma) I - div(a grad)) u^n
        = scale memory + growth(u^{n-1}) + load
    by the path of ``plan``, which ``run`` builds once per march and
    which holds the memory in that path's coordinates.  b is formed in
    them: the growth term, on the grid, is taken there by the plan's
    ``to_coordinates``.  In 1D the matrix is cyclic tridiagonal and
    ``_cyclic_tridiagonal_solve`` solves it directly in O(N).  In 2D at
    p = 2, m = 1 every face coupling is h^-2, so the matrix is
    (scale + gamma) I minus the 5-point Laplacian, diagonal in the real
    cos/sin eigenbasis Q of the periodic Laplacian.  There the memory
    holds coordinates c = Q^T u Q, and a division by the symbol solves
    the system exactly, with no face coefficients, guess or iteration;
    the inverse half-transform returns the grid state: two dense n x n
    products a step at mu = 0, eight with kernel coupling (the
    convolution four, the growth term's forward transform two).  Other
    2D systems are solved by preconditioned CG (residual 1e-9 |b|, at
    most ``_CG_MAXITER`` = 300 iterations, past which a direct solve
    would be cheaper; b = 0 returns zeros); the preconditioner is
    the constant-coefficient solve at the mean face coupling, from and
    back to the grid (``_eigen_product``), diagonally scaled to
    the system's diagonal (``_scaled_eigen_solve``), which keeps the
    iterations nearly flat as p falls and the couplings spread.  A
    solve of k iterations makes k + 1 operator products and k
    preconditioner calls.
    CG starts from ``memory.predict()``, the cubic in s = t^alpha through
    the last four states (lower order over the first three steps):
    solutions leave t = 0 like u^0 + c t^alpha and are smooth in s, so
    the guess leaves far less residual than u^{n-1} or a cubic in the
    step index does.
    The memory supplies the memory term, the scale and the load, the
    starting correction s_n R(u^0): solutions leave t = 0 like
    t^alpha, which caps the uncorrected history quadrature at first
    order globally, and the correction makes the march exact on that
    layer (see ``layer_correction_weights``).  Equilibria are
    unaffected (the load vanishes there).  For m != 1 the operator uses
    the lagged chain form div(a m u^{m-1} grad u).
    """
    memory, params = plan.memory, plan.params
    b = memory_term(memory)
    np.multiply(b, memory.scale, b)
    if params.mu != 0.0:        # else the growth term is zero: skip it and the coupling
        u_prev = plan.last
        coupling = _coupling_value(u_prev, params, plan.domain, plan.kernel)
        growth = np.square(u_prev, plan.growth)
        np.multiply(growth, params.mu, growth)
        np.multiply(growth, 1.0 - params.k * coupling, growth)
        to_coordinates = plan.to_coordinates
        np.add(b, growth if to_coordinates is None else to_coordinates(growth), b)
    load = memory.load()
    if load is not None:
        np.add(b, load, b)
    return plan.solve(b)


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
    second snapshot.  Each state's min and max are checked against
    +-blowup_threshold (a NaN fails too); a state that fails halts the
    march, with status ``nonfinite`` if it holds a NaN or an inf and
    ``blowup`` otherwise, and a step whose solve raises
    SolverConvergenceError halts it with ``solver_failed``.  A ``blowup``
    report ends at the state past the threshold; ``nonfinite`` and
    ``solver_failed`` ones end at the last accepted, finite state, count
    only the accepted steps, and give the failed step's time as the halt
    time (``solver_failed`` carries the solver's message in ``warnings``).
    The lowest accepted value below zero and its time are kept as
    ``worst_negative``/``worst_negative_time``, and excursions below -1e-8
    are also reported in ``warnings``; the state itself is never clamped.

    Initial data holding a NaN or an inf raise HypothesisError before any
    work.  Finite initial data beyond +-blowup_threshold are not checked:
    the march starts from them and judges each step's state as above.  In
    kernel coupling mode a kernel sampled on another grid than u0 raises
    GridMismatchError before its first product, also where k = 0 or
    mu = 0 leaves it unused.
    """
    violations = validate_params(params)
    if violations:
        raise HypothesisError("invalid model parameters: " + "; ".join(violations))
    if u0.dim != params.dim:
        raise GridMismatchError(
            f"initial field is {u0.dim}D but params.dim = {params.dim}")
    if not np.isfinite(u0.values).all():
        raise HypothesisError("initial data hold a NaN or an inf")
    domain = u0.domain
    if kernel is not None and params.coupling_mode == COUPLING_KERNEL:
        _check_same_grid(domain, kernel.domain, u0.values.shape, kernel.values.shape)

    t_start = time.perf_counter()
    dt = config.dt
    plan = _SolvePlan(u0.values, params, domain, config, kernel)
    memory = plan.memory

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
    threshold = config.blowup_threshold

    for n in range(1, memory.horizon + 1):
        t_n = n * dt
        try:
            u_next = step(plan)
        except SolverConvergenceError as exc:
            warnings.append(f"step {n} (t = {t_n:.6g}) failed: {exc}")
            status = RunStatus("solver_failed", time=t_n)
            break
        low, high = u_next.min(), u_next.max()
        if not (-threshold <= low and high <= threshold):      # a NaN fails both
            if not np.isfinite(u_next).all():
                status = RunStatus("nonfinite", time=t_n)
                break       # the report ends at the last accepted state, which is finite
            status = RunStatus("blowup", time=t_n)
        u = u_next
        steps_done = n
        if low < worst_negative:
            worst_negative = float(low)
            worst_negative_t = t_n
        if n % config.record_every == 0:
            record(t_n, u)
        if not status.completed:
            break           # a blowup report ends at the state past the threshold
        plan.accept(u)
        if n in taken:
            snapshots.append((t_n, Field(u.copy(), domain)))
    if steps_done % config.record_every:
        record(steps_done * dt, u)

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
        soe_terms=memory.terms,
        worst_negative=worst_negative,
        worst_negative_time=worst_negative_t,
        solve_path=plan.path,
        cg_iterations=plan.iterations,
        cg_iterations_max=plan.iterations_max,
        cg_residual_max=plan.residual_max,
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
    alpha = params.alpha       # mittag_leffler rejects one outside (0, 1]
    symbol = _laplacian_axis(u0.domain)
    if u0.dim == 2:
        symbol = symbol[:, None] + symbol[None, :]
    spec0 = np.fft.fftn(u0.values)
    out = []
    for t in np.atleast_1d(times):
        mult = mittag_leffler(alpha, (-symbol - params.gamma) * float(t) ** alpha)
        out.append(Field(np.fft.ifftn(spec0 * mult).real, u0.domain))
    return out
