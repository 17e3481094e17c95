import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from dense_l1 import RecurrenceMemory
from fracplap import fractional, integrator, operators
from fracplap.config import build_initial, parse_config
from fracplap.errors import (GridMismatchError, HypothesisError,
                             SolverConvergenceError)
from fracplap.fractional import (L1Memory, layer_correction_weights, mittag_leffler,
                                 soe_kernel)
from fracplap.io import format_series, summarize_run
from fracplap.integrator import (
    RunStatus,
    SolverConfig,
    linear_spectral_reference,
    run,
    step,
)
from fracplap.model import (
    COUPLING_GLOBAL_MASS,
    DomainSpec,
    Field,
    ModelParameters,
    equilibrium_roots,
    reaction,
)
from fracplap.operators import (convolve_kernel, diffusion_apply, discretize_kernel,
                                face_diffusivity, global_mass)

ALLEE = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=1.0, gamma=3.0 / 16.0)


def allee_setup(n=32, L=4.0):
    domain = DomainSpec(half_width=L, n=n)
    kern = discretize_kernel("box", 0.5, 0.2, domain)
    return domain, kern


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_solver_config_defaults():
    cfg = SolverConfig(dt=0.01, t_final=1.0)
    assert cfg.eps_reg == 1e-6
    assert cfg.snapshot_times == ()
    # 0.3 / 0.1 = 2.9999999999999996: a whole number of steps up to rounding
    assert SolverConfig(dt=0.1, t_final=0.3).t_final == 0.3
    assert SolverConfig(dt=0.1, t_final=1.0,
                        snapshot_times=(0.0, 1.0)).snapshot_times == (0.0, 1.0)


@pytest.mark.parametrize("kw", [
    dict(dt=0.0, t_final=1.0),
    dict(dt=-0.1, t_final=1.0),
    dict(dt=0.5, t_final=0.1),
    dict(dt=0.01, t_final=1.0, eps_reg=-1.0),
    dict(dt=0.01, t_final=1.0, blowup_threshold=0.0),
    dict(dt=0.01, t_final=1.0, record_every=2.5),
    dict(dt=0.01, t_final=1.0, record_every=0),
    dict(dt=0.3, t_final=1.0),
    dict(dt=0.01, t_final=1.005),
    dict(dt=0.1, t_final=1.0, snapshot_times=(-0.1,)),
    dict(dt=0.1, t_final=1.0, snapshot_times=(0.5, 1.01)),
    dict(dt=0.1, t_final=1.0, snapshot_times=(float("nan"),)),
    dict(dt=0.01, t_final=1.0, eps_reg=float("nan")),
    dict(dt=0.01, t_final=1.0, blowup_threshold=float("nan")),
    dict(dt=0.1, t_final=math.inf),
    dict(dt=0.01, t_final=1.0, eps_reg=math.inf),
    dict(dt=0.01, t_final=1.0, eps_reg=1e200),        # eps_reg ** 2 overflows
])
def test_solver_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_keeps_rest_state():
    domain, kern = allee_setup()
    cfg = SolverConfig(dt=0.01, t_final=1.0)
    u1 = step(integrator._SolvePlan(np.zeros(domain.shape(1)), ALLEE, domain, cfg, kern))
    assert np.allclose(u1, 0.0, atol=1e-12)


def test_step_keeps_equilibrium():
    domain, kern = allee_setup()
    roots = equilibrium_roots(ALLEE.mu, ALLEE.k, ALLEE.gamma)
    cfg = SolverConfig(dt=0.01, t_final=1.0)
    for val in (roots.lower, roots.upper):
        plan = integrator._SolvePlan(np.full(domain.shape(1), val), ALLEE, domain, cfg, kern)
        u1 = step(plan)
        assert np.max(np.abs(u1 - val)) < 1e-9


# ---------------------------------------------------------------------------
# frozen-diffusivity solve (1D, direct)
# ---------------------------------------------------------------------------

def _face_coefficients(n, p):
    """Face couplings a / h^2 of a Gaussian bump on n cells of (-4, 4);
    random positive ones for p = None.  The solve needs only h, so odd n
    is fine."""
    grid = SimpleNamespace(h=8.0 / n)
    if p is None:
        return grid, np.random.default_rng(n).uniform(0.05, 20.0, n) / grid.h ** 2
    x = -4.0 + grid.h * np.arange(n)
    return grid, face_diffusivity(0.2 + 0.5 * np.exp(-x ** 2), grid, p, 1e-6)[0]


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, None])
@pytest.mark.parametrize("n", [3, 4, 16, 257])
def test_cyclic_tridiagonal_solve_matches_dense_oracle(n, p):
    grid, a = _face_coefficients(n, p)
    shift = 11.5
    b = np.random.default_rng(7 * n).standard_normal(n)
    x = integrator._cyclic_tridiagonal_solve(a, shift, b)
    dense = np.column_stack([shift * e - diffusion_apply([a], e)
                             for e in np.eye(n)])
    # normwise backward error: rounding in the residual itself is of
    # order eps |A| |x|, which the p = 1.2 coefficients (a/h^2 ~ 1e7)
    # make far larger than eps |b|
    residual = shift * x - diffusion_apply([a], x) - b
    scale = np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
    assert np.max(np.abs(residual)) <= 1e-12 * scale
    x_dense = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - x_dense)) <= 1e-9 * np.max(np.abs(x_dense))


def test_1d_lagged_march_never_calls_pcg(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("1D frozen-diffusivity solve went through PCG")

    monkeypatch.setattr(integrator, "_pcg", forbidden)
    domain, kern = allee_setup(n=16)
    cfg = SolverConfig(dt=0.01, t_final=0.2)
    u0 = Field(0.3 + 0.1 * np.cos(np.pi * domain.axis_coords() / 4.0), domain)
    report = run(u0, ALLEE, cfg, kernel=kern)
    assert report.status.completed and report.steps == 20


def test_1d_direct_march_matches_pcg_march_at_degenerate_p():
    """p = 1.2, n = 256: the system PCG needed ~245 iterations a step for.
    The frozen numbers are the final state of the same march solved by
    FFT-preconditioned CG to a residual of 1e-10 |b|, the 2D solver:
    sup, L2, L1, min and every 32nd value."""
    domain = DomainSpec(half_width=4.0, n=256)
    params = ModelParameters(alpha=0.5, p=1.2, mu=1.0, k=0.0, gamma=0.1)
    cfg = SolverConfig(dt=0.01, t_final=2.0, record_every=10 ** 9)
    u0 = Field(0.2 + 0.5 * np.exp(-domain.axis_coords() ** 2), domain)
    report = run(u0, params, cfg)
    assert report.status.completed and report.steps == 200
    final = report.final
    pcg_sup = 0.7232776137804796
    pcg_norms = [pcg_sup, 2.04569989287646, 5.786113065729721, 0.7232565659359443]
    pcg_values = [0.7232565659359443, 0.7232569693898527, 0.7232596168929012,
                  0.7232730343212892, 0.7232776137804796, 0.7232730343212892,
                  0.7232596168929013, 0.7232569693898526]
    got = [final.sup_norm(), final.l2_norm(), final.l1_norm(), final.min_value()]
    got += list(final.values[::32])
    gap = np.max(np.abs(np.array(got) - np.array(pcg_norms + pcg_values)))
    assert gap <= 1e-7 * pcg_sup


def _counted_pcg_system(n=8):
    """A 2D frozen system with varying face coefficients, as ``step``
    builds it, and the unscaled constant-coefficient preconditioner
    shift I - Laplacian_h (``step`` scales it to the system's diagonal,
    ``_scaled_eigen_solve``), each wrapped with a call counter."""
    domain = DomainSpec(half_width=4.0, n=n)
    rng = np.random.default_rng(11)
    coeffs = [rng.uniform(0.5, 2.0, (n, n)) for _ in range(2)]
    shift = 3.0
    symbol = shift + operators._laplacian_symbol(domain)
    calls = {"apply_a": 0, "precond": 0}

    def apply_a(x):
        calls["apply_a"] += 1
        return shift * x - diffusion_apply(coeffs, x)

    def precond(r):
        calls["precond"] += 1
        return operators._eigen_product(r, symbol, np.divide)

    b = rng.standard_normal((n, n))
    return apply_a, precond, b, calls


def test_pcg_applies_the_preconditioner_once_fewer_than_the_operator():
    apply_a, precond, b, calls = _counted_pcg_system()
    tol = 1e-10 * np.linalg.norm(b)
    start = np.zeros_like(b)
    x, iterations, residual = integrator._pcg(apply_a, b, start, precond, tol, 200)
    assert x is start       # the guess is updated in place, not copied
    assert iterations > 2 and 0.0 < residual <= tol
    assert calls == {"apply_a": iterations + 1, "precond": iterations}
    assert np.linalg.norm(b - apply_a(x)) <= tol

    # a start that already meets the tolerance is returned untouched
    calls.update(apply_a=0, precond=0)
    x0, n0, r0 = integrator._pcg(apply_a, b, x, precond, tol, 200)
    assert n0 == 0 and np.array_equal(x0, x) and r0 <= tol
    assert calls == {"apply_a": 1, "precond": 0}

    # maxiter: exactly enough iterations gives the same bits, one fewer fails
    x_max, n_max, r_max = integrator._pcg(apply_a, b, np.zeros_like(b), precond, tol,
                                          iterations)
    assert n_max == iterations and x_max.tobytes() == x.tobytes() and r_max == residual
    with pytest.raises(SolverConvergenceError, match="missed residual"):
        integrator._pcg(apply_a, b, np.zeros_like(b), precond, tol, iterations - 1)


@pytest.mark.parametrize("apply_a", [np.negative, np.zeros_like], ids=["negative", "zero"])
def test_pcg_breaks_down_on_a_direction_without_positive_curvature(apply_a):
    """A search direction with p.Ap <= 0 stops CG with SolverConvergenceError
    at once, before any update of x, which ``run`` turns into a
    ``solver_failed`` halt."""
    b = np.linspace(1.0, 2.0, 8)
    x = np.zeros_like(b)
    with pytest.raises(SolverConvergenceError,
                       match=r"conjugate gradients broke down \(p\.Ap = .*\) after 0 iterations"):
        integrator._pcg(apply_a, b, x, np.copy, 1e-10, 50)
    assert not x.any()


def _bounded_2d_march(dt: float, t_final: float = 3.0):
    """The bounded-2d parameters on a 32 x 32 grid to t = t_final."""
    domain = DomainSpec(half_width=4.0, n=32)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=12.0, gamma=0.1, dim=2)
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    x = domain.axis_coords()
    bump = 0.5 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * 0.5 ** 2))
    report = run(Field(bump, domain), params, SolverConfig(dt=dt, t_final=t_final),
                 kernel=kern)
    assert report.status.completed and report.steps == round(t_final / dt)
    return report


def test_2d_solves_start_from_the_extrapolated_state(monkeypatch):
    # 1000 steps at n = 32, CG to 1e-7 |b|: starting each solve from
    # u^{n-1} took 6139 operator products (the set-up's included), from
    # the cubic in the step index through the last four states 2366, from
    # the cubic in t^alpha through them 2317, and from the least-squares
    # cubic in t^alpha over the last eight 1873.  Over the first 60 steps
    # the cubic through four takes fewer (242 against 307): far from
    # t = 0 the guess is limited by the error the solves leave in the
    # states, which the fit over eight amplifies 5.3x instead of 15x
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return diffusion_apply(*args, **kwargs)

    monkeypatch.setattr(integrator, "diffusion_apply", counted)
    _bounded_2d_march(0.05, t_final=50.0)
    assert calls[0] <= 2000


def test_cg_tolerance_stays_far_below_the_time_step_error(monkeypatch):
    # stopping CG at _CG_TOL instead of 1e-12 moves the final state of 60
    # steps at n = 32 by at most 1e-3 of what halving dt moves it (6.4e-5
    # in sup): 7e-8 of it at 1e-9, 6e-4 at 1e-5, 1.2e-2 at 1e-4
    loose = _bounded_2d_march(0.05).final.values
    half = _bounded_2d_march(0.025).final.values
    monkeypatch.setattr(integrator, "_CG_TOL", 1e-12)
    tight = _bounded_2d_march(0.05).final.values
    assert np.max(np.abs(loose - tight)) <= 1e-3 * np.max(np.abs(loose - half))


def _linear_oracle_march(dt: float) -> np.ndarray:
    """The linear oracle's Gaussian on a 1D grid of 16, marched to t = 10."""
    domain = DomainSpec(half_width=1.0, n=16)
    x = domain.axis_coords()
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.5)
    report = run(Field(np.exp(-x ** 2 / (2 * 0.15 ** 2)), domain), params,
                 SolverConfig(dt=dt, t_final=10.0, record_every=10 ** 9))
    assert report.status.completed
    return report.final.values


def test_soe_tolerance_stays_far_below_the_time_step_error(monkeypatch):
    # the history's kernel at SOE_TOL instead of 5e-11 moves the final
    # state of 1000 linear steps by at most 1e-3 of what halving dt moves
    # it: 9.6e-6 of it at 1e-7, 1.2e-4 at 1e-6, 9.1e-4 at 1e-5 and 4.9e-3
    # at 1e-4.  The kernels are cached per (alpha, N), so the cache is
    # emptied around the patched tolerance
    loose = _linear_oracle_march(0.01)
    with monkeypatch.context() as patched:
        patched.setattr(fractional, "SOE_TOL", 5e-11)
        soe_kernel.cache_clear()
        try:
            tight = _linear_oracle_march(0.01)
            half = _linear_oracle_march(0.005)
        finally:
            soe_kernel.cache_clear()
    assert np.max(np.abs(loose - tight)) <= 1e-3 * np.max(np.abs(tight - half))


def test_2d_constant_coefficient_step_solves_its_system_exactly():
    # p = 2, m = 1 with kernel competition, after three steps: the frozen
    # system ((scale + gamma) I - Laplacian_h) x = b is solved to rounding.
    # The plan's memory holds eigenbasis coordinates, so the right-hand
    # side, starting load included, is taken back to the grid to check
    # the grid state x.  At amplitude 1e-12 (a state near extinction) an
    # earlier CG solve met its absolute floor of 1e-10 at the guess and
    # returned it unsolved, a few percent off the solution
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=2.0, gamma=0.3, dim=2)
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    config = SolverConfig(dt=0.01, t_final=1.0)
    wave = np.cos(np.pi * domain.axis_coords() / 4.0)
    shape = 1.0 + 0.5 * wave[:, None] * wave[None, :]
    ones = [np.full(shape.shape, domain.h ** -2.0)] * 2     # unit face couplings
    laplacian = np.column_stack([diffusion_apply(ones, e.reshape(shape.shape)).ravel()
                                 for e in np.eye(shape.size)])
    for amplitude in (1.0, 1e-12):
        plan = integrator._SolvePlan(amplitude * shape, params, domain, config, kern)
        memory = plan.memory
        assert plan.path == "eigenbasis"
        for _ in range(3):
            plan.accept(step(plan))
        u = plan.last
        assert np.allclose(u, operators._from_eigenbasis(memory.last()), rtol=0.0,
                           atol=1e-14 * amplitude)
        coupling = convolve_kernel(Field(u, domain), kern).values
        b = (operators._from_eigenbasis(integrator.memory_term(memory))
             + params.mu * u ** 2 * (1.0 - params.k * coupling)).ravel()
        matrix = (memory.scale + params.gamma) * np.eye(shape.size) - laplacian
        exact = np.linalg.solve(matrix, b)
        x = step(plan).ravel()
        assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)
        assert np.linalg.norm(b - matrix @ x) <= 1e-12 * max(1.0, np.linalg.norm(b))


def _grid_coordinate_march(u0, params, config, kernel=None):
    """The 2D p = 2, m = 1 march with its history in grid coordinates,
    each step one ``_eigen_product`` solve of the grid right-hand side:
    a reference for the march that keeps eigenbasis coordinates."""
    domain, values = u0.domain, u0.values
    coupling0 = convolve_kernel(u0, kernel).values if params.mu else 0.0
    coeffs0 = face_diffusivity(values, domain, 2.0, config.eps_reg)
    g1 = diffusion_apply(coeffs0, values) + reaction(values, coupling0, params)
    g2 = (diffusion_apply(coeffs0, g1) + reaction(g1, 0.0, params)
          if params.mu == 0.0 else None)
    n_steps = int(round(config.t_final / config.dt))
    memory = L1Memory(values, params.alpha, config.dt, n_steps, g1, g2)
    symbol = memory.scale + params.gamma + operators._laplacian_symbol(domain)
    for _ in range(n_steps):
        u = memory.last()
        b = integrator.memory_term(memory)
        if params.mu:
            coupling = convolve_kernel(Field(u, domain), kernel).values
            b += params.mu * u ** 2 * (1.0 - params.k * coupling)
        memory.append(operators._eigen_product(b, symbol, np.divide))
    return memory.last()


@pytest.mark.parametrize("case", ["layer-two load", "kernel coupling"])
def test_eigenbasis_march_matches_the_grid_coordinate_march(case):
    domain = DomainSpec(half_width=4.0, n=16)
    kern = None
    if case == "layer-two load":    # alpha < 1/2 and mu = 0: loads g1 and g2
        params = ModelParameters(alpha=0.4, p=2.0, mu=0.0, k=0.0, gamma=0.5, dim=2)
    else:
        params = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=2.0, gamma=0.3, dim=2)
        kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    u0 = Field(np.random.default_rng(17).uniform(0.2, 1.0, (16, 16)), domain)
    config = SolverConfig(dt=0.01, t_final=0.2)
    report = run(u0, params, config, kernel=kern)
    assert report.status.completed and report.solve_path == "eigenbasis"
    expected = _grid_coordinate_march(u0, params, config, kern)
    gap = np.max(np.abs(report.final.values - expected))
    assert gap <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("mu,products", [(0.0, 2), (1.0, 8)])
def test_eigenbasis_step_counts_its_dense_products(monkeypatch, mu, products):
    """A p = 2, m = 1 2D step takes its state back to the grid once (two
    dense n x n products); with kernel coupling it also convolves the
    grid state as every 2D path does (four) and sends the growth term
    forward (two).  Each half-transform is two products."""
    halves, per_step = [0], []
    for name in ("_to_eigenbasis", "_from_eigenbasis"):
        def counted(values, _real=getattr(operators, name)):
            halves[0] += 1
            return _real(values)

        monkeypatch.setattr(operators, name, counted)
        monkeypatch.setattr(integrator, name, counted)

    def counted_step(*args, _real=integrator.step, **kwargs):
        before = halves[0]
        out = _real(*args, **kwargs)
        per_step.append(2 * (halves[0] - before))
        return out

    monkeypatch.setattr(integrator, "step", counted_step)
    domain = DomainSpec(half_width=4.0, n=16)
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    params = ModelParameters(alpha=0.5, p=2.0, mu=mu, k=2.0 * mu, gamma=0.3, dim=2)
    u0 = Field(np.random.default_rng(19).uniform(0.2, 1.0, (16, 16)), domain)
    report = run(u0, params, SolverConfig(dt=0.01, t_final=0.2), kernel=kern)
    assert report.status.completed and report.solve_path == "eigenbasis"
    assert per_step == [products] * 20


def _first_load(memory):
    """The starting load of step 1 in the memory's coordinates: the L1
    part of its right-hand side less the scale times u^0."""
    return integrator.memory_term(memory) - memory.scale * memory.last()


@pytest.mark.parametrize("dim,alpha,p,mu,m,loaded", [
    (2, 0.4, 2.0, 0.0, 1.0, True),
    (1, 0.4, 2.0, 0.0, 1.0, True),
    (2, 0.5, 2.0, 0.0, 1.0, False),     # 2 alpha = 1: t^(2 alpha) is smooth
    (2, 0.6, 2.0, 0.0, 1.0, False),
    (1, 0.6, 2.0, 0.0, 1.0, False),
    (2, 0.4, 1.8, 0.0, 1.0, False),
    (2, 0.4, 2.0, 1.0, 1.0, False),
    (2, 0.4, 2.0, 0.0, 2.0, False),
])
def test_only_the_solve_plan_decides_the_layer_two_load(monkeypatch, dim, alpha, p, mu,
                                                        m, loaded):
    """g2 = R'(u0)[R(u0)] reaches the memory only where R is exactly
    linear (p = 2, mu = 0, m = 1) and t^(2 alpha) is singular (alpha <
    1/2); the memory applies whatever loads it is given."""
    given = []

    class Recording(L1Memory):
        def __init__(self, u0, alpha, dt, horizon, g1=None, g2=None):
            given.append((g1, g2))
            super().__init__(u0, alpha, dt, horizon, g1, g2)

    monkeypatch.setattr(integrator, "L1Memory", Recording)
    domain = DomainSpec(half_width=4.0, n=8)
    params = ModelParameters(alpha=alpha, p=p, mu=mu, k=mu, gamma=0.3, m=m, dim=dim,
                             coupling_mode=COUPLING_GLOBAL_MASS)
    u0 = np.random.default_rng(23).uniform(0.2, 1.0, domain.shape(dim))
    config = SolverConfig(dt=0.01, t_final=0.05)
    plan = integrator._SolvePlan(u0, params, domain, config)
    (g1, g2), = given
    assert (g2 is not None) == loaded
    load = layer_correction_weights(alpha, 5)[0] * g1
    if loaded:
        load = load + config.dt ** alpha * layer_correction_weights(alpha, 5, layer=2)[0] * g2
    assert np.allclose(_first_load(plan.memory), load, rtol=0.0,
                       atol=1e-14 * plan.memory.scale * np.max(np.abs(u0)))


def test_2d_solve_path_follows_p_and_m(monkeypatch):
    """p = 2, m = 1 steps build no face coefficients, make no guess and
    never reach CG; p < 2 and m != 1 still solve by PCG.  The one face
    coefficient call is the set-up's, for the starting load."""
    calls = {"step": 0, "memory_term": 0, "face_diffusivity": 0, "_pcg": 0}

    def forbidden(*args, **kwargs):
        raise AssertionError("constant-coefficient 2D step did iterative work")

    monkeypatch.setattr(integrator, "_pcg", forbidden)
    monkeypatch.setattr(L1Memory, "predict", forbidden)
    for name in ("step", "memory_term", "face_diffusivity"):
        def counted(*args, _real=getattr(integrator, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(integrator, name, counted)
    domain = DomainSpec(half_width=4.0, n=16)
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    u0 = Field(np.full((16, 16), 0.4), domain)
    u0.values[3:6, 4:9] = 0.7
    cfg = SolverConfig(dt=0.01, t_final=0.1)
    linear = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=1.0, gamma=0.2, dim=2)
    assert run(u0, linear, cfg, kernel=kern).steps == 10
    assert calls == {"step": 10, "memory_term": 10, "face_diffusivity": 1, "_pcg": 0}

    monkeypatch.undo()
    real_pcg = integrator._pcg

    def counted_pcg(*args, **kwargs):
        calls["_pcg"] += 1
        return real_pcg(*args, **kwargs)

    monkeypatch.setattr(integrator, "_pcg", counted_pcg)
    nonlinear = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=1.0, gamma=0.2, dim=2)
    porous = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=1.0, gamma=1.0, m=1.5,
                             dim=2, coupling_mode=COUPLING_GLOBAL_MASS)
    for params in (nonlinear, porous):
        calls["_pcg"] = 0
        assert run(u0, params, cfg, kernel=kern).steps == 10
        assert calls["_pcg"] == 10


BOUNDED_2D = {"model": {"alpha": 0.5, "p": 1.8, "mu": 1.0, "k": 12.0, "gamma": 0.1, "dim": 2},
              "domain": {"half_width": 4.0, "n": 64},
              "solver": {"dt": 0.05, "t_final": 1.0, "record_every": 10},
              "kernel": {"shape": "box", "delta0": 0.5, "eta": 0.2},
              "initial": {"kind": "gaussian_bump", "width": 0.5, "height": 0.5}}


def test_2d_pcg_iterations_stay_flat_in_p(monkeypatch):
    # the boundedness benchmark's manifest, 20 steps: preconditioned by
    # the mean coefficient alone, the first step took 46, 324 and 2185
    # iterations at p = 1.8, 1.5 and 1.2; scaled to the diagonal, 14, 23
    # and 40
    real_pcg = integrator._pcg
    iterations = []

    def counted_pcg(*args, **kwargs):
        x, it, residual = real_pcg(*args, **kwargs)
        iterations.append(it)
        return x, it, residual

    monkeypatch.setattr(integrator, "_pcg", counted_pcg)
    worst = {}
    for p in (1.8, 1.5, 1.2):
        manifest = parse_config(json.dumps({**BOUNDED_2D, "model": {**BOUNDED_2D["model"],
                                                                    "p": p}}))
        spec = manifest.kernel
        kern = discretize_kernel(spec.shape, spec.delta0, spec.eta, manifest.domain, dim=2)
        iterations.clear()
        report = run(build_initial(manifest), manifest.model, manifest.solver, kernel=kern)
        assert report.status.completed and len(iterations) == report.steps == 20
        # the worst relative residual a solve stopped at, under the
        # solver's own stopping rule
        assert 0.0 < report.cg_residual_max <= integrator._CG_TOL
        worst[p] = max(iterations)
    assert max(worst.values()) <= 100, worst


def _dense_system(coeffs, shift, domain):
    """The frozen 2D matrix shift I - div(a grad), column by column."""
    eye = np.eye(domain.n ** 2)
    div = np.column_stack([diffusion_apply(coeffs, e.reshape(domain.n, domain.n)).ravel()
                           for e in eye])
    return shift * eye - div


def test_scaled_preconditioner_shares_the_system_diagonal():
    # face coefficients spread over four decades, as at p = 1.2; M^-1 is
    # probed column by column with unit vectors
    domain = DomainSpec(half_width=4.0, n=8)
    rng = np.random.default_rng(23)
    coeffs = [10.0 ** rng.uniform(-2.0, 2.0, (8, 8)) for _ in range(2)]
    shift = 3.0
    precond = integrator._scaled_eigen_solve(coeffs, shift, domain)
    m = np.linalg.inv(np.column_stack([precond(e.reshape(8, 8)).ravel()
                                       for e in np.eye(64)]))
    assert np.allclose(m, m.T, rtol=0.0, atol=1e-12 * np.abs(m).max())
    assert np.linalg.eigvalsh(m).min() > 0.0
    diag_a = np.diag(_dense_system(coeffs, shift, domain))
    assert np.max(np.abs(np.diag(m) - diag_a) / diag_a) <= 1e-12


@pytest.mark.parametrize("value", [0.0, 0.75, 1.0])
def test_scaled_preconditioner_is_the_unscaled_solve_at_constant_coefficients(value):
    # 0.0 is a degenerate m > 1 state; the mean of the couplings 0.75 / h^2
    # and 1.0 / h^2 is exact, so the scaling is 1.0 and the product keeps every bit
    domain = DomainSpec(half_width=4.0, n=16)
    coeffs = [np.full((16, 16), value * domain.h ** -2.0) for _ in range(2)]
    shift = 7.5
    r = np.random.default_rng(5).standard_normal((16, 16))
    unscaled = operators._eigen_product(
        r, shift + value * operators._laplacian_symbol(domain), np.divide)
    got = integrator._scaled_eigen_solve(coeffs, shift, domain)(r)
    assert got.tobytes() == unscaled.tobytes()


def test_small_2d_state_is_solved_to_a_relative_tolerance():
    # a p = 1.8 first step from 1e-8 exp(-r^2 / 0.5): with CG stopping at
    # 1e-10 max(1, |b|), absolute below |b| = 1, it came back 4e-6 off
    domain = DomainSpec(half_width=2.0, n=16)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=2.0, gamma=0.3, dim=2)
    kern = discretize_kernel("box", 0.25, 0.2, domain, dim=2)
    config = SolverConfig(dt=0.01, t_final=1.0)
    x = domain.axis_coords()
    u0 = 1e-8 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 0.5)
    plan = integrator._SolvePlan(u0, params, domain, config, kern)
    memory = plan.memory
    coeffs = face_diffusivity(u0, domain, params.p, config.eps_reg)
    coupling = convolve_kernel(Field(u0, domain), kern).values
    b = integrator.memory_term(memory) + params.mu * u0 ** 2 * (1.0 - params.k * coupling)
    exact = np.linalg.solve(_dense_system(coeffs, memory.scale + params.gamma, domain),
                            b.ravel())
    got = step(plan).ravel()
    assert np.linalg.norm(got - exact) <= 1e-9 * np.linalg.norm(exact)


def test_zero_2d_right_hand_side_gives_exact_zeros(monkeypatch):
    # a relative tolerance is zero here, which CG from a nonzero guess
    # cannot meet: it iterates until p.Ap underflows and breaks down
    domain = DomainSpec(half_width=2.0, n=16)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=0.0, gamma=0.3, dim=2)
    zeros = np.zeros((16, 16))
    plan = integrator._SolvePlan(zeros, params, domain, SolverConfig(dt=0.01, t_final=1.0))
    plan.memory = SimpleNamespace(last=lambda: zeros,
                                  predict=lambda: np.random.default_rng(3).random((16, 16)))
    monkeypatch.setattr(integrator, "memory_term", lambda memory: zeros.copy())
    x = step(plan)
    assert np.array_equal(x, zeros)


_THREAD_MARCHES = """
import hashlib
import numpy as np
from fracplap.integrator import SolverConfig, run
from fracplap.model import DomainSpec, Field, ModelParameters
from fracplap.operators import discretize_kernel
domain = DomainSpec(half_width=4.0, n=64)
x = domain.axis_coords()
u0 = Field(0.2 + 0.5 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2)), domain)
kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
digests = []
for p, steps in ((2.0, 8), (1.5, 4)):
    params = ModelParameters(alpha=0.5, p=p, mu=1.0, k=1.0, gamma=0.2, dim=2)
    report = run(u0, params, SolverConfig(dt=0.01, t_final=0.01 * steps), kernel=kern)
    assert report.status.completed and report.steps == steps
    digests.append(hashlib.sha256(report.final.values.tobytes()).hexdigest())
"""


def test_2d_marches_do_not_depend_on_the_blas_thread_count():
    # the eigenbasis solve runs on dgemm: one BLAS thread must give the
    # same bits as this process's default, for the direct p = 2 step and
    # for the preconditioned p = 1.5 solve
    import fracplap
    here = {}
    exec(_THREAD_MARCHES, here)
    src = os.path.dirname(os.path.dirname(fracplap.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c",
                          _THREAD_MARCHES + "print(' '.join(digests))"],
                         env=env, check=True, timeout=120, capture_output=True, text=True)
    assert out.stdout.split() == here["digests"]


# ---------------------------------------------------------------------------
# full marches
# ---------------------------------------------------------------------------

def test_run_from_rest_stays_at_rest():
    domain, kern = allee_setup()
    cfg = SolverConfig(dt=0.01, t_final=0.5, record_every=10)
    report = run(Field.constant(domain, 0.0), ALLEE, cfg, kernel=kern)
    assert report.status.completed
    assert np.all(report.sup_series == 0.0)
    assert np.all(report.l2_series == 0.0)
    assert np.all(np.diff(report.times) > 0)
    assert math.isclose(report.times[-1], 0.5, rel_tol=1e-12)


def test_history_rows_do_not_grow_with_step_count():
    # the dense history held steps + 1 rows; the sum-of-exponentials one
    # holds the last state, a ring of 16, the 7 increments the last fold
    # projected over and the K sums, with K growing only like log N (32
    # at 10 000 steps at SOE_TOL = 1e-7); the report gives K as soe_terms
    domain = DomainSpec(half_width=4.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.5)
    u0 = Field(np.cos(np.pi * domain.axis_coords() / 4.0) + 1.0, domain)
    rows = []
    for t_final in (1.0, 100.0):
        report = run(u0, params, SolverConfig(dt=0.01, t_final=t_final,
                                              record_every=10 ** 9))
        assert report.status.completed
        steps = report.steps
        assert report.soe_terms == soe_kernel(params.alpha, steps)[0].size
        assert report.history_rows == 1 + 16 + 7 + report.soe_terms
        assert summarize_run(report)["soe_terms"] == report.soe_terms
        rows.append(report.history_rows)
    assert 0 < rows[0] <= rows[1] <= 1 + 16 + 7 + 45


def test_run_holds_equilibria_for_many_steps():
    domain, kern = allee_setup()
    roots = equilibrium_roots(ALLEE.mu, ALLEE.k, ALLEE.gamma)
    cfg = SolverConfig(dt=0.01, t_final=0.5, record_every=10 ** 9)
    for val in (roots.lower, roots.upper):
        report = run(Field.constant(domain, val), ALLEE, cfg, kernel=kern)
        assert report.status.completed
        assert np.max(np.abs(report.final.values - val)) < 1e-8


def test_constant_mode_decay_matches_mittag_leffler():
    # spatially constant data reduces the march to the scalar relaxation
    # D^alpha u = -gamma u, whose solution is u0 E_alpha(-gamma t^alpha)
    domain = DomainSpec(half_width=1.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=1.0)
    cfg = SolverConfig(dt=1e-3, t_final=1.0, record_every=10 ** 9)
    report = run(Field.constant(domain, 0.5), params, cfg)
    exact = 0.5 * mittag_leffler(0.5, -1.0)
    assert abs(report.final.values[0] - exact) / exact < 1e-5
    spread = np.max(report.final.values) - np.min(report.final.values)
    assert spread < 1e-13


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_temporal_order_against_spectral_oracle(alpha):
    """Fitted convergence order must clear 2 - alpha - 0.2."""
    domain = DomainSpec(half_width=1.0, n=64)
    x = domain.axis_coords()
    u0 = Field(np.exp(-x ** 2 / (2 * 0.3 ** 2)), domain)
    params = ModelParameters(alpha=alpha, p=2.0, mu=0.0, k=0.0, gamma=1.0)
    ref = linear_spectral_reference(u0, params, [1.0])[0]
    steps = (50, 100, 200)
    errs = []
    for nst in steps:
        cfg = SolverConfig(dt=1.0 / nst, t_final=1.0, record_every=10 ** 9)
        rep = run(u0, params, cfg)
        errs.append(float(np.max(np.abs(rep.final.values - ref.values))))
    order = float(np.polyfit(np.log([1.0 / s for s in steps]), np.log(errs), 1)[0])
    assert order >= 2.0 - alpha - 0.2, f"order {order:.3f} with errors {errs}"


def test_determinism_bitwise():
    domain, kern = allee_setup()
    cfg = SolverConfig(dt=0.01, t_final=0.3, record_every=5)
    u0 = Field(0.5 + 0.1 * np.sin(np.pi * domain.axis_coords() / 4.0), domain)
    a = run(u0, ALLEE, cfg, kernel=kern)
    b = run(u0, ALLEE, cfg, kernel=kern)
    assert np.array_equal(a.final.values, b.final.values)
    assert np.array_equal(a.sup_series, b.sup_series)


def test_blowup_is_detected_and_timed():
    # k = 0 removes competition; pure quadratic growth from u0 = 2
    domain = DomainSpec(half_width=1.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=0.0, gamma=0.0)
    cfg = SolverConfig(dt=1e-3, t_final=2.0, record_every=10 ** 9)
    report = run(Field.constant(domain, 2.0), params, cfg)
    assert report.status.kind == "blowup"
    assert not report.status.completed
    assert 0.0 < report.status.time < 0.2
    assert report.sup_series[-1] >= cfg.blowup_threshold


def _plan_case(path):
    """A short march on each solve path: (u0, params, config, kernel)."""
    domain = DomainSpec(half_width=4.0, n=16)
    cfg = SolverConfig(dt=0.01, t_final=0.2)
    if path == "tridiagonal":
        kern = discretize_kernel("box", 0.5, 0.2, domain)
        u0 = Field(0.3 + 0.1 * np.cos(np.pi * domain.axis_coords() / 4.0), domain)
        return u0, ALLEE, cfg, kern
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    u0 = Field(np.full((16, 16), 0.4), domain)
    u0.values[3:6, 4:9] = 0.7
    p = 2.0 if path == "eigenbasis" else 1.8
    return u0, ModelParameters(alpha=0.5, p=p, mu=1.0, k=1.0, gamma=0.2, dim=2), cfg, kern


@pytest.mark.parametrize("path", ["tridiagonal", "eigenbasis", "pcg"])
def test_a_second_plan_from_the_same_start_takes_the_same_steps(monkeypatch, path):
    # each of run's steps is taken twice: by run's plan, and by a second
    # plan built from the same start and marched alongside it.  Two plans
    # share no march state, so their steps agree bit for bit
    u0, params, cfg, kern = _plan_case(path)
    twin = integrator._SolvePlan(u0.values.copy(), params, u0.domain, cfg, kern)
    real, same = integrator.step, []

    def both(plan):
        planned = real(plan)
        alone = real(twin)
        same.append(plan is not twin and alone.tobytes() == planned.tobytes())
        twin.accept(alone)
        return planned

    monkeypatch.setattr(integrator, "step", both)
    report = run(u0, params, cfg, kernel=kern)
    assert report.status.completed and report.solve_path == twin.path == path
    assert same == [True] * report.steps == [True] * 20


@pytest.mark.parametrize("path", ["tridiagonal", "eigenbasis", "pcg"])
def test_the_plan_builds_its_memory_in_its_path_coordinates(path):
    # the p = 2, m = 1 2D path marches eigenbasis coordinates Q^T u Q and
    # every other path grid states; the plan alone makes that choice, so
    # its memory's start and first starting load, taken back to the grid,
    # are u0 and w1 R(u0), and ``last`` is the grid state u0
    u0, params, cfg, kern = _plan_case(path)
    domain = u0.domain
    plan = integrator._SolvePlan(u0.values, params, domain, cfg, kern)
    assert plan.path == path
    coeffs = face_diffusivity(u0.values, domain, params.p, cfg.eps_reg, m=params.m)
    g1 = (diffusion_apply(coeffs, u0.values)
          + reaction(u0.values, convolve_kernel(u0, kern).values, params))
    w1 = layer_correction_weights(params.alpha, plan.memory.horizon)[0]
    if path == "eigenbasis":
        assert np.array_equal(plan.memory.last(), operators._to_eigenbasis(u0.values))
        start = operators._from_eigenbasis(plan.memory.last())
        load = operators._from_eigenbasis(_first_load(plan.memory))
    else:
        start, load = plan.memory.last(), _first_load(plan.memory)
        assert np.array_equal(start, u0.values)
    assert np.allclose(start, u0.values, rtol=0.0, atol=1e-14)
    assert np.allclose(plan.last, u0.values, rtol=0.0, atol=1e-14)
    assert np.allclose(load, w1 * g1, rtol=0.0, atol=1e-12 * np.max(np.abs(g1)))


# (path, alpha, p, mu, rest-state data): p = 2, mu = 0 and alpha < 1/2
# load g1 and g2, other data g1 alone, and rest-state data (u0 = 0) none
FUSED_CASES = [
    ("tridiagonal", 0.4, 2.0, 0.0, False),
    ("tridiagonal", 0.6, 1.5, 1.0, False),
    ("tridiagonal", 0.6, 1.5, 1.0, True),
    ("eigenbasis", 0.4, 2.0, 0.0, False),
    ("eigenbasis", 0.6, 2.0, 1.0, False),
    ("eigenbasis", 0.6, 2.0, 1.0, True),
    ("pcg", 0.4, 1.8, 1.0, False),
    ("pcg", 0.4, 1.8, 1.0, True),
]


@pytest.mark.parametrize("path,alpha,p,mu,rest", FUSED_CASES)
def test_memory_term_is_the_whole_l1_part_of_the_right_hand_side(path, alpha, p, mu, rest):
    # one product gives scale * past + s_n g1 (+ dt^alpha s2_n g2) in the
    # plan's coordinates, with the past from the step-by-step recurrence
    # and the loads from layer_correction_weights: steps 1 .. 2R + 3 find
    # every pending count r < R, before and after two folds
    fold = fractional._FOLD
    horizon = 2 * fold + 3
    dim = 1 if path == "tridiagonal" else 2
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=alpha, p=p, mu=mu, k=1.0, gamma=0.3, dim=dim,
                             coupling_mode=COUPLING_GLOBAL_MASS)
    config = SolverConfig(dt=0.01, t_final=0.01 * horizon)
    rng = np.random.default_rng(52)
    u0 = np.zeros(domain.shape(dim)) if rest else rng.uniform(0.2, 1.0, domain.shape(dim))
    plan = integrator._SolvePlan(u0, params, domain, config)
    memory = plan.memory
    assert plan.path == path
    coeffs = face_diffusivity(u0, domain, p, config.eps_reg)
    g1 = diffusion_apply(coeffs, u0) + reaction(u0, global_mass(Field(u0, domain)), params)
    g2 = diffusion_apply(coeffs, g1) + reaction(g1, 0.0, params)
    if path == "eigenbasis":
        g1, g2 = operators._to_eigenbasis(g1), operators._to_eigenbasis(g2)
    layer_two = p == 2.0 and mu == 0.0 and alpha < 0.5
    loads = 0 if rest else 2 if layer_two else 1
    w1 = layer_correction_weights(alpha, horizon)
    w2 = config.dt ** alpha * layer_correction_weights(alpha, horizon, layer=2)
    reference = RecurrenceMemory(memory.last(), alpha, horizon)
    states = 1.0 + np.cumsum(rng.normal(0.0, 0.05, (horizon,) + memory.shape), axis=0)
    for n in range(1, horizon + 1):
        expected = memory.scale * integrator.memory_term(reference) + w1[n - 1] * g1
        if layer_two:
            expected += w2[n - 1] * g2
        assert memory.coefficients().size == loads + 2 + (n - 1) % fold, n
        gap = np.max(np.abs(integrator.memory_term(memory) - expected))
        assert gap <= 1e-14 * np.max(np.abs(expected)), n
        memory.append(states[n - 1])
        reference.append(states[n - 1])
    with pytest.raises(HypothesisError):
        integrator.memory_term(memory)      # step horizon + 1


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("value,kind", [(math.nan, "nonfinite"), (math.inf, "nonfinite"),
                                        (-math.inf, "nonfinite"), (2e8, "blowup"),
                                        (-2e8, "blowup")])
def test_one_cell_out_of_bounds_halts_the_march(monkeypatch, dim, value, kind):
    # run bounds each state by its least and greatest value over every
    # axis: one NaN or inf cell gives nonfinite and one cell past
    # blowup_threshold = 1e8 gives blowup, in 1D and in 2D
    real, steps = integrator.step, []

    def spoiled(plan):
        u = real(plan)
        steps.append(None)
        if len(steps) == 3:
            u[(5, 7)[:dim]] = value
        return u

    monkeypatch.setattr(integrator, "step", spoiled)
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.3, dim=dim)
    u0 = Field(np.random.default_rng(53).uniform(0.2, 1.0, domain.shape(dim)), domain)
    report = run(u0, params, SolverConfig(dt=0.01, t_final=0.1))
    assert report.status.kind == kind
    assert math.isclose(report.status.time, 0.03)
    if kind == "blowup":        # the report ends at the state past the threshold
        assert report.steps == 3 and report.final.values[(5, 7)[:dim]] == value
    else:                       # and at the last accepted state
        assert report.steps == 2 and np.isfinite(report.final.values).all()


@pytest.mark.parametrize("path", ["tridiagonal", "eigenbasis", "pcg"])
def test_run_builds_one_plan_and_reports_its_solves(monkeypatch, path):
    plans, iterations, residuals = [], [], []

    class CountedPlan(integrator._SolvePlan):
        def __init__(self, *args):
            plans.append(None)
            super().__init__(*args)

    def counted_pcg(*args, _real=integrator._pcg, **kwargs):
        x, it, residual = _real(*args, **kwargs)
        iterations.append(it)
        residuals.append(residual / float(np.linalg.norm(args[1].ravel())))
        return x, it, residual

    monkeypatch.setattr(integrator, "_SolvePlan", CountedPlan)
    monkeypatch.setattr(integrator, "_pcg", counted_pcg)
    u0, params, cfg, kern = _plan_case(path)
    report = run(u0, params, cfg, kernel=kern)
    assert report.steps == 20 and len(plans) == 1
    assert len(iterations) == (20 if path == "pcg" else 0)
    facts = (report.solve_path, report.cg_iterations, report.cg_iterations_max,
             report.cg_residual_max)
    assert facts == (path, sum(iterations), max(iterations, default=0),
                     max(residuals) if path == "pcg" else None)
    summary = summarize_run(report)
    assert (summary["solve_path"], summary["cg_iterations"],
            summary["cg_iterations_max"], summary["cg_residual_max"]) == facts


def test_run_reaches_step_and_memory_term_through_the_module(monkeypatch):
    # the benchmark's host probe and tracer wrap these two module-level
    # names; each must be looked up there once per step
    calls = {"step": 0, "memory_term": 0}
    for name in calls:
        real = getattr(integrator, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(integrator, name, counted)
    domain, kern = allee_setup(n=16)
    report = run(Field.constant(domain, 0.3), ALLEE,
                 SolverConfig(dt=0.01, t_final=0.25), kernel=kern)
    assert report.steps == 25
    assert calls == {"step": 25, "memory_term": 25}


def test_global_mass_coupling_runs():
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=1.0, gamma=1.0,
                             m=1.5, coupling_mode=COUPLING_GLOBAL_MASS)
    cfg = SolverConfig(dt=0.01, t_final=0.5, record_every=10)
    u0 = Field(0.2 + 0.05 * np.cos(np.pi * domain.axis_coords() / 4.0), domain)
    report = run(u0, params, cfg)
    assert report.status.completed
    assert np.all(np.isfinite(report.final.values))
    assert report.sup_series[-1] > 0


def test_first_starting_load_applies_the_march_operator(monkeypatch):
    """g1 = R(u0) takes its diffusion from the march's own operator, the
    lagged chain form frozen at u0, not from a separate form of u0^m."""
    loads = []

    def record_load(plan, _real=integrator.step):
        if not loads:
            loads.append(_first_load(plan.memory))
        return _real(plan)

    monkeypatch.setattr(integrator, "step", record_load)
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.6, p=1.8, mu=1.0, k=1.0, gamma=1.0,
                             m=2.5, coupling_mode=COUPLING_GLOBAL_MASS)
    u0 = np.random.default_rng(41).uniform(0.0, 1.0, domain.n)
    assert run(Field(u0, domain), params, SolverConfig(dt=0.01, t_final=0.1)).steps == 10
    coeffs = face_diffusivity(u0, domain, params.p, 1e-6, m=params.m)
    g1 = (diffusion_apply(coeffs, u0)
          + reaction(u0, global_mass(Field(u0, domain)), params))
    expected = layer_correction_weights(params.alpha, 10)[0] * g1
    np.testing.assert_allclose(loads[0], expected, rtol=1e-13,
                               atol=1e-13 * float(np.max(np.abs(expected))))


def test_snapshot_times_are_honored():
    domain, kern = allee_setup(n=16)
    cfg = SolverConfig(dt=0.01, t_final=0.5, record_every=10 ** 9,
                       snapshot_times=(0.25, 0.5))
    report = run(Field.constant(domain, 0.3), ALLEE, cfg, kernel=kern)
    times = [t for t, _ in report.snapshots]
    assert times[0] == 0.0
    assert len(times) == 3
    assert abs(times[1] - 0.25) <= cfg.dt / 2 + 1e-12
    assert abs(times[2] - 0.5) <= cfg.dt / 2 + 1e-12
    for _, snap in report.snapshots:
        assert isinstance(snap, Field)
        assert snap.values.shape == domain.shape(1)
    assert report.warnings == []


def test_colliding_snapshot_times_are_warned_about():
    domain, kern = allee_setup(n=16)
    cfg = SolverConfig(dt=0.1, t_final=1.0, record_every=10 ** 9,
                       snapshot_times=(0.29, 0.31, 0.5, 1.0))
    report = run(Field.constant(domain, 0.3), ALLEE, cfg, kernel=kern)
    times = [t for t, _ in report.snapshots]
    assert times == pytest.approx([0.0, 0.3, 0.5, 1.0], abs=1e-12)
    assert len(report.warnings) == 1
    assert "0.31" in report.warnings[0] and "0.29" in report.warnings[0]


def test_recording_includes_first_and_last():
    domain, kern = allee_setup(n=16)
    cfg = SolverConfig(dt=0.01, t_final=0.25, record_every=10)
    report = run(Field.constant(domain, 0.3), ALLEE, cfg, kernel=kern)
    assert report.times[0] == 0.0
    assert math.isclose(report.times[-1], 0.25, rel_tol=1e-12)
    assert report.steps == 25
    assert len(report.times) == len(report.sup_series)


# ---------------------------------------------------------------------------
# validation and guards
# ---------------------------------------------------------------------------

def test_run_rejects_bad_parameters():
    domain = DomainSpec(half_width=1.0, n=8)
    bad = ModelParameters(alpha=1.2, p=1.5, mu=1.0, k=1.0, gamma=0.1)
    with pytest.raises(HypothesisError):
        run(Field.constant(domain, 0.1), bad,
            SolverConfig(dt=0.01, t_final=0.1))


def test_run_rejects_dimension_mismatch():
    domain = DomainSpec(half_width=1.0, n=8)
    params = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=1.0, gamma=0.1, dim=2)
    kern = discretize_kernel("box", 0.2, 0.2, domain, dim=2)
    with pytest.raises(GridMismatchError):
        run(Field.constant(domain, 0.1, dim=1), params,
            SolverConfig(dt=0.01, t_final=0.1), kernel=kern)


def test_run_requires_kernel_only_when_coupled():
    domain = DomainSpec(half_width=1.0, n=8)
    cfg = SolverConfig(dt=0.01, t_final=0.05)
    with pytest.raises(HypothesisError):
        run(Field.constant(domain, 0.1), ALLEE, cfg)
    # k = 0 decouples: no kernel needed
    free = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=0.0, gamma=0.5)
    report = run(Field.constant(domain, 0.1), free, cfg)
    assert report.status.completed


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1.0, 0.0])
def test_run_rejects_a_kernel_on_another_grid(dim, k):
    # checked before the first product, also where k = 0 leaves it unused
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=k, gamma=0.1, dim=dim)
    kern = discretize_kernel("box", 0.5, 0.2, DomainSpec(half_width=4.0, n=32), dim=dim)
    with pytest.raises(GridMismatchError, match="different grids"):
        run(Field.constant(domain, 0.3, dim=dim), params,
            SolverConfig(dt=0.01, t_final=0.05), kernel=kern)


def test_run_makes_one_start_up_convolution(monkeypatch):
    calls = []
    real = operators._periodic_convolve

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "_periodic_convolve", counted)
    monkeypatch.setattr(integrator, "_periodic_convolve", counted)
    domain, kern = allee_setup(n=16)
    run(Field.constant(domain, 0.3), ALLEE, SolverConfig(dt=0.01, t_final=0.01),
        kernel=kern)
    assert len(calls) == 2      # the starting load's and the one step's


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_rejects_nonfinite_initial_data(value):
    domain, kern = allee_setup(n=16)
    u0 = np.full(domain.n, 0.3)
    u0[7] = value
    with pytest.raises(HypothesisError, match="NaN or an inf"):
        run(Field(u0, domain), ALLEE, SolverConfig(dt=0.01, t_final=0.1), kernel=kern)


def fail_call_at(monkeypatch, name, k):
    """Make the k-th call of ``integrator.<name>`` raise, as a failed
    frozen-diffusivity solve (a stalled CG) would."""
    calls = []
    real = getattr(integrator, name)

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise SolverConvergenceError("frozen-diffusivity solve missed residual")
        return real(*args, **kwargs)

    monkeypatch.setattr(integrator, name, flaky)


def test_solver_failure_keeps_the_partial_run(monkeypatch):
    fail_call_at(monkeypatch, "_pcg", 7)
    domain = DomainSpec(half_width=4.0, n=16)
    kern = discretize_kernel("box", 0.5, 0.05, domain, dim=2)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=0.5, gamma=0.2, dim=2)
    cfg = SolverConfig(dt=0.01, t_final=0.2, record_every=4)
    u0 = Field(np.full((16, 16), 0.4), domain)
    report = run(u0, params, cfg, kernel=kern)
    assert report.status == RunStatus("solver_failed", time=0.07)
    assert report.steps == 6
    # the series ends at the last accepted state, t = 0.06
    assert np.allclose(report.times, [0.0, 0.04, 0.06], rtol=0, atol=1e-15)
    assert report.sup_series[-1] == report.final.sup_norm()
    assert any("step 7" in w and "missed residual" in w for w in report.warnings)


def test_cg_cap_halts_the_march_as_a_solver_failure(monkeypatch):
    # one iteration cannot solve the first varying-coefficient step: the
    # cap ends the march with the report of what came before it
    monkeypatch.setattr(integrator, "_CG_MAXITER", 1)
    domain = DomainSpec(half_width=4.0, n=16)
    kern = discretize_kernel("box", 0.5, 0.05, domain, dim=2)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=0.5, gamma=0.2, dim=2)
    x = domain.axis_coords()
    u0 = 0.5 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
    report = run(Field(u0, domain), params, SolverConfig(dt=0.01, t_final=0.2), kernel=kern)
    assert report.status == RunStatus("solver_failed", time=0.01)
    assert report.steps == 0 and np.array_equal(report.times, [0.0])
    assert np.array_equal(report.final.values, u0)
    assert any("step 1" in w and "within 1 iterations" in w for w in report.warnings)


def test_nonfinite_halt_keeps_the_last_finite_state():
    # u' ~ u^2 from u0 = 2 overflows to inf near t = 0.064 without ever
    # passing the threshold while finite
    domain = DomainSpec(half_width=4.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=0.0, gamma=0.0)
    cfg = SolverConfig(dt=1e-3, t_final=0.1, blowup_threshold=1.7e308)
    with pytest.warns(RuntimeWarning, match="overflow"):
        report = run(Field.constant(domain, 2.0), params, cfg)
    assert report.status == RunStatus("nonfinite", time=0.064)
    assert report.steps == 63
    assert np.all(np.isfinite(report.final.values))
    # the series ends at the last finite state, t = 0.063
    assert math.isclose(report.times[-1], 0.063, rel_tol=1e-12)
    assert report.sup_series[-1] == report.final.sup_norm()


def corrupt_step(monkeypatch, at, cell, value):
    """Make the step ``at`` return its state with ``cell`` set to ``value``;
    returns the states the real step produced, in order."""
    states = []
    real = integrator.step

    def corrupted(*args, **kwargs):
        u = real(*args, **kwargs)
        states.append(u.copy())
        if len(states) == at:
            u = u.copy()
            u[cell] = value
        return u

    monkeypatch.setattr(integrator, "step", corrupted)
    return states


@pytest.mark.parametrize("cell,value", [
    (5, math.nan), (5, math.inf), (5, -math.inf),
    ([4, 5, 6], [3e8, math.nan, -3e8]),         # a non-finite value wins
])
def test_run_halts_on_a_nan_below_the_threshold(monkeypatch, cell, value):
    # min and max of the state are NaN or infinite, so the bound check fails
    # and the state is classified, although every other value is far below the threshold
    states = corrupt_step(monkeypatch, 4, cell, value)
    domain, kern = allee_setup(n=16)
    cfg = SolverConfig(dt=0.01, t_final=0.1, record_every=2)
    report = run(Field.constant(domain, 0.3), ALLEE, cfg, kernel=kern)
    assert report.status == RunStatus("nonfinite", time=4 * cfg.dt)
    assert report.steps == 3
    assert np.array_equal(report.final.values, states[2])
    assert np.allclose(report.times, [0.0, 0.02, 0.03], rtol=0, atol=1e-15)
    assert np.all(np.isfinite(report.sup_series))


@pytest.mark.parametrize("value,threshold,accepted", [
    (-2e8, 1e8, False),
    (1e8, 1e8, True), (-1e8, 1e8, True),
    (np.nextafter(1e8, math.inf), 1e8, False), (np.nextafter(-1e8, -math.inf), 1e8, False),
    (5.0, 1.0, False),
])
def test_run_halts_on_a_value_below_minus_the_threshold(monkeypatch, value, threshold,
                                                        accepted):
    # one value of the fourth state is set; the others stay at ~0.3
    cfg = SolverConfig(dt=0.01, t_final=0.1, record_every=2, blowup_threshold=threshold)
    corrupt_step(monkeypatch, 4, 5, value)
    domain, kern = allee_setup(n=16)
    report = run(Field.constant(domain, 0.3), ALLEE, cfg, kernel=kern)
    # the state is recorded either way, at t = 0.04
    assert report.times[2] == 4 * cfg.dt
    assert report.sup_series[2] == abs(value)
    if accepted:
        # the march goes on from it
        assert report.steps > 4 and report.status.time != 4 * cfg.dt
        return
    assert report.status == RunStatus("blowup", time=4 * cfg.dt)
    assert report.steps == 4
    # a blowup report ends at the state past the threshold
    assert report.final.values[5] == value
    assert report.times[-1] == 4 * cfg.dt


@pytest.mark.parametrize("record_every", [1, 2, 3])
@pytest.mark.parametrize("halt_step", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("kind", ["completed", "blowup", "nonfinite", "solver_failed"])
def test_series_records_each_state_once_and_ends_at_the_last(monkeypatch, kind, halt_step,
                                                            record_every):
    dt = 0.01
    cfg = SolverConfig(dt=dt, t_final=(halt_step if kind == "completed" else 8) * dt,
                       record_every=record_every)
    if kind == "blowup":
        corrupt_step(monkeypatch, halt_step, 5, 2.0 * cfg.blowup_threshold)
    elif kind == "nonfinite":
        corrupt_step(monkeypatch, halt_step, 5, math.nan)
    elif kind == "solver_failed":
        fail_call_at(monkeypatch, "step", halt_step)
    domain, kern = allee_setup(n=16)
    report = run(Field.constant(domain, 0.3), ALLEE, cfg, kernel=kern)
    assert report.status.kind == kind
    last = halt_step if kind in ("completed", "blowup") else halt_step - 1
    assert report.steps == last
    # every record_every-th state, the initial and the last one, none twice
    kept = sorted({0, last} | set(range(record_every, last + 1, record_every)))
    assert np.array_equal(report.times, [s * dt for s in kept])
    assert np.all(np.diff(report.times) > 0)
    final = report.final
    assert (report.sup_series[-1], report.l2_series[-1], report.l1_series[-1],
            report.min_series[-1]) == (final.sup_norm(), final.l2_norm(), final.l1_norm(),
                                       final.min_value())
    if kind == "blowup":
        assert report.times[-1] == report.status.time
    else:
        assert report.times[-1] == report.steps * dt


def test_run_reports_its_worst_negative_excursion():
    # a linear decay from a sign-changing state: the lowest value of any
    # accepted state, and its time, reach the report and report.json
    domain = DomainSpec(half_width=1.0, n=16)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=1.0)
    u0 = Field(np.cos(np.pi * domain.axis_coords()) - 0.2, domain)
    cfg = SolverConfig(dt=0.01, t_final=0.2, record_every=1)
    report = run(u0, params, cfg)
    low = int(np.argmin(report.min_series[1:])) + 1
    assert report.worst_negative == report.min_series[low] < 0.0
    assert report.worst_negative_time == report.times[low]
    assert any("dipped to" in w for w in report.warnings)
    summary = summarize_run(report)
    assert summary["worst_negative"] == report.worst_negative
    assert summary["worst_negative_time"] == report.worst_negative_time
    again = run(u0, params, cfg)
    assert format_series(again) == format_series(report)
    assert summarize_run(again) == summary
    # a run that stays nonnegative reports 0.0 and no time
    rest = run(Field.constant(domain, 0.5), params, cfg)
    assert (rest.worst_negative, rest.worst_negative_time) == (0.0, None)


@pytest.mark.parametrize("kind,completed,halted", [
    ("completed", True, False),
    ("blowup", False, False),
    ("nonfinite", False, True),
    ("solver_failed", False, True),
])
def test_run_status_flags(kind, completed, halted):
    status = RunStatus(kind, time=None if completed else 1.0)
    assert (status.completed, status.halted) == (completed, halted)


# ---------------------------------------------------------------------------
# spectral reference
# ---------------------------------------------------------------------------

def test_spectral_reference_keeps_constants():
    domain = DomainSpec(half_width=1.0, n=16)
    u0 = Field.constant(domain, 0.8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.0)
    out = linear_spectral_reference(u0, params, [0.5, 1.0])
    for f in out:
        assert np.allclose(f.values, 0.8, rtol=1e-12)


def test_spectral_reference_classical_heat_limit():
    domain = DomainSpec(half_width=1.0, n=32)
    x = domain.axis_coords()
    u0 = Field(np.sin(np.pi * x), domain)
    heat = ModelParameters(alpha=1.0, p=2.0, mu=0.0, k=0.0, gamma=0.0)
    (out,) = linear_spectral_reference(u0, heat, [0.1])
    # mode kappa = 1 of the DFT: exact factor exp(lam_1 t)
    lam1 = -(2.0 * np.sin(np.pi * 1.0 / 32.0) / domain.h) ** 2
    assert np.allclose(out.values, math.exp(lam1 * 0.1) * u0.values,
                       rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_spectral_reference_rejects_a_time_outside_0_inf(t):
    # (-1)^alpha is complex: mittag_leffler used to reject the complex z
    # instead, without naming the time
    domain = DomainSpec(half_width=1.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.0)
    with pytest.raises(HypothesisError, match=f"reference times .* got {t}$"):
        linear_spectral_reference(Field.constant(domain, 0.5), params, [1.0, t])


def test_spectral_reference_rejects_a_field_of_another_dimension():
    # a 2D field under dim = 1 parameters, which run rejects too
    domain = DomainSpec(half_width=1.0, n=8)
    u0 = Field(np.full(domain.shape(2), 0.5), domain)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.0)
    with pytest.raises(GridMismatchError, match=r"initial field is 2D but params.dim = 1"):
        linear_spectral_reference(u0, params, [1.0])
    with pytest.raises(GridMismatchError):
        run(u0, params, SolverConfig(dt=0.1, t_final=1.0))


def test_spectral_reference_rejects_nonlinear_sets():
    domain = DomainSpec(half_width=1.0, n=8)
    u0 = Field.constant(domain, 0.5)
    with pytest.raises(HypothesisError):
        linear_spectral_reference(
            u0, ModelParameters(alpha=0.5, p=1.5, mu=0.0, k=0.0, gamma=0.0), [1.0])
    with pytest.raises(HypothesisError):
        linear_spectral_reference(
            u0, ModelParameters(alpha=1.5, p=2.0, mu=0.0, k=0.0, gamma=0.0), [1.0])
