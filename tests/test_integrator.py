import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from fracplap import integrator, operators
from fracplap.errors import (GridMismatchError, HypothesisError,
                             SolverConvergenceError)
from fracplap.fractional import L1Memory, layer_correction_weights, mittag_leffler
from fracplap.integrator import (
    RunStatus,
    SolverConfig,
    detect_blowup,
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
    memory = L1Memory(np.zeros(domain.shape(1)), ALLEE.alpha, cfg.dt, 1)
    u1 = step(memory, ALLEE, domain, cfg, kernel=kern)
    assert np.allclose(u1, 0.0, atol=1e-12)


def test_step_keeps_equilibrium():
    domain, kern = allee_setup()
    roots = equilibrium_roots(ALLEE.mu, ALLEE.k, ALLEE.gamma)
    cfg = SolverConfig(dt=0.01, t_final=1.0)
    for val in (roots.lower, roots.upper):
        memory = L1Memory(np.full(domain.shape(1), val), ALLEE.alpha, cfg.dt, 1)
        u1 = step(memory, ALLEE, domain, cfg, kernel=kern)
        assert np.max(np.abs(u1 - val)) < 1e-9


# ---------------------------------------------------------------------------
# frozen-diffusivity solve (1D, direct)
# ---------------------------------------------------------------------------

def _face_coefficients(n, p):
    """Face coefficients of a Gaussian bump on n cells of (-4, 4); random
    positive ones for p = None.  The solve needs only h, so odd n is fine."""
    grid = SimpleNamespace(h=8.0 / n)
    if p is None:
        return grid, np.random.default_rng(n).uniform(0.05, 20.0, n)
    x = -4.0 + grid.h * np.arange(n)
    return grid, face_diffusivity(0.2 + 0.5 * np.exp(-x ** 2), grid, p, 1e-6)[0]


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, None])
@pytest.mark.parametrize("n", [3, 4, 16, 257])
def test_cyclic_tridiagonal_solve_matches_dense_oracle(n, p):
    grid, a = _face_coefficients(n, p)
    shift = 11.5
    b = np.random.default_rng(7 * n).standard_normal(n)
    x = integrator._cyclic_tridiagonal_solve(a / grid.h ** 2, shift, b)
    dense = np.column_stack([shift * e - diffusion_apply([a], e, grid)
                             for e in np.eye(n)])
    # normwise backward error: rounding in the residual itself is of
    # order eps |A| |x|, which the p = 1.2 coefficients (a/h^2 ~ 1e7)
    # make far larger than eps |b|
    residual = shift * x - diffusion_apply([a], x, grid) - b
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
    builds it, and the integrator's constant-coefficient preconditioner,
    each wrapped with a call counter."""
    domain = DomainSpec(half_width=4.0, n=n)
    rng = np.random.default_rng(11)
    coeffs = [rng.uniform(0.5, 2.0, (n, n)) for _ in range(2)]
    shift = 3.0
    symbol = shift + operators._laplacian_symbol(domain)
    calls = {"apply_a": 0, "precond": 0}

    def apply_a(x):
        calls["apply_a"] += 1
        return shift * x - diffusion_apply(coeffs, x, domain)

    def precond(r):
        calls["precond"] += 1
        return operators._eigen_product(r, symbol, np.divide)

    b = rng.standard_normal((n, n))
    return apply_a, precond, b, calls


def test_pcg_applies_the_preconditioner_once_fewer_than_the_operator():
    apply_a, precond, b, calls = _counted_pcg_system()
    tol = 1e-10 * np.linalg.norm(b)
    x, iterations = integrator._pcg(apply_a, b, np.zeros_like(b), precond, tol, 200)
    assert iterations > 2
    assert calls == {"apply_a": iterations + 1, "precond": iterations}
    assert np.linalg.norm(b - apply_a(x)) <= tol

    # a start that already meets the tolerance is returned untouched
    calls.update(apply_a=0, precond=0)
    x0, n0 = integrator._pcg(apply_a, b, x, precond, tol, 200)
    assert n0 == 0 and np.array_equal(x0, x)
    assert calls == {"apply_a": 1, "precond": 0}

    # maxiter: exactly enough iterations gives the same bits, one fewer fails
    x_max, n_max = integrator._pcg(apply_a, b, np.zeros_like(b), precond, tol,
                                   iterations)
    assert n_max == iterations and x_max.tobytes() == x.tobytes()
    with pytest.raises(SolverConvergenceError, match="missed residual"):
        integrator._pcg(apply_a, b, np.zeros_like(b), precond, tol, iterations - 1)


def test_2d_solves_start_from_the_extrapolated_state(monkeypatch):
    # the bounded-2d parameters on a 32 x 32 grid: starting each solve
    # from u^{n-1} took 973 operator products over 60 steps, the cubic
    # extrapolation of the last four states takes 685
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return diffusion_apply(*args, **kwargs)

    monkeypatch.setattr(integrator, "diffusion_apply", counted)
    domain = DomainSpec(half_width=4.0, n=32)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=12.0, gamma=0.1, dim=2)
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    x = domain.axis_coords()
    bump = 0.5 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * 0.5 ** 2))
    report = run(Field(bump, domain), params, SolverConfig(dt=0.05, t_final=3.0),
                 kernel=kern)
    assert report.status.completed and report.steps == 60
    assert calls[0] <= 750


def test_2d_constant_coefficient_step_solves_its_system_exactly():
    # p = 2, m = 1 with kernel competition, after three steps: the frozen
    # system ((scale + gamma) I - Laplacian_h) x = b is solved to rounding.
    # At amplitude 1e-12 (a state near extinction) the guess already met
    # CG's absolute floor of 1e-10 and was returned unsolved, a few
    # percent off the solution
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=2.0, gamma=0.3, dim=2)
    kern = discretize_kernel("box", 0.5, 0.2, domain, dim=2)
    config = SolverConfig(dt=0.01, t_final=1.0)
    wave = np.cos(np.pi * domain.axis_coords() / 4.0)
    shape = 1.0 + 0.5 * wave[:, None] * wave[None, :]
    ones = [np.ones(shape.shape)] * 2
    laplacian = np.column_stack([diffusion_apply(ones, e.reshape(shape.shape), domain).ravel()
                                 for e in np.eye(shape.size)])
    for amplitude in (1.0, 1e-12):
        memory = L1Memory(amplitude * shape, params.alpha, config.dt, 100)
        for _ in range(3):
            memory.append(step(memory, params, domain, config, kern))
        u = memory.last()
        coupling = convolve_kernel(Field(u, domain), kern).values
        b = (memory.scale * integrator.memory_term(memory)
             + params.mu * u ** 2 * (1.0 - params.k * coupling)).ravel()
        matrix = (memory.scale + params.gamma) * np.eye(shape.size) - laplacian
        exact = np.linalg.solve(matrix, b)
        x = step(memory, params, domain, config, kern).ravel()
        assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)
        assert np.linalg.norm(b - matrix @ x) <= 1e-12 * max(1.0, np.linalg.norm(b))


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


def _dense_system(coeffs, shift, domain):
    """The frozen 2D matrix shift I - div(a grad), column by column."""
    eye = np.eye(domain.n ** 2)
    div = np.column_stack([diffusion_apply(coeffs, e.reshape(domain.n, domain.n),
                                           domain).ravel() for e in eye])
    return shift * eye - div


def test_small_2d_state_is_solved_to_a_relative_tolerance():
    # a p = 1.8 first step from 1e-8 exp(-r^2 / 0.5): with CG stopping at
    # 1e-10 max(1, |b|), absolute below |b| = 1, it came back 4e-6 off
    domain = DomainSpec(half_width=2.0, n=16)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=2.0, gamma=0.3, dim=2)
    kern = discretize_kernel("box", 0.25, 0.2, domain, dim=2)
    config = SolverConfig(dt=0.01, t_final=1.0)
    x = domain.axis_coords()
    u0 = 1e-8 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 0.5)
    memory = L1Memory(u0, params.alpha, config.dt, 100)
    coeffs = face_diffusivity(u0, domain, params.p, config.eps_reg)
    coupling = convolve_kernel(Field(u0, domain), kern).values
    b = (memory.scale * integrator.memory_term(memory)
         + params.mu * u0 ** 2 * (1.0 - params.k * coupling))
    exact = np.linalg.solve(_dense_system(coeffs, memory.scale + params.gamma, domain),
                            b.ravel())
    got = step(memory, params, domain, config, kern).ravel()
    assert np.linalg.norm(got - exact) <= 1e-9 * np.linalg.norm(exact)


def test_zero_2d_right_hand_side_gives_exact_zeros(monkeypatch):
    # a relative tolerance is zero here, which CG from a nonzero guess
    # cannot meet: it iterates until p.Ap underflows and breaks down
    domain = DomainSpec(half_width=2.0, n=16)
    params = ModelParameters(alpha=0.5, p=1.8, mu=1.0, k=0.0, gamma=0.3, dim=2)
    zeros = np.zeros((16, 16))
    memory = SimpleNamespace(last=lambda: zeros, scale=10.0, load=lambda: None,
                             predict=lambda: np.random.default_rng(3).random((16, 16)))
    monkeypatch.setattr(integrator, "memory_term", lambda memory: zeros.copy())
    x = step(memory, params, domain, SolverConfig(dt=0.01, t_final=1.0))
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
    # holds K + 1, with K growing only like log N
    domain = DomainSpec(half_width=4.0, n=8)
    params = ModelParameters(alpha=0.5, p=2.0, mu=0.0, k=0.0, gamma=0.5)
    u0 = Field(np.cos(np.pi * domain.axis_coords() / 4.0) + 1.0, domain)
    rows = []
    for t_final in (1.0, 100.0):
        report = run(u0, params, SolverConfig(dt=0.01, t_final=t_final,
                                              record_every=10 ** 9))
        assert report.status.completed
        rows.append(report.history_rows)
    assert 0 < rows[0] <= rows[1] <= 65


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

    def record_load(memory, *args, _real=integrator.step, **kwargs):
        loads.append(memory.load())
        return _real(memory, *args, **kwargs)

    monkeypatch.setattr(integrator, "step", record_load)
    domain = DomainSpec(half_width=4.0, n=16)
    params = ModelParameters(alpha=0.6, p=1.8, mu=1.0, k=1.0, gamma=1.0,
                             m=2.5, coupling_mode=COUPLING_GLOBAL_MASS)
    u0 = np.random.default_rng(41).uniform(0.0, 1.0, domain.n)
    assert run(Field(u0, domain), params, SolverConfig(dt=0.01, t_final=0.1)).steps == 10
    coeffs = face_diffusivity(u0, domain, params.p, 1e-6, m=params.m)
    g1 = (diffusion_apply(coeffs, u0, domain)
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
    assert report.wall_time > 0


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


def test_detect_blowup_classification():
    assert detect_blowup(np.ones(8), 1e8) is None
    assert detect_blowup(np.full(8, 2e8), 1e8) == "blowup"
    v = np.ones(8)
    v[3] = math.nan
    assert detect_blowup(v, 1e8) == "nonfinite"
    v[3] = math.inf
    assert detect_blowup(v, 1e8) == "nonfinite"
    assert detect_blowup(np.array([0.0, 5.0]), 1.0) == "blowup"
    # a non-finite value wins however large the finite ones are
    assert detect_blowup(np.array([2e8, math.nan, -3e8]), 1e8) == "nonfinite"
    assert detect_blowup(np.array([0.0, -math.inf]), 1e8) == "nonfinite"
    assert detect_blowup(np.array([math.nan]), 1e8) == "nonfinite"


def fail_pcg_at(monkeypatch, k):
    """Make the k-th 2D frozen-diffusivity solve raise, as a stalled CG would."""
    calls = []
    real = integrator._pcg

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise SolverConvergenceError("frozen-diffusivity solve missed residual")
        return real(*args, **kwargs)

    monkeypatch.setattr(integrator, "_pcg", flaky)


def test_solver_failure_keeps_the_partial_run(monkeypatch):
    fail_pcg_at(monkeypatch, 7)
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


def test_run_status_flags():
    done = RunStatus("completed")
    assert done.completed
    assert not RunStatus("blowup", time=1.0).completed


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


def test_spectral_reference_rejects_nonlinear_sets():
    domain = DomainSpec(half_width=1.0, n=8)
    u0 = Field.constant(domain, 0.5)
    with pytest.raises(HypothesisError):
        linear_spectral_reference(
            u0, ModelParameters(alpha=0.5, p=1.5, mu=0.0, k=0.0, gamma=0.0), [1.0])
    with pytest.raises(HypothesisError):
        linear_spectral_reference(
            u0, ModelParameters(alpha=1.5, p=2.0, mu=0.0, k=0.0, gamma=0.0), [1.0])
