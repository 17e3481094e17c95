import math

import numpy as np
import pytest

from fracplap import operators
from fracplap.errors import HypothesisError, KernelAdmissibilityError
from fracplap.model import DomainSpec, Field
from fracplap.operators import (
    KERNEL_SHAPES,
    box_window_integral,
    convolve_kernel,
    diffusion_apply,
    discretize_kernel,
    face_diffusivity,
    global_mass,
)


def domain_1d(L=4.0, n=64):
    return DomainSpec(half_width=L, n=n)


def test_box_kernel_height_matches_support():
    # unit mass spread over [-2 delta0, 2 delta0] gives height 1/(4 delta0)
    d = domain_1d()
    kern = discretize_kernel("box", 0.5, 0.05, d)
    x = d.axis_coords()
    inside = np.abs(x) < 1.0 - d.h / 2.0
    assert np.allclose(kern.values[inside], 0.5, rtol=1e-13)
    assert kern.values[d.n // 2] == np.max(kern.values)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 48)])
def test_kernel_unit_integral(shape, dim, n):
    d = DomainSpec(half_width=4.0, n=n)
    kern = discretize_kernel(shape, 0.5, 1e-4, d, dim=dim)
    assert kern.values.ndim == dim
    assert np.all(kern.values >= 0.0)
    assert math.isclose(float(np.sum(kern.values)) * d.h ** dim, 1.0,
                        rel_tol=1e-13)


def test_gaussian_kernel_floor_on_sensing_box():
    d = DomainSpec(half_width=8.0, n=128)
    kern = discretize_kernel("gaussian", 0.5, 0.1, d)
    x = d.axis_coords()
    box = np.abs(x) <= 0.5
    assert float(np.min(kern.values[box])) > 0.1


def test_kernel_floor_violation_raises():
    d = domain_1d()
    with pytest.raises(KernelAdmissibilityError):
        discretize_kernel("box", 0.5, 0.6, d)


def test_kernel_geometry_guards():
    d = domain_1d()
    with pytest.raises(KernelAdmissibilityError):
        discretize_kernel("box", 1.0, 0.05, d)       # delta0 = L/4 exactly
    with pytest.raises(KernelAdmissibilityError):
        discretize_kernel("box", -0.5, 0.05, d)
    with pytest.raises(KernelAdmissibilityError):
        discretize_kernel("box", 0.5, 0.0, d)
    with pytest.raises(KernelAdmissibilityError):
        discretize_kernel("pyramid", 0.5, 0.05, d)
    with pytest.raises(KernelAdmissibilityError):
        discretize_kernel("box", 0.5, 0.05, d, dim=3)


def test_convolution_preserves_constants():
    d = domain_1d()
    kern = discretize_kernel("triangle", 0.5, 1e-3, d)
    out = convolve_kernel(Field.constant(d, 0.7), kern)
    assert np.allclose(out.values, 0.7, rtol=1e-13)


def test_convolution_matches_direct_sum_1d():
    d = DomainSpec(half_width=2.0, n=32)
    kern = discretize_kernel("box", 0.25, 0.1, d)
    rng = np.random.default_rng(8)
    u = rng.uniform(0.0, 1.0, d.n)
    out = convolve_kernel(Field(u, d), kern)
    n = d.n
    direct = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += kern.values[(i - j + n // 2) % n] * u[j]
        direct[i] = acc * d.h
    assert np.allclose(out.values, direct, rtol=1e-10, atol=1e-13)


def test_convolution_matches_direct_sum_2d():
    d = DomainSpec(half_width=2.0, n=16)
    kern = discretize_kernel("gaussian", 0.3, 1e-6, d, dim=2)
    rng = np.random.default_rng(9)
    u = rng.uniform(0.0, 1.0, (d.n, d.n))
    out = convolve_kernel(Field(u, d), kern)
    n = d.n
    direct = np.zeros((n, n))
    for i1 in range(n):
        for i2 in range(n):
            acc = 0.0
            for j1 in range(n):
                for j2 in range(n):
                    acc += kern.values[(i1 - j1 + n // 2) % n,
                                       (i2 - j2 + n // 2) % n] * u[j1, j2]
            direct[i1, i2] = acc * d.h ** 2
    assert np.allclose(out.values, direct, rtol=1e-10, atol=1e-12)


ROLL_FORMS = {
    # (lo, hi, op): the np.roll formula the slice helper replaces
    (0, 1, "subtract"): lambda v, ax: np.roll(v, -1, axis=ax) - v,
    (-1, 0, "subtract"): lambda v, ax: v - np.roll(v, 1, axis=ax),
    (-1, 1, "subtract"): lambda v, ax: np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax),
    (0, 1, "add"): lambda v, ax: v + np.roll(v, -1, axis=ax),
}


@pytest.mark.parametrize("form", sorted(ROLL_FORMS))
@pytest.mark.parametrize("dim,axis", [(1, 0), (2, 0), (2, 1)])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_periodic_diff_matches_roll_forms(form, dim, axis, n):
    lo, hi, op = form
    rng = np.random.default_rng(n + 10 * dim + axis)
    v = rng.uniform(-1.0, 1.0, (n,) * dim)
    v.flat[::5] = -0.0
    v.flat[2::7] = 0.0
    got = operators._periodic_diff(v, axis, np.full_like(v, np.nan), lo=lo, hi=hi,
                                   op=getattr(np, op))
    want = ROLL_FORMS[form](v, axis)
    # bit patterns, so that -0.0 and 0.0 count as different
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_operator_is_built_once(dim):
    d = DomainSpec(half_width=2.0, n=16)
    kern = discretize_kernel("gaussian", 0.3, 1e-6, d, dim=dim)
    assert kern.operator is kern.operator
    assert not kern.operator.flags.writeable


def direct_convolution(g: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """sum_y g(x - y) u(y) h^dim point by point, g centered at index n//2."""
    n = u.shape[0]
    out = np.empty_like(u)
    for point in np.ndindex(u.shape):
        rows = [(n // 2 + i - np.arange(n)) % n for i in point]
        out[point] = np.sum(g[np.ix_(*rows)] * u) * h ** u.ndim
    return out


@pytest.mark.parametrize("which", KERNEL_SHAPES + ("window",))
@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (1, 256), (2, 16), (2, 64)])
def test_convolution_matches_a_direct_sum_to_rounding(which, dim, n):
    d = DomainSpec(half_width=4.0, n=n)
    u = np.random.default_rng(n + dim).uniform(0.2, 1.0, d.shape(dim))
    if which == "window":
        out = box_window_integral(Field(u, d), 1.0)
        x = np.abs(d.axis_coords())
        w = np.where(x < 1.0 - 1e-12, 1.0, np.where(x <= 1.0 + 1e-12, 0.5, 0.0))
        g = w if dim == 1 else np.multiply.outer(w, w)
    else:
        kern = discretize_kernel(which, 0.5, 1e-6, d, dim=dim)
        out = convolve_kernel(Field(u, d), kern)
        g = kern.values
    want = direct_convolution(g, u, d.h)
    assert np.max(np.abs(out.values - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("support", ["one-sided", "diagonal"])
def test_2d_kernel_that_is_not_even_along_each_axis_is_rejected(support):
    # the eigenbasis holds only kernels with J(x, y) = J(-x, y) = J(x, -y);
    # a diagonal support is symmetric about the origin and still fails
    d = DomainSpec(half_width=2.0, n=16)
    values = np.zeros((16, 16))
    offsets = range(3) if support == "one-sided" else range(-1, 2)
    for a in offsets:
        values[8 + a, 8 + (a if support == "diagonal" else 0)] = 1.0 / (3.0 * d.h ** 2)
    kern = operators.KernelGrid(values, d)
    with pytest.raises(KernelAdmissibilityError, match="even"):
        convolve_kernel(Field.constant(d, 1.0, dim=2), kern)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_laplacian_basis_is_an_orthonormal_eigenbasis(n):
    domain = DomainSpec(half_width=3.0, n=n)
    q = operators._laplacian_basis(n)
    assert not q.flags.writeable
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-14
    # column c holds wavenumber (c + 1) // 2: the constant, cos/sin pairs, Nyquist
    lam = operators._laplacian_axis(domain)[(np.arange(n) + 1) // 2]
    tq = (2.0 * q - np.roll(q, 1, axis=0) - np.roll(q, -1, axis=0)) / domain.h ** 2
    assert np.max(np.abs(tq - q * lam)) <= 1e-14 * lam.max()
    symbol = operators._laplacian_symbol(domain)
    assert np.array_equal(symbol, lam[:, None] + lam[None, :])


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("shift,abar", [(0.1, 1.0), (3.0, 0.7), (1e3, 2.5)])
def test_eigen_solve_matches_the_dense_5_point_system(n, shift, abar):
    # _eigen_product with np.divide solves (shift I - abar Laplacian_h) x = b
    domain = DomainSpec(half_width=4.0, n=n)
    b = np.random.default_rng(n).standard_normal((n, n))
    x = operators._eigen_product(b, shift + abar * operators._laplacian_symbol(domain),
                                 np.divide)
    coeffs = [np.full((n, n), abar)] * 2
    eye = np.eye(n * n)
    matrix = shift * eye - np.column_stack(
        [diffusion_apply(coeffs, e.reshape(n, n), domain).ravel() for e in eye])
    exact = np.linalg.solve(matrix, b.ravel())
    assert np.linalg.norm(x.ravel() - exact) <= 1e-12 * np.linalg.norm(exact)


def test_convolution_grid_guard():
    from fracplap.errors import GridMismatchError

    d = domain_1d()
    kern = discretize_kernel("box", 0.5, 0.05, d)
    other = DomainSpec(half_width=4.0, n=32)
    with pytest.raises(GridMismatchError):
        convolve_kernel(Field.constant(other, 1.0), kern)


# ---------------------------------------------------------------------------
# flux-form diffusion
# ---------------------------------------------------------------------------

def flux_form(u, d, p, eps_reg=1e-6, m=1.0):
    """The march's Delta_p u^m: chain-form face coefficients applied to u."""
    return diffusion_apply(face_diffusivity(u, d, p, eps_reg, m=m), u, d)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_p_laplacian_of_constant_vanishes(p):
    d = domain_1d()
    out = flux_form(np.full(d.n, 1.3), d, p)
    assert np.allclose(out, 0.0, atol=1e-14)


def test_p2_matches_spectral_symbol():
    d = DomainSpec(half_width=4.0, n=128)
    x = d.axis_coords()
    kappa = 3
    u = np.sin(np.pi * kappa * x / d.half_width)
    out = flux_form(u, d, 2.0, eps_reg=1.0)  # eps is inert at p = 2
    lam = -(2.0 * np.sin(np.pi * kappa / d.n) / d.h) ** 2
    assert np.allclose(out, lam * u, rtol=1e-11, atol=1e-11)


def test_p2_is_the_centered_stencil():
    d = domain_1d(n=32)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(d.n)
    out = flux_form(u, d, 2.0)
    stencil = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / d.h ** 2
    assert np.allclose(out, stencil, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_p_laplacian_conserves_mass(dim, n):
    d = DomainSpec(half_width=4.0, n=n)
    rng = np.random.default_rng(100)
    for m in (1.0, 2.5):
        for _ in range(20):
            u = rng.uniform(0.0, 2.0, d.shape(dim))
            out = flux_form(u, d, 1.5, m=m)
            total = float(np.sum(out)) * d.h ** dim
            scale = float(np.sum(np.abs(out))) * d.h ** dim
            assert abs(total) <= 1e-12 * max(1.0, scale)


def test_p_laplacian_rejects_bad_exponent():
    d = domain_1d()
    u = np.ones(d.n)
    with pytest.raises(HypothesisError):
        face_diffusivity(u, d, 1.0, 1e-6)
    with pytest.raises(HypothesisError):
        face_diffusivity(u, d, 2.5, 1e-6)
    with pytest.raises(HypothesisError):
        face_diffusivity(u, d, 1.5, 0.0)


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("eps_reg", [math.nan, math.inf])
def test_face_diffusivity_rejects_non_finite_regularization(eps_reg, p):
    # NaN gave NaN coefficients, and inf zero ones at p < 2 (no diffusion)
    d = domain_1d()
    with pytest.raises(HypothesisError, match="eps_reg"):
        face_diffusivity(np.linspace(0.0, 1.0, d.n), d, p, eps_reg)


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("m", [0.5, math.nan])
def test_face_diffusivity_rejects_porous_exponent_below_one(m, p):
    # u_face^(m - 1) is infinite at a zero face value: m < 1 used to
    # return NaN coefficients with only a RuntimeWarning
    d = domain_1d()
    u = np.zeros(d.n)
    u[10:20] = 0.5
    with pytest.raises(HypothesisError, match="porous-medium exponent"):
        face_diffusivity(u, d, p, 1e-6, m=m)


@pytest.mark.parametrize("m", [1.0, 2.5])
@pytest.mark.parametrize("dim", [1, 2])
def test_p2_coefficients_are_the_general_formula_bit_for_bit(dim, m):
    """At p = 2 (g2 + eps^2) ** 0.0 is 1.0 for every float64 g2, so the
    face coefficients are exact ones times the chain factor, also where
    the sample holds NaN, infinities and overflowing gradients."""
    d = DomainSpec(half_width=4.0, n=16)
    rng = np.random.default_rng(12)
    u = rng.uniform(-0.5, 2.0, d.shape(dim))
    flat = u.reshape(-1)
    flat[[3, 7, 8, 12]] = [math.nan, math.inf, -math.inf, 1e200]
    eps = 1e-6
    with np.errstate(invalid="ignore", over="ignore"):
        if m != 1.0:
            clamped = np.where(u > 0.0, u, 0.0)
            v = clamped ** m
        else:
            v = u
        expected = [(g2 + eps ** 2) ** 0.0
                    for g2 in operators._face_gradient_norm_sq(v, d.h)]
        if m != 1.0:
            for ax, c in enumerate(expected):
                face_u = 0.5 * (np.roll(clamped, -1, axis=ax) + clamped)
                c *= m * face_u ** (m - 1.0)
        got = face_diffusivity(u, d, 2.0, eps, m=m)
    assert len(got) == dim
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert g.tobytes() == e.tobytes()
        assert m != 1.0 or np.all(g == 1.0)


def test_power_form_is_stencil_of_the_cube():
    # at p = 2 the chain form div(3 u_face^2 grad u), with u_face the mean
    # of the two cells, matches the centered Laplacian of u^3 to O(h^2)
    errors, bounds = [], []
    for n in (48, 96):
        d = domain_1d(n=n)
        x = d.axis_coords()
        u = 1.0 + 0.1 * np.sin(np.pi * x / d.half_width)
        out = flux_form(u, d, 2.0, m=3.0)
        v = u ** 3
        stencil = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / d.h ** 2
        errors.append(float(np.max(np.abs(out - stencil))))
        bounds.append(0.01 * d.h ** 2 * float(np.max(np.abs(stencil))))
    assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
    assert 1.9 <= math.log2(errors[0] / errors[1]) <= 2.1


def test_power_form_constant_and_negatives():
    d = domain_1d()
    assert np.allclose(flux_form(np.full(d.n, 0.8), d, 1.5, m=2.5), 0.0, atol=1e-14)
    # negative cells enter the coefficients only through the clamp
    rng = np.random.default_rng(6)
    u = rng.standard_normal(d.n)
    got = face_diffusivity(u, d, 1.5, 1e-6, m=2.0)
    clamped = face_diffusivity(np.maximum(u, 0.0), d, 1.5, 1e-6, m=2.0)
    assert all(np.array_equal(a, b) for a, b in zip(got, clamped))


def test_power_form_conserves_mass():
    d = DomainSpec(half_width=4.0, n=32)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0, (d.n, d.n))
    out = flux_form(u, d, 1.8, m=2.5)
    total = float(np.sum(out)) * d.h ** 2
    scale = float(np.sum(np.abs(out))) * d.h ** 2
    assert abs(total) <= 1e-12 * max(1.0, scale)


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def test_global_mass_values():
    d = DomainSpec(half_width=3.0, n=24)
    assert math.isclose(global_mass(Field.constant(d, 1.0)), 6.0, rel_tol=1e-14)
    assert global_mass(Field.constant(d, 0.0)) == 0.0
    d2 = DomainSpec(half_width=1.0, n=64)
    x = d2.axis_coords()
    f = Field(np.sin(np.pi * x) ** 2, d2)
    assert math.isclose(global_mass(f), 1.0, rel_tol=1e-12)


def test_global_mass_2d():
    d = DomainSpec(half_width=2.0, n=16)
    assert math.isclose(global_mass(Field.constant(d, 0.5, dim=2)),
                        0.5 * 16.0, rel_tol=1e-14)


def test_window_integral_of_constant():
    d = DomainSpec(half_width=2.0, n=32)
    out = box_window_integral(Field.constant(d, 0.7), 0.5)
    assert np.allclose(out.values, 0.7, rtol=1e-13)       # (2 delta) c = c here


def test_window_integral_matches_direct_sum():
    d = DomainSpec(half_width=2.0, n=32)
    rng = np.random.default_rng(21)
    u = rng.uniform(0.0, 1.0, d.n)
    delta = 0.5
    out = box_window_integral(Field(u, d), delta)
    x = d.axis_coords()
    w = np.where(np.abs(x) < delta - 1e-12, 1.0,
                 np.where(np.abs(x) <= delta + 1e-12, 0.5, 0.0))
    n = d.n
    direct = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += w[(i - j + n // 2) % n] * u[j]
        direct[i] = acc * d.h
    assert np.allclose(out.values, direct, rtol=1e-10, atol=1e-13)


def test_window_integral_radius_guard():
    d = DomainSpec(half_width=2.0, n=32)
    f = Field.constant(d, 1.0)
    with pytest.raises(HypothesisError):
        box_window_integral(f, 0.0)
    with pytest.raises(HypothesisError):
        box_window_integral(f, 1.5)
