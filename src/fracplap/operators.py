"""Spatial operators on the periodic grid: competition-kernel
discretization and convolution, the regularized p-Laplacian in flux
form, windowed local integrals, and the real eigenbasis of the periodic
Laplacian with its one dense product (``_eigen_product``), which serves
the 2D convolution here and the integrator's 2D solves.

All operators work on 1D (n,) or 2D (n, n) samples of the periodic box
(-L, L)^dim.  Fluxes live on faces (between cell i and i+1 along each
axis), which makes the discrete p-Laplacian conservative: its grid sum
telescopes to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError, HypothesisError, KernelAdmissibilityError
from .model import DomainSpec, Field

KERNEL_SHAPES = ("box", "triangle", "gaussian")

# relative slack when classifying a grid coordinate as on/inside a radius
_EDGE_TOL = 1e-9


# --------------------------------------------------------------------------
# competition kernel
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelGrid:
    """Competition kernel sampled on the centered grid.

    ``values`` puts the kernel origin at index n//2 along every axis
    (the grid point x = 0); ``discretize_kernel`` checks its
    admissibility.  ``operator`` caches the dense convolution.
    """

    values: np.ndarray
    domain: DomainSpec

    @cached_property
    def operator(self) -> np.ndarray:
        """The kernel's circulant (1D) or eigenvalues (2D), computed once."""
        return _convolution_operator(self.values, self.domain.h)


@lru_cache(maxsize=8)
def _laplacian_basis(n: int) -> np.ndarray:
    """Real orthonormal eigenbasis Q of the n-point periodic 3-point
    Laplacian (read-only).

    Columns, in order: the constant, cos/sin pairs of wavenumber
    j = 1 .. n/2 - 1 and the Nyquist mode (-1)^i, so column c has the
    eigenvalue of wavenumber (c + 1) // 2.  Angles are reduced mod n
    before the cosine, which keeps Q^T Q = I to rounding."""
    i = np.arange(n)
    wave = (i + 1) // 2
    angle = (2.0 * np.pi / n) * ((i[:, None] * wave[None, :]) % n)
    q = np.where(i % 2 == 1, np.cos(angle), np.sin(angle)) * math.sqrt(2.0 / n)
    q[:, 0] = q[:, -1] = math.sqrt(1.0 / n)
    q[1::2, -1] *= -1.0
    q.flags.writeable = False
    return q


def _laplacian_axis(domain: DomainSpec) -> np.ndarray:
    """Eigenvalues (2 sin(pi k / n) / h)^2, k = 0 .. n-1, of the periodic
    3-point -Laplacian along one axis, in DFT order."""
    return (2.0 * np.sin(np.pi * np.arange(domain.n) / domain.n) / domain.h) ** 2


@lru_cache(maxsize=8)
def _laplacian_symbol(domain: DomainSpec) -> np.ndarray:
    """Nonnegative symbol lambda_i + lambda_j of the 5-point -Laplacian
    in the basis ``_laplacian_basis`` on both axes (read-only)."""
    axis = _laplacian_axis(domain)[(np.arange(domain.n) + 1) // 2]
    symbol = axis[:, None] + axis[None, :]
    symbol.flags.writeable = False
    return symbol


def _eigen_product(values: np.ndarray, diagonal: np.ndarray, op=np.multiply) -> np.ndarray:
    """Q op(Q^T v Q, diagonal) Q^T for Q = ``_laplacian_basis`` on both
    axes and ``diagonal`` in Q's column order: np.multiply applies the
    periodic operator with those eigenvalues (the 2D convolution),
    np.divide solves its system (the fast diagonalization method, Lynch,
    Rice & Thomas, Numer. Math. 6, 1964).  Four dense n x n products,
    O(n^3) against the FFT's O(n^2 log n), yet at n <= 64 about half the
    time of numpy's rfftn/irfftn pair; they break even near n = 128 (README)."""
    q = _laplacian_basis(values.shape[0])
    return q @ op(q.T @ values @ q, diagonal) @ q.T


def _convolution_operator(centered: np.ndarray, h: float) -> np.ndarray:
    """Convolution with samples g centered at index n//2, as
    ``_periodic_convolve`` applies it (read-only): the circulant
    C[i, j] = g[(n//2 + i - j) mod n] h in 1D; in 2D its eigenvalues in
    ``_laplacian_basis`` on both axes (Davis, Circulant Matrices, 1979),
    the real DFT of the origin-first g times h^2 in the basis' column
    order.  That holds only for g even along each axis; 2D samples whose
    DFT along an axis is not real raise KernelAdmissibilityError."""
    n = centered.shape[0]
    if centered.ndim == 1:
        op = centered[(n // 2 + np.arange(n)[:, None] - np.arange(n)) % n] * h
    else:
        g = np.roll(centered, -(n // 2), axis=(0, 1))
        odd = max(float(np.max(np.abs(np.fft.rfft(g, axis=ax).imag))) for ax in (0, 1))
        if odd > 1e-12 * float(np.sum(np.abs(g))):
            raise KernelAdmissibilityError(
                f"2D kernel is not even along each axis (odd DFT part {odd:.3g})")
        wave = (np.arange(n) + 1) // 2
        op = np.fft.rfftn(g).real[wave][:, wave] * h ** 2
    op.flags.writeable = False
    return op


def _centered_coords(domain: DomainSpec, dim: int):
    """Per-axis coordinates of the centered grid, origin at index n//2."""
    x = domain.axis_coords()
    if dim == 1:
        return (x,)
    return np.meshgrid(x, x, indexing="ij")


def _axis_trapezoid_weights(x: np.ndarray, radius: float) -> np.ndarray:
    """Indicator of |x| <= radius with half weight on the exact edge.

    The half-weighted edge makes the row sum of weights times h equal
    2*radius exactly whenever radius is a grid multiple, which keeps
    constant-field windowed integrals exact.
    """
    tol = _EDGE_TOL * max(1.0, radius)
    w = np.where(np.abs(x) < radius - tol, 1.0, 0.0)
    w = np.where(np.abs(np.abs(x) - radius) <= tol, 0.5, w)
    return w


def discretize_kernel(shape: str, delta0: float, eta: float,
                      domain: DomainSpec, dim: int = 1) -> KernelGrid:
    """Sample a competition kernel on the grid and normalize it.

    Shapes: ``box`` (constant on ||x||_inf <= 2 delta0), ``triangle``
    (hat in ||x||_inf of radius 2 delta0), ``gaussian`` (std delta0,
    truncated at Euclidean radius 6 delta0).  The result is rescaled to
    unit discrete integral; the sensing-box floor min J > eta is then
    checked and violations raise KernelAdmissibilityError.
    """
    if shape not in KERNEL_SHAPES:
        raise KernelAdmissibilityError(
            f"unknown kernel shape {shape!r}; expected one of {KERNEL_SHAPES}")
    if not (delta0 > 0 and math.isfinite(delta0)):
        raise KernelAdmissibilityError(f"delta0 must be positive, got {delta0}")
    if not (eta > 0 and math.isfinite(eta)):
        raise KernelAdmissibilityError(f"eta must be positive, got {eta}")
    if not delta0 < domain.half_width / 4.0:
        raise KernelAdmissibilityError(
            f"sensing radius delta0 = {delta0} must be below L/4 = "
            f"{domain.half_width / 4.0} so the support fits the box")
    if dim not in (1, 2):
        raise KernelAdmissibilityError(f"dim must be 1 or 2, got {dim}")

    coords = _centered_coords(domain, dim)
    rinf = np.abs(coords[0]) if dim == 1 else np.maximum(np.abs(coords[0]),
                                                         np.abs(coords[1]))
    if shape == "box":
        w = _axis_trapezoid_weights(domain.axis_coords(), 2.0 * delta0)
        vals = w if dim == 1 else np.multiply.outer(w, w)
    elif shape == "triangle":
        vals = np.maximum(0.0, 1.0 - rinf / (2.0 * delta0))
    else:
        r2 = coords[0] ** 2 if dim == 1 else coords[0] ** 2 + coords[1] ** 2
        vals = np.exp(-r2 / (2.0 * delta0 ** 2))
        vals = np.where(r2 > (6.0 * delta0) ** 2, 0.0, vals)

    h = domain.h
    total = float(np.sum(vals)) * h ** dim
    if total <= 0:
        raise KernelAdmissibilityError(
            f"kernel {shape!r} has empty support on this grid (h = {h:.4g})")
    vals = vals / total

    # floor on the sensing box ||x||_inf <= delta0
    ball = rinf <= delta0 * (1.0 + _EDGE_TOL)
    floor = float(np.min(vals[ball]))
    if not floor > eta:
        raise KernelAdmissibilityError(
            f"kernel floor {floor:.6g} on the sensing box does not exceed "
            f"eta = {eta}; choose a smaller eta (or a larger kernel)")
    return KernelGrid(values=vals, domain=domain)


def _check_same_grid(a_domain: DomainSpec, b_domain: DomainSpec,
                     a_shape, b_shape) -> None:
    if a_domain != b_domain or a_shape != b_shape:
        raise GridMismatchError(
            f"operands live on different grids: {a_domain} {a_shape} vs "
            f"{b_domain} {b_shape}")


def _periodic_convolve(field: Field, operator: np.ndarray) -> Field:
    """sum_y g(x - y) u(y) h^dim for g given by ``_convolution_operator``:
    a circulant product in 1D, ``_eigen_product`` with the eigenvalues in
    2D; at n <= 64 (1D: 256) both undercut numpy's FFT pair (README)."""
    if field.dim == 1:
        return Field(operator @ field.values, field.domain)
    return Field(_eigen_product(field.values, operator), field.domain)


def convolve_kernel(field: Field, kernel: KernelGrid) -> Field:
    """Periodic convolution (J * u)(x) = sum_y J(x - y) u(y) h^dim."""
    _check_same_grid(field.domain, kernel.domain, field.values.shape,
                     kernel.values.shape)
    return _periodic_convolve(field, kernel.operator)


# --------------------------------------------------------------------------
# p-Laplacian in flux form
# --------------------------------------------------------------------------

def _periodic_diff(values: np.ndarray, axis: int, out: np.ndarray,
                   lo: int = 0, hi: int = 1, op=np.subtract) -> np.ndarray:
    """out[i] = op(v[i + hi], v[i + lo]) along ``axis``, periodic, -1 <= lo < hi <= 1:
    (0, 1) is np.roll(v, -1, axis) - v, (-1, 0) is v - np.roll(v, 1, axis) and
    (-1, 1) the centered difference.  Slices give the roll forms' bits without
    their copies (a roll costs ~10 us at n = 16)."""
    v, o = values.swapaxes(0, axis), out.swapaxes(0, axis)
    op(v[hi - lo:], v[:lo - hi], o[-lo:-hi or None])
    if lo:      # i = 0 wraps below
        op(v[hi:hi + 1], v[-1:], o[:1])
    if hi:      # i = n - 1 wraps above
        op(v[:1], v[lo - 1:lo or None], o[-1:])
    return out


def _face_gradient_norm_sq(values: np.ndarray, h: float):
    """|grad u|^2 reconstructed on the faces of each axis.

    The face at index i sits between cell i and cell i+1 (periodic wrap
    on the last face).  The normal component is the face difference
    (u[i+1] - u[i]) / h; the transverse component in 2D is the mean of
    the centered differences of the two cells sharing the face
    (equivalently the mean of the four adjacent one-sided differences).
    """
    norm_sq = [_periodic_diff(values, ax, np.empty_like(values)) for ax in range(values.ndim)]
    for normal in norm_sq:
        normal /= h
        normal **= 2
    if values.ndim == 1:
        return norm_sq
    centered, pair_sum = np.empty((2,) + values.shape)
    for ax in range(2):
        _periodic_diff(values, 1 - ax, centered, lo=-1)
        centered /= 2.0 * h
        norm_sq[ax] += (0.5 * _periodic_diff(centered, ax, pair_sum, op=np.add)) ** 2
    return norm_sq


def face_diffusivity(values: np.ndarray, domain: DomainSpec, p: float,
                     eps_reg: float, m: float = 1.0):
    """Per-axis face coefficients of the regularized p-Laplacian of u^m;
    with ``diffusion_apply``, the one discretization of Delta_p u^m.

    For m = 1 the coefficient is (|grad u|^2 + eps^2)^((p-2)/2) on each
    face.  For m > 1 the gradient is that of v = u^m and the coefficient
    carries the chain factor m * u_face^(m-1), so div(coef * grad u) is
    the lagged chain form of div(|grad v|^(p-2) grad v) (O(h^2) apart);
    negative cells are clamped to zero inside the powers, and m < 1 is rejected.

    At p = 2 the exponent is 0 and every face coefficient is
    (g2 + eps^2) ** 0.0, which is exactly 1.0 for every float64 g2,
    NaN and inf included: the linear case is the general formula, with
    no branch.  eps must be finite, and positive for p < 2.
    """
    if not (1.0 < p <= 2.0):
        raise HypothesisError(f"p must lie in (1, 2], got {p}")
    if not 0.0 <= eps_reg < math.inf or (eps_reg == 0 and p < 2.0):
        raise HypothesisError(
            f"eps_reg must be finite, and positive for p < 2, got {eps_reg}")
    if not m >= 1.0:
        raise HypothesisError(f"porous-medium exponent must be >= 1, got {m}")
    if m != 1.0:
        clamped = np.where(values > 0.0, values, 0.0)
    norm_sq = _face_gradient_norm_sq(clamped ** m if m != 1.0 else values, domain.h)
    coeffs = [(g2 + eps_reg ** 2) ** ((p - 2.0) / 2.0) for g2 in norm_sq]
    if m != 1.0:
        for ax, c in enumerate(coeffs):
            face_u = 0.5 * _periodic_diff(clamped, ax, np.empty_like(clamped), op=np.add)
            c *= m * face_u ** (m - 1.0)
    return coeffs


def diffusion_apply(coeffs, values: np.ndarray, domain: DomainSpec,
                    out=None, work=None) -> np.ndarray:
    """div(a grad u) for frozen face coefficients a, flux form, into ``out``;
    ``work`` holds two arrays shaped like u (both allocated when omitted).
    The sum starts from zeros, so a -0.0 term adds up to +0.0."""
    h = domain.h
    out = np.empty_like(values) if out is None else out
    out.fill(0.0)
    flux, div = np.empty((2,) + values.shape) if work is None else work
    for ax in range(values.ndim):
        _periodic_diff(values, ax, flux)
        flux *= coeffs[ax]
        flux /= h
        _periodic_diff(flux, ax, div, lo=-1, hi=0)
        div /= h
        out += div
    return out


# --------------------------------------------------------------------------
# integrals
# --------------------------------------------------------------------------

def global_mass(field: Field) -> float:
    """Discrete integral sum(u) h^dim over the periodic box.

    numpy's pairwise reduction is used: a fixed, deterministic
    summation order (and more accurate than a running left fold).
    """
    return float(np.sum(field.values)) * field.domain.h ** field.dim


def box_window_integral(field: Field, delta: float) -> Field:
    """Moving-window integral int_{||y-x||_inf <= delta} u(y) dy.

    Uses the trapezoid convention on the window edge (half weight at
    exactly delta), so a constant field integrates to (2 delta)^dim c
    exactly when delta is a grid multiple.  Evaluated by the periodic
    convolution with the unnormalized window.
    """
    domain = field.domain
    if not (0 < delta <= domain.half_width / 2.0):
        raise HypothesisError(
            f"window radius must lie in (0, L/2], got {delta} with "
            f"L = {domain.half_width}")
    w = _axis_trapezoid_weights(domain.axis_coords(), delta)
    window = w if field.dim == 1 else np.multiply.outer(w, w)
    return _periodic_convolve(field, _convolution_operator(window, domain.h))
