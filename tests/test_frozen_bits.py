"""Frozen bits of the diffusion, periodic-convolution and L1-convolution
paths, and of kernel-coupled marches.

The digests were taken from the code in which each of these jobs still
had two or three separate implementations (a p-Laplacian, a power-form
p-Laplacian and the march's own explicit diffusion; two FFT
convolutions; two L1 history convolutions).  The single implementation
that replaced them must reproduce every one bit for bit; the diffusion
digests now pin the march's own operator, ``face_diffusivity`` followed
by ``diffusion_apply``, which is the one discretization of
Delta_p u^m.  The
kernel-march digests were taken while the operators still shifted arrays
with np.roll and the conjugate-gradient updates still allocated; the
slice-based, in-place step must reproduce them too.

The three 2D march digests were re-pinned when the 2D solve began
from a cubic extrapolation of the last four states instead of from
u^{n-1}.  Conjugate gradients then stop at a different iterate inside
the same residual tolerance: the final states moved by at most 2.5e-10
relative to their sup norm (global mass), 9.1e-11 (kernel) and 2.0e-16
(p = 2 layer-two load, one exact preconditioned iteration either way).
Every 1D march, operator, convolution and weight digest is unchanged,
since 1D solves directly and never uses the guess.

All six march digests were re-pinned again when the L1 history began
to fold its increments into the sum-of-exponentials sums once every 16
steps, with the pending ones entering the memory term through powers
of the decay factors, instead of updating every sum on every step.
That reorders the rounding of the memory term: the final states moved
by at most 3.5e-16 relative to their sup norm (global mass, 1D),
6.0e-16 (global mass, 2D), 1.6e-15 (kernel, 1D), 1.1e-14 (kernel, 2D),
4.0e-16 (layer-two load, 1D) and 3.0e-16 (layer-two load, 2D).  Every
operator, convolution, weight, ``caputo_series``, inequality-margin and
spectral-reference digest is unchanged.

The 2D layer-two load digest (p = 2, m = 1) was re-pinned once more
when that constant-coefficient system began to be solved directly, by
one forward and one inverse FFT, instead of by one preconditioned
conjugate-gradient iteration from the extrapolated guess.  Both give
the solution to rounding: the final state moved by 6.1e-16 relative to
its sup norm.  Every other march digest, and every operator,
convolution, weight, ``caputo_series``, inequality-margin and
spectral-reference digest, is unchanged.

The three 2D march digests were re-pinned once more when every 2D
constant-coefficient solve (the p = 2, m = 1 step and the PCG
preconditioner) moved from numpy's rfftn/irfftn pair to four dense
products in the real eigenbasis of the periodic Laplacian.  Both invert
the same matrix, so only rounding changed: the final states moved by
4.5e-16 relative to their sup norm (global mass), 5.1e-15 (kernel) and
1.4e-15 (layer-two load), and conjugate gradients took the same
iterations.  Every 1D march, operator, convolution, weight,
``caputo_series``, inequality-margin and spectral-reference digest is
unchanged.

The two kernel-march digests and the four periodic-convolution
digests were re-pinned when the convolution stopped using numpy's FFT:
1D applies the kernel's cached n x n circulant, 2D scales the
coefficients of the field in that same Laplacian eigenbasis by the
kernel's eigenvalues.  Only rounding changed: the outputs moved by
2.2e-16 (kernel, 1D), 6.9e-16 (kernel, 2D), 2.6e-16 (window, 1D) and
6.0e-16 (window, 2D) relative to their sup norm, and the final states
of the marches by 4.7e-15 (1D) and 7.7e-14 (2D, with the same 480
conjugate-gradient iterations).  Every global-mass, layer-two,
p-Laplacian, weight, ``caputo_series``, inequality-margin and
spectral-reference digest is unchanged.

The two global-mass march digests and the two m = 2.5 diffusion
digests were re-pinned when the separate power-form operator, which
applied the m = 1 coefficients to v = max(u, 0)^m, was deleted and the
starting load g1 began to apply the march's lagged chain form
div(m u_face^(m-1) a grad u), frozen at u^0.  The two forms agree only
to O(h^2), so this is a change of discretization, not of rounding: on
the n = 16 sample with negative cells the m = 2.5 operator output moved
by 8.3e-2 (1D) and 8.2e-2 (2D) relative to its sup norm, and the final
states of the global-mass marches by 8.7e-5 (1D) and 2.6e-4 (2D).  The
two m = 1 diffusion digests are unchanged (the same calls), as is every
kernel, layer-two, convolution, weight, ``caputo_series``,
inequality-margin and spectral-reference digest.

All six march digests were re-pinned again when the L1 history began
to project its sums once per fold into the ring slots the fold empties,
so that the memory term with r increments pending reads u^{n-1}, the r
increments and the projection P_r instead of u^{n-1}, the K sums and
the r increments.  That moves where the memory term adds its terms:
the final states moved by 3.5e-16 relative to their sup norm (global
mass, 1D), 6.0e-16 (global mass, 2D), 8.0e-15 (kernel, 1D), 7.7e-14
(kernel, 2D, with the same 480 conjugate-gradient iterations), 2.0e-16
(layer-two load, 1D) and 8.1e-16 (layer-two load, 2D).  Every operator,
convolution, weight, ``caputo_series``, inequality-margin and
spectral-reference digest is unchanged.

The two PCG march digests (2D global mass at m = 2.5, 2D kernel at
p = 1.5) were re-pinned when the conjugate-gradient preconditioner,
the eigenbasis solve with the mean face coefficient, was scaled on both
sides by a diagonal that gives it the frozen system's own diagonal.
CG then stops at another iterate inside the same 1e-10 |b| residual
tolerance: the final states moved by 2.6e-10 (global mass) and 4.8e-11
(kernel) relative to their sup norm, and the iterations over the two
20-step marches fell from 108 to 98 and from 480 to 342.  Every 1D
march, the 2D layer-two load march (the direct p = 2 solve), and every
operator, convolution, weight, ``caputo_series``, inequality-margin,
spectral-reference and Mittag-Leffler digest is unchanged.

The two global-mass, the two kernel-march and the four p-Laplacian
digests were re-pinned when ``face_diffusivity`` began to return the
couplings a / h^2, computed as (g2 + (eps h)^2)^((p-2)/2) h^-p from the
raw face differences with the 2D transverse term built from the forward
differences, and ``diffusion_apply`` and the 1D solve stopped dividing
by h.  Only rounding changed: the operator outputs moved by 1.8e-16
(m = 1, 1D), 3.2e-16 (m = 1, 2D), 2.1e-16 (m = 2.5, 1D) and 1.8e-16
(m = 2.5, 2D) relative to their sup norm, and the final states of the
marches by 5.3e-16 (global mass, 1D), 6.0e-16 (global mass, 2D),
4.0e-15 (kernel, 1D) and 7.3e-16 (kernel, 2D); conjugate gradients kept
their 98 and 342 iterations over the two 2D marches.  The layer-two load
marches (h = 0.5 makes the unit coupling h^-2 = 4 exact, and the 2D one
solves directly), and every convolution, weight, ``caputo_series``,
inequality-margin, spectral-reference and Mittag-Leffler digest, are
unchanged.

The 2D layer-two load digest (p = 2, m = 1) was re-pinned when that
march began to keep its L1 history in the Laplacian eigenbasis:
the memory holds Q^T u Q, the right-hand side is formed and divided by
the symbol there, and each step takes its state back to the grid once,
instead of sending the grid right-hand side forward and back.  The
history is linear, so only rounding changed: the final state moved by
1.2e-15 relative to its sup norm.  Every 1D march, both PCG marches, and
every operator, convolution, weight, ``caputo_series``,
inequality-margin, spectral-reference and Mittag-Leffler digest is
unchanged.

The two PCG march digests (2D global mass at m = 2.5, 2D kernel at
p = 1.5) were re-pinned when the solve's guess became the cubic in
s = t^alpha through the last four states, instead of the cubic in the
step index, and CG began to stop at 1e-9 |b| instead of 1e-10 |b|.  CG
stops at another iterate inside the looser tolerance: the final states
moved by 3.6e-9 (global mass) and 4.3e-10 (kernel) relative to their
sup norm, and the iterations over the two 20-step marches fell from 98
to 75 and from 342 to 295.  Zeroing the L1 fold-table entries whose
terms fall 2^-52 below the kernel's accuracy moved no bit.  Every 1D
march, the 2D layer-two load march (the direct p = 2 solve), and every
operator, convolution, weight, ``caputo_series``, inequality-margin,
spectral-reference and Mittag-Leffler digest is unchanged.

The ``caputo_series``, inequality-margin and spectral-reference digests
were taken while the L1 weights still had their own public builder,
the m = 2 inequality its own checker, and the reference its own copy
of the Laplacian symbol.  The Mittag-Leffler digests, of the cached
pole-free contour the decay envelope and the spectral reference use,
were taken while the function still served z > 0 and 1 < alpha <= 2
with Garrappa's pole-handling parabolas.  Inputs come
from numpy's PCG64 stream, whose uniform draws do not depend on the
platform; the digests themselves are those of float64 arithmetic on
x86-64 with numpy 2.x.
"""
import hashlib

import numpy as np
import pytest

from fracplap import operators
from fracplap.fractional import (caputo_series, layer_correction_weights,
                                 mittag_leffler, power_inequality_check)
from fracplap.integrator import SolverConfig, linear_spectral_reference, run
from fracplap.model import (COUPLING_GLOBAL_MASS, COUPLING_KERNEL, DomainSpec,
                            Field, ModelParameters)

DOMAIN = DomainSpec(half_width=4.0, n=16)


def digest(values) -> str:
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def sample(dim: int, seed: int, lo: float = 0.2, hi: float = 1.0) -> Field:
    rng = np.random.default_rng(seed)
    return Field(rng.uniform(lo, hi, DOMAIN.shape(dim)), DOMAIN)


MARCHES = {
    1: "c2f1e670ea14a2de",
    2: "80bcbec3541520de",
}


@pytest.mark.parametrize("dim", sorted(MARCHES))
def test_global_mass_march_bits(dim):
    params = ModelParameters(alpha=0.6, p=1.8, mu=1.0, k=1.0, gamma=1.0,
                             m=2.5, dim=dim, coupling_mode=COUPLING_GLOBAL_MASS)
    config = SolverConfig(dt=1e-3, t_final=0.02)
    report = run(sample(dim, 40 + dim), params, config)
    assert report.status.completed
    assert digest(report.final.values) == MARCHES[dim]


KERNEL_MARCHES = {
    # dim: (grid points per axis, dt, t_final, digest of the final state)
    1: (16, 0.01, 2.0, "5c70e0ceda4f5c39"),
    2: (32, 0.01, 0.2, "db86ba23ad4d883f"),
}


@pytest.mark.parametrize("dim", sorted(KERNEL_MARCHES))
def test_kernel_march_bits(dim):
    # the Allee parameters with box-kernel coupling: 200 direct 1D solves,
    # 20 PCG solves in 2D
    n, dt, t_final, expected = KERNEL_MARCHES[dim]
    domain = DomainSpec(half_width=4.0, n=n)
    params = ModelParameters(alpha=0.8, p=1.5, mu=1.0, k=1.0, gamma=3.0 / 16.0,
                             dim=dim, coupling_mode=COUPLING_KERNEL)
    kernel = operators.discretize_kernel("box", 0.5, 0.2, domain, dim=dim)
    rng = np.random.default_rng(70 + dim)
    u0 = Field(rng.uniform(0.2, 1.0, domain.shape(dim)), domain)
    config = SolverConfig(dt=dt, t_final=t_final)
    report = run(u0, params, config, kernel=kernel)
    assert report.status.completed
    assert digest(report.final.values) == expected


LAYER_TWO_MARCHES = {
    1: "38adca75d2b763dd",
    2: "aa873f1f7454f2a7",
}


@pytest.mark.parametrize("dim", sorted(LAYER_TWO_MARCHES))
def test_layer_two_load_march_bits(dim):
    # p = 2, mu = 0 and alpha < 1/2 add the t^(2 alpha) starting load to
    # the t^alpha one in each of the 20 steps
    params = ModelParameters(alpha=0.4, p=2.0, mu=0.0, k=0.0, gamma=0.5, dim=dim)
    report = run(sample(dim, 80 + dim), params, SolverConfig(dt=0.01, t_final=0.2))
    assert report.status.completed and report.steps == 20
    assert digest(report.final.values) == LAYER_TWO_MARCHES[dim]


P_LAPLACIAN = {
    (1.0, 1): "af149060c126e6c4",
    (1.0, 2): "c0a53c8ce582b940",
    (2.5, 1): "0f4723757e18ae08",
    (2.5, 2): "5e8e9f35a7e7b7ae",
}


@pytest.mark.parametrize("m,dim", sorted(P_LAPLACIAN))
def test_p_laplacian_bits(m, dim):
    # negative samples exercise the clamp inside the power
    u = sample(dim, 50 + dim, lo=-0.2).values
    out = operators.diffusion_apply(
        operators.face_diffusivity(u, DOMAIN, 1.5, 1e-6, m=m), u)
    assert digest(out) == P_LAPLACIAN[m, dim]


CONVOLUTIONS = {
    ("kernel", 1): "3595187f0fdae82e",
    ("kernel", 2): "c20945fd5700ed24",
    ("window", 1): "b023572fe436b16f",
    ("window", 2): "71a29fd59bdc1b19",
}


@pytest.mark.parametrize("which,dim", sorted(CONVOLUTIONS))
def test_periodic_convolution_bits(which, dim):
    field = sample(dim, 60 + dim)
    if which == "kernel":
        kernel = operators.discretize_kernel("triangle", 0.5, 0.05, DOMAIN, dim=dim)
        out = operators.convolve_kernel(field, kernel)
    else:
        out = operators.box_window_integral(field, 1.0)
    assert digest(out.values) == CONVOLUTIONS[which, dim]


LAYER_WEIGHTS = {
    (100, 1): "56ea87a4c57a3149",
    (100, 2): "75f506ee44398fc2",
    (600, 1): "6e443e90d25b4146",
    (600, 2): "67e39fb74c8a7afb",
}


@pytest.mark.parametrize("n,layer", sorted(LAYER_WEIGHTS))
def test_layer_correction_weight_bits(n, layer):
    # 100 steps take the direct convolution, 600 the FFT one
    assert digest(layer_correction_weights(0.4, n, layer=layer)) == LAYER_WEIGHTS[n, layer]


CAPUTO_SERIES = {
    100: "b61d36dfc619556a",
    600: "a442b6c87c001441",
}


@pytest.mark.parametrize("n", sorted(CAPUTO_SERIES))
def test_caputo_series_bits(n):
    # 100 differences take the direct convolution, 600 the FFT one
    values = np.random.default_rng(90 + n).uniform(0.0, 1.0, n + 1)
    assert digest(caputo_series(values, 0.4, 0.01)) == CAPUTO_SERIES[n]


INEQUALITY_MARGINS = {
    2: "b0e4c9e28a6d7f7c",      # a signed random walk
    3: "b04bd270f0347655",      # nonnegative samples
}


@pytest.mark.parametrize("m", sorted(INEQUALITY_MARGINS))
def test_power_inequality_margin_bits(m):
    rng = np.random.default_rng(29 + m)
    if m == 2:
        u = np.cumsum(rng.normal(0.0, 0.3, 60))
        assert u.min() < 0.0
    else:
        u = rng.uniform(0.0, 2.0, 60)
    report = power_inequality_check(u, m, 0.5, 0.05)
    assert report.passed
    assert digest(report.margins) == INEQUALITY_MARGINS[m]


SPECTRAL_REFERENCE = {
    1: "ed11883752313f62",
    2: "b5dc0b5556f313f6",
}


@pytest.mark.parametrize("dim", sorted(SPECTRAL_REFERENCE))
def test_linear_spectral_reference_bits(dim):
    params = ModelParameters(alpha=0.6, p=2.0, mu=0.0, k=0.0, gamma=0.5, dim=dim)
    rng = np.random.default_rng(100 + dim)
    u0 = Field(rng.uniform(0.2, 1.0, DOMAIN.shape(dim)), DOMAIN)
    out = linear_spectral_reference(u0, params, [0.5, 2.0])
    assert digest(np.stack([f.values for f in out])) == SPECTRAL_REFERENCE[dim]


MITTAG_LEFFLER = {
    0.3: "5374ee9779b732b2",
    0.5: "51cbbf03c7de071c",
    0.8: "e011ede2faae1881",
    1.0: "640056e127d75655",
}


@pytest.mark.parametrize("alpha", sorted(MITTAG_LEFFLER))
def test_mittag_leffler_negative_axis_bits(alpha):
    # array and scalar calls on 200 z in [-50, 0), then 0, -0 and the
    # smallest subnormal; at alpha = beta = 1 the exp path
    zs = np.concatenate((np.random.default_rng(110).uniform(-50.0, 0.0, 200),
                         [0.0, -0.0, -5e-324]))
    rows = []
    for beta in (1.0, 1.0 + alpha, 2.5):
        rows.append(mittag_leffler(alpha, zs, beta=beta))
        rows.append([mittag_leffler(alpha, float(z), beta=beta) for z in zs])
    assert digest(rows) == MITTAG_LEFFLER[alpha]
