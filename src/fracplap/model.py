"""Model data types and closed-form quantities for the nonlocal
time-fractional p-Laplacian reaction-diffusion model

    D_t^alpha u = div(|grad u|^{p-2} grad u) + mu u^2 (1 - k C[u]) - gamma u

where C[u] is either a kernel convolution (competition over a finite
sensing radius) or the global mass of u.  Everything in this module is
pointwise arithmetic on parameters; no grids are touched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridMismatchError, HypothesisError

COUPLING_KERNEL = "kernel"
COUPLING_GLOBAL_MASS = "global_mass"


# --------------------------------------------------------------------------
# parameter containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParameters:
    alpha: float            # fractional time order, 0 < alpha < 1
    p: float                # diffusion exponent; (1, 2], p = 2 is the linear regime
    mu: float               # growth coefficient, >= 0 (0 switches growth off)
    k: float                # competition strength, >= 0
    gamma: float            # linear death rate, >= 0
    m: float = 1.0          # porous-medium exponent (1 in kernel mode)
    dim: int = 1            # spatial dimension, 1 or 2
    coupling_mode: str = COUPLING_KERNEL


@dataclass(frozen=True)
class DomainSpec:
    """Periodic box (-L, L)^dim sampled on n points per axis."""

    half_width: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    def axis_coords(self) -> np.ndarray:
        """Grid coordinates along one axis, x_i = -L + i h (excludes +L)."""
        return -self.half_width + self.h * np.arange(self.n)

    def shape(self, dim: int) -> tuple:
        return (self.n,) * dim


@dataclass
class Field:
    """Real samples of a state on the periodic grid, row-major."""

    values: np.ndarray
    domain: DomainSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise GridMismatchError(f"field must be 1D or 2D, got ndim={self.values.ndim}")
        if self.values.shape != self.domain.shape(self.values.ndim):
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match domain grid "
                f"{self.domain.shape(self.values.ndim)}")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @classmethod
    def constant(cls, domain: DomainSpec, value: float, dim: int = 1) -> "Field":
        return cls(np.full(domain.shape(dim), float(value)), domain)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def min_value(self) -> float:
        return float(np.min(self.values))

    def l2_norm(self) -> float:
        """sqrt(h^dim sum u^2), summed over u / 2^e with 2^e the sup norm's
        power of two, so squaring neither overflows nor underflows on a
        finite state; the scaling is exact, so the bits are those of the
        unscaled sum wherever that stays in range."""
        h = self.domain.h
        _, e = math.frexp(self.sup_norm())
        scaled = np.ldexp(self.values, -e)
        return math.ldexp(float(np.sqrt(np.sum(scaled ** 2) * h ** self.dim)), e)

    def l1_norm(self) -> float:
        h = self.domain.h
        return float(np.sum(np.abs(self.values)) * h ** self.dim)


@dataclass(frozen=True)
class EquilibriumRoots:
    """Positive zeros 0 < lower < upper of u -> mu u (1 - k u) - gamma.

    The reaction F(u) = mu u^2 (1 - k u) - gamma u factors as
    k mu u (upper - u)(u - lower), so F < 0 on (0, lower) and F > 0 on
    (lower, upper): ``lower`` is the survival threshold and ``upper``
    the carrying capacity.
    """

    lower: float
    upper: float


@dataclass
class AnalysisConstants:
    """Constants entering the a priori estimates.

    All default to 1.0 except the kernel geometry pair (delta0, eta)
    and the window radius delta, which defaults to delta0 / 2.  No
    estimate uses a c1, so ``parse_config`` ignores the one that older
    manifests carry.
    """

    c_gn: float = 1.0       # interpolation (Gagliardo-Nirenberg) constant
    c4: float = 1.0         # propagator sup-norm constant
    eta: float = 0.1        # kernel floor on the sensing box
    delta0: float = 0.5     # kernel sensing radius
    delta: Optional[float] = None   # window radius for local functionals
    c2: float = 1.0

    def __post_init__(self):
        if self.delta is None:
            self.delta = self.delta0 / 2.0

    def violations(self) -> list:
        out = []
        for name in ("c_gn", "c4", "eta", "delta0", "delta", "c2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                out.append(f"{name}: must be positive and finite, got {v}")
        if math.isfinite(self.delta) and math.isfinite(self.delta0) \
                and self.delta > self.delta0 / 2.0 + 1e-15:
            out.append(f"delta: window radius {self.delta} exceeds delta0/2 = {self.delta0 / 2.0}")
        return out


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate_params(params: ModelParameters) -> list:
    """Range-check model parameters.  Returns a list of violation strings.

    An empty list means the parameter set is admissible.  The linear
    oracle regime (p = 2, mu = 0) is deliberately allowed so reference
    runs can go through the same pipeline.
    """
    v = []
    for name in ("alpha", "p", "mu", "k", "gamma", "m"):
        x = getattr(params, name)
        if not math.isfinite(x):
            v.append(f"{name}: must be finite, got {x}")
    if v:
        return v

    if not (0.0 < params.alpha < 1.0):
        v.append(f"alpha: fractional order must lie in (0, 1), got {params.alpha}")
    if not (1.0 < params.p <= 2.0):
        v.append(f"p: diffusion exponent must lie in (1, 2], got {params.p}")
    if params.mu < 0:
        v.append(f"mu: growth coefficient must be >= 0, got {params.mu}")
    if params.k < 0:
        v.append(f"k: competition strength must be >= 0, got {params.k}")
    if params.gamma < 0:
        v.append(f"gamma: death rate must be >= 0, got {params.gamma}")
    if params.dim not in (1, 2):
        v.append(f"dim: spatial dimension must be 1 or 2, got {params.dim}")

    if params.coupling_mode == COUPLING_KERNEL:
        if params.m != 1.0:
            v.append(f"m: kernel coupling requires m = 1, got {params.m}")
    elif params.coupling_mode == COUPLING_GLOBAL_MASS:
        if params.dim in (1, 2):
            lo = 2.0 - 2.0 / params.dim
            if not (lo < params.m <= 3.0 and params.m >= 1.0):
                v.append(
                    f"m: global-mass coupling requires 2 - 2/dim < m <= 3 "
                    f"and m >= 1, got m={params.m} at dim={params.dim}")
        for name in ("mu", "k", "gamma"):
            if getattr(params, name) != 1.0:
                v.append(f"{name}: global-mass coupling hard-wires {name} = 1, "
                         f"got {getattr(params, name)}")
    else:
        v.append(f"coupling_mode: must be '{COUPLING_KERNEL}' or "
                 f"'{COUPLING_GLOBAL_MASS}', got {params.coupling_mode!r}")
    return v


# --------------------------------------------------------------------------
# closed-form quantities
# --------------------------------------------------------------------------

def equilibrium_roots(mu: float, k: float, gamma: float) -> EquilibriumRoots:
    """Positive equilibria of the homogeneous reaction.

    Solves mu u (1 - k u) = gamma.  Requires finite mu > 0, k > 0, gamma >= 0
    and 4 k gamma / mu <= 1; otherwise no positive equilibria exist and a
    HypothesisError is raised.  gamma = 0 degenerates to (0, 1/k).
    """
    if not all(map(math.isfinite, (mu, k, gamma))) or gamma < 0:
        raise HypothesisError(
            f"equilibria need finite mu, k and gamma >= 0, got mu={mu}, k={k}, gamma={gamma}")
    if mu <= 0 or k <= 0:
        raise HypothesisError(f"equilibria need mu > 0 and k > 0, got mu={mu}, k={k}")
    disc = 1.0 - 4.0 * k * gamma / mu
    if disc < 0:
        raise HypothesisError(
            f"no real equilibria: 4*k*gamma/mu = {4.0 * k * gamma / mu:.6g} exceeds 1")
    s = math.sqrt(disc)
    upper = (1.0 + s) / (2.0 * k)
    # stable form of (1 - s)/(2k); avoids cancellation for small gamma
    lower = 2.0 * gamma / (mu * (1.0 + s))
    return EquilibriumRoots(lower=lower, upper=upper)


def reaction(u, coupling_val, params: ModelParameters):
    """Pointwise reaction mu u^2 (1 - k c) - gamma u.

    ``coupling_val`` is the already-evaluated coupling c (kernel
    convolution or global mass), broadcast against ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    return params.mu * u ** 2 * (1.0 - params.k * coupling_val) - params.gamma * u


def decay_margin(gamma: float, mu: float, sup_u: float) -> float:
    """Linear decay rate margin gamma - mu * sup u.

    Positive when the death rate beats the largest possible growth,
    which is the hypothesis of the smallness-decay estimate.
    """
    return gamma - mu * sup_u


def competition_threshold(dim: int, mu: float, consts: AnalysisConstants) -> float:
    """Competition strength above which solutions stay globally bounded.

    0 in one dimension (any k > 0 works there); (mu c_gn^2 + 1)/eta in
    two dimensions.
    """
    if dim == 1:
        return 0.0
    if dim == 2:
        return (mu * consts.c_gn ** 2 + 1.0) / consts.eta
    raise ValueError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class SupBound:
    """Result of the a priori sup-norm bound.

    ``value`` is the bound when it applies.  When the inner bracket of
    the gradient estimate is non-positive the bound degenerates and
    ``failure`` carries the reason instead.
    """

    value: Optional[float]
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def sup_norm_bound(params: ModelParameters, consts: AnalysisConstants,
                   u0_sup: float, horizon: float) -> SupBound:
    """A priori sup-norm bound on [0, T] for the kernel-coupled model.

    Chains the propagator estimate with the gradient-decay estimate;
    the inner bracket must stay positive for the bound to apply.
    Returns a SupBound carrying either the bound or a failure marker.
    """
    if u0_sup < 0:
        raise HypothesisError(f"u0_sup must be >= 0, got {u0_sup}")
    if horizon <= 0:
        raise HypothesisError(f"horizon must be positive, got {horizon}")

    alpha, p, mu, gamma, k = params.alpha, params.p, params.mu, params.gamma, params.k
    ta = horizon ** alpha / (alpha * math.gamma(alpha))

    if params.dim == 1:
        etak = consts.eta * k
        if etak <= 0:
            raise HypothesisError(f"eta * k must be positive in the 1D bound, got {etak}")
        q = 2.0 * mu * ((mu ** (1.0 / 3.0) * consts.c_gn ** (4.0 / 3.0) + 1.0) ** 6
                        * etak ** -5 + consts.c_gn ** 10)
        growth = (q + (2.0 * gamma - 2.0 * consts.c2)) * ta
        y0 = 2.0 * consts.delta * u0_sup ** 2
    elif params.dim == 2:
        growth = (2.0 * mu * consts.c_gn ** 4 + (2.0 * gamma - 2.0 * consts.c2)) * ta
        y0 = (2.0 * consts.delta) ** 2 * u0_sup ** 2
    else:
        raise ValueError(f"dim must be 1 or 2, got {params.dim}")

    if not math.isfinite(growth):
        raise HypothesisError(f"non-finite growth term in sup-norm bound: {growth}")

    if y0 == 0.0:
        # zero data: the gradient estimate collapses and so does the bound
        bracket = math.inf
    else:
        bracket = y0 ** (1.0 - p) + growth
    if bracket <= 0.0:
        return SupBound(value=None,
                        failure=f"bracket base {bracket:.6g} is non-positive at T={horizon}")
    msq = 0.0 if bracket == math.inf else bracket ** (1.0 / (1.0 - p))
    bound = consts.c4 * u0_sup + mu * consts.c4 * msq * horizon ** alpha / alpha
    if not math.isfinite(bound):
        raise HypothesisError(f"non-finite sup-norm bound: {bound}")
    return SupBound(value=bound)
