import math

import numpy as np
import pytest

from fracplap.errors import HypothesisError
from fracplap.model import (
    COUPLING_GLOBAL_MASS,
    COUPLING_KERNEL,
    AnalysisConstants,
    DomainSpec,
    Field,
    ModelParameters,
    competition_threshold,
    decay_margin,
    equilibrium_roots,
    reaction,
    sup_norm_bound,
    validate_params,
)


def kernel_params(**kw):
    base = dict(alpha=0.5, p=1.5, mu=1.0, k=1.0, gamma=0.1)
    base.update(kw)
    return ModelParameters(**base)


def test_validate_params_accepts_admissible_set():
    assert validate_params(kernel_params()) == []


def test_validate_params_allows_linear_oracle_regime():
    # p = 2, mu = 0 must pass so reference runs share the pipeline
    assert validate_params(kernel_params(p=2.0, mu=0.0)) == []


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3, -0.2])
def test_validate_params_rejects_alpha_outside_unit_interval(alpha):
    v = validate_params(kernel_params(alpha=alpha))
    assert any("alpha" in s for s in v)


@pytest.mark.parametrize("p", [1.0, 0.5, 2.5])
def test_validate_params_rejects_bad_diffusion_exponent(p):
    assert any("p:" in s for s in validate_params(kernel_params(p=p)))


def test_validate_params_rejects_negative_rates():
    v = validate_params(kernel_params(mu=-1.0, k=-2.0, gamma=-0.5))
    joined = "\n".join(v)
    assert "mu" in joined and "k" in joined and "gamma" in joined


def test_validate_params_rejects_nonfinite():
    assert validate_params(kernel_params(mu=math.nan)) != []
    assert validate_params(kernel_params(gamma=math.inf)) != []


def test_kernel_mode_pins_porous_exponent():
    assert validate_params(kernel_params(m=1.0)) == []
    assert any("m" in s for s in validate_params(kernel_params(m=2.0)))


def test_global_mass_mode_m_window():
    def gm(m, dim):
        return ModelParameters(alpha=0.5, p=2.0, mu=1.0, k=1.0, gamma=1.0,
                               m=m, dim=dim, coupling_mode=COUPLING_GLOBAL_MASS)

    assert validate_params(gm(1.5, 1)) == []
    assert validate_params(gm(3.0, 2)) == []
    # dim = 2 needs m > 1; dim = 1 allows anything in [1, 3]
    assert any("m" in s for s in validate_params(gm(0.9, 2)))
    assert any("m" in s for s in validate_params(gm(1.0, 2)))
    assert any("m" in s for s in validate_params(gm(3.5, 1)))
    assert validate_params(gm(1.0, 1)) == []


def test_global_mass_mode_hardwires_unit_rates():
    p = ModelParameters(alpha=0.5, p=2.0, mu=2.0, k=1.0, gamma=1.0,
                        m=1.5, dim=1, coupling_mode=COUPLING_GLOBAL_MASS)
    assert any("mu" in s for s in validate_params(p))


def test_validate_params_unknown_coupling_mode():
    p = kernel_params()
    p = ModelParameters(alpha=p.alpha, p=p.p, mu=p.mu, k=p.k, gamma=p.gamma,
                        coupling_mode="sideways")
    assert any("coupling_mode" in s for s in validate_params(p))


# ---------------------------------------------------------------------------
# equilibria and reaction
# ---------------------------------------------------------------------------

def test_equilibrium_roots_degenerate_gamma():
    r = equilibrium_roots(1.0, 1.0, 0.0)
    assert r.lower == 0.0
    assert r.upper == 1.0


def test_equilibrium_roots_double_root():
    r = equilibrium_roots(1.0, 1.0, 0.25)
    assert math.isclose(r.lower, 0.5, rel_tol=1e-14)
    assert math.isclose(r.upper, 0.5, rel_tol=1e-14)


def test_equilibrium_roots_quarter_three_quarter():
    r = equilibrium_roots(1.0, 1.0, 3.0 / 16.0)
    assert math.isclose(r.lower, 0.25, rel_tol=1e-14)
    assert math.isclose(r.upper, 0.75, rel_tol=1e-14)


def test_equilibrium_roots_satisfy_reaction_zero():
    rng = np.random.default_rng(42)
    for _ in range(200):
        mu = float(rng.uniform(0.1, 5.0))
        k = float(rng.uniform(0.1, 5.0))
        gamma = float(rng.uniform(0.0, 0.99)) * mu / (4.0 * k)
        r = equilibrium_roots(mu, k, gamma)
        for u in (r.lower, r.upper):
            resid = mu * u * (1.0 - k * u) - gamma
            assert abs(resid) <= 1e-12 * max(1.0, mu)
        assert r.lower <= 1.0 / (2.0 * k) <= r.upper


def test_equilibrium_roots_small_gamma_is_cancellation_free():
    # lower root ~ gamma/mu for tiny gamma; naive (1-sqrt)/2k would lose digits
    r = equilibrium_roots(1.0, 1.0, 1e-14)
    assert math.isclose(r.lower, 1e-14, rel_tol=1e-10)


def test_equilibrium_roots_raise_when_overdamped():
    with pytest.raises(HypothesisError):
        equilibrium_roots(1.0, 1.0, 0.3)
    with pytest.raises(HypothesisError):
        equilibrium_roots(0.0, 1.0, 0.1)
    with pytest.raises(HypothesisError):
        equilibrium_roots(1.0, -1.0, 0.1)


@pytest.mark.parametrize("mu,k,gamma", [
    (math.nan, 1.0, 0.1), (1.0, math.nan, 0.1), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 0.1), (1.0, math.inf, 0.1), (1.0, 1.0, -0.1)])
def test_equilibrium_roots_reject_nonfinite_or_negative_input(mu, k, gamma):
    # (inf, 1, 0.1) would give (0, 1) and gamma < 0 a negative lower root
    with pytest.raises(HypothesisError):
        equilibrium_roots(mu, k, gamma)


def test_reaction_vanishes_at_zero_and_equilibria():
    p = kernel_params(mu=1.0, k=1.0, gamma=3.0 / 16.0)
    r = equilibrium_roots(p.mu, p.k, p.gamma)
    out = reaction(np.array([0.0, r.lower, r.upper]),
                   np.array([0.0, r.lower, r.upper]), p)
    assert np.allclose(out, 0.0, atol=1e-15)


def test_reaction_signs_between_roots():
    p = kernel_params(mu=1.0, k=1.0, gamma=3.0 / 16.0)
    u = np.array([0.1, 0.5, 0.9])
    out = reaction(u, u, p)
    assert out[0] < 0 < out[1]
    assert out[2] < 0


def test_reaction_pure_quadratic_when_uncoupled():
    p = kernel_params(mu=2.0, k=0.0, gamma=0.0)
    u = np.linspace(0.0, 2.0, 9)
    assert np.allclose(reaction(u, np.zeros_like(u), p), 2.0 * u ** 2)


def test_decay_margin_values():
    assert decay_margin(1.0, 0.5, 0.5) == 0.75
    assert decay_margin(1.0, 1.0, 1.0) == 0.0
    assert decay_margin(0.1, 1.0, 0.5) == -0.4


def test_competition_threshold_dimension_split():
    c = AnalysisConstants(c_gn=1.0, eta=0.5)
    assert competition_threshold(1, 2.0, c) == 0.0
    assert competition_threshold(2, 2.0, c) == 6.0
    c1 = AnalysisConstants(c_gn=1.0, eta=1.0)
    assert competition_threshold(2, 0.0, c1) == 1.0
    with pytest.raises(ValueError):
        competition_threshold(3, 1.0, c)


# ---------------------------------------------------------------------------
# a priori sup bound
# ---------------------------------------------------------------------------

def test_sup_norm_bound_reference_point():
    """Unit-constant chain at alpha = 1/2, p = 3/2, T = 1.

    With every constant equal to one the gradient bracket is
    1 + 260/sqrt(pi) and the bound collapses to 1 + 2 bracket^-2.
    """
    params = ModelParameters(alpha=0.5, p=1.5, mu=1.0, k=1.0, gamma=1.0)
    consts = AnalysisConstants(c_gn=1.0, c4=1.0, eta=1.0, delta0=1.0,
                               delta=0.5, c2=1.0)
    sb = sup_norm_bound(params, consts, 1.0, 1.0)
    assert sb.ok
    bracket = 1.0 + 260.0 / math.sqrt(math.pi)
    assert math.isclose(sb.value, 1.0 + 2.0 * bracket ** -2.0, rel_tol=1e-14)
    assert math.isclose(sb.value, 1.0000916921128386, rel_tol=1e-13)


def test_sup_norm_bound_zero_data():
    params = kernel_params()
    sb = sup_norm_bound(params, AnalysisConstants(), 0.0, 1.0)
    assert sb.ok
    assert sb.value == 0.0


def test_sup_norm_bound_two_dimensional_branch():
    params = kernel_params(dim=2)
    consts = AnalysisConstants(c_gn=1.0, c4=1.0, eta=1.0, delta0=1.0,
                               delta=0.5, c2=1.0)
    sb = sup_norm_bound(params, consts, 1.0, 1.0)
    assert sb.ok
    ta = 1.0 / (0.5 * math.gamma(0.5))
    growth = (2.0 + 2.0 * 0.1 - 2.0) * ta
    bracket = 1.0 + growth
    expect = 1.0 + 1.0 * bracket ** -2.0 / 0.5
    assert math.isclose(sb.value, expect, rel_tol=1e-14)


def test_sup_norm_bound_degenerate_bracket_is_flagged():
    params = kernel_params(gamma=0.0)
    consts = AnalysisConstants(c_gn=1.0, c4=1.0, eta=1.0, delta0=1.0,
                               delta=0.5, c2=1e6)
    sb = sup_norm_bound(params, consts, 1.0, 1.0)
    assert not sb.ok
    assert sb.value is None
    assert "non-positive" in sb.failure


def test_sup_norm_bound_input_checks():
    params = kernel_params()
    with pytest.raises(HypothesisError):
        sup_norm_bound(params, AnalysisConstants(), -1.0, 1.0)
    with pytest.raises(HypothesisError):
        sup_norm_bound(params, AnalysisConstants(), 1.0, 0.0)
    with pytest.raises(HypothesisError):
        sup_norm_bound(kernel_params(k=0.0), AnalysisConstants(), 1.0, 1.0)


# ---------------------------------------------------------------------------
# grid containers
# ---------------------------------------------------------------------------

def test_domain_spec_geometry():
    d = DomainSpec(half_width=2.0, n=16)
    assert d.h == 0.25
    x = d.axis_coords()
    assert x[0] == -2.0
    assert x[-1] == 2.0 - d.h
    assert len(x) == 16
    assert d.shape(2) == (16, 16)


@pytest.mark.parametrize("n", [7, 9, 4, 0])
def test_domain_spec_rejects_bad_n(n):
    with pytest.raises(ValueError):
        DomainSpec(half_width=1.0, n=n)


def test_domain_spec_rejects_bad_half_width():
    with pytest.raises(ValueError):
        DomainSpec(half_width=0.0, n=16)
    with pytest.raises(ValueError):
        DomainSpec(half_width=math.inf, n=16)


def test_field_norms_on_known_data():
    d = DomainSpec(half_width=1.0, n=8)
    f = Field(np.array([1.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]), d)
    assert f.sup_norm() == 2.0
    assert f.min_value() == -2.0
    assert math.isclose(f.l1_norm(), 3.5 * 0.25, rel_tol=1e-15)
    assert math.isclose(f.l2_norm(), math.sqrt(5.25 * 0.25), rel_tol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("level", [1e200, 1e-200, -1e300])
def test_field_l2_norm_of_extreme_finite_states(level, dim):
    # squaring overflows past ~1.3e154 and underflows below ~1e-162
    d = DomainSpec(half_width=3.0, n=16)
    f = Field.constant(d, level, dim=dim)
    assert math.isclose(f.l2_norm(), abs(level) * math.sqrt(6.0 ** dim),
                        rel_tol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_field_l2_norm_keeps_the_plain_formula_bits(dim):
    d = DomainSpec(half_width=3.0, n=16)
    values = np.random.default_rng(5 + dim).uniform(-3.0, 7.0, d.shape(dim))
    plain = float(np.sqrt(np.sum(values ** 2) * d.h ** dim))
    assert Field(values, d).l2_norm() == plain


def test_field_constant_and_shape_guard():
    from fracplap.errors import GridMismatchError

    d = DomainSpec(half_width=1.0, n=8)
    f = Field.constant(d, 0.3, dim=2)
    assert f.dim == 2
    assert f.values.shape == (8, 8)
    assert f.sup_norm() == 0.3
    with pytest.raises(GridMismatchError):
        Field(np.zeros(9), d)
    with pytest.raises(GridMismatchError):
        Field(np.zeros((8, 4)), d)


def test_analysis_constants_defaults_and_violations():
    c = AnalysisConstants()
    assert c.delta == c.delta0 / 2.0
    assert c.violations() == []
    bad = AnalysisConstants(delta0=0.5, delta=0.4)
    assert any("delta" in s for s in bad.violations())
    assert any("c_gn" in s for s in AnalysisConstants(c_gn=-1.0).violations())
