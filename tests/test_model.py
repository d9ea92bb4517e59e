import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from xychain import model
from xychain.bessel import bessel_j
from xychain.errors import CutoffError, DegenerateMomentumError
from xychain.model import ModelParams, THERMODYNAMIC_LIMIT


def test_dispersion_closed_values():
    p = ModelParams(lam=1.0, gamma=0.0)
    assert np.isclose(model.dispersion(p, 0.0), 2.0)
    assert np.isclose(model.dispersion(p, np.pi), 0.0)
    p = ModelParams(lam=0.5, gamma=1.0)
    k = 2.0
    ref = math.hypot(1.0 + 0.5 * math.cos(k), 0.5 * math.sin(k))
    assert np.isclose(model.dispersion(p, k), ref)


@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-np.pi, max_value=np.pi))
@example(lam=1.0, gamma=1.0, k=1.4118803741824836e-161)  # s^2 underflows
def test_bogoliubov_normalized(lam, gamma, k):
    p = ModelParams(lam=lam, gamma=gamma)
    if model.dispersion(p, k) < 1e-12:
        return
    e = 1.0 + lam * math.cos(k)
    s = lam * gamma * math.sin(k)
    alpha, beta = model.bogoliubov(p, k)
    if alpha == 0.0 and beta == 0.0:
        # (0, 0) flags an already-diagonal mode; only legitimate when the
        # off-diagonal term is negligible against a positive diagonal one
        assert e > 0.0 and abs(s) < 1e-8
    else:
        assert np.isclose(alpha * alpha + beta * beta, 1.0, atol=1e-12)


def test_bogoliubov_small_gamma_stable():
    # at tiny anisotropy the pair tends to (0, sign(s)) smoothly instead of
    # losing all digits in the Lambda - e subtraction
    p = ModelParams(lam=0.5, gamma=1e-12)
    alpha, beta = model.bogoliubov(p, 1.0)
    assert np.isfinite(alpha) and np.isfinite(beta)
    assert abs(alpha) < 1e-11
    assert np.isclose(alpha * alpha + beta * beta, 1.0)


def test_bogoliubov_degenerate_momentum():
    p = ModelParams(lam=1.0, gamma=0.0)
    with pytest.raises(DegenerateMomentumError):
        model.bogoliubov(p, np.pi)


def test_momentum_grids():
    ap = model.momentum_grid(6, "antiperiodic")
    per = model.momentum_grid(6, "periodic")
    assert len(ap) == 6 and len(per) == 6
    # antiperiodic momenta are odd multiples of pi/N, periodic ones even
    assert np.allclose(np.sort(ap) / (np.pi / 6), [-5, -3, -1, 1, 3, 5])
    assert np.any(np.isclose(per, 0.0))
    for grid in (ap, per):
        assert np.allclose(np.diff(np.sort(grid)), 2 * np.pi / 6)
    with pytest.raises(ValueError):
        model.momentum_grid(6, "open")


def test_evolution_identity_at_t0():
    p = ModelParams(lam=0.8, gamma=0.6)
    coeff = model.evolution_coefficients(p, 0.0)
    xs = np.arange(coeff.x_lo, coeff.x_lo + len(coeff.a_tilde))
    ref = np.where(xs == 0, 1.0, 0.0)
    assert np.allclose(coeff.a_tilde, ref, atol=1e-12)
    assert np.allclose(coeff.b_tilde, 0.0, atol=1e-12)


def test_evolution_unitarity():
    # sum |a|^2 + |b|^2 over the window is 1 for any gamma, lambda
    for gamma, lam in ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0)):
        p = ModelParams(lam=lam, gamma=gamma)
        coeff = model.evolution_coefficients(p, 3.0)
        weight = np.sum(np.abs(coeff.a_tilde) ** 2
                        + np.abs(coeff.b_tilde) ** 2)
        assert np.isclose(weight, 1.0, atol=1e-10)


def test_isotropic_coefficients_are_bessel():
    # gamma = 0: a_tilde(x) = exp(it) i^x J_x(lambda t), b_tilde = 0
    lam, t = 0.7, 4.0
    p = ModelParams(lam=lam, gamma=0.0)
    coeff = model.evolution_coefficients(p, t)
    xs = np.arange(coeff.x_lo, coeff.x_lo + len(coeff.a_tilde))
    ref = np.exp(1j * t) * (1j) ** xs * np.array(
        [bessel_j(int(x), lam * t) for x in xs])
    assert np.allclose(coeff.a_tilde, ref, atol=1e-12)
    assert np.allclose(coeff.b_tilde, 0.0, atol=1e-14)


def test_finite_ring_approaches_open_coefficients():
    # a large ring reproduces the infinite-chain coefficients pointwise
    p_inf = ModelParams(lam=1.0, gamma=0.4)
    p_ring = ModelParams(lam=1.0, gamma=0.4, size=512)
    t = 2.5
    ci = model.evolution_coefficients(p_inf, t)
    cr = model.evolution_coefficients(p_ring, t)
    lo = max(ci.x_lo, cr.x_lo)
    hi = min(ci.x_lo + len(ci.a_tilde), cr.x_lo + len(cr.a_tilde))
    sl_i = slice(lo - ci.x_lo, hi - ci.x_lo)
    sl_r = slice(lo - cr.x_lo, hi - cr.x_lo)
    assert np.allclose(ci.a_tilde[sl_i], cr.a_tilde[sl_r], atol=1e-10)
    assert np.allclose(ci.b_tilde[sl_i], cr.b_tilde[sl_r], atol=1e-10)


def test_window_too_small_raises():
    p = ModelParams(lam=1.0, gamma=0.3)
    with pytest.raises(CutoffError):
        model.evolution_coefficients(p, 40.0, x_max=5)


def test_kernel_parity():
    # v and u_e kernels are even in x, u_o is odd
    p = ModelParams(lam=0.9, gamma=0.7)
    xs = np.arange(-6, 7)
    v, e, o = model.propagation_kernels(p, 1.7, xs)
    assert np.allclose(v, v[::-1], atol=1e-12)
    assert np.allclose(e, e[::-1], atol=1e-12)
    assert np.allclose(o, -o[::-1], atol=1e-12)


def test_light_cone_radius_grows():
    p = ModelParams(lam=1.0, gamma=0.5)
    r1 = model.light_cone_radius(p, 1.0)
    r2 = model.light_cone_radius(p, 10.0)
    assert r2 > r1 >= model.LIGHT_CONE_PAD


def test_params_validation():
    with pytest.raises(Exception):
        ModelParams(lam=-1.0)
    p = ModelParams(lam=1.0)
    assert p.size is THERMODYNAMIC_LIMIT
