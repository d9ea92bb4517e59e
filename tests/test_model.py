import numpy as np
import pytest

from helpers import bessel_j, expectation
from xychain import correlators, model
from xychain.errors import CutoffError
from xychain.model import ModelParams, THERMODYNAMIC_LIMIT


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


def kernel_tables(params, t, radius=None):
    """V, E, O on |x| <= radius (the light cone's by default), entry
    x + radius at separation x."""
    if radius is None:
        radius = model.light_cone_radius(params, t)
    vac = correlators.VacuumContractions(params, t, radius)
    return vac.v_table[0], vac.e_table[0], vac.o_table[0]


def test_evolution_identity_at_t0():
    # a(x) = V + iE and b(x) = -iO reduce to delta_x0 and 0
    v, e, o = kernel_tables(ModelParams(lam=0.8, gamma=0.6), 0.0)
    radius = (len(v) - 1) // 2
    ref = np.where(np.arange(-radius, radius + 1) == 0, 1.0, 0.0)
    assert np.allclose(v, ref, atol=1e-12)
    assert np.allclose(e, 0.0, atol=1e-12)
    assert np.allclose(o, 0.0, atol=1e-12)


def test_evolution_unitarity():
    # sum |a|^2 + |b|^2 = sum V^2 + E^2 + O^2 over the window is 1 for any
    # gamma, lambda
    for gamma, lam in ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0)):
        v, e, o = kernel_tables(ModelParams(lam=lam, gamma=gamma), 3.0)
        assert np.isclose(np.sum(v * v + e * e + o * o), 1.0, atol=1e-10)


def test_isotropic_coefficients_are_bessel():
    # gamma = 0: V + iE = exp(it) i^x J_x(lambda t), O = 0
    lam, t = 0.7, 4.0
    v, e, o = kernel_tables(ModelParams(lam=lam, gamma=0.0), t)
    radius = (len(v) - 1) // 2
    xs = np.arange(-radius, radius + 1)
    ref = np.exp(1j * t) * (1j) ** xs * np.array(
        [bessel_j(int(x), lam * t) for x in xs])
    assert np.allclose(v + 1j * e, ref, atol=1e-12)
    assert np.allclose(o, 0.0, atol=1e-14)


def test_finite_ring_approaches_open_coefficients():
    # a large ring reproduces the infinite-chain kernels pointwise
    t = 2.5
    open_chain = kernel_tables(ModelParams(lam=1.0, gamma=0.4), t)
    ring = kernel_tables(ModelParams(lam=1.0, gamma=0.4, size=512), t)
    for chain_table, ring_table in zip(open_chain, ring):
        assert np.allclose(chain_table, ring_table, rtol=0, atol=1e-10)


@pytest.mark.parametrize("lam_t", [0.5, 8.0, 40.0])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("lam", [0.5, 1.25])
def test_ring_size_resolves_the_tables(lam_t, gamma, lam):
    # the thermodynamic-limit tables, summed over ring_size momenta, equal
    # the sums over a ring twice that size: aliasing stays below roundoff
    p = ModelParams(lam=lam, gamma=gamma)
    t = lam_t / lam
    radius = model.light_cone_radius(p, t)
    size = 2 * correlators.ring_size(p, t, radius)
    ring = ModelParams(lam=lam, gamma=gamma, size=size)
    for sector in ("antiperiodic", "periodic"):
        chain = correlators.VacuumContractions(p, t, radius, sector)
        double = correlators.VacuumContractions(ring, t, radius, sector)
        for table in ("v_table", "e_table", "o_table", "_tables"):
            diff = np.abs(getattr(chain, table) - getattr(double, table))
            assert diff.max() <= 1e-13, (sector, table, diff.max())


def test_window_too_small_raises():
    # at t = 40 the light cone outruns a radius-5 table: it holds only a
    # fraction of the unit weight, and separations past it are refused
    p = ModelParams(lam=1.0, gamma=0.3)
    vac = correlators.VacuumContractions(p, 40.0, 5)
    weight = np.sum(vac.v_table ** 2 + vac.e_table ** 2 + vac.o_table ** 2)
    assert weight < 0.5
    with pytest.raises(CutoffError):
        expectation(vac, correlators.A, 0, correlators.B, 6)


def test_kernel_parity():
    # v and u_e kernels are even in x, u_o is odd
    v, e, o = kernel_tables(ModelParams(lam=0.9, gamma=0.7), 1.7, radius=6)
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
