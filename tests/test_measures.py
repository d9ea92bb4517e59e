import math

import numpy as np
import pytest

from helpers import bell_fidelity, random_x_bundle, random_x_entries
from xychain import measures
from xychain.errors import NumericalHealthError
from xychain.measures import COLUMNS


def column(**values):
    """A correlator column (`measures.COLUMNS`) from its named values."""
    return np.array([values[name] for name in COLUMNS])


def singlet_bundle():
    return column(gxx=-0.25, gyy=-0.25, gzz=-0.25, gxy=0.0, gyx=0.0,
                  mz_l=0.0, mz_m=0.0)


def werner_rho(p):
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def test_singlet_is_maximally_entangled():
    entries = measures.x_entries(singlet_bundle())
    assert np.isclose(measures.concurrence_closed(entries), 1.0)
    rho = measures.rho2(entries)
    assert np.isclose(measures.concurrence_wootters(rho), 1.0)
    assert np.isclose(measures.entropy_vn(rho), 0.0, atol=1e-12)
    assert measures.bell_fidelities(rho) == pytest.approx((1.0, 0.0, 0.0, 0.0))


def test_werner_concurrence():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 0.95):
        ref = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert np.isclose(measures.concurrence_wootters(werner_rho(p)), ref,
                          atol=1e-12)


def test_closed_equals_wootters_on_random_states():
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(300):
        entries = random_x_entries(rng, edge=(k % 10 == 0))
        rho = measures.rho2(entries)
        diff = abs(measures.concurrence_closed(entries)
                   - measures.concurrence_wootters(rho))
        worst = max(worst, diff)
    assert worst < 1e-10


def scalar_concurrence(column):
    """The closed concurrence of one column in Python floats: its X entries
    and the formula with abs, math.sqrt and max, one pair at a time."""
    gxx, gyy, gzz, gxy, gyx, mz_l, mz_m = map(float, column)
    mz_mean, mz_diff = 0.5 * (mz_l + mz_m), 0.5 * (mz_l - mz_m)
    a, b = 0.25 + mz_mean + gzz, 0.25 - mz_mean + gzz
    x, y = 0.25 - gzz + mz_diff, 0.25 - gzz - mz_diff
    c = complex(gxx - gyy, -(gxy + gyx))
    z = complex(gxx + gyy, gxy - gyx)
    return max(0.0, 2.0 * (abs(c) - math.sqrt(max(x * y, 0.0))),
               2.0 * (abs(z) - math.sqrt(max(a * b, 0.0))))


def test_stacks_equal_their_columns_bit_for_bit():
    # a (times, pairs) stack of columns gives every member's scalar value
    rng = np.random.default_rng(17)
    stack = np.array([[random_x_bundle(rng, edge=(k % 4 == 0))
                       for k in range(40)] for _ in range(3)])
    closed = measures.concurrence_closed(measures.x_entries(stack))
    rhos = measures.rho2(measures.x_entries(stack))
    assert closed.shape == (3, 40) and rhos.shape == (3, 40, 4, 4)
    for t in range(3):
        for k in range(40):
            assert closed[t, k] == scalar_concurrence(stack[t, k])
            assert np.array_equal(
                rhos[t, k], measures.rho2(measures.x_entries(stack[t, k])))


def test_stack_checks_guard_every_member():
    rng = np.random.default_rng(19)
    stack = np.array([random_x_bundle(rng) for _ in range(6)])
    bad = stack.copy()
    bad[4] = column(gxx=0.0, gyy=0.0, gzz=0.25, gxy=0.0, gyx=0.0,
                    mz_l=0.1, mz_m=-0.1)
    with pytest.raises(NumericalHealthError, match="parallel branch"):
        measures.concurrence_closed(measures.x_entries(bad))
    rhos = measures.rho2(measures.x_entries(stack))
    for k, broken in ((2, np.diag([0.6, 0.5, -0.05, -0.05])),
                      (5, np.eye(4)), (3, np.eye(4) / 4.0 + 0.2 * np.eye(
                          4, k=1))):
        garbage = rhos.copy()
        garbage[k] = broken
        with pytest.raises(NumericalHealthError):
            measures.validate_density(garbage)
    assert measures.validate_density(rhos).shape == (6, 4)


def test_rho2_roundtrip():
    # populations and coherences land where the X-state layout says
    rng = np.random.default_rng(7)
    gxx, gyy, gzz, gxy, gyx, mz_l, mz_m = b = random_x_bundle(rng)
    rho = measures.rho2(measures.x_entries(b))
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.isclose(rho[0, 0] - rho[3, 3], mz_l + mz_m)
    assert np.isclose(rho[1, 1] - rho[2, 2], mz_l - mz_m)
    assert np.isclose(rho[0, 3], gxx - gyy - 1j * (gxy + gyx))
    assert np.isclose(rho[1, 2], gxx + gyy + 1j * (gxy - gyx))
    assert rho[0, 1] == 0.0 and rho[0, 2] == 0.0


def test_fidelities_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = measures.rho2(random_x_entries(rng))
        assert np.isclose(sum(measures.bell_fidelities(rho)), 1.0, atol=1e-12)


def test_fidelity_phase_sweep():
    # the four named fidelities are the phase-family values at 0 and pi
    rho = werner_rho(0.8)
    psi_minus, psi_plus, phi_minus, phi_plus = measures.bell_fidelities(rho)
    assert np.isclose(bell_fidelity(rho, "psi", np.pi), psi_minus)
    assert np.isclose(bell_fidelity(rho, "psi", 0.0), psi_plus)
    assert np.isclose(bell_fidelity(rho, "phi", np.pi), phi_minus)
    assert np.isclose(bell_fidelity(rho, "phi", 0.0), phi_plus)
    # opposite phases average to half the family weight
    for phi in (0.3, 1.1, 2.9):
        pair = (bell_fidelity(rho, "psi", phi)
                + bell_fidelity(rho, "psi", phi + np.pi))
        assert np.isclose(pair, psi_minus + psi_plus)


def test_entropy_values():
    assert np.isclose(measures.entropy_vn(np.eye(4) / 4.0), 2.0)


def test_stacked_entropy_equals_per_matrix_calls_bit_for_bit():
    # one diagonalization of a (times, pairs) stack, pure and rank-deficient
    # members included, gives each member's own value
    rng = np.random.default_rng(23)
    rhos = measures.rho2(np.array([[random_x_entries(rng, edge=(k % 3 == 0))
                                    for k in range(30)] for _ in range(2)],
                                  dtype=complex).transpose(2, 0, 1))
    stacked = measures.entropy_vn(rhos)
    assert stacked.shape == (2, 30)
    for t in range(2):
        for k in range(30):
            value = measures.entropy_vn(rhos[t, k])
            assert stacked[t, k] == value
            assert math.copysign(1.0, stacked[t, k]) == math.copysign(
                1.0, value)


def test_pure_state_entropy_is_positive_zero():
    # the all-down pair is pure; its entropy must print as 0, not -0
    down = column(gxx=0.0, gyy=0.0, gzz=0.25, gxy=0.0, gyx=0.0,
                  mz_l=-0.5, mz_m=-0.5)
    value = measures.entropy_vn(measures.rho2(measures.x_entries(down)))
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_one_tangle_range():
    assert measures.one_tangle(0.0) == 1.0
    assert np.isclose(measures.one_tangle(0.5), 0.0)
    assert np.isclose(measures.one_tangle(-0.5), 0.0)


def test_tangle_deviation_conventions():
    assert measures.tangle_deviation(0.0, 0.0) == (0.0, 0.0)
    delta, rel = measures.tangle_deviation(0.2, 0.0)
    assert np.isclose(delta, 0.2) and np.isclose(rel, 1.0)
    delta, rel = measures.tangle_deviation(0.3, 0.2)
    assert np.isclose(delta, 0.1) and np.isclose(rel, 0.1 / 0.3)


def test_ckw_residual():
    # tau1 minus the summed squared concurrences of a site's partners
    assert np.isclose(measures.ckw_residual(0.8, 0.5 ** 2 + 0.5 ** 2), 0.3)
    assert measures.ckw_residual(0.0, 0.0) == 0.0
    assert np.allclose(measures.ckw_residual([0.8, 0.5], [0.5, 0.5]),
                       [0.3, 0.0])


def test_radicand_clamp_and_hard_failure():
    # slightly negative radicand from roundoff is clamped to zero
    b = column(gxx=0.0, gyy=0.0, gzz=0.25, gxy=0.0, gyx=0.0,
               mz_l=1e-9, mz_m=-1e-9)
    assert measures.concurrence_closed(measures.x_entries(b)) == 0.0
    # a radicand negative beyond tolerance is a real inconsistency
    bad = column(gxx=0.0, gyy=0.0, gzz=0.25, gxy=0.0, gyx=0.0,
                 mz_l=0.1, mz_m=-0.1)
    with pytest.raises(NumericalHealthError):
        measures.concurrence_closed(measures.x_entries(bad))


def test_validate_density_rejects_garbage():
    with pytest.raises(NumericalHealthError):
        measures.validate_density(np.eye(4))  # trace 4
    rho = np.eye(4) / 4.0
    rho[0, 1] = 0.2
    with pytest.raises(NumericalHealthError):
        measures.validate_density(rho)  # not hermitian
    rho = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(NumericalHealthError):
        measures.validate_density(rho)  # negative weight


def test_wootters_rejects_unphysical_input():
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(NumericalHealthError):
        measures.concurrence_wootters(rho)
