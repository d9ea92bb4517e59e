import math

import numpy as np
import pytest

from helpers import (bell_fidelity, random_x_bundle, random_x_entries,
                     wootters_reference, x_matrix)
from xychain import measures
from xychain.errors import NumericalHealthError
from xychain.measures import COLUMNS


def column(**values):
    """A correlator column (`measures.COLUMNS`) from its named values."""
    return np.array([values[name] for name in COLUMNS])


def singlet_bundle():
    return column(gxx=-0.25, gyy=-0.25, gzz=-0.25, gxy=0.0, gyx=0.0,
                  mz_l=0.0, mz_m=0.0)


def werner_entries(p):
    """X entries of p |psi-><psi-| + (1 - p) I/4."""
    return ((1.0 - p) / 4, (1.0 - p) / 4, (1.0 + p) / 4, (1.0 + p) / 4, 0.0,
            -p / 2)


def werner_rho(p):
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def test_singlet_is_maximally_entangled():
    entries = measures.x_entries(singlet_bundle())
    assert np.isclose(measures.concurrence_closed(entries), 1.0)
    assert np.isclose(measures.concurrence_wootters(entries), 1.0)
    assert np.isclose(measures.entropy_vn(measures.x_spectrum(entries)), 0.0,
                      atol=1e-12)
    assert measures.bell_fidelities(entries) == pytest.approx(
        (1.0, 0.0, 0.0, 0.0))


def test_werner_concurrence():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 0.95):
        ref = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert np.allclose(x_matrix(werner_entries(p)), werner_rho(p),
                           rtol=0, atol=1e-15)
        assert np.isclose(wootters_reference(werner_rho(p)), ref, atol=1e-12)
        assert np.isclose(measures.concurrence_wootters(werner_entries(p)),
                          ref, atol=1e-12)


def test_closed_equals_wootters_on_random_states():
    # closed form, Wootters' closed-form roots and the general eigensolver
    # route agree; the floored roots hold the eigensolver to 1e-12
    rng = np.random.default_rng(42)
    worst_closed = worst_roots = 0.0
    for k in range(2000):
        entries = random_x_entries(rng, edge=(k % 10 == 0))
        roots = measures.concurrence_wootters(entries)
        worst_closed = max(worst_closed, abs(
            measures.concurrence_closed(entries) - roots))
        worst_roots = max(worst_roots, abs(
            roots - wootters_reference(x_matrix(entries))))
    assert worst_closed < 1e-10
    assert worst_roots < 1e-12


def test_x_spectrum_is_the_eigenvalues_of_the_x_matrix():
    rng = np.random.default_rng(11)
    edges = [(0.25, 0.25, 0.25, 0.25, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0,
                                                  0.0),
             (0.5, 0.5, 0.0, 0.0, 0.5j, 0.0), (0.0, 0.0, 0.5, 0.5, 0.0, -0.5),
             werner_entries(1.0), werner_entries(1.0 / 3.0)]
    samples = edges + [random_x_entries(rng, edge=(k % 3 == 0))
                       for k in range(600)]
    for entries in samples:
        got = np.sort(measures.x_spectrum(entries))
        want = np.clip(np.linalg.eigvalsh(x_matrix(entries)), 0.0, None)
        assert np.max(np.abs(got - want)) <= 1e-14, entries


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
    entries = measures.x_entries(stack)
    closed = measures.concurrence_closed(entries)
    wootters = measures.concurrence_wootters(entries)
    spectra = measures.x_spectrum(entries)
    assert closed.shape == wootters.shape == (3, 40)
    assert spectra.shape == (3, 40, 4)
    for t in range(3):
        for k in range(40):
            member = measures.x_entries(stack[t, k])
            assert closed[t, k] == scalar_concurrence(stack[t, k])
            assert wootters[t, k] == measures.concurrence_wootters(member)
            assert np.array_equal(spectra[t, k], measures.x_spectrum(member))


def replaced(entries, k, member):
    """entries with member k of each entry array replaced by member."""
    out = [np.array(e, dtype=complex) for e in entries]
    for e, v in zip(out, member):
        e[k] = v
    return tuple(out)


# a member that fails each check of x_spectrum, and the message it raises
GARBAGE = (((1.0, 1.0, 1.0, 1.0, 0.0, 0.0), "trace 4 != 1"),
           ((0.25 + 1e-9j, 0.25 - 1e-9j, 0.25, 0.25, 0.0, 0.0),
            "not hermitian"),
           ((0.6, 0.5, -0.05, -0.05, 0.0, 0.0),
            r"eigenvalue -5\.000e-02 below -1\.0e-08"),
           ((0.25, 0.25, 0.25, 0.25, 0.3, 0.0),
            r"eigenvalue -5\.000e-02 below -1\.0e-08"))


def test_stack_checks_guard_every_member():
    rng = np.random.default_rng(19)
    stack = np.array([random_x_bundle(rng) for _ in range(6)])
    bad = stack.copy()
    bad[4] = column(gxx=0.0, gyy=0.0, gzz=0.25, gxy=0.0, gyx=0.0,
                    mz_l=0.1, mz_m=-0.1)
    with pytest.raises(NumericalHealthError, match="parallel branch"):
        measures.concurrence_closed(measures.x_entries(bad))
    entries = measures.x_entries(stack)
    for k, (member, message) in zip((2, 5, 3, 0), GARBAGE):
        with pytest.raises(NumericalHealthError, match=message):
            measures.x_spectrum(replaced(entries, k, member))
    unphysical = replaced(entries, 2, (0.7, -0.1, 0.5, -0.1, 0.0, 0.0))
    with pytest.raises(NumericalHealthError, match="spin-flip spectrum"):
        measures.concurrence_wootters(tuple(np.real(e) for e in unphysical))
    assert measures.x_spectrum(entries).shape == (6, 4)


def test_rho2_roundtrip():
    # the X entries of a column land where the X-state layout says
    rng = np.random.default_rng(7)
    gxx, gyy, gzz, gxy, gyx, mz_l, mz_m = b = random_x_bundle(rng)
    a, b, x, y, c, z = measures.x_entries(b)
    assert np.isclose(a + b + x + y, 1.0)
    assert np.isclose(a - b, mz_l + mz_m)
    assert np.isclose(x - y, mz_l - mz_m)
    assert np.isclose(c, gxx - gyy - 1j * (gxy + gyx))
    assert np.isclose(z, gxx + gyy + 1j * (gxy - gyx))


def test_fidelities_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        entries = random_x_entries(rng)
        assert np.isclose(sum(measures.bell_fidelities(entries)), 1.0,
                          atol=1e-12)


def test_fidelity_phase_sweep():
    # the four named fidelities are the phase-family values at 0 and pi
    rng = np.random.default_rng(5)
    entries = random_x_entries(rng)
    rho = x_matrix(entries)
    psi_minus, psi_plus, phi_minus, phi_plus = measures.bell_fidelities(
        entries)
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
    mixed = measures.x_spectrum((0.25, 0.25, 0.25, 0.25, 0.0, 0.0))
    assert np.isclose(measures.entropy_vn(mixed), 2.0)
    # p |psi-><psi-| + (1 - p) I/4 has eigenvalues (1 + 3p)/4 and 3 x (1 - p)/4
    p = 0.6
    evals = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
    assert np.isclose(
        measures.entropy_vn(measures.x_spectrum(werner_entries(p))),
        -np.sum(evals * np.log2(evals)), rtol=0, atol=1e-14)


def test_stacked_entropy_equals_per_matrix_calls_bit_for_bit():
    # one spectrum of a (times, pairs) stack, pure and rank-deficient
    # members included, gives each member's own value
    rng = np.random.default_rng(23)
    entries = np.array([[random_x_entries(rng, edge=(k % 3 == 0))
                         for k in range(30)] for _ in range(2)],
                       dtype=complex).transpose(2, 0, 1)
    entries = (*entries[:4].real, *entries[4:])
    stacked = measures.entropy_vn(measures.x_spectrum(entries))
    assert stacked.shape == (2, 30)
    for t in range(2):
        for k in range(30):
            value = measures.entropy_vn(measures.x_spectrum(
                tuple(e[t, k] for e in entries)))
            assert stacked[t, k] == value
            assert math.copysign(1.0, stacked[t, k]) == math.copysign(
                1.0, value)


def test_pure_state_entropy_is_positive_zero():
    # the all-down pair is pure; its entropy must print as 0, not -0
    down = column(gxx=0.0, gyy=0.0, gzz=0.25, gxy=0.0, gyx=0.0,
                  mz_l=-0.5, mz_m=-0.5)
    value = measures.entropy_vn(measures.x_spectrum(measures.x_entries(down)))
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


def test_x_spectrum_rejects_garbage():
    for member, message in GARBAGE:
        with pytest.raises(NumericalHealthError, match=message):
            measures.x_spectrum(member)
    # roundoff below EIG_CLAMP is clamped to 0
    spectrum = measures.x_spectrum((0.5 - 1e-9, 0.5 + 1e-9, 0.0, 0.0,
                                    0.5, 0.0))
    assert spectrum.min() == 0.0


def test_wootters_rejects_unphysical_input():
    with pytest.raises(NumericalHealthError, match="spin-flip spectrum"):
        measures.concurrence_wootters((0.7, -0.1, 0.5, -0.1, 0.0, 0.0))
