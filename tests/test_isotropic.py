import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (PhiCoefficients, bell_fidelity, bessel_j, binary_entropy,
                     coefficients, evolve, norm_defect, orbital_states,
                     single_source_packet, x_matrix)
from xychain import isotropic, measures, model, oracle
from xychain.errors import CutoffError


def entropy_pair(state, n, m):
    """Von Neumann entropy of a one-particle pair state, in bits."""
    return binary_entropy(abs(state.w(n)) ** 2 + abs(state.w(m)) ** 2)


def fidelity_pair(state, n, m, phi_ref):
    """Overlap with (ud + e^{i phi_ref} du)/sqrt(2) on sites (n, m)."""
    return 0.5 * abs(state.w(n) + np.exp(-1j * phi_ref) * state.w(m)) ** 2


def self_concurrence(x, phi, t, lam):
    """Concurrence between the two seed sites at separation x.

    Closed form |J_0^2 + 2 i^x J_0 J_x cos(phi) + (-1)^x J_x^2| at argument
    lam*t; equal to 2|w_i wbar_{i+x}| of the wavepacket.
    """
    j0 = bessel_j(0, abs(lam) * t)
    jx = bessel_j(x, abs(lam) * t)
    val = (j0 * j0 + 2.0 * (1j ** x) * j0 * jx * math.cos(phi)
           + (-1.0) ** x * jx * jx)
    return abs(val)


def optimal_phase_pair(ps, n, m):
    """Maximizer of the uu/dd Bell fidelity over the reference phase."""
    return cmath.phase(coefficients(ps, n, m).c) % (2.0 * math.pi)


def optimal_phase_exchange(ps, n, m):
    """Maximizer of the ud/du Bell fidelity over the reference phase."""
    return cmath.phase(coefficients(ps, n, m).z) % (2.0 * math.pi)


def optimal_phases(n, m, i, j, phi):
    """Static reference-phase formulas for the pair seed coherences.

    phi_pair = phi + (pi/2)(i + j - m - n) and phi_exchange = (pi/2)(m - n),
    both mod 2 pi.  These are the t -> 0+ branch values: the exact maximizers
    follow the coherence arguments and jump by pi whenever the underlying
    Bessel combination changes sign, so agreement with the instance values
    holds modulo pi in general.
    """
    phi_pair = (phi + 0.5 * math.pi * (i + j - m - n)) % (2.0 * math.pi)
    phi_exchange = (0.5 * math.pi * (m - n)) % (2.0 * math.pi)
    return phi_pair, phi_exchange


def fold_on_ring(state, n):
    w = np.zeros(n, dtype=complex)
    for k, amp in enumerate(state.amps):
        w[(state.start + k) % n] += amp
    return w


def ring_amplitudes(ws, vec):
    # spin basis packs site 0 in the highest bit, down = bit set
    full = (1 << ws.n) - 1
    return np.array([vec[full - (1 << (ws.n - 1 - l))] for l in range(ws.n)])


def test_wavepacket_t0():
    st0 = isotropic.wavepacket(0, 1, 0.7, 0.0, 1.0)
    assert np.isclose(st0.w(0), 1.0 / math.sqrt(2.0))
    assert np.isclose(st0.w(1), cmath.exp(0.7j) / math.sqrt(2.0))
    assert st0.w(5) == 0.0
    assert np.isclose(np.sum(np.abs(st0.amps) ** 2), 1.0, atol=1e-12)


def test_wavepacket_norm_and_cone():
    st1 = isotropic.wavepacket(0, 1, np.pi, 12.0, 1.0)
    assert np.isclose(np.sum(np.abs(st1.amps) ** 2), 1.0, atol=1e-10)
    # essentially nothing outside |x| > lam*t + pad
    assert abs(st1.w(0 - 45)) < 1e-12


def test_amplitudes_match_ring():
    # folding the infinite-chain packet onto N = 12 reproduces the ring
    # amplitudes (one fermion, periodic sector, method of images)
    lam, t = 1.0, 2.0
    ws = oracle.OracleWorkspace(12, 0.0, lam)
    vec = evolve(ws, ws.psi_bell(0, 1, np.pi), t)[0]
    ring = ring_amplitudes(ws, vec)
    folded = fold_on_ring(isotropic.wavepacket(0, 1, np.pi, t, lam), 12)
    # align the global phase on the largest amplitude
    k = int(np.argmax(np.abs(folded)))
    phase = folded[k] / ring[k]
    phase /= abs(phase)
    assert np.max(np.abs(ring * phase - folded)) < 1e-6


def test_concurrence_t0_trivials():
    st0 = isotropic.wavepacket(0, 1, np.pi, 0.0, 1.0)
    assert np.isclose(st0.concurrence(0, 1), 1.0)
    assert np.isclose(st0.concurrence(0, 5), 0.0, atol=1e-14)


def test_concurrence_match_ring_short_time():
    lam = 1.0
    ws = oracle.OracleWorkspace(12, 0.0, lam)
    vecs0 = ws.psi_bell(0, 1, np.pi)
    # inside the wrap-free window the match is at solver precision
    t = 2.0
    st2 = isotropic.wavepacket(0, 1, np.pi, t, lam)
    ref = oracle.RingState(ws, evolve(ws, vecs0, t)).concurrence([0], [3])[0]
    assert abs(st2.concurrence(0, 3) - ref) < 1e-6
    # by lam*t = 3 the N = 12 images contribute at the 1e-5 level, so the
    # comparison only makes sense at a wrap-limited tolerance
    t = 3.0
    st3 = isotropic.wavepacket(0, 1, np.pi, t, lam)
    ref = oracle.RingState(ws, evolve(ws, vecs0, t)).concurrence([0], [3])[0]
    assert abs(st3.concurrence(0, 3) - ref) < 1e-4


def test_self_concurrence_identity():
    # the closed form and the packet route are the same expression
    for x, phi, lt in ((4, np.pi, 4.0), (1, 0.0, 1.0), (3, 1.3, 7.5),
                       (2, np.pi / 2, 0.3)):
        lam = 0.8
        st1 = isotropic.wavepacket(0, x, phi, lt / lam, lam)
        via_packet = st1.concurrence(0, x)
        closed = self_concurrence(x, phi, lt / lam, lam)
        assert abs(via_packet - closed) < 1e-12


def test_self_concurrence_t0():
    assert np.isclose(self_concurrence(3, 0.9, 0.0, 1.0), 1.0)


def test_self_concurrence_envelope_decay():
    # beyond the recurrences the seed-pair concurrence falls off like 1/t
    lam, x, phi = 1.0, 1, np.pi
    vals = [lt * self_concurrence(x, phi, lt / lam, lam)
            for lt in np.arange(20.0, 60.0, 0.25)]
    assert max(vals) < 2.0


@given(st.floats(min_value=0.0, max_value=15.0),
       st.floats(min_value=0.2, max_value=1.5),
       st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.integers(min_value=1, max_value=6))
def test_ckw_identity_one_particle(t, lam, phi, x):
    # for one-particle states the one-tangle equals the concurrence budget
    state = isotropic.wavepacket(0, x, phi, t, lam)
    tau1 = state.one_tangle(0)
    residual = measures.ckw_residual(tau1, state.partner_sums(0)[1])
    assert tau1 >= -1e-12
    assert abs(residual) < 1e-9


def test_one_tangle_is_occupation_parabola():
    state = isotropic.wavepacket(0, 1, np.pi, 2.5, 1.0)
    for n in (-2, 0, 1, 3):
        p = abs(state.w(n)) ** 2
        assert np.isclose(state.one_tangle(n),
                          4.0 * p * (1.0 - p), atol=1e-12)


def test_entropy_pair_against_rho2():
    state = isotropic.wavepacket(0, 1, np.pi, 1.7, 1.0)
    assert np.isclose(entropy_pair(state, 0, 2),
                      measures.entropy_vn(state.spectrum(0, 2)), atol=1e-12)


def test_global_phase_invariance():
    base = isotropic.wavepacket(0, 1, np.pi, 2.0, 1.0)
    rotated = isotropic.SingleParticleState(
        start=base.start, amps=base.amps * cmath.exp(0.9j))
    assert np.isclose(base.concurrence(0, 2),
                      rotated.concurrence(0, 2), atol=1e-14)
    assert np.isclose(base.one_tangle(1),
                      rotated.one_tangle(1), atol=1e-14)
    assert x_matrix(base.pair_entries(0, 1)) == pytest.approx(
        x_matrix(rotated.pair_entries(0, 1)))


def test_bell_fidelities_pair_t0():
    st0 = isotropic.wavepacket(0, 1, np.pi, 0.0, 1.0)
    vals = measures.bell_fidelities(st0.pair_entries(0, 1))
    assert np.allclose(vals, (1.0, 0.0, 0.0, 0.0), atol=1e-12)


def test_fidelity_pair_phase_structure():
    # F(phi_ref) = |w_n + exp(-i phi_ref) w_m|^2 / 2, maximal when the
    # reference phase matches the relative phase of the amplitudes
    state = isotropic.wavepacket(0, 1, np.pi, 1.2, 1.0)
    n, m = 0, 2
    wn, wm = state.w(n), state.w(m)
    for phi_ref in (0.0, 0.9, np.pi, 4.0):
        ref = 0.5 * abs(wn + cmath.exp(-1j * phi_ref) * wm) ** 2
        assert np.isclose(fidelity_pair(state, n, m, phi_ref), ref,
                          atol=1e-12)
    best = cmath.phase(wm / wn) if abs(wn) > 0 else 0.0
    grid = [fidelity_pair(state, n, m, p)
            for p in np.linspace(0, 2 * np.pi, 720)]
    assert fidelity_pair(state, n, m, best) >= max(grid) - 1e-6


def test_total_concurrence_budget():
    # the closed-form partner sums of a packet, 2|w_n| (sum|w| - |w_n|) and
    # 4|w_n|^2 (sum|w|^2 - |w_n|^2), are the window sums of its pair
    # concurrences, at the window's edges and outside it too
    state = isotropic.wavepacket(0, 1, np.pi, 3.0, 1.0)
    window = np.arange(state.start, state.start + len(state.amps))
    sites = [window[0] - 3, window[0], -1, 0, 1, 4, window[-1],
             window[-1] + 1]
    totals, squares = state.partner_sums(sites)
    for n, total, square in zip(sites, totals, squares):
        concs = np.array([state.concurrence(n, q) for q in window if q != n])
        assert abs(total - concs.sum()) <= 1e-14
        assert abs(square - np.sum(concs ** 2)) <= 1e-14
        assert state.partner_sums(n) == (total, square)
    assert totals[0] == squares[0] == totals[-1] == squares[-1] == 0.0
    assert totals[3] > 0.1


def test_phi_coefficients_t0():
    # at the seed pair the state is (uu + exp(i phi) dd)/sqrt(2)
    pc = coefficients(isotropic.PhiState(-5, 5, 0.7, 0.0, 1.0), -5, 5)
    assert np.isclose(pc.a, 0.5) and np.isclose(pc.b, 0.5)
    assert np.isclose(pc.c, 0.5 * cmath.exp(0.7j))
    assert pc.x == 0.0 and pc.y == 0.0
    # away from the seeds nothing has happened yet
    pc = coefficients(isotropic.PhiState(-5, 5, 0.7, 0.0, 1.0), -1, 1)
    assert np.isclose(pc.a, 0.0, atol=1e-12) and np.isclose(pc.b, 1.0)


def pair_matrix(state, rows=slice(None)):
    """Rows of the dense pair amplitudes T = e^{i phi}(gi gj^T - gj gi^T),
    rebuilt from the orbitals the state stores; e^{i phi} is the seed
    amplitude, exactly +-1 within 1e-9 of the phases 0 and pi."""
    gi, gj = state.gi, state.gj
    return model.seed_amp(state.phi) * (np.outer(gi[rows], gj)
                                        - np.outer(gj[rows], gi))


def reference_coefficients(state, n, m):
    """One pair's X-matrix entries by explicit masks over the window."""
    ni, mi = n - state.start, m - state.start
    t_n, t_m = pair_matrix(state, [ni, mi])
    mask = np.ones(len(state.sites), dtype=bool)
    mask[[ni, mi]] = False
    a = 0.5 * abs(t_n[mi]) ** 2
    c = 0.5 * t_n[mi]
    x = 0.5 * float(np.sum(np.abs(t_n[mask]) ** 2))
    y = 0.5 * float(np.sum(np.abs(t_m[mask]) ** 2))
    signs = np.ones(len(state.sites))
    signs[ni + 1:mi] = -1.0
    z = 0.5 * complex(np.sum(signs[mask] * t_n[mask] * np.conj(t_m[mask])))
    b = 1.0 - a - x - y
    return PhiCoefficients(a=a, b=b, x=x, y=y, c=c, z=z)


def assert_coefficients_close(got, want, tol=1e-14):
    for field in ("a", "b", "x", "y", "c", "z"):
        assert abs(getattr(got, field) - getattr(want, field)) <= tol, field


@pytest.mark.parametrize("i, j", [(-2, 3), (3, -2), (0, 1)])
def test_phi_pair_entries_match_reference(i, j):
    # both seed orders, adjacent pairs, and pairs at both window edges
    ps = isotropic.PhiState(i, j, 0.9, 2.7, 1.1)
    lo, hi = ps.start, int(ps.sites[-1])
    pairs = [(lo, lo + 1), (hi - 1, hi), (lo, hi), (lo, 0), (0, hi),
             (-1, 0), (-2, 3), (i if i < j else j, j if i < j else i)]
    entries = ps.pair_entries([n for n, _ in pairs], [m for _, m in pairs])
    for k, (n, m) in enumerate(pairs):
        want = reference_coefficients(ps, n, m)
        got = PhiCoefficients(*(v[k] for v in entries))
        assert_coefficients_close(got, want)
        assert_coefficients_close(coefficients(ps, n, m), want)
        assert ps.concurrence(n, m) == pytest.approx(want.concurrence(),
                                                     abs=1e-14)


@given(st.integers(min_value=-4, max_value=4),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.floats(min_value=0.0, max_value=15.0),
       st.integers(min_value=-25, max_value=25),
       st.integers(min_value=1, max_value=30))
def test_phi_pair_entries_property(i, gap, phi, lam_t, n, d):
    ps = isotropic.PhiState(i, i + gap, phi, lam_t, 1.0)
    n = int(np.clip(n, ps.start, ps.sites[-1] - 1))
    m = min(n + d, int(ps.sites[-1]))
    assert_coefficients_close(coefficients(ps, n, m),
                              reference_coefficients(ps, n, m))


def test_phi_partner_sums_match_reference_loop():
    ps = isotropic.PhiState(-1, 2, 1.3, 6.0, 0.9)
    assert len(ps.sites) == 76
    sites = (ps.start, -1, 0, 5, int(ps.sites[-1]))
    totals, squares = ps.partner_sums(sites)
    for n, total, square in zip(sites, totals, squares):
        want = np.array([
            reference_coefficients(ps, min(n, q), max(n, q)).concurrence()
            for q in ps.sites if q != n])
        assert abs(total - want.sum()) <= 1e-13
        assert abs(square - np.sum(want ** 2)) <= 1e-13
        assert ps.partner_sums(n) == (total, square)


def test_phi_pair_entries_refuse_bad_pairs():
    ps = isotropic.PhiState(0, 1, 0.3, 2.0, 1.0)
    with pytest.raises(ValueError):
        ps.pair_entries(2, 2)
    with pytest.raises(ValueError):
        ps.pair_entries([0, 3], [1, 2])
    # sites outside the window are not refused: their orbitals are zero,
    # as a packet's amplitudes are, so they read the vacuum
    lo, hi = ps.start, int(ps.sites[-1])
    vacuum = PhiCoefficients(a=0.0, b=1.0, x=0.0, y=0.0, c=0j, z=0j)
    assert coefficients(ps, lo - 2, lo - 1) == vacuum
    assert coefficients(ps, hi + 1, hi + 5) == vacuum
    assert coefficients(ps, lo - 1, hi + 1) == vacuum
    # a pair with one site inside keeps only that site's population
    pc = coefficients(ps, lo - 1, 0)
    assert (pc.a, pc.x, pc.c, pc.z) == (0.0, 0.0, 0j, 0j)
    assert pc.y == 0.5 * ps.row_weight[0 - lo] and pc.b == 1.0 - pc.y
    assert ps.concurrence(0, hi + 1) == 0.0
    assert ps.one_tangle(hi + 1) == 0.0
    assert ps.partner_sums(hi + 1) == (0.0, 0.0)


def test_windows_widen_past_the_fixed_pad():
    # at lam*t = 400 a 30-site pad loses more than the tolerated weight
    lam, lam_t = 1.0, 400.0
    state = isotropic.wavepacket(0, 1, np.pi, lam_t / lam, lam)
    assert norm_defect(state) <= isotropic.NORM_DEFECT_TOL
    assert state.start < 0 - math.ceil(lam_t) - model.LIGHT_CONE_PAD
    residual = measures.ckw_residual(state.one_tangle(0),
                                     state.partner_sums(0)[1])
    assert abs(residual) <= 1e-9
    single = single_source_packet(3, lam_t / lam, lam)
    assert norm_defect(single) <= isotropic.NORM_DEFECT_TOL
    ps = isotropic.PhiState(0, 2, 0.4, lam_t / lam, lam)
    weight = 0.5 * np.sum(np.abs(pair_matrix(ps)) ** 2)
    assert abs(1.0 - weight) <= isotropic.NORM_DEFECT_TOL


@pytest.mark.parametrize("lam_t", [361.0, 400.0])
def test_phi_pair_entries_match_reference_on_long_windows(lam_t):
    # window-edge pairs, the seed pair and seeded random pairs
    ps = isotropic.PhiState(0, 2, 0.4, lam_t, 1.0)
    lo, hi = ps.start, int(ps.sites[-1])
    rng = np.random.default_rng(7)
    pairs = [(lo, lo + 1), (hi - 1, hi), (lo, hi), (lo, 0), (2, hi), (0, 2)]
    pairs += [tuple(sorted(int(q) for q in rng.choice(ps.sites, 2, False)))
              for _ in range(24)]
    entries = ps.pair_entries([n for n, _ in pairs], [m for _, m in pairs])
    for k, (n, m) in enumerate(pairs):
        got = PhiCoefficients(*(v[k] for v in entries))
        assert_coefficients_close(got, reference_coefficients(ps, n, m))


def test_phi_state_memory_is_linear_in_the_window():
    # the window has 883 sites; a dense pair matrix alone would be 12.5 MB
    ps = isotropic.PhiState(0, 2, 0.4, 400.0, 1.0)
    held = sum(v.nbytes for v in vars(ps).values()
               if isinstance(v, np.ndarray))
    assert len(ps.sites) == 883 and held < 200_000


@pytest.mark.parametrize("lam, t", [(1.0, 0.0), (0.7, 12.0), (1.0, 361.0)])
def test_windows_keep_the_fixed_pad_when_it_suffices(lam, t):
    radius = math.ceil(lam * t) + model.LIGHT_CONE_PAD
    assert isotropic.wavepacket(2, 5, 0.3, t, lam).start == 2 - radius
    if t <= 12.0:
        assert single_source_packet(2, t, lam).start == 2 - radius
        assert isotropic.PhiState(2, 5, 0.3, t, lam).start == 2 - radius


def test_window_past_the_bessel_ladder_is_a_cutoff():
    # at lam*t = 1965 the 30-site pad falls short and the next one would
    # need Bessel orders past 2000
    with pytest.raises(CutoffError, match="window too small at lam"):
        isotropic.wavepacket(0, 1, 0.0, 1965.0, 1.0)
    with pytest.raises(CutoffError, match="window too small at lam"):
        isotropic.PhiState(0, 1, 0.0, 1965.0, 1.0)


def test_phi_rho2_is_physical():
    ps = isotropic.PhiState(-5, 5, 0.7, 3.0, 1.0)
    for n, m in ((-1, 1), (-5, 5), (0, 4)):
        spectrum = ps.spectrum(n, m)
        assert spectrum.shape == (4,) and np.isclose(spectrum.sum(), 1.0)


def test_phi_concurrence_is_winning_branch():
    ps = isotropic.PhiState(-5, 5, 0.7, 4.0, 1.0)
    pc = coefficients(ps, -1, 1)
    b_pair, b_exchange = pc.branches()
    assert np.isclose(pc.concurrence(), max(0.0, b_pair, b_exchange))
    assert ps.concurrence(-1, 1) == pc.concurrence()
    assert pc.active_branch() in ("pair", "exchange")


def test_phi_matches_ring():
    # same geometry on the N = 12 ring, seeds (5, 7), observed pair (4, 8);
    # the analytic pair sector drops a global time phase, so compare
    # frame-invariant quantities only
    lam, phi, t = 1.0, 0.7, 2.0
    ws = oracle.OracleWorkspace(12, 0.0, lam)
    ring = oracle.RingState(ws, evolve(ws, ws.phi_bell(5, 7, phi), t))
    ps = isotropic.PhiState(5, 7, phi, t, lam)
    rho_o = x_matrix(ring.pair_entries([4], [8]))[0]
    rho_a = x_matrix(ps.pair_entries(4, 8))
    assert np.max(np.abs(np.abs(rho_o) - np.abs(rho_a))) < 1e-4
    assert abs(ring.concurrence([4], [8])[0] - ps.concurrence(4, 8)) < 1e-4
    assert abs(ring.one_tangle([4])[0] - ps.one_tangle(4)) < 1e-4


def test_phi_optimal_phase_maximizes_fidelity():
    ps = isotropic.PhiState(-5, 5, 0.7, 4.0, 1.0)
    n, m = -1, 1
    rho = x_matrix(ps.pair_entries(n, m))
    best_phi = optimal_phase_pair(ps, n, m)
    best_val = bell_fidelity(rho, "phi", best_phi)
    grid_vals = [bell_fidelity(rho, "phi", p)
                 for p in np.linspace(0, 2 * np.pi, 1440)]
    assert best_val >= max(grid_vals) - 1e-6
    best_phi = optimal_phase_exchange(ps, n, m)
    best_val = bell_fidelity(rho, "psi", best_phi)
    grid_vals = [bell_fidelity(rho, "psi", p)
                 for p in np.linspace(0, 2 * np.pi, 1440)]
    assert best_val >= max(grid_vals) - 1e-6


def test_phi_static_phase_formulas():
    # the closed formulas match the instance values modulo pi
    i, j, phi = -5, 5, 0.7
    ps = isotropic.PhiState(i, j, phi, 2.0, 1.0)
    for n, m in ((-1, 1), (-2, 3)):
        ref_pair, ref_exchange = optimal_phases(n, m, i, j, phi)
        inst_pair = optimal_phase_pair(ps, n, m)
        inst_exchange = optimal_phase_exchange(ps, n, m)
        assert min(abs(inst_pair - ref_pair) % math.pi,
                   math.pi - abs(inst_pair - ref_pair) % math.pi) < 1e-9
        assert min(abs(inst_exchange - ref_exchange) % math.pi,
                   math.pi - abs(inst_exchange - ref_exchange) % math.pi) < 1e-9


def test_phi_orbital_states():
    orb = orbital_states(-5, 5, 1.5, 1.0)
    assert len(orb) == 2
    for o in orb:
        assert np.isclose(np.sum(np.abs(o.amps) ** 2), 1.0, atol=1e-10)


def test_single_source_packet_is_bessel():
    st1 = single_source_packet(0, 2.0, 1.0)
    for x in (-3, 0, 2):
        assert np.isclose(abs(st1.w(x)), abs(bessel_j(x, 2.0)), atol=1e-12)


def test_seeds_at_phase_pi_take_an_amplitude_of_exactly_minus_one():
    # at t = 0 a packet is its seed, and a pair seed's uu/dd coherence on
    # its sites is half its amplitude: both seed by model.seed_amp, which
    # is exactly -1 at pi, as the oracle and the Pfaffian route seed
    assert model.seed_amp(np.pi) == -1.0
    packet = isotropic.wavepacket(0, 1, np.pi, 0.0, 1.0)
    assert np.array_equal(packet.w([0, 1]),
                          np.array([1.0, -1.0]) / math.sqrt(2.0))
    assert np.array_equal(packet.w([0, 1]).imag, [0.0, 0.0])
    c = isotropic.PhiState(0, 1, np.pi, 0.0, 1.0).pair_entries(0, 1)[4]
    assert c == -0.5 and c.imag == 0.0


def test_a_block_packet_raises_on_a_read_outside_its_sites():
    # singlet_spread.cfg's packet at lam t = 12 holds the sites -12..13
    # that its grid reads; site 14 is inside the window but not held, so a
    # read there raises instead of giving 0
    packet = isotropic.block_packet(
        0, 1, np.pi, isotropic.windows(0, 1, np.pi, [11.5, 12.0]),
        range(-12, 14))
    assert np.all(packet.one_tangle([-12, 13]) > 0.0)
    reads = (lambda: packet.one_tangle(14), lambda: packet.w([-13, 0]),
             lambda: packet.concurrence(0, 14),
             lambda: packet.partner_sums([14]))
    for read in reads:
        with pytest.raises(CutoffError, match="holds sites -12..13 only"):
            read()
    # a packet that holds its whole window, and the empty one, read 0 past
    # what they hold
    whole = isotropic.wavepacket(0, 1, np.pi, 12.0, 1.0)
    assert whole.one_tangle(14) == pytest.approx(0.03698, abs=1e-5)
    assert whole.one_tangle(10 ** 6) == 0.0
    empty = isotropic.SingleParticleState(0, np.zeros(1, complex))
    assert empty.one_tangle(14) == 0.0
