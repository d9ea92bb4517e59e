import numpy as np
import pytest

from helpers import evolve, majorana_pair
from xychain import correlators, groundstate, oracle
from xychain.correlators import A, B
from xychain.model import ModelParams

KIND = {"A": A, "B": B}


def test_vacuum_t0_deltas():
    p = ModelParams(lam=1.0, gamma=0.5)
    con = correlators.vacuum_contractions(p, 0.0)
    assert np.isclose(con.pair(A, 0, B, 0), 1.0)
    assert np.isclose(con.pair(A, 0, B, 3), 0.0, atol=1e-12)
    assert np.isclose(con.pair(A, 0, A, 0), 1.0)
    assert np.isclose(con.pair(A, 0, A, 2), 0.0, atol=1e-12)
    assert np.isclose(con.pair(B, 0, B, 0), -1.0)


def test_vacuum_stationary_at_zero_gamma():
    # no pair creation at gamma = 0, so the empty chain never moves
    p = ModelParams(lam=1.0, gamma=0.0)
    con = correlators.vacuum_contractions(p, 7.3)
    rs = np.arange(5)
    expected = np.where(rs == 0, 1.0, 0.0)
    assert np.allclose(con.pair(A, 0, B, rs), expected, atol=1e-12)
    assert np.allclose(con.pair(A, 0, A, rs), expected, atol=1e-12)


def test_bb_is_minus_conjugate_aa():
    p = ModelParams(lam=0.8, gamma=0.6)
    con = correlators.vacuum_contractions(p, 2.0)
    rs = np.array([0, 1, 3, -2])
    assert np.allclose(con.pair(B, 0, B, rs), -np.conj(con.pair(A, 0, A, rs)),
                       atol=1e-12)


def test_pair_interface_antisymmetry():
    # <B_l A_m> = -<A_m B_l>, exact by construction
    p = ModelParams(lam=0.5, gamma=1.0)
    for con in (correlators.vacuum_contractions(p, 1.5),
                correlators.bell_contractions(p, 1.5, 0, 1)):
        for l, m in ((0, 2), (3, 1), (1, 1)):
            assert con.pair(B, l, A, m) == -con.pair(A, m, B, l)


@pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (1.0, 0.5)])
def test_vacuum_contractions_match_ring(gamma, lam):
    # N = 12 ring at a short time, pairs well inside the light cone
    t = 1.0
    p = ModelParams(lam=lam, gamma=gamma)
    con = correlators.vacuum_contractions(p, t)
    ws = oracle.OracleWorkspace(12, gamma, lam)
    vecs = evolve(ws, ws.vacuum(), t)
    for l, m in ((0, 0), (0, 1), (0, 2), (1, 3)):
        for kl, km in (("A", "B"), ("A", "A"), ("B", "B")):
            ana = con.pair(KIND[kl], l, KIND[km], m)
            ref = majorana_pair(ws, vecs, kl, l, km, m)
            assert np.isclose(ana, ref, atol=2e-5), (kl, km, l, m, ana, ref)


def test_bell_contractions_match_ring():
    gamma, lam, t = 0.5, 0.5, 1.0
    p = ModelParams(lam=lam, gamma=gamma)
    con = correlators.bell_contractions(p, t, 1, 2)
    ws = oracle.OracleWorkspace(12, gamma, lam)
    vecs = evolve(ws, ws.psi_bell(1, 2, np.pi), t)
    for l, m in ((1, 1), (1, 2), (0, 3), (2, 2)):
        for kl, km in (("A", "B"), ("A", "A"), ("B", "B")):
            ana = con.pair(KIND[kl], l, KIND[km], m)
            ref = majorana_pair(ws, vecs, kl, l, km, m)
            assert np.isclose(ana, ref, atol=2e-5), (kl, km, l, m, ana, ref)


def test_bell_occupation_at_t0():
    # singlet on (i, j): half a fermion on each seed site, vacuum elsewhere;
    # <A_l B_l> = 1 - 2 n_l
    p = ModelParams(lam=1.0, gamma=0.5)
    con = correlators.bell_contractions(p, 0.0, 0, 1)
    sites = np.array([0, 1, 5])
    assert np.allclose(con.pair(A, sites, B, sites), [0.0, 0.0, 1.0],
                       atol=1e-12)


def left_right(con, kind, site, source):
    """The one-particle elements left_X(x) and right_X(x), x = source -
    site, of the `correlators` docstring, from the vacuum's V, E, O."""
    vac = con.vacuum
    at = source - np.asarray(site) + vac.radius
    v, e, o = vac.v_table[:, at], vac.e_table[:, at], vac.o_table[:, at]
    left = v - 1j * (e - o if kind == A else e + o)
    return left, np.conj(left) if kind == A else -np.conj(left)


def mod_by_source_pairs(con, kind_l, l, kind_m, m):
    """Reference Bell modification of <X_l Y_m>: the explicit sum over
    (bra source a, ket source b) of conj(w_a) w_b [left_X(l, a)
    right_Y(m, b) - left_Y(m, a) right_X(l, b)] / n2."""
    total = 0.0 + 0j
    for a, wa in zip(con.sources, con.weights):
        for b, wb in zip(con.sources, con.weights):
            left_l, _ = left_right(con, kind_l, l, a)
            left_m, _ = left_right(con, kind_m, m, a)
            _, right_l = left_right(con, kind_l, l, b)
            _, right_m = left_right(con, kind_m, m, b)
            total = total + np.conj(wa) * wb * (left_l * right_m
                                                - left_m * right_l)
    return total / con.n2


@pytest.mark.parametrize("amp", [1.0, -1.0, 0.6 - 0.8j])
def test_rank_two_mod_matches_source_pair_sum(amp):
    # every kind pair on a block of sites around the seed (1, 3), the
    # l = m entries A_l B_l that the magnetization reads included
    p = ModelParams(lam=0.8, gamma=0.6)
    con = correlators.bell_contractions(p, 1.7, 1, 3, amp=amp)
    ls, ms = np.meshgrid(np.arange(-2, 7), np.arange(-2, 7), indexing="ij")
    for kl in (A, B):
        for km in (A, B):
            got = con.pair(kl, ls, km, ms) - con.vacuum.pair(kl, ls, km, ms)
            ref = mod_by_source_pairs(con, kl, ls, km, ms)
            assert np.allclose(got, ref, rtol=0, atol=1e-15), (kl, km)
    sites = np.arange(-2, 7)
    assert np.abs(con.pair(A, sites, B, sites)
                  - con.vacuum.pair(A, sites, B, sites)).max() > 0.1


def test_bell_reduces_to_vacuum_far_away():
    p = ModelParams(lam=1.0, gamma=0.5)
    t = 1.0
    bell = correlators.bell_contractions(p, t, 0, 1)
    vac = correlators.vacuum_contractions(p, t)
    # 20 sites out at t = 1 nothing has arrived
    assert np.isclose(bell.pair(A, 20, B, 21), vac.pair(A, 20, B, 21),
                      atol=1e-12)
    assert np.isclose(bell.pair(A, 20, A, 22), vac.pair(A, 20, A, 22),
                      atol=1e-12)


def test_separation_outside_table_raises():
    from xychain.errors import CutoffError

    p = ModelParams(lam=1.0, gamma=0.5)
    vac = correlators.vacuum_contractions(p, 1.0)
    with pytest.raises(CutoffError):
        vac.pair(A, 0, B, vac.radius + 1)
    with pytest.raises(CutoffError):
        vac.pair(A, np.zeros(3, dtype=int), B, [0, 1, -vac.radius - 1])
    bell = correlators.bell_contractions(p, 1.0, 0, 1)
    far = bell.vacuum.radius + 1
    bell.bra_ket(A, far - 1)  # both sources inside the kernel table
    with pytest.raises(CutoffError):
        bell.bra_ket(A, [0, far])
    with pytest.raises(CutoffError):
        bell.pair(A, far, B, far)
    # a same-kind ground-state pair is a table entry like any other
    gs = groundstate.gs_contractions(p, 3)
    gs.pair(A, 0, A, 3)
    for kind in (A, B):
        with pytest.raises(CutoffError):
            gs.pair(kind, 0, kind, 4)


def test_singlet_tilts_phi_weights_ahead_of_front():
    # a singlet seeded at (0, 1) reshapes the pair-creation background at
    # sites ahead of the front: both phi-family weights stay nonzero and
    # the flip-antisymmetric combination dominates
    from xychain.measures import bell_fidelities, x_entries
    from xychain.pfaffian import bundles

    p = ModelParams(lam=0.5, gamma=0.5)
    con = correlators.bell_contractions(p, 8.0, 0, 1)
    fid = bell_fidelities(x_entries(bundles(con, [(5, 6)])[0, 0]))
    assert fid[2] > 0.0 and fid[3] > 0.0
    assert fid[2] >= fid[3]

    # quantitative ring check at a time the N = 12 ring still holds the
    # front without wrap-around (t = 8 leaks a few 1e-3 through the wrap)
    con = correlators.bell_contractions(p, 6.0, 0, 1)
    ana = bell_fidelities(x_entries(bundles(con, [(5, 6)])[0, 0]))
    ws = oracle.OracleWorkspace(12, 0.5, 0.5)
    ring = oracle.RingState(ws, evolve(ws, ws.psi_bell(0, 1, np.pi), 6.0))
    assert np.allclose(ana, np.ravel(bell_fidelities(ring.pair_entries(
        [5], [6]))), atol=2e-3)
