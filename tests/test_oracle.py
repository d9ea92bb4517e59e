import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from hypothesis import given, settings, strategies as st

from helpers import (evolve, grid_rows, ring_columns, ring_magnetizations,
                     x_matrix)
from xychain import cli, correlators, measures, oracle, selftest
from xychain.errors import ConfigError, NumericalHealthError
from xychain.model import ModelParams, seed_amp
from xychain.pfaffian import COMPONENTS, bundles, magnetization
from xychain.scenarios import OracleEngine, parse_config_text, run_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def dense_reference_hamiltonian(n, gamma, lam):
    # independent construction straight from the spin Hamiltonian
    sx = np.array([[0, 0.5], [0.5, 0]])
    sy = np.array([[0, -0.5j], [0.5j, 0]])
    sz = np.array([[0.5, 0], [0, -0.5]])
    eye = np.eye(2)

    def chain_op(ops):
        full = np.ones((1, 1))
        for s in range(n):
            full = np.kron(full, ops.get(s, eye))
        return full

    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for s in range(n):
        nxt = (s + 1) % n
        h -= lam * (1 + gamma) * chain_op({s: sx, nxt: sx})
        h -= lam * (1 - gamma) * chain_op({s: sy, nxt: sy})
        h -= chain_op({s: sz})
    return h


def site_ops(n):
    """Sparse (sx, sy, sz) of every site, built as Kronecker products."""
    sx = sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    sy = sp.csr_matrix(np.array([[0.0, -0.5j], [0.5j, 0.0]]))
    sz = sp.csr_matrix(np.array([[0.5, 0.0], [0.0, -0.5]]))
    ops = []
    for l in range(n):
        left = sp.identity(2 ** l, format="csr")
        right = sp.identity(2 ** (n - l - 1), format="csr")
        ops.append(tuple(sp.kron(sp.kron(left, s), right, format="csr")
                         for s in (sx, sy, sz)))
    return ops


def kron_hamiltonian(n, gamma, lam):
    ops = site_ops(n)
    h = sp.csr_matrix((2 ** n, 2 ** n))
    for l in range(n):
        m = (l + 1) % n
        h = h - lam * (1.0 + gamma) * (ops[l][0] @ ops[m][0]).real
        h = h - lam * (1.0 - gamma) * (ops[l][1] @ ops[m][1]).real
        h = h - ops[l][2]
    return h.real.tocsr()


def kron_raising(n, l):
    ops = site_ops(n)
    sx, sy, _ = ops[l]
    cdag = (sx + 1j * sy).tocsr()
    for s in range(l):
        cdag = cdag @ (-2.0 * ops[s][2])
    return cdag.tocsr()


def columns(h, n, dtype=float):
    """The matrix of ``h`` read off its action on each basis vector."""
    return (h @ np.eye(2 ** n, dtype=dtype)).T


def test_hamiltonian_matches_reference():
    n, gamma, lam = 6, 0.6, 0.9
    built = columns(oracle.build_hamiltonian(n, gamma, lam), n)
    ref = dense_reference_hamiltonian(n, gamma, lam)
    assert np.max(np.abs(built - ref)) < 1e-12


# an odd n closes an odd ring, whose vacuum has an odd popcount; n = 6, the
# first size tested, keeps the plain (gamma, lam) ids
@pytest.mark.parametrize("n,gamma,lam", [
    pytest.param(n, gamma, lam, id=f"{gamma}-{lam}" + (n != 6) * f"-{n}")
    for n in (4, 5, 6, 7)
    for gamma, lam in ((0.6, 0.9), (0.0, 1.0), (1.0, 0.3), (0.37, 1.7))])
def test_hamiltonian_equals_the_spin_operator_build(n, gamma, lam):
    built = oracle.build_hamiltonian(n, gamma, lam)
    for dtype in (float, complex):
        acted = columns(built, n, dtype)
        assert acted.dtype == dtype
        assert np.array_equal(acted,
                              kron_hamiltonian(n, gamma, lam).toarray())
    vacuum_sector = oracle.OracleWorkspace(n, gamma, lam)._parity[0]
    assert len(vacuum_sector) == 2 ** (n - 1)
    assert 2 ** n - 1 in vacuum_sector
    assert all(bin(i).count("1") % 2 == n % 2 for i in vacuum_sector)


def test_raising_operators_equal_the_spin_operator_build():
    n = 6
    for l in range(n):
        basis = np.eye(2 ** n, dtype=complex)
        acted = np.stack([oracle._raise(n, l, e) for e in basis], axis=1)
        assert acted.dtype == complex
        assert np.array_equal(acted, kron_raising(n, l).toarray())


def test_entry_derived_correlators_match_the_spin_operators():
    # the selftest reads the oracle's correlators and magnetizations off
    # its X entries and site populations; every ordered pair, plain and
    # with wrapped indices, of an evolved pure state and a knitted mixture
    n = 6
    ops = site_ops(n)
    ws = oracle.OracleWorkspace(n, 0.4, 0.8)
    pairs = [(l, m) for l in range(n) for m in range(n) if m != l]
    ls = [l for l, _ in pairs] + [l + n for l, _ in pairs]
    ms = [m for _, m in pairs] + [m - n for _, m in pairs]
    for vecs in (evolve(ws, ws.psi_bell(1, 3, 0.6), 0.9),
                 evolve(ws, ws.knitted_singlet(2, 3), 0.7)):
        def expect(op):
            return sum(np.vdot(v, op @ v) for v in vecs)

        ring = oracle.RingState(ws, vecs)
        got = ring_columns(ring.pair_entries(ls, ms))
        for l, m, row in zip(ls, ms, got):
            for (a, b), value in zip(COMPONENTS, row):
                ref = expect(ops[l % n]["xyz".index(a)]
                             @ ops[m % n]["xyz".index(b)])
                assert abs(ref.imag) < 1e-14
                assert abs(value - ref.real) < 1e-14, (a, b, l, m)
        mz = ring_magnetizations(ring, list(range(2 * n)))
        for l in range(2 * n):
            assert abs(mz[l] - expect(ops[l % n][2]).real) < 1e-14


def test_workspace_bounds():
    with pytest.raises(ConfigError):
        oracle.OracleWorkspace(13, 0.5, 1.0)
    with pytest.raises(ConfigError):
        oracle.OracleWorkspace(2, 0.5, 1.0)


def dense_spectrum(n, gamma, lam):
    return np.linalg.eigh(kron_hamiltonian(n, gamma, lam).toarray())


@pytest.mark.parametrize("t", [0.0, 0.7, 2.3, 5.0, 20.0])
def test_evolve_matches_dense_diagonalization(t):
    n, gamma, lam = 8, 0.7, 0.8
    energies, modes = dense_spectrum(n, gamma, lam)
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    vec /= np.linalg.norm(vec)
    ref = modes @ (np.exp(-1j * energies * t) * (modes.T @ vec))
    out = evolve(oracle.OracleWorkspace(n, gamma, lam), [vec], t)[0]
    assert np.max(np.abs(out - ref)) < 1e-12


# gamma = 0: the one-state vacuum block, the one-particle block and a pair
# seed in the vacuum's and the two-particle blocks; gamma = 0.7: both parity
# halves; lam = 0: particle-number blocks of radius 0
@pytest.mark.parametrize("gamma,lam,kind", [
    (0.0, 0.8, "vacuum"), (0.0, 0.8, "psi_bell"), (0.0, 0.8, "phi_bell"),
    (0.7, 0.8, "vacuum"), (0.7, 0.8, "psi_bell"), (0.7, 0.8, "knitted"),
    (0.7, 0.0, "phi_bell")])
def test_block_series_match_a_dense_propagator(gamma, lam, kind):
    n, times = 8, [0.5, 2.0, 7.0]
    energies, modes = dense_spectrum(n, gamma, lam)
    ws = oracle.OracleWorkspace(n, gamma, lam)
    vecs = {"vacuum": ws.vacuum, "psi_bell": lambda: ws.psi_bell(0, 3, 0.4),
            "phi_bell": lambda: ws.phi_bell(2, 5, 0.3),
            "knitted": lambda: ws.knitted_singlet(1, 2)}[kind]()
    for t, got in zip(times, ws.evolve_grid(vecs, times)):
        for v, v0 in zip(got, vecs):
            ref = modes @ (np.exp(-1j * energies * t) * (modes.T @ v0))
            assert np.max(np.abs(v - ref)) <= 1e-13, t


def test_evolve_leaves_global_random_state_alone():
    # long intervals, a single vector and a three-row block: neither the
    # series nor the start of a ground-state search may draw from np.random
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    (vec,) = ws.psi_bell(0, 1, np.pi)
    block = ws.psi_bell(0, 1, np.pi) + ws.phi_bell(2, 5, 0.3) + ws.vacuum()
    outs = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        outs.append([evolve(ws, [vec], 20.0)[0]]
                    + [v for vecs in ws.evolve_grid(block, [3.0, 6.0, 20.0])
                       for v in vecs]
                    + oracle.OracleWorkspace(8, 0.5, 1.0).ground_state())
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])
    assert all(np.array_equal(a, b) for a, b in zip(*outs))


def _mixture(n, k, seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            for _ in range(k)]
    return [v / np.linalg.norm(v) for v in vecs]


def test_grid_walk_from_zero_matches_per_time_evolution(monkeypatch):
    ws = oracle.OracleWorkspace(8, 0.7, 0.8)
    base = _mixture(8, 3, 4)
    times = [0.0, 0.25, 0.5, 0.75, 1.0, 1.3, 2.0, 2.0, 1.1]
    # the whole grid as one series, then series of two times each: the
    # last two start at 2.0, stay there and step back
    for block_bytes in (oracle.EVOLVE_BLOCK_BYTES, 2 * 16 * 3 * 2 ** 8):
        monkeypatch.setattr(oracle, "EVOLVE_BLOCK_BYTES", block_bytes)
        walked = list(ws.evolve_grid(base, times))
        assert len(walked) == len(times)
        assert all(a is b for a, b in zip(walked[0], base))
        for t, vecs in zip(times, walked):
            for v, v0 in zip(vecs, base):
                assert np.max(np.abs(v - evolve(ws, [v0], t)[0])) < 1e-12


def test_grid_walk_from_a_late_start_matches_per_time_evolution():
    # the first interval, 0 -> 9, is eighteen times the later ones and takes
    # a series of many terms
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    base = _mixture(8, 4, 5)
    for index in ws._blocks:
        _, _, radius = ws._sector(index)
        assert oracle._chebyshev_coefficients(9.0 * radius).shape[1] > 60
    times = [9.0 + 0.5 * k for k in range(5)]
    for t, vecs in zip(times, ws.evolve_grid(base, times)):
        assert len(vecs) == len(base)
        for v, v0 in zip(vecs, base):
            assert np.max(np.abs(v - evolve(ws, [v0], t)[0])) < 1e-12


ORACLE_REFERENCE = """
engine = oracle
scenario.oracle_sites = 8
model.lambda = 0.9
model.gamma = 0.4
scenario.kind = {kind}
scenario.i = 2
scenario.j = 3
scenario.phi = 3.141592653589793
grid.t_start = 0.0
grid.t_stop = 1.5
grid.dt = 0.5
grid.x_start = 0
grid.x_stop = 7
measures.list = {measures}
"""


@pytest.mark.parametrize("kind", ["psi_bell", "ground_state_equilibrium"])
def test_reference_rides_along_only_for_tangle_deviation(kind):
    cfg = parse_config_text(ORACLE_REFERENCE.format(
        kind=kind, measures="one_tangle, tangle_deviation"))
    engine = OracleEngine(cfg)
    ws = engine.ws
    base = ws.ground_state() if kind != "psi_bell" else ws.psi_bell(
        2, 3, np.pi)
    reference = ws.ground_state() if kind != "psi_bell" else ws.vacuum()
    times = cfg.times()
    views = list(engine.views(times))
    for t, (ts, view, baseline) in zip(times, views):
        assert ts == [t]
        for got, want in ((view.vecs, base), (baseline.vecs, reference)):
            assert len(got) == len(want)
            for v, w in zip(got, evolve(ws, want, t)):
                assert np.max(np.abs(v - w)) < 1e-12
    rows = grid_rows(run_scenario(cfg))
    by_hand = []
    for t in times:
        taus, refs = (oracle.RingState(ws, evolve(ws, vecs, t)).one_tangle(
            cfg.sites()).tolist() for vecs in (base, reference))
        for x, tau, ref in zip(cfg.sites(), taus, refs):
            delta, rel = measures.tangle_deviation(tau, ref)
            by_hand += [("one_tangle", x, t, tau),
                        ("tangle_deviation", x, t, delta),
                        ("tangle_deviation_rel", x, t, rel)]
    assert [r[:3] for r in rows] == [r[:3] for r in sorted(by_hand)]
    for (_, _, _, got), (_, _, _, want) in zip(rows, sorted(by_hand)):
        assert abs(got - want) <= 1e-12 or (np.isnan(got) and np.isnan(want))
    plain = OracleEngine(parse_config_text(ORACLE_REFERENCE.format(
        kind=kind, measures="one_tangle")))
    assert all(baseline.vecs == [] for _, _, baseline in plain.views(times))


# the lower sector flips with the point: even (popcount of the basis index)
# at (0.5, 0.5), odd at the other two
@pytest.mark.parametrize("gamma,lam,parity", [(0.5, 0.5, 0), (0.3, 1.1, 1),
                                              (0.1, 2.0, 1)])
def test_ground_state_matches_dense_diagonalization(gamma, lam, parity):
    n = 8
    energies, modes = dense_spectrum(n, gamma, lam)
    ws = oracle.OracleWorkspace(n, gamma, lam)
    (gs,) = ws.ground_state()
    h = oracle.build_hamiltonian(n, gamma, lam)
    assert abs(np.vdot(gs, h @ gs).real - energies[0]) < 1e-12
    ref = modes[:, 0]
    projector_diff = np.outer(gs, gs.conj()) - np.outer(ref, ref)
    assert np.max(np.abs(projector_diff)) < 1e-10
    support = np.flatnonzero(gs)
    assert all(bin(i).count("1") % 2 == parity for i in support)


def test_ground_state_sector_tie_keeps_the_even_sector():
    # at gamma = 0, lam = 1 both sectors of the 12-site ring hold energy -6;
    # Lanczos puts them a few 1e-15 apart, which must not pick the state
    n = 12
    ws = oracle.OracleWorkspace(n, 0.0, 1.0)
    odd = np.array([bin(i).count("1") % 2 == 1 for i in range(2 ** n)])
    energies = [oracle._lanczos_ground_state(oracle.build_hamiltonian(
        n, 0.0, 1.0, np.flatnonzero(mask)))[0] for mask in (~odd, odd)]
    assert np.allclose(energies, -6.0, rtol=0, atol=1e-12)
    assert abs(energies[0] - energies[1]) <= oracle.SECTOR_TIE
    (gs,) = ws.ground_state()
    assert not np.any(gs[odd])
    h = oracle.build_hamiltonian(n, 0.0, 1.0)
    assert abs(np.vdot(gs, h @ gs).real + 6.0) < 1e-12


def _held_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_held_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_held_bytes(x) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return _held_bytes(vars(obj))
    return 0


def test_workspace_holds_no_dense_matrix():
    # parity halves, then the particle-number blocks of gamma = 0
    for gamma in (0.5, 0.0):
        ws = oracle.OracleWorkspace(12, gamma, 1.0)
        evolve(ws, ws.knitted_singlet(1, 2), 0.5)
        (gs,) = ws.ground_state()
        h = oracle.build_hamiltonian(12, gamma, 1.0)
        assert np.vdot(gs, h @ gs).real < 0.0
        assert _held_bytes(vars(ws)) < 5e6


def test_evolution_is_unitary():
    ws = oracle.OracleWorkspace(8, 0.7, 0.8)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(2 ** 8) + 1j * rng.standard_normal(2 ** 8)
    vec /= np.linalg.norm(vec)
    out = evolve(ws, [vec], 2.3)[0]
    assert np.isclose(np.linalg.norm(out), 1.0, atol=1e-10)


def test_magnetization_conserved_at_zero_gamma():
    ws = oracle.OracleWorkspace(8, 0.0, 1.0)
    vecs = ws.psi_bell(0, 1, np.pi)
    total0, total_t = (ring_magnetizations(oracle.RingState(ws, v),
                                           range(8)).sum()
                       for v in (vecs, evolve(ws, vecs, 3.0)))
    assert np.isclose(total0, total_t, atol=1e-10)


def test_vacuum_is_polarized():
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    ring = oracle.RingState(ws, ws.vacuum())
    assert np.isclose(ring_magnetizations(ring, [3])[0], -0.5, atol=1e-12)
    assert np.isclose(ring.one_tangle([3])[0], 0.0, atol=1e-12)


def test_psi_bell_t0_is_singlet():
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    ring = oracle.RingState(ws, ws.psi_bell(2, 3, np.pi))
    entries = ring.pair_entries([2], [3])
    rho = x_matrix(entries)[0]
    # basis uu, ud, du, dd
    assert np.isclose(rho[1, 1], 0.5) and np.isclose(rho[2, 2], 0.5)
    assert np.isclose(rho[1, 2], -0.5)
    assert np.isclose(ring.concurrence([2], [3])[0], 1.0, atol=1e-10)
    assert np.allclose(measures.bell_fidelities(entries), [[1], [0], [0], [0]],
                       atol=1e-12)


def test_phi_bell_t0_pair_coherence():
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    phi = 0.9
    ring = oracle.RingState(ws, ws.phi_bell(2, 5, phi))
    rho = x_matrix(ring.pair_entries([2], [5]))[0]
    assert np.isclose(rho[0, 0], 0.5) and np.isclose(rho[3, 3], 0.5)
    assert np.isclose(rho[0, 3], 0.5 * np.exp(1j * phi))
    assert np.isclose(ring.concurrence([2], [5])[0], 1.0, atol=1e-10)


def test_oracle_seeds_by_the_analytic_engines_phase_rule():
    # e^{i phi}, exactly +-1 within 1e-9 of the phases 0 and pi, so the
    # oracle's seeds at those phases are real, like the analytic engine's
    phases = (0.0, 1e-10, np.pi, np.pi + 1e-10, -np.pi, 2 * np.pi)
    assert [seed_amp(phi) for phi in phases] == [1, 1, -1, -1, -1, 1]
    assert seed_amp(0.7) == np.exp(0.7j)
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    for phi in (0.0, np.pi):
        for (vec,) in (ws.psi_bell(2, 3, phi), ws.phi_bell(2, 5, phi)):
            assert not vec.imag.any()
    (psi,) = ws.psi_bell(2, 3, 0.7)
    assert np.imag(psi).any()


def test_fidelities_sum_to_one():
    ws = oracle.OracleWorkspace(8, 0.5, 0.5)
    ring = oracle.RingState(ws, evolve(ws, ws.psi_bell(1, 2, np.pi), 1.7))
    fidelities = measures.bell_fidelities(ring.pair_entries([3], [4]))
    assert np.isclose(sum(fidelities), 1.0, atol=1e-10)


def test_knitted_singlet_t0():
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    comps = ws.knitted_singlet(1, 2)
    # unnormalized components of the post-measurement mixture
    total_weight = sum(np.vdot(c, c).real for c in comps)
    assert np.isclose(total_weight, 1.0, atol=1e-10)
    assert np.isclose(oracle.RingState(ws, comps).concurrence([1], [2])[0],
                      1.0, atol=1e-10)


def test_total_concurrence_and_ckw():
    # the oracle engine sums a site's concurrences over the whole ring
    cfg = parse_config_text("""
engine = oracle
scenario.oracle_sites = 8
model.lambda = 1.0
model.gamma = 0.0
scenario.kind = psi_bell
scenario.i = 0
scenario.j = 1
scenario.phi = 3.141592653589793
grid.t_start = 1.0
grid.t_stop = 1.0
grid.dt = 1.0
grid.x_start = 0
grid.x_stop = 0
measures.list = total_concurrence, ckw_residual
""")
    rows = {name: value
            for name, _, _, value in grid_rows(run_scenario(cfg))}
    ws = oracle.OracleWorkspace(8, 0.0, 1.0)
    ring = oracle.RingState(ws, evolve(ws, ws.psi_bell(0, 1, np.pi), 1.0))
    concs = [ring.concurrence([0], [q])[0] for q in range(1, 8)]
    assert np.isclose(rows["total_concurrence"], sum(concs), atol=1e-12)
    by_hand_res = ring.one_tangle([0])[0] - sum(c ** 2 for c in concs)
    assert np.isclose(rows["ckw_residual"], by_hand_res, atol=1e-12)


def test_ring_pairs_match_the_finite_ring_pfaffian_route():
    # bell_oracle.cfg's singlet at (gamma, lam) = (0.5, 0.5) on N = 12:
    # every pair of the ring, on the oracle and on the Pfaffian route over
    # the same ring's momenta.  The entries agree to roundoff; the
    # concurrence bound is the scale of the Wootters eigenvalue floor the
    # oracle's concurrence still passes through, and tightens to the
    # entries' once that floor is dropped (ROADMAP item 1).
    n, times = 12, [0.25 * k for k in range(1, 7)]
    ls, ms = map(list, zip(*[(l, m) for l in range(n)
                             for m in range(l + 1, n)]))
    con = correlators.bell_contractions(
        ModelParams(0.5, gamma=0.5, size=n), times, 0, 1, amp=-1.0)
    pfaffian_entries = measures.x_entries(bundles(con, list(zip(ls, ms))))
    ws = oracle.OracleWorkspace(n, 0.5, 0.5)
    for k, vecs in enumerate(ws.evolve_grid(ws.psi_bell(0, 1, np.pi),
                                            times)):
        ring = oracle.RingState(ws, vecs)
        want = [entry[k] for entry in pfaffian_entries]
        assert np.allclose(ring.pair_entries(ls, ms), want, rtol=0,
                           atol=1e-12)
        assert np.allclose(ring.concurrence(ls, ms),
                           measures.concurrence_closed(want), rtol=0,
                           atol=1e-6)


@pytest.mark.parametrize("gamma,lam,i,j,phi", [
    (0.5, 0.5, 0, 1, 0.7), (1.0, 1.0, 0, 3, 0.7), (0.3, 0.8, 2, 7, 2.5)])
def test_psi_bell_at_any_phase_matches_the_finite_ring_pfaffian_route(
        gamma, lam, i, j, phi):
    # the seed (c_i^dag + e^{i phi} c_j^dag)|vac> / sqrt(2) on the Pfaffian
    # route takes amp = e^{i phi}: every pair of the N = 12 ring, t <= 2
    n, times = 12, [0.0, 0.5, 1.0, 1.5, 2.0]
    ls, ms = map(list, zip(*[(l, m) for l in range(n)
                             for m in range(l + 1, n)]))
    con = correlators.bell_contractions(
        ModelParams(lam, gamma=gamma, size=n), times, i, j,
        amp=np.exp(1j * phi))
    pfaffian_entries = measures.x_entries(bundles(con, list(zip(ls, ms))))
    ws = oracle.OracleWorkspace(n, gamma, lam)
    for k, vecs in enumerate(ws.evolve_grid(ws.psi_bell(i, j, phi), times)):
        want = [entry[k] for entry in pfaffian_entries]
        assert np.allclose(oracle.RingState(ws, vecs).pair_entries(ls, ms),
                           want, rtol=0, atol=1e-12)


def assert_ring_route_matches_the_oracle(n, gamma, lam, times, seed=None):
    """Every pair's X entries and every site's magnetization of the
    finite-ring Pfaffian route equal the oracle's to 1e-12; seed is the
    (i, j, phi) of a psi_bell seed, or None for the vacuum."""
    params = ModelParams(lam, gamma=gamma, size=n)
    ws = oracle.OracleWorkspace(n, gamma, lam)
    if seed is None:
        con, base = correlators.vacuum_contractions(params, times), ws.vacuum()
    else:
        i, j, phi = seed
        con = correlators.bell_contractions(params, times, i, j,
                                            amp=seed_amp(phi))
        base = ws.psi_bell(i, j, phi)
    pairs = [(l, m) for l in range(n) for m in range(l + 1, n)]
    entries = measures.x_entries(bundles(con, pairs))
    mzs = magnetization(con, list(range(n)))
    for k, vecs in enumerate(ws.evolve_grid(base, times)):
        ring = oracle.RingState(ws, vecs)
        assert np.allclose(ring.pair_entries(*zip(*pairs)),
                           [entry[k] for entry in entries], rtol=0,
                           atol=1e-12)
        assert np.allclose(ring_magnetizations(ring, list(range(n))),
                           mzs[k], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,gamma,lam", [(7, 0.5, 0.8), (9, -0.4, 1.7)])
def test_odd_rings_match_the_finite_ring_pfaffian_route(n, gamma, lam):
    # on an odd ring the antiperiodic momenta are the odd multiples of
    # pi/n, pi among them; taking the even ones put the vacuum 0.25 and
    # 0.31 off the oracle and a singlet 0.38 and 0.27 off
    for seed in (None, (0, 2, np.pi)):
        assert_ring_route_matches_the_oracle(n, gamma, lam, [0.5, 1.0, 2.0],
                                             seed)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 11), gamma=st.floats(-1.5, 1.5),
       lam=st.floats(0.0, 3.0), vacuum=st.booleans(),
       sites=st.tuples(st.integers(0, 10), st.integers(1, 10)),
       phi=st.floats(0.0, 2.0 * np.pi),
       times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3))
def test_rings_of_every_size_match_the_finite_ring_pfaffian_route(
        n, gamma, lam, vacuum, sites, phi, times):
    # both phases (gamma < 0 and lam > 1 included), both ring parities,
    # and seeds on any two sites at any phase
    i = sites[0] % n
    j = (i + sites[1] % (n - 1) + 1) % n
    seed = None if vacuum else (i, j, phi)
    assert_ring_route_matches_the_oracle(n, gamma, lam, sorted(times), seed)


@pytest.mark.parametrize("extra", [(), ("entropy2",)])
def test_each_pair_set_is_evaluated_and_checked_once_per_time(monkeypatch,
                                                              extra):
    # concurrence at distance 1, bell_fidelities and entropy2 all read the
    # pairs (x, x + 1): one pair_entries and one x_spectrum call per time
    cfg = parse_config_text((SCRIPTS / "bell_oracle.cfg").read_text())
    cfg = dataclasses.replace(cfg, measure_list=cfg.measure_list + extra)
    calls = {"pair_entries": 0, "x_spectrum": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(oracle.RingState, "pair_entries", counting(
        "pair_entries", oracle.RingState.pair_entries))
    monkeypatch.setattr(measures, "x_spectrum", counting(
        "x_spectrum", measures.x_spectrum))
    run_scenario(cfg)
    assert calls == dict.fromkeys(calls, len(cfg.times()))


def test_sector_requires_a_set_closed_under_the_nonzero_flips():
    # a particle-number class is closed under every nonzero flip only at
    # gamma = 0, where the parallel-spin flips vanish
    n = 6
    index = np.arange(2 ** n)
    two = index[[bin(i).count("1") == 2 for i in index]]
    vec = np.zeros(2 ** n)
    vec[two] = np.random.default_rng(2).standard_normal(len(two))
    isotropic = oracle.build_hamiltonian(n, 0.0, 1.0)
    assert np.array_equal(oracle.build_hamiltonian(n, 0.0, 1.0, two)
                          @ vec[two], (isotropic @ vec)[two])
    with pytest.raises(ValueError, match="nonzero flip"):
        oracle.build_hamiltonian(n, 0.5, 1.0, two)


@pytest.mark.parametrize("n,gamma,lam", [(6, 0.0, 1.0), (6, 0.5, 0.9),
                                         (7, -0.4, 1.3), (6, 0.3, 0.0)])
def test_a_block_build_equals_the_full_build_on_its_indices(n, gamma, lam):
    # the diagonal, the flips and the targets, with a zero flip that leaves
    # the block reading its own index, bit for bit
    ws = oracle.OracleWorkspace(n, gamma, lam)
    full = oracle.build_hamiltonian(n, gamma, lam)
    for index in list(ws._parity) + list(ws._blocks):
        block = oracle.build_hamiltonian(n, gamma, lam, index)
        position = np.full(2 ** n, -1)
        position[index] = np.arange(len(index))
        targets = position[full.targets[:, index]]
        flips = full.flips[:, index]
        assert not flips[targets < 0].any()
        targets[targets < 0] = np.nonzero(targets < 0)[1]
        assert np.array_equal(block.diagonal, full.diagonal[index])
        assert np.array_equal(block.flips, flips)
        assert np.array_equal(block.targets, targets)


def recorded_shapes(monkeypatch):
    """The block shape of each `_series` call from now on, in order."""
    shapes, series = [], oracle._series

    def recording(twice, block, coeffs):
        shapes.append(block.shape)
        return series(twice, block, coeffs)

    monkeypatch.setattr(oracle, "_series", recording)
    return shapes


def test_blocks_follow_the_conserved_charge(monkeypatch):
    # at gamma = 0 the blocks are the n + 1 particle-number classes, the
    # vacuum's first, and a seed rides only in the classes it occupies;
    # any anisotropy leaves the two parity halves
    n = 8
    ws = oracle.OracleWorkspace(n, 0.0, 1.0)
    assert [len(block) for block in ws._blocks] == [
        math.comb(n, q) for q in range(n + 1)]
    for q, block in zip(range(n, -1, -1), ws._blocks):
        assert all(bin(i).count("1") == q for i in block)
    shapes = recorded_shapes(monkeypatch)
    for vecs, want in ((ws.vacuum(), [(1, 1)]),
                       (ws.psi_bell(0, 3, 0.4), [(1, n)]),
                       (ws.phi_bell(2, 5, 0.3),
                        [(1, 1), (1, math.comb(n, 2))])):
        shapes.clear()
        list(ws.evolve_grid(vecs, [0.5, 1.0]))
        assert shapes == want
    skewed = oracle.OracleWorkspace(n, 1e-3, 1.0)
    assert skewed._blocks is skewed._parity
    assert [len(block) for block in skewed._blocks] == [2 ** (n - 1)] * 2


def recorded_builds(monkeypatch):
    """The basis indices of each `build_hamiltonian` call from now on, in
    order; all 2^n for a full-space build."""
    built, build = [], oracle.build_hamiltonian

    def recording(n, gamma, lam, *index):
        built.append(index[0] if index else np.arange(2 ** n))
        return build(n, gamma, lam, *index)

    monkeypatch.setattr(oracle, "build_hamiltonian", recording)
    return built


def test_each_block_is_built_once_on_first_use(monkeypatch):
    # the ground state builds the two parity halves and a gamma = 0.5
    # evolution reuses them; at gamma = 0 the evolutions build only the
    # particle-number classes a state occupies, each once
    n = 8
    built = recorded_builds(monkeypatch)
    anisotropic = oracle.OracleWorkspace(n, 0.5, 1.0)
    isotropic = oracle.OracleWorkspace(n, 0.0, 1.0)
    assert built == []
    for ws, states, want in (
            (anisotropic, (anisotropic.ground_state,
                           lambda: anisotropic.psi_bell(0, 3, 0.4),
                           lambda: anisotropic.phi_bell(2, 5, 0.3)),
             list(anisotropic._parity)),
            (isotropic, (isotropic.vacuum,
                         lambda: isotropic.phi_bell(2, 5, 0.3),
                         lambda: isotropic.psi_bell(0, 3, 0.4)),
             [isotropic._blocks[q] for q in (0, 2, 1)])):
        built.clear()
        for prepare in states:
            vecs = prepare()
            for _ in range(2):
                list(ws.evolve_grid(vecs, [0.5, 1.0]))
        assert len(built) == len(want)
        for got, block in zip(built, want):
            assert got is block
    built.clear()
    isotropic.ground_state()
    assert [len(index) for index in built] == [2 ** (n - 1)] * 2


def test_selftest_cases_build_no_full_space_hamiltonian(monkeypatch):
    built = recorded_builds(monkeypatch)
    for gamma, lam in selftest.FAST_COMBOS:
        for kind in ("vacuum_only", "singlet_on_vacuum"):
            built.clear()
            selftest.run_case(gamma, lam, kind, fast=True)
            sizes = [len(index) for index in built]
            assert sizes and max(sizes) < 2 ** selftest.RING, sizes


def complex_series(twice, block, coeffs):
    """`oracle._series` with every term complex, also for a real block."""
    coeffs = coeffs.T[:, :, None, None]
    prev, cur = None, block.astype(complex)[None]
    outs = coeffs[0] * cur
    for c in coeffs[1:]:
        nxt = twice @ cur
        if prev is None:
            nxt *= 0.5
        else:
            nxt -= prev
        outs += c * nxt
        prev, cur = cur, nxt
    return outs


def full_space_walk(ws, vecs, times):
    """evolve_grid's walk with full-length rows, the full H and complex
    terms throughout: per block, its part of each row alone, scaled by the
    block's own center and radius, with the same coefficients and chunks,
    one series per chunk from the last time before it."""
    h = oracle.build_hamiltonian(ws.n, *ws._couplings)
    block_bytes = 16 * len(vecs) * 2 ** ws.n
    per_chunk = max(1, oracle.EVOLVE_BLOCK_BYTES // block_bytes)
    walked = np.zeros((len(times), len(vecs), 2 ** ws.n), dtype=complex)
    for index in ws._blocks:
        _, center, radius = ws._sector(index)
        scale = 2.0 / radius if radius else 0.0  # one term reads no H
        twice = oracle.Hamiltonian(scale * (h.diagonal - center), h.targets,
                                   scale * h.flips)
        block, now = np.zeros((len(vecs), 2 ** ws.n), dtype=complex), 0.0
        block[:, index] = np.stack(vecs)[:, index]
        for s in range(0, len(times), per_chunk):
            chunk = times[s:s + per_chunk]
            dts = np.asarray([t - now for t in chunk])
            coeffs = (np.exp(-1j * center * dts)[:, None]
                      * oracle._chebyshev_coefficients(radius * dts))
            outs = complex_series(twice, block, coeffs)
            walked[s:s + per_chunk, :, index] = outs[:, :, index]
            block, now = outs[-1], chunk[-1]
    return walked


# the parity halves at gamma = 0.7, which keeps the plain ids, and the
# particle-number blocks at gamma = 0
@pytest.mark.parametrize("chunked,gamma", [
    pytest.param(chunked, gamma, id=f"{chunked}" + (gamma == 0) * "-0.0")
    for gamma in (0.7, 0.0) for chunked in (False, True)])
def test_sector_evolution_equals_the_full_space_series_bit_for_bit(
        monkeypatch, chunked, gamma):
    n = 8
    ws = oracle.OracleWorkspace(n, gamma, 0.8)
    rng = np.random.default_rng(6)
    mixed = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    blocks = {
        # components of both parities, each of one
        "knitted": ws.knitted_singlet(2, 3),
        # real blocks of both parities: a singlet seed is real
        "real": ws.psi_bell(0, 1, np.pi) + ws.phi_bell(2, 5, 0.0),
        # a row with weight in both sectors beside an odd and an even one
        "mixed": [mixed / np.linalg.norm(mixed)] + ws.psi_bell(0, 1, 0.4)
        + ws.phi_bell(2, 5, 0.3),
    }
    # the real series serves the first two from their first time on; a
    # later chunk starts from complex blocks
    assert [bool(np.imag(vecs).any()) for vecs in blocks.values()] == [
        False, False, True]
    times = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 9.0]
    shapes = recorded_shapes(monkeypatch)
    for name, vecs in blocks.items():
        if chunked:  # two times per series
            monkeypatch.setattr(oracle, "EVOLVE_BLOCK_BYTES",
                                2 * 16 * len(vecs) * 2 ** n)
        shapes.clear()
        walked = list(ws.evolve_grid(vecs, times))
        # only nonzero parts ride: one row per part, one block per charge
        rows = [(sum(bool(v[index].any()) for v in vecs), len(index))
                for index in ws._blocks]
        assert shapes == [shape for shape in rows
                          if shape[0]] * (4 if chunked else 1)
        reference = full_space_walk(ws, vecs, times)
        assert len(walked) == len(reference) == len(times)
        for got, want in zip(walked, reference):
            assert np.array_equal(np.stack(got), want), name


def dense_rho(vecs, n, sites):
    """The reduced density matrix of ``sites``, in that order with site 0's
    bit most significant, by an einsum over each component's (2,)*n
    tensor."""
    letters = "abcdefghijklmnop"[:n]
    ket, bra = list(letters), list(letters)
    for k, s in enumerate(sites):
        ket[s], bra[s] = "wx"[k], "yz"[k]
    out = "wx"[:len(sites)] + "yz"[:len(sites)]
    dim = 2 ** len(sites)
    return sum(np.einsum(f"{''.join(ket)},{''.join(bra)}->{out}",
                         v.reshape((2,) * n), v.conj().reshape((2,) * n))
               for v in vecs).reshape(dim, dim)


OFF_X = [(k, m) for k in range(4) for m in range(4)
         if k != m and {k, m} not in ({0, 3}, {1, 2})]


def test_one_pass_reductions_equal_a_dense_partial_trace():
    n = 8
    ws = oracle.OracleWorkspace(n, 0.5, 1.0)
    states = {"knitted": ws.knitted_singlet(1, 2),
              "psi_bell": evolve(ws, ws.psi_bell(2, 3, 0.7), 1.3)}
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    for name, vecs in states.items():
        state = oracle.RingState(ws, vecs)
        entries = state.pair_entries(*zip(*pairs))
        a, b, x, y, c, z = entries
        rhos = x_matrix(entries)
        for k, (p, q) in enumerate(pairs):
            ref = dense_rho(vecs, n, (p, q))
            assert all(ref[i, j] == 0.0 for i, j in OFF_X), (name, p, q)
            got = (ref[0, 0], ref[3, 3], ref[1, 1], ref[2, 2], ref[0, 3],
                   ref[1, 2])
            assert np.max(np.abs(np.array([a[k], b[k], x[k], y[k], c[k],
                                           z[k]]) - got)) < 1e-15
            assert np.max(np.abs(rhos[k] - ref)) < 1e-15
            assert np.array_equal(
                oracle.RingState(ws, vecs).pair_entries([p], [q]),
                [[e[k]] for e in entries])
        for site in range(n):
            ref = dense_rho(vecs, n, (site,))
            assert ref[0, 1] == ref[1, 0] == 0.0
            assert np.max(np.abs(np.diag(state.site_populations([site])[0])
                                 - ref)) < 1e-15


def test_reducing_a_component_of_both_parities_is_a_health_error():
    n = 8
    ws = oracle.OracleWorkspace(n, 0.5, 1.0)
    (odd,), (even,) = ws.psi_bell(0, 1, 0.2), ws.phi_bell(0, 1, 0.2)
    mixed = oracle.RingState(ws, [odd / np.sqrt(2), even / np.sqrt(2)])
    assert mixed.spectrum([0], [1]).shape == (1, 4)
    both = (odd + even) / np.sqrt(2)
    for reduce in (lambda ring: ring.spectrum([0], [1]),
                   lambda ring: ring.concurrence([0], [1]),
                   lambda ring: ring.one_tangle([3]),
                   lambda ring: ring.site_populations([3]),
                   lambda ring: ring.partner_sums([0])):
        with pytest.raises(NumericalHealthError, match="parity sector"):
            reduce(oracle.RingState(ws, [odd, both]))


def test_evolution_and_ground_state_match_scipy_at_twelve_sites():
    from scipy.sparse.linalg import eigsh, expm_multiply

    n, gamma, lam = 12, 0.5, 1.0
    ws = oracle.OracleWorkspace(n, gamma, lam)
    h = kron_hamiltonian(n, gamma, lam)
    vecs = ws.psi_bell(1, 2, np.pi) + ws.phi_bell(4, 7, 0.3)
    times = [0.5, 1.0, 2.5]
    for t, got in zip(times, ws.evolve_grid(vecs, times)):
        for v, v0 in zip(got, vecs):
            ref = expm_multiply(-1j * t * h, v0)
            assert np.max(np.abs(v - ref)) < 1e-12
    vals, modes = eigsh(h, k=1, which="SA", tol=0,
                        v0=np.random.default_rng(0).standard_normal(2 ** n))
    (gs,) = ws.ground_state()
    assert abs(np.vdot(gs, h @ gs).real - vals[0]) < 1e-12
    ref = modes[:, 0]
    assert np.max(np.abs(np.outer(gs, gs.conj()) - np.outer(ref, ref))) < 1e-12


def test_chebyshev_coefficients_are_bessel_values():
    amounts = [0.0, 0.5, -3.0, 9.0, 40.0, 250.0]
    rows = oracle._chebyshev_coefficients(amounts)
    for a, row in zip(amounts, rows):
        # one argument alone gives the same row, up to the nodes its size
        # sets, and ends where the row of the batch does
        (alone,) = oracle._chebyshev_coefficients([a])
        k = np.arange(len(alone))
        scale = max(1.0, abs(a))
        assert np.max(np.abs(row[:len(alone)] - alone)) < 1e-14 * scale
        assert not np.any(row[len(alone):])
        ref = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * scipy.special.jv(k, a)
        assert np.max(np.abs(alone - ref)) < 1e-14 * scale
        assert len(alone) > abs(a)
        assert abs(2.0 * scipy.special.jv(len(alone), a)) < oracle.SERIES_TOL
        # J_0^2 + 2 sum_k J_k^2 = 1
        assert math.isclose(
            abs(alone[0]) ** 2 + np.sum(np.abs(alone[1:]) ** 2) / 2, 1.0,
            abs_tol=1e-13)


def direct_cosine_coefficients(a):
    """`oracle._chebyshev_coefficients` with every cosine its own np.cos
    call, the reference of its one cosine table."""
    a = np.asarray(a, dtype=float).reshape(-1)
    top = float(np.max(np.abs(a)))
    orders = math.ceil(top + 16.0 * max(1.0, top) ** (1.0 / 3.0)) + 16
    m = orders + 32
    odd = 2 * np.arange(m) + 1
    ks = np.arange(orders)
    f = np.exp(-1j * np.outer(a, np.cos((np.pi / (2 * m)) * odd))) * (2 / m)
    c = np.concatenate([
        f @ np.cos((np.pi / (2 * m)) * (np.outer(odd, part) % (4 * m)))
        for part in np.split(ks, range(256, orders, 256))], axis=1)
    c[:, 0] /= 2
    small = (ks > np.abs(a)[:, None]) & (np.abs(c) < oracle.SERIES_TOL)
    ends = small.argmax(axis=1)
    c[ks >= ends[:, None]] = 0.0
    return c[:, :ends.max()]


@pytest.mark.parametrize("amounts", [
    [0.0], [0.5], [-3.0], [9.0, 2.0], [40.0], [120.0, -7.5, 0.25],
    [255.0], [263.5], [300.0, 12.0], [611.0, -600.0, 1.0]])
def test_chebyshev_cosine_table_equals_direct_cosines_bit_for_bit(amounts):
    # above |a| ~ 250 the orders span more than one 256-order chunk
    got = oracle._chebyshev_coefficients(amounts)
    want = direct_cosine_coefficients(amounts)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_lanczos_residual_failure_is_a_health_error(monkeypatch, capsys):
    # ten Krylov steps cannot resolve the N = 12 ground state
    monkeypatch.setattr(oracle, "LANCZOS_STEPS", 10)
    with pytest.raises(NumericalHealthError, match="Lanczos residual"):
        oracle.OracleWorkspace(12, 0.5, 1.0).ground_state()
    assert cli.main(["run", str(SCRIPTS / "knitted.cfg")]) == 3
    assert "Lanczos residual" in capsys.readouterr().err


def test_evolution_norm_failure_is_a_health_error(monkeypatch, capsys):
    # a series cut at 1e-3 loses norm far beyond NORM_TOL
    monkeypatch.setattr(oracle, "SERIES_TOL", 1e-3)
    ws = oracle.OracleWorkspace(8, 0.5, 1.0)
    with pytest.raises(NumericalHealthError, match="squared norm"):
        evolve(ws, ws.psi_bell(0, 1, np.pi), 1.0)
    assert cli.main(["run", str(SCRIPTS / "bell_oracle.cfg")]) == 3
    assert "squared norm" in capsys.readouterr().err
