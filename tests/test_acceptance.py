"""Acceptance suite: one test per headline claim, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.  Every test exercises the public API only, the way a
user of the package would, and each prints a single [PASS]/[FAIL] line
before asserting so a scan of the output gives the full scorecard.
"""

import io
import re
import time

import numpy as np

from xychain import isotropic, oracle
from xychain.correlators import vacuum_contractions
from xychain.groundstate import gs_concurrence
from xychain.measures import (
    ckw_residual,
    concurrence_closed,
    x_entries,
)
from xychain.model import ModelParams
from xychain.pfaffian import bundles, pfaffians
from xychain.selftest import run_selftest

from helpers import (coefficients, evolve, orbital_states, random_x_bundle,
                     wootters_reference, x_matrix)


def _verdict(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_ground_state_concurrence_table():
    # nearest-neighbour ground-state concurrence across the phase diagram
    table = [
        (0.1, 0.5, 0.0264),
        (0.1, 1.0, 0.0337),
        (0.5, 0.5, 0.1204),
        (0.5, 1.0, 0.1285),
        (1.0, 0.5, 0.2074),
        (1.0, 1.0, 0.1946),
        (1.0, 0.9, 0.2475),
    ]
    start = time.monotonic()
    worst = 0.0
    for gamma, lam, ref in table:
        value, _branch = gs_concurrence(ModelParams(lam, gamma=gamma), 1)
        worst = max(worst, abs(value - ref))
    elapsed = time.monotonic() - start
    ok = worst <= 2e-3 and elapsed < 10.0
    _verdict(1, "ground-state concurrence table",
             ok, f"worst |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_total_concurrence_plateau():
    # after the initial transient the seeded site's total concurrence
    # oscillates around a plateau above the single-pair ceiling of 1
    start = time.monotonic()
    lam = 1.0
    grid = np.arange(20.0, 40.0 + 1e-4, 0.1)
    vals = [
        isotropic.wavepacket(0, 1, np.pi, lt / lam, lam)
        .partner_sums(0)[0]
        for lt in grid
    ]
    avg = float(np.mean(vals))
    elapsed = time.monotonic() - start
    ok = 1.5 <= avg <= 1.7 and elapsed < 5.0
    _verdict(2, "singlet total-concurrence plateau",
             ok, f"time average = {avg:.4f}, {elapsed:.1f}s")


def test_criterion_03_vacuum_pair_creation():
    # anisotropy creates pairwise entanglement out of the vacuum: the
    # short-time growth rate is gamma*lambda and the signal never reaches
    # the maximally entangled ceiling
    params = ModelParams(0.5, gamma=0.5)

    def pair_concurrence(ts):  # one block of times
        columns = bundles(vacuum_contractions(params, ts), [(0, 1)])
        return concurrence_closed(x_entries(columns))[:, 0]

    ts = np.linspace(0.0, 0.1, 11)
    slope = np.polyfit(ts, pair_concurrence(ts), 1)[0]
    scan = np.arange(0.05, 6.0 + 1e-9, 0.05)
    peak = pair_concurrence(scan).max()
    ok = abs(slope - 0.25) <= 0.05 * 0.25 and 0.15 < peak < 0.5
    _verdict(3, "vacuum creation rate and ceiling",
             ok, f"slope = {slope:.4f} vs 0.25, peak = {peak:.4f}")


def test_criterion_04_propagation_velocity():
    # the arrival time of the concurrence front scales as x/lambda; a
    # through-origin fit of x against lambda*t* recovers the velocity
    start = time.monotonic()
    ratios = []
    xs = np.arange(4, 13)
    for lam in (0.5, 1.0):
        tstars = []
        for x in xs:
            grid = np.arange(0.01 / lam, (x + 18) / lam + 1e-12, 0.01 / lam)
            windows = zip(*isotropic.windows(0, 1, np.pi, abs(lam) * grid))
            vals = [
                isotropic.wavepacket(0, 1, np.pi, t, lam, window=w)
                .concurrence(0, x) for t, w in zip(grid, windows)
            ]
            tstars.append(grid[int(np.argmax(vals))])
        lam_eff = float(np.sum(xs * xs) / np.sum(xs * np.asarray(tstars)))
        ratios.append(lam_eff / lam)
    elapsed = time.monotonic() - start
    ok = all(0.9 <= r <= 1.1 for r in ratios)
    _verdict(4, "ballistic front velocity",
             ok, f"lambda_eff/lambda = {ratios[0]:.4f}, {ratios[1]:.4f}, "
                 f"{elapsed:.1f}s")


# cells and deviation categories of each selftest case by kind; the Bessel
# route adds its own categories at gamma = 0
CASE_CELLS = {"vacuum_only": 12, "singlet_on_vacuum": 73}
CASE_CATEGORIES = {"vacuum_only": "concurrence correlators one_tangle rho2",
                   "singlet_on_vacuum": "concurrence correlators fidelities "
                                        "one_tangle rho2"}
BESSEL_CATEGORIES = {"vacuum_only": "one_tangle",
                     "singlet_on_vacuum": "concurrence fidelities one_tangle"}


def test_criterion_05_selftest_full():
    # every scenario the analytic engines cover must agree with the
    # exact-diagonalization oracle on a small ring, each case on its
    # fixed cells and deviation categories
    stream = io.StringIO()
    start = time.monotonic()
    ok = run_selftest(fast=False, stream=stream)
    elapsed = time.monotonic() - start
    print(stream.getvalue(), end="")
    cases = re.findall(r"gamma=(\S+) lam=\S+ (\w+): (\d+) cells; (.*)",
                       stream.getvalue())
    assert len(cases) == 12
    for gamma, kind, cells, parts in cases:
        categories = set(CASE_CATEGORIES[kind].split())
        if gamma == "0.0":
            categories |= {f"{c}(bessel)"
                           for c in BESSEL_CATEGORIES[kind].split()}
        assert int(cells) == CASE_CELLS[kind], (gamma, kind)
        assert set(re.findall(r"([\w()]+)=", parts)) == categories
    ok = ok and elapsed < 600.0
    _verdict(5, "full oracle cross-check", ok, f"{elapsed:.1f}s")


def test_criterion_06_closed_form_concurrence():
    # the closed-form X-state concurrence must match the generic
    # eigenvalue construction on a large sample of physical states
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for trial in range(1000):
        entries = x_entries(random_x_bundle(rng, edge=(trial % 5 == 0)))
        closed = concurrence_closed(entries)
        generic = wootters_reference(x_matrix(entries))
        worst = max(worst, abs(closed - generic))
    ok = worst < 1e-10
    _verdict(6, "closed-form vs generic concurrence",
             ok, f"max |diff| over 1000 states = {worst:.2e}")


def test_criterion_07_pfaffian_identities():
    # pf(A)^2 = det(A) for stacks of random skew matrices, and the small
    # closed forms are exact
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(2, 21, 2):
        re = rng.normal(size=(20, n, n))
        im = rng.normal(size=(20, n, n))
        a = (re - re.transpose(0, 2, 1)) + 1j * (im - im.transpose(0, 2, 1))
        det = np.linalg.det(a)
        pf = pfaffians(np.moveaxis(a, 0, -1).copy())
        worst = max(worst, float(np.max(
            np.abs(pf * pf - det) / np.maximum(np.abs(det), 1e-300))))
    two = np.array([[0, 3], [-3, 0]], dtype=float)
    four = np.array([
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ], dtype=float)
    pf_two, pf_four = (pfaffians(m.astype(complex)[..., None])[0]
                       for m in (two, four))
    exact = pf_two == 3.0 and pf_four == 1.0 * 6 - 2 * 5 + 3 * 4
    ok = worst < 1e-9 and exact
    _verdict(7, "pfaffian squared equals determinant",
             ok, f"worst relative residual = {worst:.2e}, "
                 f"closed forms exact = {exact}")


def test_criterion_08_monogamy_saturation_and_gap():
    # one-particle sectors saturate the monogamy identity exactly; the
    # anisotropic ground state leaves a strict gap
    worst = 0.0
    lam = 1.0
    for lt in (1.0, 5.0, 20.0):
        packet = isotropic.wavepacket(0, 1, np.pi, lt / lam, lam)
        states = [(packet, 0), (packet, 1)] + list(zip(
            orbital_states(-5, 5, lt / lam, lam),
            (-5, 5)))
        for state, site in states:
            residual = ckw_residual(state.one_tangle(site),
                                    state.partner_sums(site)[1])
            worst = max(worst, abs(residual))
    ws = oracle.OracleWorkspace(12, 0.5, 1.0)
    gs = oracle.RingState(ws, ws.ground_state())
    partners = list(range(1, ws.n))
    gap = gs.one_tangle([0])[0] - sum(
        gs.concurrence([0] * len(partners), partners) ** 2)
    ok = worst < 1e-9 and gap > 0.0
    _verdict(8, "monogamy saturation and ground-state gap",
             ok, f"max one-particle residual = {worst:.2e}, "
                 f"ground-state residual = {gap:.4f}")


def test_criterion_09_branch_switch():
    # the active branch of the pair-state concurrence hands over from the
    # pair channel to the exchange channel exactly once, and the handover
    # precedes a concurrence revival carried by the new branch
    lam = 1.0
    grid = np.arange(0.0, 8.0 + 1e-9, 0.005)
    branches = []
    concs = []
    for lt in grid:
        state = isotropic.PhiState(-5, 5, 0.0, lt / lam, lam)
        coeff = coefficients(state, -1, 1)
        branches.append(coeff.active_branch())
        concs.append(coeff.concurrence())
    switches = [
        float(grid[idx])
        for idx in range(1, len(grid))
        if branches[idx - 1] == "pair" and branches[idx] == "exchange"
    ]
    # the revival is the first positive-concurrence window after the switch
    revival = next(
        (float(grid[idx]) for idx in range(len(grid))
         if switches and grid[idx] > switches[0] and concs[idx] > 1e-12),
        None,
    )
    ok = (len(switches) == 1 and revival is not None
          and branches[int(round(revival / 0.005))] == "exchange")

    # the analytic pair-state values must agree with the oracle where the
    # ring geometry can hold the state (frame-invariant quantities only)
    ws = oracle.OracleWorkspace(12, 0.0, 1.0)
    worst = 0.0
    for lt in (1.0, 2.0):
        state = isotropic.PhiState(5, 7, 0.3, lt / lam, lam)
        ring = oracle.RingState(ws, evolve(ws, ws.phi_bell(5, 7, 0.3),
                                           lt / lam))
        for n, m in ((4, 8), (5, 7)):
            worst = max(worst, abs(state.concurrence(n, m)
                                   - ring.concurrence([n], [m])[0]))
            worst = max(worst, abs(state.one_tangle(n)
                                   - ring.one_tangle([n])[0]))
    ok = ok and worst < 1e-4
    _verdict(9, "pair-to-exchange branch handover",
             ok, f"switches at {switches}, revival at {revival}, "
                 f"oracle diff = {worst:.2e}")


def test_criterion_10_knitted_singlet():
    # knitting a fresh singlet into the ground state leaves the rest of
    # the chain exactly in its reduced ground state, and the background
    # pair entanglement far from the cut survives the quench
    n = 12
    ws = oracle.OracleWorkspace(n, 0.5, 1.0)
    comps = ws.knitted_singlet(1, 2)

    c0 = oracle.RingState(ws, comps).concurrence([1], [2])[0]

    def reduced_complement(vecs):
        rho = np.zeros((2 ** (n - 2), 2 ** (n - 2)), dtype=complex)
        for v in vecs:
            block = np.moveaxis(v.reshape((2,) * n), (1, 2), (0, 1))
            mat = block.reshape(4, 2 ** (n - 2))
            rho += np.einsum("sr,sq->rq", mat, mat.conj())
        return rho

    leak = np.max(np.abs(reduced_complement(comps)
                         - reduced_complement(ws.ground_state())))

    ground = oracle.RingState(ws, ws.ground_state())
    background = ground.concurrence([7], [8])[0]
    drift = 0.0
    for t in (0.5, 1.0, 2.0):
        evolved = oracle.RingState(ws, evolve(ws, comps, t))
        drift = max(drift, abs(evolved.concurrence([7], [8])[0] - background))

    ok = abs(c0 - 1.0) < 1e-10 and leak < 1e-10 and drift < 0.02
    _verdict(10, "knitted singlet locality",
             ok, f"C(1,2) = {c0:.12f}, complement leak = {leak:.2e}, "
                 f"far-pair drift = {drift:.2e}")
