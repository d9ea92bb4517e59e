import numpy as np
import pytest

from helpers import expectation, majorana_pair
from xychain import groundstate, oracle
from xychain.correlators import A, B
from xychain.errors import CutoffError
from xychain.measures import one_tangle
from xychain.model import ModelParams
from xychain.pfaffian import bundles, magnetization
from xychain.scenarios import parse_config_text, run_scenario

KIND = {"A": A, "B": B}

# four-decimal reference values for the nearest-neighbor ground-state
# concurrence, plus our converged numbers as regression pins
TABLE = (
    (0.1, 0.5, 0.0264, 0.02635023197209216),
    (0.1, 1.0, 0.0337, 0.03373105872146541),
    (0.5, 0.5, 0.1204, 0.12041698513426058),
    (0.5, 1.0, 0.1285, 0.12850792112397658),
    (1.0, 0.5, 0.2074, 0.20742418867401258),
    (1.0, 1.0, 0.1946, 0.19460300462462143),
    (1.0, 0.9, 0.2475, 0.24749524000314715),
)


def gs_magnetization(params):
    """<S^z> of the ground state, read off its pair tables."""
    return magnetization(groundstate.gs_contractions(params, 0), [0])[0, 0]


def gs_bundle(params, d):
    """Correlator column of the ground-state site pair (0, d)."""
    return bundles(groundstate.gs_contractions(params, d + 1), [(0, d)])[0, 0]


@pytest.mark.parametrize("gamma,lam,table,pin", TABLE)
def test_nn_concurrence_table(gamma, lam, table, pin):
    value, branch = groundstate.gs_concurrence(
        ModelParams(lam=lam, gamma=gamma), 1)
    assert abs(value - table) < 2e-3
    assert abs(value - pin) < 1e-9
    assert branch == "parallel"


def test_polarized_phase():
    # gamma = 0, lam < 1: fully polarized product ground state
    p = ModelParams(lam=0.5, gamma=0.0)
    assert np.isclose(gs_magnetization(p), 0.5, atol=1e-12)
    value, _ = groundstate.gs_concurrence(p, 1)
    assert abs(value) < 1e-12


def test_xx_magnetization_above_threshold():
    # gamma = 0, lam > 1: partially filled fermi sea,
    # mz = (2 arccos(-1/lam) - pi) / (2 pi)
    for lam in (1.5, 2.0, 5.0):
        p = ModelParams(lam=lam, gamma=0.0)
        ref = (2.0 * np.arccos(-1.0 / lam) - np.pi) / (2.0 * np.pi)
        assert np.isclose(gs_magnetization(p), ref, atol=1e-7)


def test_antiparallel_branch_wins_at_large_lam():
    value, branch = groundstate.gs_concurrence(
        ModelParams(lam=2.0, gamma=0.1), 1)
    assert branch == "antiparallel"
    assert value > 0.25


def gs_gxx_determinant(params, d):
    """<Sx_0 Sx_d> via the Toeplitz determinant (secondary route).

    The Pfaffian of the xx string collapses to a determinant because the
    ground state has no anomalous A-A or B-B contractions.
    """
    con = groundstate.gs_contractions(params, d + 1)
    k = np.empty((d, d))
    for p in range(d):
        for q in range(d):
            # -G(q - 1 - p)
            k[p, q] = expectation(con, A, 0, B, q - 1 - p)[0].real
    return 0.25 * (-1.0) ** d * np.linalg.det(k)


def test_determinant_route_equals_pfaffian_route():
    for gamma, lam in ((0.5, 1.0), (1.0, 0.5), (0.3, 0.9)):
        p = ModelParams(lam=lam, gamma=gamma)
        for d in (1, 2, 3, 4):
            det_val = gs_gxx_determinant(p, d)
            assert np.isclose(det_val, gs_bundle(p, d)[0],
                              atol=1e-12), (gamma, lam, d)


def test_bundle_is_uniform_and_x_diagonal():
    gxx, gyy, gzz, gxy, gyx, mz_l, mz_m = gs_bundle(
        ModelParams(lam=0.8, gamma=0.6), 2)
    assert mz_l == mz_m
    assert gxy == 0.0 and gyx == 0.0


def ring_ground_energy(n, gamma, lam):
    """Exact ground energy of an n-site ring from the Bogoliubov spectrum
    of each boundary sector, E = (1/2) sum_{eps<0} eps + (1/2) tr M + n/2
    with the naive filling.  That filling is the ground state of the even
    (antiperiodic) sector; in the odd (periodic) sector the parity
    constraint costs the smallest positive quasiparticle when lam <= 1,
    while for lam > 1 the naive filling already has odd parity."""
    energies = []
    for bc in (-1.0, 1.0):  # antiperiodic, periodic
        shift = np.eye(n, k=1)
        shift[n - 1, 0] = bc
        m = -np.eye(n) - lam / 2.0 * (shift + shift.T)
        d = -lam * gamma / 2.0 * (shift - shift.T)
        eps = np.linalg.eigvalsh(np.block([[m, d], [-d, -m]]))
        energy = 0.5 * eps[eps < 0.0].sum() + 0.5 * np.trace(m) + n / 2.0
        if bc > 0.0 and lam <= 1.0:
            energy += eps[eps > 0.0].min()
        energies.append(energy)
    return min(energies)


@pytest.mark.parametrize("n,gamma,lam", [(8, 1.0, 1.0), (8, 0.5, 0.7),
                                         (10, 0.3, 1.2)])
def test_ring_energy_matches_exact_diagonalization(n, gamma, lam):
    ws = oracle.OracleWorkspace(n, gamma, lam)
    (gs,) = ws.ground_state()
    h = oracle.build_hamiltonian(n, gamma, lam, np.arange(2 ** n))
    assert np.isclose(ring_ground_energy(n, gamma, lam),
                      np.vdot(gs, h @ gs).real, atol=1e-10)


def test_contractions_match_ring_when_gapped():
    gamma, lam = 1.0, 0.5
    con = groundstate.gs_contractions(ModelParams(lam=lam, gamma=gamma), 6)
    ws = oracle.OracleWorkspace(12, gamma, lam)
    gs = ws.ground_state()
    for l, m in ((0, 0), (0, 1), (0, 2), (1, 3), (2, 2)):
        for kl, km in (("A", "B"), ("A", "A"), ("B", "B")):
            ana = expectation(con, KIND[kl], l, KIND[km], m)
            ref = majorana_pair(ws, gs, kl, l, km, m)
            assert np.isclose(ana, ref, atol=1e-4), (kl, km, l, m)


def test_contractions_near_critical_have_slow_convergence():
    # at lam = 1 the N = 12 ring differs at the percent level; this pins
    # the expectation so a silent convention break shows up as a jump
    gamma, lam = 0.5, 1.0
    con = groundstate.gs_contractions(ModelParams(lam=lam, gamma=gamma), 6)
    ws = oracle.OracleWorkspace(12, gamma, lam)
    gs = ws.ground_state()
    worst = max(
        abs(expectation(con, KIND[kl], l, KIND[km], m)
            - majorana_pair(ws, gs, kl, l, km, m))
        for l, m in ((0, 1), (0, 2), (1, 3))
        for kl, km in (("A", "B"), ("A", "A"), ("B", "B")))
    assert worst < 2e-2


BUDGET = """
model.lambda = 1.0
model.gamma = {gamma}
scenario.kind = ground_state_equilibrium
grid.t_start = 0.0
grid.t_stop = 0.0
grid.dt = 1.0
grid.x_start = 0
grid.x_stop = 0
measures.list = one_tangle, ckw_residual
"""


def gs_tangle_budget(gamma):
    """(tau1, sum of squared pair concurrences over the pair window) of the
    ground state at lam = 1, read off a scenario at x = 0."""
    _, _, columns = run_scenario(parse_config_text(BUDGET.format(gamma=gamma)))
    tau1 = columns["one_tangle"][0, 0]
    return tau1, tau1 - columns["ckw_residual"][0, 0]


def test_one_tangle_and_budget():
    p = ModelParams(lam=1.0, gamma=0.5)
    tau1 = one_tangle(gs_magnetization(p))
    assert 0.0 < tau1 < 1.0
    budget_tau, budget_sum = gs_tangle_budget(0.5)
    assert np.isclose(budget_tau, tau1, atol=1e-12)
    # monogamy holds strictly here: pair concurrences cover only part of
    # the one-tangle
    assert budget_sum < budget_tau


def test_budget_gap_grows_with_anisotropy():
    gaps = []
    for gamma in (0.1, 0.5, 1.0):
        tau1, total = gs_tangle_budget(gamma)
        gaps.append(tau1 - total)
    assert gaps[0] < gaps[1] < gaps[2]


def test_separation_beyond_the_table_is_a_cutoff():
    # the same error as the vacuum and Bell-seed tables
    con = groundstate.gs_contractions(ModelParams(1.0, gamma=0.5), 3)
    with pytest.raises(CutoffError):
        expectation(con, A, 0, B, 5)


def test_legendre_rule_is_numpys_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(groundstate.LEGENDRE_NODES, nodes)
    assert np.array_equal(groundstate.LEGENDRE_WEIGHTS, weights)
