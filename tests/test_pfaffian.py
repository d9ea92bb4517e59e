import numpy as np
import pytest

from xychain import correlators, oracle
from xychain.model import ModelParams
from xychain.pfaffian import (_vacuum_matrix, magnetization, operator_string,
                              pfaffian, pfaffian_checked, spin_correlator)


def string_expectation_rowrep(contractions, kinds, sites):
    """Reference for the bordered-Pfaffian route: the row-replacement
    expansion of the same string expectation."""
    mvac = _vacuum_matrix(contractions, kinds, sites)
    if not contractions.is_modified:
        return pfaffian(mvac)
    n = len(kinds)
    mmod = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for q in range(p + 1, n):
            mmod[p, q] = contractions.mod(kinds[p], sites[p],
                                          kinds[q], sites[q])
    total = pfaffian(mvac)
    for s in range(n - 1):
        ms = np.triu(mvac).copy()
        ms[s, s + 1:] = mmod[s, s + 1:]
        ms[:s, s] = 0.0
        total += pfaffian(ms - ms.T)
    return total


def spin_correlator_rowrep(contractions, alpha, beta, l, m):
    kinds, sites, pref = operator_string(alpha, beta, l, m)
    value = complex(pref * string_expectation_rowrep(contractions, kinds,
                                                     sites))
    assert abs(value.imag) < 1e-10
    return value.real


def random_antisymmetric(n, rng, complex_entries=False):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return a - a.T


def test_empty_and_odd():
    assert pfaffian(np.zeros((0, 0))) == 1.0
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))


def test_closed_form_2x2():
    a = np.array([[0.0, 7.0], [-7.0, 0.0]])
    assert pfaffian(a) == 7.0


def test_closed_form_4x4():
    # integer entries keep the arithmetic exact, and pf^2 = det is an
    # integer identity here, so both checks are bit-for-bit
    rng = np.random.default_rng(11)
    for _ in range(20):
        vals = rng.integers(-9, 10, size=6).astype(float)
        m01, m02, m03, m12, m13, m23 = vals
        a = np.array([
            [0.0, m01, m02, m03],
            [-m01, 0.0, m12, m13],
            [-m02, -m12, 0.0, m23],
            [-m03, -m13, -m23, 0.0],
        ])
        pf = pfaffian(a)
        assert pf == m01 * m23 - m02 * m13 + m03 * m12
        assert pf * pf == round(np.linalg.det(a).real)


def test_small_blocks_agree_with_elimination():
    # embed a 4x4 in a block-diagonal 6x6 so the general elimination path
    # evaluates it; pf(M + decoupled pair) = pf(M) * pair entry
    rng = np.random.default_rng(12)
    four = random_antisymmetric(4, rng, complex_entries=True)
    big = np.zeros((6, 6), dtype=complex)
    big[:4, :4] = four
    big[4, 5], big[5, 4] = 1.0, -1.0
    assert np.isclose(pfaffian(big), pfaffian(four), rtol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16, 20])
def test_square_is_determinant(n):
    rng = np.random.default_rng(n)
    for complex_entries in (False, True):
        a = random_antisymmetric(n, rng, complex_entries)
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert np.isclose(pf * pf, det, rtol=1e-9)


def test_permutation_congruence():
    # pf(P M P^T) = det(P) pf(M)
    rng = np.random.default_rng(3)
    a = random_antisymmetric(8, rng)
    perm = rng.permutation(8)
    p = np.eye(8)[perm]
    assert np.isclose(pfaffian(p @ a @ p.T), np.linalg.det(p) * pfaffian(a),
                      rtol=1e-10)


def test_checked_passes_on_clean_input():
    rng = np.random.default_rng(5)
    a = random_antisymmetric(10, rng, complex_entries=True)
    assert np.isclose(pfaffian_checked(a), pfaffian(a))


def test_operator_string_layout():
    # xx at separation 2: A then B blocks, each ascending, with the
    # quarter prefactor and string parity
    kinds, sites, pref = operator_string("x", "x", 0, 2)
    assert kinds == ("A", "A", "B", "B")
    assert sites == (1, 2, 0, 1)
    assert pref == -0.25
    kinds, sites, pref = operator_string("z", "z", 3, 5)
    assert kinds == ("A", "B", "A", "B")
    assert sites == (3, 3, 5, 5)
    assert pref == 0.25


def test_routes_agree():
    p = ModelParams(lam=1.0, gamma=0.5)
    con = correlators.bell_contractions(p, 1.5, 1, 2)
    for alpha, beta in (("x", "x"), ("y", "y"), ("z", "z"), ("x", "y")):
        for l, m in ((0, 1), (1, 3), (2, 4)):
            a = spin_correlator(con, alpha, beta, l, m)
            b = spin_correlator_rowrep(con, alpha, beta, l, m)
            assert np.isclose(a, b, atol=1e-12), (alpha, beta, l, m)


def test_swap_rule():
    # g_ab(l, m) = g_ba(m, l)
    p = ModelParams(lam=0.5, gamma=1.0)
    con = correlators.bell_contractions(p, 1.0, 0, 1)
    assert np.isclose(spin_correlator(con, "x", "y", 3, 1),
                      spin_correlator(con, "y", "x", 1, 3), atol=1e-13)
    assert np.isclose(spin_correlator(con, "x", "x", 4, 2),
                      spin_correlator(con, "x", "x", 2, 4), atol=1e-13)


def spin_ops(ws, alpha, l):
    import scipy.sparse as sp

    half = {"x": np.array([[0, 0.5], [0.5, 0]]),
            "y": np.array([[0, -0.5j], [0.5j, 0]]),
            "z": np.array([[0.5, 0], [0, -0.5]])}[alpha]
    op = sp.identity(1, format="csr")
    for s in range(ws.n):
        op = sp.kron(op, half if s == l else sp.identity(2), format="csr")
    return op


@pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (1.0, 0.5)])
def test_vacuum_correlators_match_ring(gamma, lam):
    t = 1.0
    p = ModelParams(lam=lam, gamma=gamma)
    con = correlators.vacuum_contractions(p, t)
    ws = oracle.workspace(12, gamma, lam)
    vecs = ws.evolve_components(ws.vacuum(), t)
    for alpha, beta in (("x", "x"), ("y", "y"), ("z", "z")):
        for l, m in ((0, 1), (0, 2)):
            ana = spin_correlator(con, alpha, beta, l, m)
            ref = ws.correlator(vecs, alpha, beta, l, m)
            assert np.isclose(ana, ref, atol=2e-4), (alpha, beta, l, m)
    assert np.isclose(magnetization(con, 0), ws.magnetization(vecs, 0),
                      atol=2e-4)


def test_bell_correlators_match_ring():
    gamma, lam, t = 0.5, 1.0, 1.0
    p = ModelParams(lam=lam, gamma=gamma)
    con = correlators.bell_contractions(p, t, 1, 2)
    ws = oracle.workspace(12, gamma, lam)
    vecs = ws.evolve_components(ws.psi_bell(1, 2, np.pi), t)
    for alpha, beta in (("x", "x"), ("y", "y"), ("z", "z"), ("x", "y")):
        for l, m in ((1, 2), (0, 2), (2, 3)):
            ana = spin_correlator(con, alpha, beta, l, m)
            ref = ws.correlator(vecs, alpha, beta, l, m)
            assert np.isclose(ana, ref, atol=2e-4), (alpha, beta, l, m)
    for l in (0, 1, 2):
        assert np.isclose(magnetization(con, l), ws.magnetization(vecs, l),
                          atol=2e-4)


def test_distinct_site_correlators_are_real():
    # the imaginary part is a health indicator, kept below 1e-10
    p = ModelParams(lam=1.0, gamma=1.0)
    con = correlators.bell_contractions(p, 2.0, 0, 1)
    val = spin_correlator(con, "x", "x", 0, 4)
    assert isinstance(val, float)
