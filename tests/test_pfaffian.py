import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import evolve, ring_columns
from xychain import correlators, groundstate, oracle, scenarios, selftest
from xychain import pfaffian as pfaffian_module
from xychain.correlators import A, B
from xychain.errors import CutoffError, NumericalHealthError
from xychain.model import ModelParams
from xychain.pfaffian import (COMPONENTS, bundles, magnetization,
                              operator_string, pfaffians)

KIND = {"A": A, "B": B}


def pfaffian(mat):
    """Reference Pfaffian of one even-dimensional antisymmetric matrix.

    Parlett-Reid tridiagonalization with partial pivoting on a copy, one
    step at a time; the batched `pfaffians` is checked against it.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    val = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        piv = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if a[piv, k] == 0.0:
            return 0.0 + 0.0j
        if piv != k + 1:
            a[[k + 1, piv], :] = a[[piv, k + 1], :]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            val = -val
        val *= a[k, k + 1]
        w = a[k + 2:, k] / a[k + 1, k]
        v = a[k + 1, k + 2:]
        a[k + 2:, k + 2:] += np.outer(v, w) - np.outer(w, v)
    return val * a[n - 2, n - 1] if n else val


def pf(mat):
    """`pfaffians` of the single matrix mat."""
    return pfaffians(np.array(mat, dtype=complex)[None])[0]


def pfaffian_checked(a, rtol=1e-9):
    """`pfaffians` of the stack a (count, n, n), left intact, with the
    pf^2 = det consistency check on every member.

    Raises NumericalHealthError when a relative residual exceeds rtol.
    """
    a = np.asarray(a, dtype=complex)
    pf = pfaffians(a.copy())
    det = np.linalg.det(a)
    scale = np.maximum(np.maximum(np.abs(det), np.abs(pf) ** 2), 1e-300)
    residual = np.abs(pf * pf - det) / scale
    if np.any(residual > rtol):
        raise NumericalHealthError(
            f"pfaffian^2 vs det residual {residual.max():.3e} exceeds "
            f"{rtol:.1e}")
    return pf


def spin_correlator(contractions, alpha, beta, l, m):
    """g^{alpha beta}_{lm} read off the pair's column at a one-time block."""
    column = bundles(contractions, [(l, m)])[0, 0]
    return column[COMPONENTS.index((alpha, beta))]


def vacuum_matrix(contractions, kinds, sites):
    """Contraction matrix of one string, assembled entry by entry."""
    n = len(kinds)
    mat = np.zeros((n, n), dtype=complex)
    vac = contractions.vacuum if contractions.is_modified else contractions
    for p in range(n):
        for q in range(p + 1, n):
            mat[p, q] = vac.pair(KIND[kinds[p]], sites[p],
                                 KIND[kinds[q]], sites[q])[0]
    return mat - mat.T


def string_expectation_rowrep(contractions, kinds, sites):
    """Reference for a Bell seed's rank-two route: the row-replacement
    expansion of the same string expectation.

    The modification mmod has rank two, so pf(mvac + mmod) expands into
    pf(mvac) plus one Pfaffian per row s: the vacuum matrix with the part
    of row s right of the diagonal taken from mmod and the part of column
    s above the diagonal set to zero.
    """
    mvac = vacuum_matrix(contractions, kinds, sites)
    if not contractions.is_modified:
        return pfaffian(mvac)
    n = len(kinds)
    bra, ket = contractions.bra_ket([KIND[k] for k in kinds], sites)
    mmod = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for q in range(p + 1, n):
            mmod[p, q] = (bra[0, p] * ket[0, q]
                          - bra[0, q] * ket[0, p]) / contractions.n2
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
    assert np.array_equal(pfaffians(np.zeros((2, 0, 0), dtype=complex)),
                          [1.0, 1.0])
    with pytest.raises(ValueError):
        pfaffians(np.zeros((2, 3, 3), dtype=complex))


def hadamard_scale(stack):
    """sqrt(prod of row norms) >= |pf| per matrix (Hadamard's bound)."""
    return np.sqrt(np.prod(np.linalg.norm(stack, axis=-1), axis=-1))


def assert_matches_scalar(stack):
    # same steps as the scalar routine, but numpy's complex products in
    # stacked loops may round differently, so agreement is to roundoff on
    # the scale of the matrix entries, not bit for bit
    batched = pfaffians(stack.copy())
    scalar = np.array([pfaffian(m) for m in stack])
    assert batched.shape == (len(stack),)
    assert np.all(np.abs(batched - scalar)
                  <= 1e-12 * np.maximum(hadamard_scale(stack), 1.0))
    assert np.array_equal(batched == 0.0, scalar == 0.0)


def random_stack(count, n, rng):
    a = (rng.standard_normal((count, n, n))
         + 1j * rng.standard_normal((count, n, n)))
    return a - a.transpose(0, 2, 1)


@pytest.mark.parametrize("n", range(0, 34, 2))
def test_batched_matches_scalar(n):
    rng = np.random.default_rng(100 + n)
    stack = random_stack(6, n, rng)
    if n >= 4:
        # member 1 keeps every pivot in place (dominant (k+1, k) entries),
        # while random members swap rows; members 2 and 3 have an exactly
        # zero pivot column at the first and the second step
        for k in range(0, n, 2):
            stack[1, k + 1, k], stack[1, k, k + 1] = 1e3, -1e3
        stack[2, :, 0] = stack[2, 0, :] = 0.0
        stack[3, :, 2] = stack[3, 2, :] = 0.0
    assert_matches_scalar(stack)
    if n >= 4:
        assert np.all(pfaffians(stack)[2:4] == 0.0)


@given(st.integers(0, 8), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_batched_matches_scalar_property(half, count, seed, zero_line):
    rng = np.random.default_rng(seed)
    stack = random_stack(count, 2 * half, rng)
    if zero_line and half:
        member, line = rng.integers(count), rng.integers(2 * half)
        stack[member, line, :] = stack[member, :, line] = 0.0
    assert_matches_scalar(stack)


def test_closed_form_2x2():
    a = np.array([[0.0, 7.0], [-7.0, 0.0]])
    assert pf(a) == 7.0


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
        value = pf(a)
        assert value == m01 * m23 - m02 * m13 + m03 * m12
        assert value * value == round(np.linalg.det(a).real)


def test_small_blocks_agree_with_elimination():
    # embed a 4x4 in a block-diagonal 6x6 so the general elimination path
    # evaluates it; pf(M + decoupled pair) = pf(M) * pair entry
    rng = np.random.default_rng(12)
    four = random_antisymmetric(4, rng, complex_entries=True)
    big = np.zeros((6, 6), dtype=complex)
    big[:4, :4] = four
    big[4, 5], big[5, 4] = 1.0, -1.0
    assert np.isclose(pf(big), pf(four), rtol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16, 20])
def test_square_is_determinant(n):
    rng = np.random.default_rng(n)
    for complex_entries in (False, True):
        a = random_antisymmetric(n, rng, complex_entries)
        value = pf(a)
        assert np.isclose(value * value, np.linalg.det(a), rtol=1e-9)


def test_permutation_congruence():
    # pf(P M P^T) = det(P) pf(M)
    rng = np.random.default_rng(3)
    a = random_antisymmetric(8, rng)
    perm = rng.permutation(8)
    p = np.eye(8)[perm]
    assert np.isclose(pf(p @ a @ p.T), np.linalg.det(p) * pf(a), rtol=1e-10)


def test_checked_passes_on_clean_input():
    rng = np.random.default_rng(5)
    stack = np.array([random_antisymmetric(10, rng, complex_entries=True)
                      for _ in range(3)])
    kept = stack.copy()
    assert np.array_equal(pfaffian_checked(stack), pfaffians(kept.copy()))
    assert np.array_equal(stack, kept)
    broken = stack.copy()
    broken[1, 0, 1] += 1.0  # no longer antisymmetric: pf^2 != det
    with pytest.raises(NumericalHealthError, match="det residual"):
        pfaffian_checked(broken)


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


@pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (1.0, 0.5)])
def test_vacuum_correlators_match_ring(gamma, lam):
    t = 1.0
    p = ModelParams(lam=lam, gamma=gamma)
    con = correlators.vacuum_contractions(p, t)
    ws = oracle.OracleWorkspace(12, gamma, lam)
    ring = oracle.RingState(ws, evolve(ws, ws.vacuum(), t))
    pairs = ((0, 1), (0, 2))
    refs = ring_columns(ring.pair_entries(*zip(*pairs)))
    for (alpha, beta), col in zip(COMPONENTS[:3], refs.T):
        for (l, m), ref in zip(pairs, col):
            ana = spin_correlator(con, alpha, beta, l, m)
            assert np.isclose(ana, ref, atol=2e-4), (alpha, beta, l, m)
    assert np.isclose(magnetization(con, 0),
                      selftest.ring_magnetizations(ring, [0])[0], atol=2e-4)


def test_bell_correlators_match_ring():
    gamma, lam, t = 0.5, 1.0, 1.0
    p = ModelParams(lam=lam, gamma=gamma)
    con = correlators.bell_contractions(p, t, 1, 2)
    ws = oracle.OracleWorkspace(12, gamma, lam)
    ring = oracle.RingState(ws, evolve(ws, ws.psi_bell(1, 2, np.pi), t))
    pairs = ((1, 2), (0, 2), (2, 3))
    refs = ring_columns(ring.pair_entries(*zip(*pairs)))
    for (alpha, beta), col in zip(COMPONENTS[:4], refs.T):
        for (l, m), ref in zip(pairs, col):
            ana = spin_correlator(con, alpha, beta, l, m)
            assert np.isclose(ana, ref, atol=2e-4), (alpha, beta, l, m)
    for l, ref in enumerate(selftest.ring_magnetizations(ring, [0, 1, 2])):
        assert np.isclose(magnetization(con, l), ref, atol=2e-4)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("gamma,lam", [(0.5, 1.0), (1.0, 0.5), (1.5, 0.8)])
@pytest.mark.parametrize("kind", ["vacuum", "bell"])
def test_finite_ring_route_matches_oracle_exactly(n, gamma, lam, kind):
    # on the oracle's own ring, summed over the momenta of the state's
    # parity sector, the Pfaffian route describes the same system: every
    # pair l < m and every site agree to roundoff, also after the front
    # has wrapped around the ring (lam * t = 3.1 > n / 2 - 2 at n = 8)
    p = ModelParams(lam=lam, gamma=gamma, size=n)
    ws = oracle.OracleWorkspace(n, gamma, lam)
    pairs = [(l, m) for l in range(n) for m in range(l + 1, n)]
    for t in (0.7, 3.1 / lam):
        if kind == "vacuum":
            con, state = correlators.vacuum_contractions(p, t), ws.vacuum()
        else:
            con = correlators.bell_contractions(p, t, 1, 2, amp=-1.0)
            state = ws.psi_bell(1, 2, np.pi)
        ring = oracle.RingState(ws, evolve(ws, state, t))
        refs = ring_columns(ring.pair_entries(*zip(*pairs)))
        diff = np.abs(bundles(con, pairs)[0, :, :len(COMPONENTS)] - refs)
        assert np.max(diff) <= 1e-10, (t, np.unravel_index(diff.argmax(),
                                                           diff.shape))
        mz, = magnetization(con, np.arange(n))
        diff = np.abs(mz - selftest.ring_magnetizations(ring, range(n)))
        assert np.max(diff) <= 1e-10, (t, diff.argmax())


def test_bell_seed_evaluates_one_matrix_per_string(monkeypatch):
    # a pair at separation 3 has four 6-operator strings and one 4-operator
    # string (zz); a Bell seed evaluates exactly those, as a vacuum would
    shapes = []

    def recording(stack):
        shapes.append(stack.shape)
        return pfaffians(stack)

    monkeypatch.setattr(pfaffian_module, "pfaffians", recording)
    p = ModelParams(lam=0.8, gamma=0.6)
    for con in (correlators.vacuum_contractions(p, 1.7),
                correlators.bell_contractions(p, 1.7, 1, 3, amp=0.6 - 0.8j)):
        shapes.clear()
        bundles(con, [(0, 3)])
        assert sorted(shapes) == [(1, 4, 4), (4, 6, 6)]


def test_distinct_site_correlators_are_real():
    # the imaginary part is a health indicator, kept below 1e-10
    p = ModelParams(lam=1.0, gamma=1.0)
    con = correlators.bell_contractions(p, 2.0, 0, 1)
    val = spin_correlator(con, "x", "x", 0, 4)
    assert isinstance(val, float)


def bundle_reference(con, l, m):
    """Row-replacement values of the bundle fields, one string at a time."""
    values = [spin_correlator_rowrep(con, alpha, beta, l, m)
              if l < m else spin_correlator_rowrep(con, beta, alpha, m, l)
              for alpha, beta in (("x", "x"), ("y", "y"), ("z", "z"),
                                  ("x", "y"), ("y", "x"))]
    mz = [-0.5 * con.pair(A, s, B, s)[0].real for s in (l, m)]
    return values + mz


@pytest.mark.parametrize("state", ["vacuum", "bell+1", "bell-1",
                                   "bell_complex", "ground"])
def test_bundles_match_rowrep_reference(state):
    p = ModelParams(lam=0.8, gamma=0.6)
    con = {
        "vacuum": lambda: correlators.vacuum_contractions(p, 1.7),
        "bell+1": lambda: correlators.bell_contractions(p, 1.7, 1, 2, amp=1.0),
        "bell-1": lambda: correlators.bell_contractions(p, 1.7, 0, 2,
                                                        amp=-1.0),
        "bell_complex": lambda: correlators.bell_contractions(
            p, 1.7, 1, 3, amp=0.6 - 0.8j),
        "ground": lambda: groundstate.gs_contractions(p, 8),
    }[state]()
    pairs = [(0, 1), (1, 3), (3, 1), (-1, 3), (2, 3), (4, 0), (-2, 2)]
    got = bundles(con, pairs)
    assert got.shape == (1, len(pairs), 7) and got.dtype == np.float64
    for (l, m), column in zip(pairs, got[0]):
        assert np.allclose(column, bundle_reference(con, l, m), rtol=0,
                           atol=1e-13), (state, l, m)


def test_bundles_empty_and_invalid():
    con = correlators.vacuum_contractions(ModelParams(lam=1.0, gamma=0.5), 1.0)
    assert bundles(con, []).shape == (1, 0, 7)
    assert magnetization(con, []).shape == (1, 0)
    with pytest.raises(ValueError):
        bundles(con, [(0, 1), (2, 2)])


def test_bundles_raise_past_table_radius():
    p = ModelParams(lam=1.0, gamma=0.5)
    vac = correlators.VacuumContractions(p, 1.0, 3)
    bundles(vac, [(0, 3)])
    with pytest.raises(CutoffError):
        bundles(vac, [(0, 1), (0, 4)])
    bell = correlators.bell_contractions(p, 1.0, 0, 1)
    far = bell.vacuum.radius + 1
    with pytest.raises(CutoffError):
        bundles(bell, [(0, 1), (far, far + 1)])


def test_bundles_raise_on_imaginary_residue():
    p = ModelParams(lam=0.8, gamma=0.6)
    clean = groundstate.gs_contractions(p, 6)
    table = -clean.pair(A, 0, B, np.arange(-6, 7))[0].real  # G(r)
    quiet = groundstate.pair_tables(table + 1e-13j)
    bundles(quiet, [(0, 1), (0, 3)])
    noisy = groundstate.pair_tables(table + 1e-6j)
    with pytest.raises(NumericalHealthError, match="imaginary residue"):
        bundles(noisy, [(0, 1), (0, 3)])


def test_singlet_time_step_batches_its_pairs(monkeypatch):
    config = scenarios.parse_config_text("""
    model.lambda = 1.0
    model.gamma = 0.5
    scenario.kind = singlet_on_vacuum
    scenario.i = 0
    scenario.j = 1
    grid.t_start = 0.0
    grid.t_stop = 2.0
    grid.dt = 1.0
    grid.x_start = -8
    grid.x_stop = 8
    measures.list = concurrence, one_tangle, total_concurrence, ckw_residual
    measures.concurrence_distance = 3
    """)
    calls = []

    def counting_bundles(contractions, pairs):
        calls.append(list(pairs))
        return bundles(contractions, pairs)

    monkeypatch.setattr(scenarios, "bundles", counting_bundles)
    blocks = list(scenarios.AnalyticEngine(config).views(config.times()))
    assert [times for times, _, _ in blocks] == [[0.0, 1.0, 2.0]]
    (times, view, baseline), = blocks
    columns = dict(scenarios.measure_rows(config, view, baseline, times))
    assert len(columns) == 4
    assert all(np.shape(values) == (3, 17) for values in columns.values())
    # per block: at most two bundles calls, and no pair evaluated twice
    assert len(calls) <= 2
    evaluated = [pair for call in calls for pair in call]
    assert len(evaluated) == len(set(evaluated))
    for k, t in enumerate(times):
        con = correlators.bell_contractions(config.params, t, 0, 1)
        pairs = bundles(con, [(x, x + 3) for x in config.sites()])
        ref = scenarios.measures.concurrence_closed(
            scenarios.measures.x_entries(pairs))
        assert np.array_equal(ref[0], columns["concurrence"][k])


BLOCK_PAIRS = [(0, 1), (1, 3), (3, 1), (-1, 3), (2, 3), (4, 0), (-2, 5),
               (6, -1)]


@pytest.mark.parametrize("state", ["vacuum", "bell+1", "bell-1"])
@pytest.mark.parametrize("chunk", [3, 128])
def test_block_columns_equal_one_time_blocks(monkeypatch, state, chunk):
    # every time of a block, its own ring sum padded to the block's widest
    # table, gives the columns of a block of that time alone bit for bit,
    # also when a stack holds one string at every time (chunk 3 < 5 times)
    monkeypatch.setattr(pfaffian_module, "STACK_CHUNK", chunk)
    p = ModelParams(lam=0.8, gamma=0.6)
    make = {
        "vacuum": lambda ts: correlators.vacuum_contractions(p, ts),
        "bell+1": lambda ts: correlators.bell_contractions(p, ts, 1, 2,
                                                           amp=1.0),
        "bell-1": lambda ts: correlators.bell_contractions(p, ts, 0, 3,
                                                           amp=-1.0),
    }[state]
    times = [0.0, 0.4, 1.7, 5.0, 31.0]
    block = make(times)
    radii = correlators.vacuum_contractions(p, times).radii
    assert len(set(radii)) == len(times)
    got = bundles(block, BLOCK_PAIRS)
    assert got.shape == (len(times), len(BLOCK_PAIRS), 7)
    for k, t in enumerate(times):
        alone = make(t)
        assert np.array_equal(got[k], bundles(alone, BLOCK_PAIRS)[0]), t
        sites = np.arange(-3, 6)
        assert np.array_equal(magnetization(block, sites)[k],
                              magnetization(alone, sites)[0])


def test_ground_state_block_broadcasts_over_every_time():
    # the ground state is one stationary time: its columns have one row,
    # and a run over a grid repeats the values of a one-time grid exactly
    p = ModelParams(lam=0.8, gamma=0.6)
    ground = groundstate.gs_contractions(p, 8)
    assert bundles(ground, BLOCK_PAIRS).shape == (1, len(BLOCK_PAIRS), 7)
    text = """
    model.lambda = 0.8
    model.gamma = 0.6
    scenario.kind = ground_state_equilibrium
    grid.t_start = 0.0
    grid.t_stop = {stop}
    grid.dt = 0.5
    grid.x_start = 0
    grid.x_stop = 3
    measures.list = concurrence, one_tangle, entropy2, ckw_residual
    """
    one = scenarios.run_scenario(scenarios.parse_config_text(
        text.format(stop=0.0)))
    many = scenarios.run_scenario(scenarios.parse_config_text(
        text.format(stop=2.0)))
    for name, values in many[2].items():
        assert values.shape == (5, 4)
        assert np.array_equal(values, np.repeat(one[2][name], 5, axis=0))


@pytest.mark.parametrize("kind", ["vacuum", "bell"])
def test_block_cutoff_names_the_earliest_short_time(kind):
    # radii 3 then 6: a separation of 5 lies past the earlier time's own
    # radius, and the padding of its table never answers for it
    p = ModelParams(lam=1.0, gamma=0.5)
    if kind == "vacuum":
        block = correlators.VacuumContractions(p, [1.0, 2.0], [3, 6])
        bundles(block, [(0, 3)])
    else:
        block = correlators.BellContractions(p, [1.0, 2.0], [3, 6], 0, 1)
        bundles(block, [(-1, 1), (0, 3)])
    with pytest.raises(CutoffError, match="radius [34] exceeded at "
                       "separation -?5 at t=1$"):
        bundles(block, [(0, 1), (0, 5)])
    later = correlators.VacuumContractions(p, [2.0], [6])
    bundles(later, [(0, 5)])


def test_block_imaginary_residue_names_pair_and_time():
    p = ModelParams(lam=0.8, gamma=0.6)
    block = correlators.vacuum_contractions(p, [1.0, 2.0])
    bundles(block, [(0, 1), (0, 3)])
    block._tables[1] += 1e-6j  # noise at t = 2 only
    with pytest.raises(NumericalHealthError,
                       match=r"^g_xx\(0,1\) at t=2 has imaginary residue"):
        bundles(block, [(0, 1), (0, 3)])
    with pytest.raises(NumericalHealthError,
                       match=r"^mz\(4\) at t=2 has imaginary residue"):
        magnetization(block, [4, 5])
