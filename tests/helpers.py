"""Shared test utilities: random physical two-site states in X form, and
reference routines that more than one test module checks against."""

import math
from dataclasses import dataclass

import numpy as np

from xychain import correlators, isotropic, measures, oracle, scenarios
from xychain.bessel import bessel_rows
from xychain.correlators import A, B
from xychain.model import LIGHT_CONE_PAD, momentum_grid


def ring_tables_reference(params, t, radius, sector):
    """V, E, O, <A_0 B_r> and <A_0 A_r> on |r| <= radius as direct cosine
    and sine sums over the ring momenta k_m = pi q_m / M of the sector,
    each angle k_m r reduced exactly as the integer q_m r mod 2M.  The
    integrands are evaluated as the engine evaluates them, so that only
    the summation differs."""
    rs = np.arange(-radius, radius + 1)
    n = (params.size if params.is_finite
         else correlators.ring_size(params, t, radius))
    k = momentum_grid(n, sector)
    angle = np.pi / n * (np.outer(rs, np.rint(k * n / np.pi)) % (2 * n))
    cos, sin = np.cos(angle), np.sin(angle)
    e = 1.0 + params.lam * np.cos(k)
    s = params.lam * params.gamma * np.sin(k)
    lam_k = np.hypot(e, s)
    sinc_t = t * np.sinc(lam_k * t / np.pi)
    v, ue, uo = np.cos(lam_k * t), e * sinc_t, s * sinc_t
    delta = (rs == 0).astype(float)
    return (cos @ v / n, cos @ ue / n, sin @ uo / n,
            delta - 2.0 / n * (cos @ (uo * uo) + sin @ (ue * uo)),
            delta - 2j / n * (sin @ (v * uo)))


def grid_rows(grid):
    """The rows (name, x, t, value) of a ``run_scenario`` grid, sorted by
    name, x, then t: the rows ``write_csv`` prints."""
    times, sites, columns = grid
    return [(name, x, t, value) for name in sorted(columns)
            for x, column in zip(sites, columns[name].T.tolist())
            for t, value in zip(times, column)]


def evolve(ws, vecs, t):
    """The components ``vecs`` of an oracle state evolved to time t."""
    return next(ws.evolve_grid(vecs, [t]))


def random_x_entries(rng, edge=False):
    """Random physical X-state entries (a, b, x, y, c, z): the populations
    of uu, dd, ud, du and the uu/dd and ud/du coherences.

    Populations come from a Dirichlet draw; the two coherences are placed
    inside their positivity disks |c| <= sqrt(ab), |z| <= sqrt(xy).
    With edge=True they sit exactly on the boundary (rank-deficient state).
    """
    uu, ud, du, dd = rng.dirichlet(np.ones(4))
    r_c = 1.0 if edge else rng.uniform(0.0, 1.0)
    r_z = 1.0 if edge else rng.uniform(0.0, 1.0)
    c = r_c * np.sqrt(uu * dd) * np.exp(2j * np.pi * rng.uniform())
    z = r_z * np.sqrt(ud * du) * np.exp(2j * np.pi * rng.uniform())
    return uu, dd, ud, du, c, z


def random_x_bundle(rng, edge=False):
    """Random physical X-structured two-site state (`random_x_entries`) as
    a correlator column (`measures.COLUMNS`)."""
    uu, dd, ud, du, c, z = random_x_entries(rng, edge)
    gzz = (uu + dd - ud - du) / 4.0
    mz_mean = (uu - dd) / 2.0
    mz_diff = (ud - du) / 2.0
    gxx = (c + z).real / 2.0
    gyx = -(c + z).imag / 2.0
    gyy = (z - c).real / 2.0
    gxy = (z - c).imag / 2.0
    return np.array([gxx, gyy, gzz, gxy, gyx, mz_mean + mz_diff,
                     mz_mean - mz_diff])


def x_matrix(entries):
    """The X-form density matrices (..., 4, 4), basis (uu, ud, du, dd), of
    entries (a, b, x, y, c, z) that broadcast together."""
    a, b, x, y, c, z = entries
    rho = np.zeros(np.broadcast(a, b, x, y, c, z).shape + (4, 4),
                   dtype=complex)
    for k, m, v in ((0, 0, a), (1, 1, x), (2, 2, y), (3, 3, b), (0, 3, c),
                    (1, 2, z)):
        rho[..., k, m], rho[..., m, k] = v, np.conj(v)
    return rho


_YY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def wootters_reference(rho):
    """Wootters' concurrence of any two-qubit density matrix, or of each of
    a stack (..., 4, 4), from the eigenvalues of rho (sigma_y x sigma_y)
    rho* (sigma_y x sigma_y) by a general eigensolver.  Eigenvalues below
    1e-12 of the largest count as 0: a non-semisimple zero block puts
    sqrt(eps) noise on them."""
    rho = np.asarray(rho, dtype=complex)
    evals = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY)
    assert np.max(np.abs(evals.imag), initial=0.0) < 1e-8
    vals = np.clip(evals.real, 0.0, None)
    vals[vals < 1e-12 * vals.max(axis=-1, keepdims=True)] = 0.0
    roots = np.sort(np.sqrt(vals), axis=-1)
    return np.maximum(0.0, 2.0 * roots[..., -1] - roots.sum(axis=-1))


def ring_columns(entries):
    """Correlator columns (..., 5), ordered as `pfaffian.COMPONENTS`, of X
    entries: the inverse of `measures.x_entries`."""
    a, b, _, _, c, z = entries
    return np.stack([(c + z).real / 2, (z - c).real / 2, (a + b) / 2 - 0.25,
                     (z.imag - c.imag) / 2, -(c.imag + z.imag) / 2], axis=-1)


def ring_magnetizations(ring, sites):
    """<S^z> of each site of an `oracle.RingState`, (up - down)/2."""
    up, down = ring.site_populations(sites).T
    return (up - down) / 2


def bell_fidelity(rho, family, phi):
    """Overlap with (first + e^{i phi} second)/sqrt(2) of the given family."""
    rho = np.asarray(rho, dtype=complex)
    if family == "psi":
        diag = 0.5 * (rho[1, 1].real + rho[2, 2].real)
        coh = rho[1, 2]
    elif family == "phi":
        diag = 0.5 * (rho[0, 0].real + rho[3, 3].real)
        coh = rho[0, 3]
    else:
        raise ValueError(f"unknown Bell family {family!r}")
    return diag + (np.exp(1j * phi) * np.conj(coh)).real


def bessel_j(n, x):
    """J_n(x) for integer n (either sign), 0 <= x <= 2000, read off one
    ladder; negative orders use J_{-n}(x) = (-1)^n J_n(x)."""
    sign = -1.0 if n < 0 and n % 2 else 1.0
    return sign * bessel_rows([abs(n)], [x])[0, abs(n)]


def binary_entropy(p):
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ValueError(f"probability {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def norm_defect(state):
    """|1 - sum |w|^2| of a one-particle state."""
    return abs(1.0 - float(np.sum(np.abs(state.amps) ** 2)))


def single_source_packet(i, t, lam, pad=LIGHT_CONE_PAD):
    """Evolved single insertion c_i^dag |vac>, its window widened by
    PAD_STEP until the norm defect is within NORM_DEFECT_TOL."""
    lam_t = abs(lam) * t
    while True:
        radius = math.ceil(lam_t) + pad
        ladder = isotropic._ladder(bessel_rows([radius], [lam_t])[0])
        state = isotropic.SingleParticleState(start=int(i - radius),
                                              amps=ladder)
        if norm_defect(state) <= isotropic.NORM_DEFECT_TOL:
            return state
        pad += isotropic.PAD_STEP


def orbital_states(i, j, t, lam):
    """The two one-particle orbitals the pair seed on sites i, j at time t
    is built from, seeded at i and at j."""
    return single_source_packet(i, t, lam), single_source_packet(j, t, lam)


@dataclass(frozen=True)
class PhiCoefficients:
    """X-matrix entries of a pair-seed reduced state on sites n < m."""

    a: float
    b: float
    x: float
    y: float
    c: complex
    z: complex

    def branches(self):
        """Competing concurrence branches 2(|c|-sqrt(xy)), 2(|z|-sqrt(ab))."""
        b1, b2 = measures.concurrence_branches(
            (self.a, self.b, self.x, self.y, self.c, self.z))
        return float(b1), float(b2)

    def concurrence(self):
        b1, b2 = self.branches()
        return max(0.0, b1, b2)

    def active_branch(self):
        """'pair' when the uu/dd coherence branch dominates, else
        'exchange'."""
        b1, b2 = self.branches()
        return "pair" if b1 >= b2 else "exchange"


def coefficients(phi_state, n, m):
    """PhiCoefficients of the ordered pair n < m of a pair-seed state."""
    a, b, x, y, c, z = phi_state.pair_entries(n, m)
    return PhiCoefficients(a=float(a), b=float(b), x=float(x), y=float(y),
                           c=complex(c), z=complex(z))


def majorana_pair(ws, vecs, kind_l, l, kind_m, m):
    """<X_l Y_m> on an oracle state, X, Y in {A, B} with
    A_l = c_l^dag + c_l and B_l = c_l^dag - c_l, from the signed index
    permutation of c_l^dag (its transpose is c_l)."""

    def apply(kind, site, v):
        perm, sign = oracle._jw_raising(ws.n, site % ws.n)
        raised, lowered = sign * v[perm], (sign * v)[perm]
        return raised + lowered if kind == "A" else raised - lowered

    return complex(sum(np.vdot(v, apply(kind_l, l, apply(kind_m, m, v)))
                       for v in vecs))


def expectation(con, kind_l, l, kind_m, m):
    """<X_l Y_m>, (times, ...), of a state from its real K (`correlators`):
    i^(1 + X + Y) K(l, m) for kind codes X, Y, plus A_l^2 = 1 or
    B_l^2 = -1 when it is the same operator on the same site.  The
    arguments broadcast."""
    kind_l, l, kind_m, m = np.broadcast_arrays(kind_l, l, kind_m, m)
    k = np.moveaxis(con.entries(np.stack([kind_l, kind_m]),
                                np.stack([l, m]))[0], -1, 0)
    same = (l == m) & (kind_l == kind_m)
    return 1j ** (1 + kind_l + kind_m) * k + np.where(same, 1 - 2 * kind_l, 0)


def bra_ket(con, kind, site):
    """(bra, ket), (times, ...), of each operator X_site of a Bell seed, as
    the complex route formed them: sum_a conj(w_a) left_X(a) and
    sum_b w_b right_X(b) over both sources, with left_A = V - i (E - O),
    left_B = V - i (E + O), right_A = conj(left_A) and
    right_B = -conj(left_B) at x = source - site."""
    vac = con.vacuum
    kind, site = np.asarray(kind)[..., None], np.asarray(site)[..., None]
    at = np.subtract(con.sources, site) + vac.radius
    v, e, o = vac.v_table[:, at], vac.e_table[:, at], vac.o_table[:, at]
    is_a = kind == A
    eo = np.where(is_a, e - o, e + o)
    ket = v + 1j * eo
    return ((v - 1j * eo) @ np.conj(con.weights),
            np.where(is_a, ket, -ket) @ np.array(con.weights))


def pfaffians_row_major(a):
    """Pfaffians of a stack a (count, n, n), overwritten: the batched
    Parlett-Reid elimination laid out row-major, one matrix per leading
    index, with whole-row and whole-column swaps and the update
    v w^T - w v^T formed in fresh stack-sized temporaries.  The stack-last
    `pfaffian.pfaffians` runs the same scalar operations in the same
    order, so it must give these bits."""
    count, n = a.shape[0], a.shape[2]
    if n == 0:
        return np.ones(count, dtype=a.dtype)
    if n == 2:
        return a[:, 0, 1].copy()
    if n == 4:
        return (a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3]
                + a[:, 0, 3] * a[:, 1, 2])
    val = np.ones(count, dtype=a.dtype)
    for k in range(0, n - 2, 2):
        piv = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        swap = np.flatnonzero(piv != k + 1)
        if swap.size:
            p = piv[swap]
            a[swap, k + 1], a[swap, p] = a[swap, p], a[swap, k + 1]
            a[swap, :, k + 1], a[swap, :, p] = a[swap, :, p], a[swap, :, k + 1]
            val[swap] = -val[swap]
        pivot = a[:, k + 1, k]
        val *= a[:, k, k + 1]
        w = a[:, k + 2:, k] / np.where(abs(pivot) < 1e-300, 1, pivot)[:, None]
        v = a[:, k + 1, k + 2:]
        a[:, k + 2:, k + 2:] += (v[:, :, None] * w[:, None, :]
                                 - w[:, :, None] * v[:, None, :])
    return val * a[:, n - 2, n - 1]


def expectations_row_major(contractions, kinds, sites, triangle):
    """`pfaffian._expectations` on full (times, count, n, n) real stacks:
    the upper triangle (p, q) from the state's (pairs, count, times)
    `entries`, the lower one its negative, and `pfaffians_row_major`."""
    n = kinds.shape[1]
    p, q = triangle
    upper = contractions.entries(kinds.T, sites.T).T
    mats = np.zeros(upper.shape[:2] + (n, n))
    mats[..., p, q] = upper
    mats[..., q, p] = -upper
    return pfaffians_row_major(mats.reshape(-1, n, n)).reshape(upper.shape[:2])


def expectations_complex(contractions, kinds, sites, triangle):
    """The complex route's `pfaffian._expectations`, kept as a reference:
    the vacuum's complex pair matrix M (`expectation`), a Bell seed's
    update (bra_p ket_q - bra_q ket_p) / n2 (`bra_ket`) added to each
    triangle in its own operand order, and complex row-major Pfaffians
    pf(M), returned as the real part of pf(M) / i^(n/2 + n_B) = pf(K)."""
    n = kinds.shape[1]
    p, q = triangle
    vac = getattr(contractions, "vacuum", contractions)
    upper = expectation(vac, kinds[:, p], sites[:, p], kinds[:, q],
                        sites[:, q])
    lower = -upper
    if vac is not contractions:
        bra, ket = bra_ket(contractions, kinds, sites)
        for tri, r, c in ((upper, p, q), (lower, q, p)):
            tri += (bra[..., r] * ket[..., c]
                    - ket[..., r] * bra[..., c]) / contractions.n2
    mats = np.zeros(upper.shape[:2] + (n, n), dtype=complex)
    mats[..., p, q], mats[..., q, p] = upper, lower
    pf = pfaffians_row_major(mats.reshape(-1, n, n)).reshape(upper.shape[:2])
    return (pf / 1j ** (n // 2 + kinds.sum(axis=1))).real


def magnetization_complex(contractions, sites):
    """The complex route's `pfaffian.magnetization`: -(1/2) Re <A_l B_l>,
    a Bell seed's update from its `bra_ket`."""
    sites = np.asarray(sites, dtype=int)
    vac = getattr(contractions, "vacuum", contractions)
    pair = expectation(vac, A, sites, B, sites)
    if vac is not contractions:
        kinds = np.stack([np.full(sites.shape, A), np.full(sites.shape, B)])
        bra, ket = bra_ket(contractions, kinds, np.stack([sites, sites]))
        pair = pair + (bra[:, 0] * ket[:, 1] - bra[:, 1] * ket[:, 0]) / (
            contractions.n2)
    return -0.5 * pair.real


def same_bits(x, y):
    """x and y hold the same float64 or complex128 bits, signed zeros
    included (== would take -0.0 for 0.0)."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and x.dtype == y.dtype
            and x.tobytes() == y.tobytes())


def ladder_blocks_greedy(lengths):
    """`scenarios._ladder_blocks` as a loop over the ladders: a block grows
    while 8 x its ladders x its longest (at least 1) stays within
    WINDOW_BLOCK_BYTES, and the last block takes the rest."""
    start = longest = 0
    for k, n in enumerate(lengths):
        longest = max(longest, n, 1)
        if (k > start and 8 * (k + 1 - start) * longest
                > scenarios.WINDOW_BLOCK_BYTES):
            yield slice(start, k)
            start, longest = k, max(n, 1)
    yield slice(start, len(lengths))
