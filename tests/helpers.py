"""Shared test utilities: random physical two-site states in X form, and
reference routines that more than one test module checks against."""

import math
from dataclasses import dataclass

import numpy as np

from xychain import isotropic, measures, oracle
from xychain.bessel import bessel_rows
from xychain.model import LIGHT_CONE_PAD


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
