"""Exact-diagonalization oracle on small rings.

Everything the analytic machinery computes in closed form is recomputed here
by brute force on rings of up to 12 sites: build the spin Hamiltonian as a
sparse matrix and never form it densely.  States evolve through the action
of the matrix exponential on a vector (scaled truncated Taylor series,
``scipy.sparse.linalg.expm_multiply``; Al-Mohy & Higham, SIAM J. Sci.
Comput. 33:488, 2011).  The ground state comes from a sparse Lanczos solve
in each of the two fermion-parity sectors, which H never mixes (Lieb,
Schultz & Mattis 1961); the lower of the two wins, since on a finite ring
either sector can hold it.  Reduced density matrices are partial traces.
This module deliberately shares no formulas with the analytic path beyond
the Hamiltonian itself; agreement between the two is the main correctness
argument of the package.

Conventions: site 0 is the most significant qubit in the tensor product,
index 0 within a site is spin up, so the all-down vacuum is the last basis
vector.  The Jordan-Wigner string runs over sites below the operator site,
c_l = (prod_{s<l} -2 Sz_s) S^-_l, which makes c_a^dag c_b^dag |vac> =
+|up_a up_b> for a < b.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from . import measures

MAX_SITES = 12

# expm_multiply sizes its Taylor series from the exact 1-norm of t*H only
# while that norm is at most 2*ell*p_max*(p_max + 3) * theta_55 / 55 = 63.36
# (condition 3.13 of Al-Mohy & Higham); past it, scipy's onenormest draws
# from NumPy's global random state.  Steps below that bound stay off it.
EXACT_NORM_STEP = 60.0


@functools.lru_cache(maxsize=4)
def _site_ops(n):
    """Sparse (sx, sy, sz) for every site of an n-site register."""
    sx = sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    sy = sp.csr_matrix(np.array([[0.0, -0.5j], [0.5j, 0.0]]))
    sz = sp.csr_matrix(np.array([[0.5, 0.0], [0.0, -0.5]]))
    ops = []
    for l in range(n):
        left = sp.identity(2 ** l, format="csr")
        right = sp.identity(2 ** (n - l - 1), format="csr")
        ops.append(tuple(
            sp.kron(sp.kron(left, s), right, format="csr")
            for s in (sx, sy, sz)))
    return tuple(ops)


@functools.lru_cache(maxsize=4)
def _jw_raising(n):
    """Sparse c_l^dag for every site."""
    ops = _site_ops(n)
    out = []
    for l in range(n):
        sx, sy, _ = ops[l]
        cdag = (sx + 1j * sy).tocsr()
        for s in range(l):
            cdag = cdag @ (-2.0 * ops[s][2])
        out.append(cdag.tocsr())
    return tuple(out)


def build_hamiltonian(n, gamma, lam):
    """Sparse spin Hamiltonian of the periodic n-site ring (real symmetric)."""
    ops = _site_ops(n)
    h = sp.csr_matrix((2 ** n, 2 ** n))
    for l in range(n):
        m = (l + 1) % n
        h = h - lam * (1.0 + gamma) * (ops[l][0] @ ops[m][0]).real
        h = h - lam * (1.0 - gamma) * (ops[l][1] @ ops[m][1]).real
        h = h - ops[l][2]
    return h.real.tocsr()


def majorana_ops(n, l):
    """Sparse (A_l, B_l) = (c^dag + c, c^dag - c)."""
    cdag = _jw_raising(n)[l]
    c = cdag.conj().T.tocsr()
    return (cdag + c).tocsr(), (cdag - c).tocsr()


@functools.lru_cache(maxsize=8)
def workspace(n, gamma, lam):
    """Shared oracle for one parameter point."""
    return OracleWorkspace(int(n), float(gamma), float(lam))


def _sector_ground_state(h, sector):
    """Lowest (energy, vector) of H restricted to the basis indices given."""
    from scipy.sparse.linalg import eigsh

    block = h[sector][:, sector]
    # a fixed generic start vector: reproducible, and it overlaps every
    # symmetry sector of the block
    start = np.random.default_rng(0).standard_normal(len(sector))
    vals, vecs = eigsh(block, k=1, which="SA", tol=0, v0=start)
    return float(vals[0]), vecs[:, 0]


class OracleWorkspace:
    """Sparse ring Hamiltonian: exact states, evolution, and reductions."""

    def __init__(self, n, gamma, lam):
        if n < 4 or n > MAX_SITES:
            raise ConfigError(
                f"oracle ring size {n} outside [4, {MAX_SITES}]")
        self.n = n
        self.gamma = gamma
        self.lam = lam
        self.hamiltonian = build_hamiltonian(n, gamma, lam)
        self._norm1 = float(abs(self.hamiltonian).sum(axis=0).max())

    @functools.cached_property
    def _ground(self):
        """(energy, real vector) of the lower parity-sector ground state,
        found on first use."""
        index = np.arange(2 ** self.n)
        odd = np.array([bin(i).count("1") % 2 for i in index], dtype=bool)
        energy, vec, sector = min(
            (_sector_ground_state(self.hamiltonian, sector) + (sector,)
             for sector in (index[~odd], index[odd])),
            key=lambda found: found[0])
        full = np.zeros(2 ** self.n)
        full[sector] = vec
        return energy, full

    @property
    def ground_energy(self):
        return self._ground[0]

    def evolve(self, vec, t):
        if t == 0:
            return vec
        from scipy.sparse.linalg import expm_multiply

        steps = max(1, math.ceil(abs(t) * self._norm1 / EXACT_NORM_STEP))
        step = -1j * (t / steps) * self.hamiltonian
        for _ in range(steps):
            vec = expm_multiply(step, vec)
        return vec

    def evolve_components(self, vecs, t):
        return [self.evolve(v, t) for v in vecs]

    # -- state preparation ------------------------------------------------

    def vacuum(self):
        v = np.zeros(2 ** self.n, dtype=complex)
        v[-1] = 1.0
        return [v]

    def psi_bell(self, i, j, phi):
        cdag = _jw_raising(self.n)
        v = np.zeros(2 ** self.n, dtype=complex)
        v[-1] = 1.0
        out = (cdag[i] @ v + np.exp(1j * phi) * (cdag[j] @ v)) / math.sqrt(2)
        return [out]

    def phi_bell(self, i, j, phi):
        cdag = _jw_raising(self.n)
        v = np.zeros(2 ** self.n, dtype=complex)
        v[-1] = 1.0
        pair = cdag[i] @ (cdag[j] @ v)
        return [(v + np.exp(1j * phi) * pair) / math.sqrt(2)]

    def ground_state(self):
        return [self._ground[1].astype(complex)]

    def knitted_singlet(self, i, j):
        """Project sites (i, j) of the ground state onto each pair basis
        state and re-knit a fresh singlet in their place.

        Returns the unnormalized mixture components; their squared norms sum
        to one because the projectors resolve the identity.
        """
        if i == j:
            raise ValueError("knitting needs two distinct sites")
        (gs,) = self.ground_state()
        tensor = gs.reshape((2,) * self.n)
        tensor = np.moveaxis(tensor, (i, j), (0, 1))
        inv = 1.0 / math.sqrt(2.0)
        comps = []
        for mu in (0, 1):
            for nu in (0, 1):
                block = tensor[mu, nu]
                if float(np.vdot(block, block).real) < 1e-30:
                    continue
                new = np.zeros_like(tensor)
                new[0, 1] = inv * block
                new[1, 0] = -inv * block
                comps.append(np.moveaxis(new, (0, 1), (i, j)).reshape(-1))
        return comps

    # -- measurement ------------------------------------------------------

    def expect(self, vecs, op):
        total = 0.0 + 0.0j
        for v in vecs:
            total += np.vdot(v, op @ v)
        return total

    def expect_real(self, vecs, op, what="expectation"):
        val = self.expect(vecs, op)
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            raise measures.NumericalHealthError(
                f"oracle {what} has imaginary residue {val.imag:.3e}")
        return val.real

    def correlator(self, vecs, alpha, beta, l, m):
        idx = {"x": 0, "y": 1, "z": 2}
        ops = _site_ops(self.n)
        op = ops[l % self.n][idx[alpha]] @ ops[m % self.n][idx[beta]]
        return self.expect_real(vecs, op, f"g_{alpha}{beta}({l},{m})")

    def magnetization(self, vecs, l):
        return self.expect_real(vecs, _site_ops(self.n)[l % self.n][2],
                                f"mz({l})")

    def majorana_pair(self, vecs, kind_l, l, kind_m, m):
        al, bl = majorana_ops(self.n, l % self.n)
        am, bm = majorana_ops(self.n, m % self.n)
        first = al if kind_l == "A" else bl
        second = am if kind_m == "A" else bm
        return complex(self.expect(vecs, first @ second))

    def rho1(self, vecs, site):
        rho = np.zeros((2, 2), dtype=complex)
        for v in vecs:
            t = np.moveaxis(v.reshape((2,) * self.n), site % self.n, 0)
            t = t.reshape(2, -1)
            rho += t @ t.conj().T
        return rho

    def rho2(self, vecs, p, q):
        if p % self.n == q % self.n:
            raise ValueError("rho2 needs two distinct sites")
        rho = np.zeros((4, 4), dtype=complex)
        for v in vecs:
            t = np.moveaxis(v.reshape((2,) * self.n),
                            (p % self.n, q % self.n), (0, 1))
            t = t.reshape(4, -1)
            rho += t @ t.conj().T
        return rho

    def concurrence(self, vecs, p, q):
        return measures.concurrence_wootters(self.rho2(vecs, p, q))

    def one_tangle(self, vecs, site):
        rho = self.rho1(vecs, site)
        return float(4.0 * np.linalg.det(rho).real)
