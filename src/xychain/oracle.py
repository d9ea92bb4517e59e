"""Exact-diagonalization oracle on small rings.

Everything the analytic machinery computes in closed form is recomputed here
by brute force on rings of up to 12 sites: build the spin Hamiltonian as a
sparse matrix from bit operations on basis indices (Sandvik, arXiv:1101.3281
section 4) and never form it densely; correlators read a state through the
same bit flips and signs.  The components of a state ride as the columns of
one block, which the action of the matrix exponential (scaled truncated
Taylor series, ``scipy.sparse.linalg.expm_multiply``; Al-Mohy & Higham,
SIAM J. Sci. Comput. 33:488, 2011) steps along a time grid from each time
to the next.  The ground state comes from a sparse Lanczos solve in each of
the two fermion-parity sectors, which H never mixes (Lieb, Schultz & Mattis
1961); the lower of the two wins, since on a finite ring either sector can
hold it.  Reduced density matrices are partial traces.  This module
deliberately shares no formulas with the analytic path beyond the
Hamiltonian itself; agreement between the two is the main correctness
argument of the package.

Conventions: site 0 is the most significant bit of a basis index, a clear
bit is spin up, so the all-down vacuum is the last basis vector.  The
Jordan-Wigner string runs over sites below the operator site,
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
# while that norm is at most 2*ell*p_max*(p_max + 3) * theta_55 / (55 * n0)
# = 63.36 / n0 for n0 columns (condition 3.13 of Al-Mohy & Higham); past
# it, scipy's onenormest draws from NumPy's global random state.
EXACT_NORM_STEP = 60.0


def _popcount(index, width):
    """Set bits among the low ``width`` bits of each entry of ``index``."""
    count = np.zeros_like(index)
    for b in range(width):
        count += (index >> b) & 1
    return count


def _site_bit(n, l):
    return 1 << (n - 1 - l)


def build_hamiltonian(n, gamma, lam):
    """Sparse spin Hamiltonian of the periodic n-site ring (real symmetric).

    The diagonal is -sum_l Sz_l = popcount - n/2.  A bond flips its bit
    pair, by -lam/2 on antiparallel and -lam*gamma/2 on parallel spins,
    summed from the Sx Sx and Sy Sy terms as a spin-operator build sums
    them, so the entries agree with one bit for bit.
    """
    index = np.arange(2 ** n)
    xx, yy = lam * (1.0 + gamma) / 4, lam * (1.0 - gamma) / 4
    pairs = [_site_bit(n, l) | _site_bit(n, (l + 1) % n) for l in range(n)]
    data = [_popcount(index, n) - n / 2] + [
        np.where(_popcount(index & p, n) == 1, -(xx + yy), yy - xx)
        for p in pairs]
    cols = [index] + [index ^ p for p in pairs]
    h = sp.csr_matrix((np.concatenate(data),
                       (np.tile(index, n + 1), np.concatenate(cols))),
                      shape=(2 ** n, 2 ** n))
    h.eliminate_zeros()
    return h


def _jw_raising(n, l):
    """Sparse c_l^dag: raise site l (set bit -> clear) with the sign
    (-1)^(up spins at sites s < l)."""
    bit = _site_bit(n, l)
    src = np.flatnonzero(np.arange(2 ** n) & bit)
    ups_above = l - _popcount(src >> (n - l), l)
    sign = np.where(ups_above % 2 == 0, 1.0 + 0j, -1.0 + 0j)
    return sp.csr_matrix((sign, (src ^ bit, src)), shape=(2 ** n, 2 ** n))


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
        self.hamiltonian = build_hamiltonian(n, gamma, lam)
        self._index = np.arange(2 ** n)
        self._norm1 = float(abs(self.hamiltonian).sum(axis=0).max())

    @functools.cached_property
    def _ground(self):
        """Real vector of the lower parity-sector ground state, found on
        first use."""
        index = self._index
        odd = _popcount(index, self.n) % 2 == 1
        _, vec, sector = min(
            (_sector_ground_state(self.hamiltonian, sector) + (sector,)
             for sector in (index[~odd], index[odd])),
            key=lambda found: found[0])
        full = np.zeros(2 ** self.n)
        full[sector] = vec
        return full

    def evolve_grid(self, vecs, times):
        """The components ``vecs`` evolved to each of ``times``, in order.

        The components ride as the columns of one block, which steps from
        t = 0 to the first time and from each time to the next; only the
        current block is held.  An interval splits into substeps of 1-norm
        at most EXACT_NORM_STEP / columns, from one step matrix per run of
        equal intervals.  Until time moves the components come back as
        given.
        """
        from scipy.sparse.linalg import expm_multiply

        now, dt = 0.0, None
        for t in times:
            if t != now:
                if t - now != dt:
                    dt = t - now
                    count = max(1, math.ceil(
                        abs(dt) * self._norm1 * len(vecs) / EXACT_NORM_STEP))
                    step = -1j * (dt / count) * self.hamiltonian
                block = np.stack(vecs, axis=1)
                for _ in range(count):
                    block = expm_multiply(step, block)
                vecs, now = list(np.ascontiguousarray(block.T)), t
            yield list(vecs)

    # -- state preparation ------------------------------------------------

    def vacuum(self):
        v = np.zeros(2 ** self.n, dtype=complex)
        v[-1] = 1.0
        return [v]

    def psi_bell(self, i, j, phi):
        (v,) = self.vacuum()
        up_i = _jw_raising(self.n, i) @ v
        up_j = _jw_raising(self.n, j) @ v
        return [(up_i + np.exp(1j * phi) * up_j) / math.sqrt(2)]

    def phi_bell(self, i, j, phi):
        (v,) = self.vacuum()
        pair = _jw_raising(self.n, i) @ (_jw_raising(self.n, j) @ v)
        return [(v + np.exp(1j * phi) * pair) / math.sqrt(2)]

    def ground_state(self):
        return [self._ground.astype(complex)]

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

    @staticmethod
    def _real(val, what):
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            raise measures.NumericalHealthError(
                f"oracle {what} has imaginary residue {val.imag:.3e}")
        return val.real

    def _spin(self, v, axis, l):
        """S^axis_l v, read through the bit of site l."""
        bit = _site_bit(self.n, l % self.n)
        up = (self._index & bit) == 0
        if axis == "z":
            return np.where(up, 0.5, -0.5) * v
        on_up, on_down = {"x": (0.5, 0.5), "y": (-0.5j, 0.5j)}[axis]
        return np.where(up, on_up, on_down) * v[self._index ^ bit]

    def correlator(self, vecs, alpha, beta, l, m):
        # <v|S^a_l S^b_m|v> = (S^a_l v) . (S^b_m v): spin operators are
        # Hermitian
        val = sum(complex(np.vdot(self._spin(v, alpha, l),
                                  self._spin(v, beta, m))) for v in vecs)
        return self._real(val, f"g_{alpha}{beta}({l},{m})")

    def magnetization(self, vecs, l):
        val = sum(complex(np.vdot(v, self._spin(v, "z", l))) for v in vecs)
        return self._real(val, f"mz({l})")

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
