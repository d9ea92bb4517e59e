"""Exact-diagonalization oracle on small rings.

Everything the analytic machinery computes in closed form is recomputed here
by brute force on rings of up to 12 sites, with numpy alone.  The spin
Hamiltonian is a diagonal and one array of flip coefficients per bond, both
from bit operations on basis indices (Sandvik, arXiv:1101.3281 section 4);
it acts on a block of vectors by gathering each bond's flipped indices and
is never formed densely.  Correlators read a state through the same bit
flips and signs.  The components of a state ride as the rows of one block,
which a Chebyshev series of the propagator over the Gershgorin interval of
H (Tal-Ezer & Kosloff, J. Chem. Phys. 81:3967, 1984) carries along a time
grid: one series reaches a chunk of consecutive times from the last time
before them.  The ground state comes from Lanczos with full
reorthogonalization in each of the two fermion-parity sectors, which H never
mixes (Lieb, Schultz & Mattis 1961); the lower of the two wins, since on a
finite ring either sector can hold it.  Each energy lies within LANCZOS_TOL
of an eigenvalue of H, so energies within SECTOR_TIE = 2 * LANCZOS_TOL tie
(as both do at gamma = 0, lam = 1 on 12 sites), and a tie keeps the even
sector, the vacuum's.  Reduced density matrices are partial traces.  This
module deliberately shares no formulas with the analytic path beyond the
Hamiltonian itself (the series coefficients are quadratures, not Bessel
ladders); agreement between the two is the main correctness argument of the
package.

Conventions: site 0 is the most significant bit of a basis index, a clear
bit is spin up, so the all-down vacuum is the last basis vector.  The
Jordan-Wigner string runs over sites below the operator site,
c_l = (prod_{s<l} -2 Sz_s) S^-_l, which makes c_a^dag c_b^dag |vac> =
+|up_a up_b> for a < b.
"""

import functools
import math

import numpy as np

from .errors import ConfigError
from . import measures

MAX_SITES = 12
# Lanczos reads the Ritz residual estimate of its lowest pair every
# RITZ_EVERY steps and stops once it is below a tenth of LANCZOS_TOL; the
# explicit |H v - E v| must then be within LANCZOS_TOL.  LANCZOS_STEPS caps
# the Krylov dimension of a sector.
LANCZOS_TOL = 1e-12
SECTOR_TIE = 2 * LANCZOS_TOL
LANCZOS_STEPS = 300
RITZ_EVERY = 8
# A Chebyshev series ends at its first coefficient past order |a| below
# SERIES_TOL, above the ~1e-15 roundoff floor of the quadrature; an evolved
# block may change its squared norms by NORM_TOL of its weight.
SERIES_TOL = 1e-14
NORM_TOL = 1e-12
# bound on the evolved blocks one Chebyshev series holds, all times together
EVOLVE_BLOCK_BYTES = 4 * 2 ** 20
# irrational step of the Weyl sequence that makes the Lanczos start vector
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _popcount(index, width):
    """Set bits among the low ``width`` bits of each entry of ``index``."""
    count = np.zeros_like(index)
    for b in range(width):
        count += (index >> b) & 1
    return count


def _site_bit(n, l):
    return 1 << (n - 1 - l)


class Hamiltonian:
    """Real symmetric H as bit flips: ``H v = diagonal * v + sum_b
    flips[b] * v[targets[b]]``, applied along the last axis of ``v``."""

    def __init__(self, diagonal, targets, flips):
        self.diagonal = diagonal
        self.targets = targets
        self.flips = flips

    def __matmul__(self, vecs):
        flipped = np.take(vecs, self.targets, axis=-1)
        flipped *= self.flips
        out = flipped.sum(axis=-2)
        out += self.diagonal * vecs
        return out

    def sector(self, indices):
        """H restricted to the basis indices given, which it must map among
        themselves."""
        position = np.empty(len(self.diagonal), dtype=self.targets.dtype)
        position[indices] = np.arange(len(indices))
        return Hamiltonian(self.diagonal[indices],
                           position[self.targets[:, indices]],
                           self.flips[:, indices])


def build_hamiltonian(n, gamma, lam):
    """Spin Hamiltonian of the periodic n-site ring.

    The diagonal is -sum_l Sz_l = popcount - n/2.  A bond flips its bit
    pair, by -lam/2 on antiparallel and -lam*gamma/2 on parallel spins,
    summed from the Sx Sx and Sy Sy terms as a spin-operator build sums
    them, so its action on a basis vector agrees with one bit for bit.
    """
    index = np.arange(2 ** n)
    xx, yy = lam * (1.0 + gamma) / 4, lam * (1.0 - gamma) / 4
    pairs = np.array([_site_bit(n, l) | _site_bit(n, (l + 1) % n)
                      for l in range(n)])[:, None]
    flips = np.where(_popcount(index & pairs, n) == 1, -(xx + yy), yy - xx)
    return Hamiltonian(_popcount(index, n) - n / 2, index ^ pairs, flips)


def _jw_raising(n, l):
    """c_l^dag as a signed index permutation (perm, sign), c_l^dag v =
    sign * v[perm]: it raises site l (set bit -> clear) with the sign
    (-1)^(up spins at sites s < l), and sign is 0 where site l is up."""
    bit = _site_bit(n, l)
    index = np.arange(2 ** n)
    ups_above = l - _popcount(index >> (n - l), l)
    sign = np.where(ups_above % 2 == 0, 1.0, -1.0)
    sign[(index & bit) != 0] = 0.0
    return index ^ bit, sign


def _raise(n, l, v):
    perm, sign = _jw_raising(n, l)
    return sign * v[perm]


def _lanczos_ground_state(h):
    """Lowest (energy, unit vector) of the real symmetric ``h``: Lanczos
    with full reorthogonalization from a fixed generic start vector (a
    Weyl sequence, so it overlaps every symmetry sector), stopped on the
    Ritz residual estimate and checked by the explicit residual."""
    dim = len(h.diagonal)
    steps = min(dim, LANCZOS_STEPS)
    basis = np.empty((steps, dim))
    start = np.modf(GOLDEN * np.arange(1, dim + 1))[0] - 0.5
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = [], []
    for j in range(steps):
        w = h @ basis[j]
        alpha.append(float(basis[j] @ w))
        span = basis[:j + 1]
        for _ in range(2):  # twice is enough (Parlett)
            w -= span.T @ (span @ w)
        beta.append(float(np.linalg.norm(w)))
        if (j + 1) % RITZ_EVERY == 0 or j + 1 == steps or beta[-1] == 0.0:
            tri = (np.diag(alpha) + np.diag(beta[:-1], 1)
                   + np.diag(beta[:-1], -1))
            ritz, vecs = np.linalg.eigh(tri)
            if (beta[-1] * abs(vecs[-1, 0]) <= LANCZOS_TOL / 10
                    or j + 1 == steps):
                break
        basis[j + 1] = w / beta[-1]
    energy = float(ritz[0])
    vec = vecs[:, 0] @ span
    vec /= np.linalg.norm(vec)
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if not residual <= LANCZOS_TOL:
        raise measures.NumericalHealthError(
            f"oracle Lanczos residual {residual:.3e} after {j + 1} steps "
            f"exceeds {LANCZOS_TOL:g}")
    return energy, vec


def _chebyshev_coefficients(a):
    """Rows c[j] of exp(-i a_j x) = sum_k c[j, k] T_k(x) on [-1, 1], one
    per entry of ``a``; row j is zero past its first order beyond |a_j|
    whose coefficient is below SERIES_TOL.

    c[j, k] = (2 - delta_k0) (-i)^k J_k(a_j) (Jacobi-Anger), here by m-point
    Gauss-Chebyshev quadrature of exp(-i a_j cos theta) cos(k theta), whose
    only error is aliasing from order 2m - k.  The orders computed reach
    |a| + 16 max(1, |a|)^(1/3) + 16 for the largest |a|, and m exceeds them
    by 32, so every aliased order lies where J_k(a) is far below roundoff.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    top = float(np.max(np.abs(a)))
    orders = math.ceil(top + 16.0 * max(1.0, top) ** (1.0 / 3.0)) + 16
    m = orders + 32
    odd = 2 * np.arange(m) + 1                  # theta_j = pi odd_j / (2m)
    ks = np.arange(orders)
    f = np.exp(-1j * np.outer(a, np.cos((np.pi / (2 * m)) * odd))) * (2 / m)
    # cos(k theta_j) from k * odd_j mod 4m, exact in integers; a few hundred
    # orders at a time bound the table
    c = np.concatenate([
        f @ np.cos((np.pi / (2 * m)) * (np.outer(odd, part) % (4 * m)))
        for part in np.split(ks, range(256, orders, 256))], axis=1)
    c[:, 0] /= 2
    small = (ks > np.abs(a)[:, None]) & (np.abs(c) < SERIES_TOL)
    if not small.any(axis=1).all():
        raise measures.NumericalHealthError(
            f"oracle Chebyshev series at a = {top:.6g} does not converge")
    ends = small.argmax(axis=1)
    c[ks >= ends[:, None]] = 0.0
    return c[:, :ends.max()]


class OracleWorkspace:
    """Ring Hamiltonian as bit flips: exact states, evolution, and
    reductions."""

    def __init__(self, n, gamma, lam):
        if n < 4 or n > MAX_SITES:
            raise ConfigError(
                f"oracle ring size {n} outside [4, {MAX_SITES}]")
        self.n = n
        self.hamiltonian = build_hamiltonian(n, gamma, lam)
        self._index = np.arange(2 ** n)

    @functools.cached_property
    def _ground(self):
        """Real vector of the lower parity-sector ground state, the even
        one on a tie, found on first use."""
        index = self._index
        odd = _popcount(index, self.n) % 2 != self.n % 2  # vacuum: even
        even, odd = (_lanczos_ground_state(self.hamiltonian.sector(sector))
                     + (sector,) for sector in (index[~odd], index[odd]))
        _, vec, sector = odd if odd[0] < even[0] - SECTOR_TIE else even
        full = np.zeros(2 ** self.n)
        full[sector] = vec
        return full

    @functools.cached_property
    def _chebyshev(self):
        """(2 (H - center) / radius, center, radius) over the Gershgorin
        interval of H, whose spectrum it maps into [-2, 2]."""
        h = self.hamiltonian
        radii = np.abs(h.flips).sum(axis=0)
        lo = float(np.min(h.diagonal - radii))
        hi = float(np.max(h.diagonal + radii))
        center, radius = (hi + lo) / 2, (hi - lo) / 2
        scale = 2.0 / radius
        twice = Hamiltonian(scale * (h.diagonal - center), h.targets,
                            scale * h.flips)
        return twice, center, radius

    def _series(self, block, dts):
        """exp(-i H dt) applied to each row of ``block``, for each dt.

        One Chebyshev series in (H - center) / radius serves every dt: its
        terms T_k block come from the three-term recurrence, and each dt
        sums them with its own coefficients, which are zero past its own
        order.  Raises NumericalHealthError when a row's squared norm moves
        by more than NORM_TOL of the block's weight.
        """
        twice, center, radius = self._chebyshev
        dts = np.asarray(dts, dtype=float)
        coeffs = (np.exp(-1j * center * dts)[:, None]
                  * _chebyshev_coefficients(radius * dts))
        coeffs = coeffs.T[:, :, None, None]
        outs = coeffs[0] * block
        prev, cur = None, block
        for c in coeffs[1:]:
            nxt = twice @ cur
            if prev is None:
                nxt *= 0.5
            else:
                nxt -= prev
            outs += c * nxt
            prev, cur = cur, nxt
        before = np.einsum("ij,ij->i", block.conj(), block).real
        after = np.einsum("tij,tij->ti", outs.conj(), outs).real
        defect = float(np.max(np.abs(after - before)))
        if not defect <= NORM_TOL * float(before.sum()):
            raise measures.NumericalHealthError(
                f"oracle evolution changed a squared norm by {defect:.3e}")
        return outs

    def evolve_grid(self, vecs, times):
        """The components ``vecs`` evolved to each of ``times``, in order.

        The components ride as the rows of one block.  Consecutive times,
        as many as keep their blocks within EVOLVE_BLOCK_BYTES, are reached
        from the last time before them by one Chebyshev series; only the
        blocks of one such chunk are held.  Until time moves the
        components come back as given.
        """
        times = list(times)
        block_bytes = 16 * max(1, len(vecs)) * 2 ** self.n
        per_chunk = max(1, EVOLVE_BLOCK_BYTES // block_bytes)
        now, start = 0.0, 0
        while start < len(times) and times[start] == now:
            yield list(vecs)
            start += 1
        for s in range(start, len(times), per_chunk):
            chunk = times[s:s + per_chunk]
            outs = self._series(np.stack(vecs), [t - now for t in chunk])
            for vecs in outs:
                yield list(vecs)
            now = chunk[-1]

    # -- state preparation ------------------------------------------------

    def vacuum(self):
        v = np.zeros(2 ** self.n, dtype=complex)
        v[-1] = 1.0
        return [v]

    def psi_bell(self, i, j, phi):
        (v,) = self.vacuum()
        up_i = _raise(self.n, i, v)
        up_j = _raise(self.n, j, v)
        return [(up_i + np.exp(1j * phi) * up_j) / math.sqrt(2)]

    def phi_bell(self, i, j, phi):
        (v,) = self.vacuum()
        pair = _raise(self.n, i, _raise(self.n, j, v))
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
        a = site % self.n
        rho = np.zeros((2, 2), dtype=complex)
        for v in vecs:
            t = v.reshape(2 ** a, 2, -1).transpose(1, 0, 2).reshape(2, -1)
            rho += t @ t.conj().T
        return rho

    def rho2(self, vecs, p, q):
        p, q = p % self.n, q % self.n
        if p == q:
            raise ValueError("rho2 needs two distinct sites")
        a, b = sorted((p, q))
        order = (1, 3, 0, 2, 4) if p < q else (3, 1, 0, 2, 4)  # p, q first
        rho = np.zeros((4, 4), dtype=complex)
        for v in vecs:
            t = v.reshape(2 ** a, 2, 2 ** (b - a - 1), 2, -1)
            t = t.transpose(order).reshape(4, -1)
            rho += t @ t.conj().T
        return rho

    def concurrence(self, vecs, p, q):
        return measures.concurrence_wootters(self.rho2(vecs, p, q))

    def one_tangle(self, vecs, site):
        rho = self.rho1(vecs, site)
        return float(4.0 * np.linalg.det(rho).real)
