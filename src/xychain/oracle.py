"""Exact-diagonalization oracle on small rings.

Everything the analytic machinery computes in closed form is recomputed here
by brute force on rings of up to 12 sites, with numpy alone.  The spin
Hamiltonian is a diagonal and one array of flip coefficients per bond, both
from bit operations on basis indices (Sandvik, arXiv:1101.3281 section 4);
it acts on a block of vectors by gathering each bond's flipped indices and
is never formed densely.  H never mixes the two fermion-parity sectors
(Lieb, Schultz & Mattis 1961).  The ground state is the lower of the Lanczos
ground states of the two sectors (on a finite ring either can hold it), the
even one, the vacuum's, on a tie.  The nonzero parity parts of a state's
components ride as the rows of one block per sector, which a Chebyshev
series of the propagator in H restricted to the sector, over the Gershgorin
interval of the full H (Tal-Ezer & Kosloff, J. Chem. Phys. 81:3967, 1984),
carries along a time grid; a part gets the bits its full-length row would.
The workspace prepares and evolves states; every reduction is a `RingState`,
which reads one pass over a state and requires each component's weight
outside its sector to be exactly 0: then each pair's reduced state is an X
matrix whose populations are sums of the weights |v|^2, whose two
coherences are overlaps of the components, and whose concurrence is
Wootters' on the closed-form spin-flip roots of those entries, with an
eigenvalue floor (`measures.concurrence_wootters`).  This module
deliberately shares no formulas with the analytic path beyond the Hamiltonian itself (the series coefficients are quadratures,
not Bessel ladders); agreement between the two is the main correctness
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

from .errors import ConfigError
from . import measures

MAX_SITES = 12
# Lanczos reads the Ritz residual estimate of its lowest pair every
# RITZ_EVERY steps and stops once it is below a tenth of LANCZOS_TOL; the
# explicit |H v - E v| must then be within LANCZOS_TOL.  LANCZOS_STEPS caps
# the Krylov dimension of a sector.
LANCZOS_TOL = 1e-12
# each sector energy lies within LANCZOS_TOL of an eigenvalue of H, so two
# within SECTOR_TIE tie (as at gamma = 0, lam = 1 on 12 sites)
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


def _series(twice, block, coeffs):
    """sum_k coeffs[j, k] T_k(twice / 2) block for each row j of ``coeffs``,
    the terms from the three-term recurrence."""
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
    return outs


class OracleWorkspace:
    """Ring Hamiltonian as bit flips: exact states and their evolution;
    `RingState` reduces them."""

    def __init__(self, n, gamma, lam):
        if n < 4 or n > MAX_SITES:
            raise ConfigError(
                f"oracle ring size {n} outside [4, {MAX_SITES}]")
        self.n = n
        self.hamiltonian = build_hamiltonian(n, gamma, lam)
        index = np.arange(2 ** n)
        # basis indices of the vacuum's parity sector, then of the other
        odd = _popcount(index, n) % 2 != n % 2
        self._parity = index[~odd], index[odd]

    @functools.cached_property
    def _ground(self):
        """Real vector of the lower parity-sector ground state, the even
        one on a tie, found on first use."""
        even, odd = (_lanczos_ground_state(self.hamiltonian.sector(sector))
                     + (sector,) for sector in self._parity)
        _, vec, sector = odd if odd[0] < even[0] - SECTOR_TIE else even
        full = np.zeros(2 ** self.n)
        full[sector] = vec
        return full

    @functools.cached_property
    def _chebyshev(self):
        """(sectors, center, radius): 2 (H - center) / radius, whose spectrum
        lies in [-2, 2] by Gershgorin, restricted to each parity sector."""
        h = self.hamiltonian
        radii = np.abs(h.flips).sum(axis=0)
        lo = float(np.min(h.diagonal - radii))
        hi = float(np.max(h.diagonal + radii))
        center, radius = (hi + lo) / 2, (hi - lo) / 2
        scale = 2.0 / radius
        twice = Hamiltonian(scale * (h.diagonal - center), h.targets,
                            scale * h.flips)
        return tuple(twice.sector(s) for s in self._parity), center, radius

    def evolve_grid(self, vecs, times):
        """The components ``vecs`` evolved to each of ``times``, in order.

        Consecutive times, as many as keep full-length blocks within
        EVOLVE_BLOCK_BYTES, share one series per sector from the last time
        before them, and only one such chunk is held.  Raises
        NumericalHealthError when the squared norms of a component's parts
        move by more than NORM_TOL of the block's weight in all.  Until time
        moves the components come back as given.
        """
        times = list(times)
        block_bytes = 16 * max(1, len(vecs)) * 2 ** self.n
        per_chunk = max(1, EVOLVE_BLOCK_BYTES // block_bytes)
        now, start = 0.0, 0
        while start < len(times) and times[start] == now:
            yield list(vecs)
            start += 1
        twices, center, radius = self._chebyshev
        sectors = []  # (H of the sector, its indices, rows, their parts)
        for twice, index in zip(twices, self._parity):
            rows = [r for r, v in enumerate(vecs) if v[index].any()]
            if rows:
                sectors.append((twice, index, rows,
                                np.stack([vecs[r][index] for r in rows])))
        for s in range(start, len(times), per_chunk):
            chunk = times[s:s + per_chunk]
            dts = np.asarray([t - now for t in chunk])
            coeffs = (np.exp(-1j * center * dts)[:, None]
                      * _chebyshev_coefficients(radius * dts))
            outs, defect, weight = [], np.zeros((len(chunk), len(vecs))), 0.0
            for twice, _, rows, block in sectors:
                outs.append(_series(twice, block, coeffs))
                before = np.einsum("ij,ij->i", block.conj(), block).real
                after = np.einsum("tij,tij->ti", outs[-1].conj(), outs[-1])
                defect[:, rows] += np.abs(after.real - before)
                weight += float(before.sum())
            worst = float(np.max(defect, initial=0.0))
            if not worst <= NORM_TOL * weight:
                raise measures.NumericalHealthError(
                    f"oracle evolution changed a squared norm by {worst:.3e}")
            for j in range(len(chunk)):
                full = np.zeros((len(vecs), 2 ** self.n), dtype=complex)
                for (_, index, rows, _), out in zip(sectors, outs):
                    full[np.ix_(rows, index)] = out[j]
                yield list(full)
            sectors = [sector[:3] + (out[-1],)
                       for sector, out in zip(sectors, outs)]
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


class RingState(measures.XView):
    """The reductions of the ring state with components ``vecs``, all read
    from one parity-checked pass over them; site indices wrap."""

    def __init__(self, ws, vecs):
        self.ws, self.vecs = ws, vecs

    @functools.cached_property
    def _pass(self):
        """The components stacked (k, 2^n) and their summed weights."""
        stack = np.stack(self.vecs)
        weights = stack.real ** 2 + stack.imag ** 2
        outside = np.minimum(*(weights[:, index].sum(axis=1)
                               for index in self.ws._parity))
        if outside.any():
            raise measures.NumericalHealthError(
                f"oracle state has weight {outside.max():.3e} outside its "
                "parity sector")
        return stack, weights.sum(axis=0)

    def site_populations(self, xs):
        """(up, down) populations of each site, (len(xs), 2)."""
        n, (_, weights) = self.ws.n, self._pass
        return np.reshape([weights.reshape(2 ** (x % n), 2, -1).sum(
            axis=(0, 2)) for x in xs], (-1, 2))

    def one_tangle(self, xs):
        up, down = self.site_populations(xs).T
        return 4.0 * (up * down)

    def pair_entries(self, ls, ms):
        """X entries (a, b, x, y, c, z) of the pairs (l, m), each an array
        over the pairs, in the basis (uu, ud, du, dd) with l first."""
        n, (stack, weights) = self.ws.n, self._pass
        pops, coherences = [], []
        for l, m in zip(ls, ms):
            lo, hi = sorted((l % n, m % n))
            if lo == hi:
                raise ValueError("a pair needs two distinct sites")
            shape = (2 ** lo, 2, 2 ** (hi - lo - 1), 2, 2 ** (n - hi - 1))
            (a, x), (y, b) = weights.reshape(shape).sum(axis=(0, 2, 4))
            t = stack.reshape((-1,) + shape)
            c = np.vdot(t[:, :, 1, :, 1], t[:, :, 0, :, 0])  # rho[uu, dd]
            z = np.vdot(t[:, :, 1, :, 0], t[:, :, 0, :, 1])  # rho[ud, du]
            swap = l % n > m % n
            pops.append((a, b, y, x) if swap else (a, b, x, y))
            coherences.append((c, z.conjugate() if swap else z))
        return (*np.reshape(pops, (-1, 4)).T,
                *np.reshape(coherences, (-1, 2)).T)

    def partners(self, x):
        return [m for m in range(self.ws.n) if m != x % self.ws.n]

    def concurrence(self, ls, ms):
        self.ask("spectrum", ls, ms)  # the pairs' one check
        return measures.concurrence_wootters(self.ask("pair_entries", ls, ms))
