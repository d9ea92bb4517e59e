"""Closed-form dynamics at the isotropic point (gamma = 0).

With gamma = 0 the fermion number is conserved and the all-down vacuum is
stationary, so a Bell insertion evolves inside a fixed particle-number
sector.  A one-particle seed (c_i^dag + e^{i phi} c_j^dag)|vac>/sqrt(2)
stays a one-particle wavepacket with amplitudes

    w_l(t) = [ i^{l-i} J_{l-i}(lam t) + e^{i phi} i^{l-j} J_{l-j}(lam t) ] / sqrt(2)

up to one global phase that no exposed quantity depends on and that is
dropped throughout this module.  All pair measures then reduce to closed
forms in the amplitudes: C_{nm} = 2|w_n wbar_m|, tau1 = 4|w|^2(1-|w|^2),
S2 = h(|w_n|^2 + |w_m|^2), F_psi(phi') = |w_n + e^{-i phi'} w_m|^2 / 2.
Every seed's e^{i phi} is `model.seed_amp(phi)`, as on the other routes.

A two-particle seed (|vac> + e^{i phi} c_i^dag c_j^dag |vac>)/sqrt(2) mixes
the vacuum with a fermion pair whose ordered amplitudes form the
antisymmetric matrix

    T_pq = e^{i phi} (g_{p-i} g_{q-j} - g_{q-i} g_{p-j}),   g_x = i^x J_x(lam t).

This module keeps the pair sector in the frame rotating with the uniform
field (the relative phase exp(2it) between the sectors is dropped), which is
the natural frame for the Bessel coefficients; coherence magnitudes,
populations and concurrences are frame independent, while the phases of the
uu/dd and ud/du coherences, and hence the Bell fidelities and the reference
phases that maximize them, are frame-relative.  The pair density matrix of
sites n < m is the X matrix with

    a = |T_nm|^2/2                   c = T_nm/2
    x = sum_{q != n,m} |T_nq|^2/2    y = likewise with m
    b = 1 - a - x - y
    z = (1/2) [ sum_{q<n} + sum_{q>m} - sum_{n<q<m} ] T_nq conj(T_mq)

where the interior sum carries the Jordan-Wigner reordering sign.  T has
rank two, so each entry is an O(1) closed form in the orbitals u = g_{.-i},
v = g_{.-j} on the window: x = (R_n - |T_nm|^2)/2, y likewise, with the row
weight R_p = |u_p|^2 S_vv + |v_p|^2 S_uu - 2 Re(u_p vbar_p conj(S_uv)) (S the
window sums of |u|^2, |v|^2, u vbar), and

    2z = u_n ubar_m s_vv - u_n vbar_m conj(s_uv) - v_n ubar_m s_uv + v_n vbar_m s_uu

where each signed sum s is the window sum minus twice the sum over n < q < m,
read off prefix sums; the terms q = n, m cancel exactly.  Sites outside the
window have zero orbitals.

Every window starts at the light cone (`model.light_cone_radius`) and widens
by PAD_STEP sites until the weight it holds is within NORM_DEFECT_TOL of one
(the norm of a packet, the pair-sector weight of a pair seed); a window
whose Bessel ladder would pass bessel.MAX_ORDER raises CutoffError.
`windows` sizes a batch of times at once, one batch of Miller sweeps per
widening round, and hands back their radii and one ladder array, or raises
the error of its earliest failing time, so a block fails before any of its
views is measured.  `wavepacket` and `PhiState` take their time's radius
and ladder or size their own; `block_packet` takes a whole block of
windows and keeps only each time's window sums and the amplitudes on the
sites a grid reads, raising CutoffError on a read past them.  The states
are X views (`measures.XView`) for `scenarios` and `selftest`: each
gives the X entries of pairs, sites and pairs as scalars or arrays and a
packet's times first, and a packet its partner sums in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bessel import MAX_ORDER, bessel_rows, range_errors
from .errors import CutoffError
from .measures import XView, _modulus
from .model import ModelParams, light_cone_radius, seed_amp

NORM_DEFECT_TOL = 1e-10
PAD_STEP = 10  # sites a window widens by when its weight defect is too large


_I_POWERS = np.array([1, 1j, -1, -1j])  # i^n by n mod 4, exact for any n


def _ladder(rows):
    """g_n = i^n J_n for n = -nmax..nmax, indexed by n + nmax along the last
    axis, from ladders J_0..J_nmax; J_{-n} = (-1)^n J_n makes g_{-n} = g_n."""
    g = _I_POWERS[np.arange(rows.shape[-1]) % 4] * rows
    return np.concatenate((g[..., :0:-1], g), axis=-1)


def _window_sums(rows, radius, span):
    """A = sum J_n^2 and X = sum J_n J_{n-s} over n = -r..r+s per lane, from
    ladders J_0..J_{r+s} (zero beyond).  With J_{-n} = (-1)^n J_n,
    A = 2 sum_0^{r+s} J_n^2 - J_0^2 - sum_{r+1}^{r+s} J_n^2 and
    X = (1 + (-1)^s) sum_0^r J_m J_{m+s} + sum_1^{s-1} (-1)^{s-n} J_n J_{s-n}.
    The row sums are einsum contractions, which need no block-sized
    temporaries."""
    tail = np.take_along_axis(rows, radius[:, None] + np.arange(1, span + 1),
                              axis=1)
    a = (2.0 * np.einsum("ij,ij->i", rows, rows) - rows[:, 0] ** 2
         - np.einsum("ij,ij->i", tail, tail))
    lagged = np.einsum("ij,ij->i", rows[:, :-span], rows[:, span:])
    signs = np.where(np.arange(span - 1, 0, -1) % 2 == 1, -1.0, 1.0)
    between = (rows[:, 1:span] * rows[:, span - 1:0:-1] * signs).sum(axis=1)
    return a, (1 + (-1) ** span) * lagged + between


def windows(i, j, phi, lam_ts, pair=False):
    """(radii, ladders) of the Bell seed on sites i, j at a batch of lam*t:
    window k is the sites min(i, j) - radii[k] .. max(i, j) + radii[k], and
    row k of ladders J_0..J_{radii[k] + |j - i|}(lam_ts[k]), zero past it.
    A radius starts at the light cone of lam*t at unit coupling and widens
    by PAD_STEP until the weight the window holds is within NORM_DEFECT_TOL
    of one: with A = sum |g_{p-i}|^2 = sum |g_{p-j}|^2 and X = sum J_{p-i}
    J_{p-j} over it, the packet norm A + Re(e^{i phi} i^{i-j}) X, or with
    pair=True the pair-sector weight A^2 - X^2 (the Gram determinant of the
    orbitals).  The error of the earliest failing lam*t is raised last."""
    i, j = (i, j) if i < j else (j, i)
    span = j - i
    coupling = (seed_amp(phi) * _I_POWERS[(i - j) % 4]).real
    lam_ts = np.asarray(lam_ts, dtype=float)
    radii = light_cone_radius(ModelParams(1.0), lam_ts)
    errors = range_errors(radii + span, lam_ts)
    todo = np.array([k for k in range(len(lam_ts)) if k not in errors], int)
    ladders = None
    while todo.size:
        rows = bessel_rows(radii[todo] + span, lam_ts[todo])
        ladders = rows if todo.size == len(lam_ts) else None
        a, x = _window_sums(rows, radii[todo], span)
        defect = np.abs(1.0 - (a * a - x * x if pair else a + coupling * x))
        short = defect > NORM_DEFECT_TOL
        stuck = short & (radii[todo] + PAD_STEP + span > MAX_ORDER)
        for k, d in zip(todo[stuck].tolist(), defect[stuck].tolist()):
            errors[k] = CutoffError(
                f"window too small at lam*t={lam_ts[k]}: defect {d:.3e}, "
                f"and a wider one needs Bessel orders past {MAX_ORDER}")
        todo = todo[short & ~stuck]
        radii[todo] += PAD_STEP
        del rows  # frees this round's block unless it is the result
    if errors:
        raise errors[min(errors)]
    if ladders is None:  # the last round swept only the widened lanes
        ladders = bessel_rows(radii + span, lam_ts)
    return radii, ladders


def block_packet(i, j, phi, block, sites):
    """One packet of the one-particle Bell seed at every time of a block
    (radii, ladders) of `windows`, holding only each time's window sums of
    |w| and |w|^2 and the amplitudes on the sites (a range; zero outside a
    time's window).  The sums run over the times that share a radius, on
    the real ladders: i^-|l-i| sqrt(2) w_l = J_|l-i| + turn_l J_|l-j| with
    turn_l = e^{i phi} i^(|l-j| - |l-i|), and w itself, round once per
    component, as the complex arithmetic of `wavepacket` does."""
    i, j = (i, j) if i < j else (j, i)
    (radii, ladders), span, amp = block, j - i, seed_amp(phi)
    norms, widest = np.empty((2, len(radii))), radii.max()
    n = np.arange(-widest, widest + span + 1)  # l - i
    turn = amp * _I_POWERS[(np.abs(n - span) - np.abs(n)) % 4]
    edges = [0, *(np.flatnonzero(np.diff(radii)) + 1).tolist(), len(radii)]
    for lo, hi, r in zip(edges, edges[1:], radii[edges[:-1]].tolist()):
        rows = ladders[lo:hi, :r + span + 1]
        mirror = np.concatenate((rows[:, :0:-1], rows), axis=1)  # J_|n|
        cut = turn[widest - r:widest + r + span + 1]
        # i^-|l-i| sqrt(2) w by parts, in C order so that each row sums
        # pairwise over its window, as a per-time packet's does
        parts = np.multiply(mirror[:, :-span], [[cut.real], [cut.imag]],
                            order="C")
        parts[0] += mirror[:, span:]
        parts *= 1.0 / math.sqrt(2.0)
        np.square(np.hypot(*parts, out=parts[0]), out=parts[1])
        norms[:, lo:hi] = parts.sum(-1)
    sites = np.asarray(sites)
    amps = np.zeros((len(radii), len(sites)), dtype=complex)
    for n, unit in ((np.abs(sites - j), amp), (np.abs(sites - i), 1.0)):
        g = unit * _I_POWERS[n % 4]  # exact, so each part rounds once
        for part, c in ((amps.real, g.real), (amps.imag, g.imag)):
            part += ladders[:, np.minimum(n, ladders.shape[1] - 1)] * c
    amps /= math.sqrt(2.0)
    np.putmask(amps, (sites < i - radii[:, None])
               | (sites > j + radii[:, None]), 0.0)
    return SingleParticleState(int(sites[0]), amps, tuple(norms))


def _orbitals(i, j, phi, lam_t, window, pair=False):
    """Window sites i - radius .. j + radius and g_{site-i}, g_{site-j} (last
    axis) of the seed on sites i < j (swapped if need be), on its window or,
    when None, the one `windows` sizes for lam_t."""
    if i == j:
        raise ValueError("seed sites must differ")
    i, j = (i, j) if i < j else (j, i)
    if window is None:
        window = next(zip(*windows(i, j, phi, [lam_t], pair=pair)))
    radius, rows = window
    span = j - i
    g = _ladder(rows[..., :radius + span + 1])
    return np.arange(i - radius, j + radius + 1), g[..., span:], g[..., :-span]


def _times_conj(u, v):
    """Real and imaginary parts of u conj(v), in real arithmetic that
    rounds like a scalar product (complex arrays may round differently)."""
    return u.real * v.real + u.imag * v.imag, u.imag * v.real - u.real * v.imag


@dataclass(frozen=True)
class SingleParticleState(XView):
    """One conserved excitation on the vacuum, gamma = 0.

    Amplitudes are stored on the sites [start, start + len - 1] of the
    last axis, one row per time: a whole window (the sites outside carry
    weight below the normalization tolerance), or a block packet's read
    sites with norms, each time's window sums of |w| and |w|^2 (None sums
    the amplitudes).  Zero amplitudes make the stationary vacuum.  |w|^2
    rounds as the scalar abs(w) ** 2 (libm pow), so grids give site-by-site
    values bit for bit.
    """

    start: int
    amps: np.ndarray
    norms: tuple = None

    def w(self, sites):
        """Amplitudes at the sites (any shape), after the times; zero
        outside a whole window, and CutoffError outside a block packet's
        sites."""
        idx = np.subtract(sites, self.start)
        inside = (idx >= 0) & (idx < self.amps.shape[-1])
        if self.norms is not None and not np.all(inside):
            raise CutoffError(f"a block packet holds sites {self.start}.."
                              f"{self.start + self.amps.shape[-1] - 1} only")
        w = np.asarray(self.amps.take(np.where(inside, idx, 0), axis=-1))
        w[..., ~inside] = 0.0
        return w

    def _population(self, sites):
        return np.float_power(_modulus(self.w(sites)), 2)

    def pair_entries(self, n, m):
        """X entries: a = c = 0, x, y the populations, z = w_n wbar_m."""
        x, y = self._population(n), self._population(m)
        re, im = _times_conj(self.w(n), self.w(m))
        z = np.empty(np.shape(re), dtype=complex)
        z.real, z.imag = re, im
        return 0.0, 1.0 - x - y, x, y, 0.0, z

    def one_tangle(self, n):
        p = self._population(n)
        return 4.0 * p * (1.0 - p)

    def partner_sums(self, n):
        """Closed forms over the window, O(1) per site after one window sum
        per time: sum_q C_nq = 2|w_n| (sum_q |w_q| - |w_n|) and
        sum_q C_nq^2 = 4|w_n|^2 (sum_q |w_q|^2 - |w_n|^2)."""
        modulus = _modulus(self.w(n))
        population = np.float_power(modulus, 2)  # as _population rounds
        lead = np.shape(self.amps)[:-1] + (1,) * np.ndim(n)
        norms = self.norms
        if norms is None:  # the amplitudes hold the whole window
            window = _modulus(self.amps)
            norms = window.sum(-1), np.square(window, out=window).sum(-1)
        total, square = (np.reshape(v, lead) for v in norms)
        return (2.0 * modulus * (total - modulus),
                4.0 * population * (square - population))


def wavepacket(i, j, phi, t, lam, window=None):
    """Evolved one-particle Bell seed (c_i + e^{i phi} c_j)^dag |vac>/sqrt(2)
    on its window (radius, ladder) of `windows` (sized here when None); t
    is read only to size a window."""
    sites, gi, gj = _orbitals(i, j, phi, abs(lam) * t, window)
    amps = (gi + seed_amp(phi) * gj) / math.sqrt(2.0)
    return SingleParticleState(start=int(sites[0]), amps=amps)


class PhiState(XView):
    """Evolved two-particle Bell seed (|vac> + e^{i phi} c_i^dag c_j^dag)/sqrt(2).

    Works in the rotating frame described in the module docstring, on its
    entry of `windows` (sized here when None): the pair-sector weight
    sum_{p<q} |T_pq|^2 it holds is within NORM_DEFECT_TOL of one.  Memory
    is O(window): the orbitals gi, gj, prefix sums and row weights.
    """

    def __init__(self, i, j, phi, t, lam, window=None):
        self.phi = float(phi)
        sites, gi, gj = _orbitals(i, j, phi, abs(lam) * t, window, pair=True)
        self.start, self.sites, self.gi, self.gj = int(sites[0]), sites, gi, gj
        # prefix[:, k]: sums of |gi|^2, |gj|^2, gi conj(gj) over positions < k
        terms = [np.abs(gi) ** 2, np.abs(gj) ** 2, gi * np.conj(gj)]
        self.prefix = np.pad(np.cumsum(terms, axis=1), ((0, 0), (1, 0)))
        s_ii, s_jj, s_ij = self.prefix[:, -1]
        self.row_weight = np.real(terms[0] * s_jj + terms[1] * s_ii
                                  - 2.0 * terms[2] * np.conj(s_ij))

    def _at(self, sites):
        """gi, gj and the row weight at the sites (any shape); all zero
        outside the window."""
        idx = np.asarray(sites) - self.start
        inside = (idx >= 0) & (idx < len(self.sites))
        idx = np.where(inside, idx, 0)
        return [np.where(inside, v[idx], 0.0)
                for v in (self.gi, self.gj, self.row_weight)]

    def pair_entries(self, ns, ms):
        """X-matrix entries (a, b, x, y, c, z) of the ordered pairs ns < ms,
        shaped like the broadcast pairs (closed forms of the module
        docstring, evaluated over the flattened pairs)."""
        shape = np.broadcast(ns, ms).shape
        ns, ms = (np.broadcast_to(v, shape).ravel() for v in (ns, ms))
        if np.any(ns >= ms):
            raise ValueError("coefficients need ordered sites n < m")
        un, vn, rn = self._at(ns)
        um, vm, rm = self._at(ms)
        t_nm = seed_amp(self.phi) * (un * vm - vn * um)
        t2 = _modulus(t_nm) ** 2
        # signed sums: the total minus twice the interior n < q < m
        lo = np.clip(ns - self.start + 1, 0, len(self.sites))
        hi = np.clip(ms - self.start, 0, len(self.sites))
        s_uu, s_vv, s_uv = (self.prefix[:, -1:]
                            - 2.0 * (self.prefix[:, hi] - self.prefix[:, lo]))
        z = (un * np.conj(um) * s_vv - un * np.conj(vm) * np.conj(s_uv)
             - vn * np.conj(um) * s_uv + vn * np.conj(vm) * s_uu)
        a, x, y = 0.5 * t2, 0.5 * (rn - t2), 0.5 * (rm - t2)
        return tuple(np.reshape(v, shape) for v in
                     (a, 1.0 - a - x - y, x, y, 0.5 * t_nm, 0.5 * z))

    def one_tangle(self, n):
        p = 0.5 * self._at(n)[2]
        return 4.0 * p * (1.0 - p)

    def partners(self, ns):
        """Every window site but n (all but an end one for n outside)."""
        return self.sites[:-1] + (self.sites[:-1] >= np.expand_dims(ns, -1))
