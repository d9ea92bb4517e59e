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

Every window starts at the light cone plus LIGHT_CONE_PAD sites and widens
by PAD_STEP sites until the weight it holds is within NORM_DEFECT_TOL of one
(the norm of a packet, the pair-sector weight of a pair seed); a window
whose Bessel ladder would pass bessel.MAX_ORDER raises CutoffError.
`windows` sizes a batch of times at once, one batch of Miller sweeps per
widening round.  `wavepacket` and `PhiState` take their time's window or
size their own; a packet also takes a block of times whose windows share a
radius.  The states are X views (`measures.XView`) for `scenarios`: each
gives the X entries of pairs, sites and pairs as scalars or arrays and a
packet's times first, and a packet its partner sums in closed form.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import MAX_ORDER, bessel_rows, range_error
from .errors import CutoffError
from .measures import XView, _modulus
from .model import LIGHT_CONE_PAD

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


def windows(i, j, phi, lam_ts, pair=False, pad=LIGHT_CONE_PAD):
    """Window of the Bell seed on sites i, j at each lam*t of a batch.

    Entry k is (radius, ladder): the sites min(i, j) - radius .. max(i, j)
    + radius and J_0..J_{radius + |j - i|}(lam_ts[k]), or the CutoffError
    or OutOfRangeError of that lam*t.  The radius starts at ceil(lam*t) +
    pad and widens by PAD_STEP until the weight the window holds is within
    NORM_DEFECT_TOL of one.  With A = sum |g_{p-i}|^2 = sum |g_{p-j}|^2 and
    X = sum J_{p-i} J_{p-j} over the window, that weight is the packet norm
    A + Re(e^{i phi} i^{i-j}) X, or with pair=True the pair-sector weight
    A^2 - X^2 (the Gram determinant of the orbitals).
    """
    i, j = (i, j) if i < j else (j, i)
    span = j - i
    coupling = (np.exp(1j * phi) * _I_POWERS[(i - j) % 4]).real
    radii = [int(math.ceil(v)) + pad for v in lam_ts]
    out = [range_error(r + span, v) for r, v in zip(radii, lam_ts)]
    todo = [k for k, error in enumerate(out) if error is None]
    while todo:
        radius = np.array([radii[k] for k in todo])
        rows = bessel_rows(radius + span, [lam_ts[k] for k in todo])
        a, x = _window_sums(rows, radius, span)
        weight = a * a - x * x if pair else a + coupling * x
        for n, (k, defect) in enumerate(zip(todo, np.abs(1.0 - weight))):
            if defect <= NORM_DEFECT_TOL:
                out[k] = (radii[k], rows[n, :radii[k] + span + 1].copy())
            elif radii[k] + PAD_STEP + span > MAX_ORDER:
                out[k] = CutoffError(
                    f"window too small at lam*t={lam_ts[k]}: defect "
                    f"{defect:.3e}, and a wider one needs Bessel orders past "
                    f"{MAX_ORDER}")
            else:
                radii[k] += PAD_STEP
        del rows  # frees this round's block before the next one is swept
        todo = [k for k in todo if out[k] is None]
    return out


def _orbitals(i, j, window):
    """Window sites i - radius .. j + radius (i < j) and g_{site-i},
    g_{site-j} (last axis); an error in place of the window is raised."""
    if isinstance(window, Exception):
        raise window
    radius, rows = window
    g = _ladder(rows)
    span = j - i
    return np.arange(i - radius, j + radius + 1), g[..., span:], g[..., :-span]


def _times_conj(u, v):
    """Real and imaginary parts of u conj(v), in real arithmetic that
    rounds like a scalar product (complex arrays may round differently)."""
    return u.real * v.real + u.imag * v.imag, u.imag * v.real - u.real * v.imag


@dataclass(frozen=True)
class SingleParticleState(XView):
    """One conserved excitation on the vacuum, gamma = 0.

    Amplitudes are stored on the window [start, start + len - 1] of the
    last axis, one row per time of a block that shares the window; sites
    outside carry weight below the normalization tolerance.  With no
    amplitudes it is the stationary vacuum.  |w|^2 is rounded as the scalar
    abs(w) ** 2 (libm pow), so grids give site-by-site values bit for bit.
    """

    start: int
    amps: np.ndarray

    @functools.cached_property
    def _padded(self):
        edge = np.zeros(self.amps.shape[:-1] + (1,), dtype=complex)
        return np.concatenate((edge, self.amps, edge), axis=-1)

    def w(self, sites):
        """Amplitudes at the sites (any shape), after the times; zero outside
        the window, where the clipped index lands on a padding zero."""
        return self._padded.take(np.subtract(sites, self.start - 1), axis=-1,
                                 mode="clip")

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
        modulus, population = _modulus(self.w(n)), self._population(n)
        lead = np.shape(self.amps)[:-1] + (1,) * np.ndim(n)
        window = _modulus(self.amps)
        total = window.sum(-1).reshape(lead)
        square = np.square(window, out=window).sum(-1).reshape(lead)
        return (2.0 * modulus * (total - modulus),
                4.0 * population * (square - population))


def wavepacket(i, j, phi, t, lam, pad=LIGHT_CONE_PAD, window=None):
    """Evolved one-particle Bell seed (c_i + e^{i phi} c_j)^dag |vac>/sqrt(2)
    on its entry of `windows` (sized here when None), or one packet on a
    (radius, (times, ladder)) block of times that share the radius; t is
    read only to size a window."""
    if i == j:
        raise ValueError("seed sites must differ")
    i, j = (i, j) if i < j else (j, i)
    if window is None:
        window, = windows(i, j, phi, [abs(lam) * t], pad=pad)
    sites, gi, gj = _orbitals(i, j, window)
    amps = (gi + np.exp(1j * phi) * gj) / math.sqrt(2.0)
    return SingleParticleState(start=int(sites[0]), amps=amps)


class PhiState(XView):
    """Evolved two-particle Bell seed (|vac> + e^{i phi} c_i^dag c_j^dag)/sqrt(2).

    Works in the rotating frame described in the module docstring, on its
    entry of `windows` (sized here when None): the pair-sector weight
    sum_{p<q} |T_pq|^2 it holds is within NORM_DEFECT_TOL of one.  Memory
    is O(window): the orbitals gi, gj, prefix sums and row weights.
    """

    def __init__(self, i, j, phi, t, lam, pad=LIGHT_CONE_PAD, window=None):
        if i == j:
            raise ValueError("seed sites must differ")
        i, j = (i, j) if i < j else (j, i)
        self.phi = float(phi)
        if window is None:
            window, = windows(i, j, phi, [abs(lam) * t], pair=True, pad=pad)
        sites, gi, gj = _orbitals(i, j, window)
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
        t_nm = np.exp(1j * self.phi) * (un * vm - vn * um)
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

    def partners(self, n):
        """Every other site of the window."""
        return self.sites[self.sites != n]
