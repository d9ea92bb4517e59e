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

where the interior sum carries the Jordan-Wigner reordering sign.  These
entries are evaluated for many pairs at once: the rows T_nq and T_mq of a
batch of pairs, with q = n, m cut out, form a (pairs x window) block; x and
y are its row sums of |T|^2, and z is one signed row sum of
T_nq conj(T_mq), the sign being -1 strictly between n and m.

Every window starts at the light cone plus LIGHT_CONE_PAD sites and widens
by PAD_STEP sites until the weight it holds is within NORM_DEFECT_TOL of one
(the norm of a packet, the pair-sector weight of a pair seed); a window
whose Bessel ladder would pass bessel.MAX_ORDER raises CutoffError.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import MAX_ORDER, bessel_signed_row
from .errors import CutoffError
from .model import LIGHT_CONE_PAD

NORM_DEFECT_TOL = 1e-10
PAD_STEP = 10  # sites a window widens by when its weight defect is too large
_BLOCK = 1 << 15  # entries of one (pairs x window) block: 512 KB complex


_I_POWERS = np.array([1, 1j, -1, -1j])  # i^n by n mod 4, exact for any n


def _ladder(nmax, x):
    """g_n = i^n J_n(x) for n = -nmax..nmax, indexed by n + nmax."""
    js = bessel_signed_row(nmax, x)
    return _I_POWERS[np.arange(-nmax, nmax + 1) % 4] * js


@dataclass(frozen=True)
class SingleParticleState:
    """One conserved excitation on the vacuum, gamma = 0.

    Amplitudes are stored on the window [start, start + len - 1]; sites
    outside carry weight below the normalization tolerance.  With no
    amplitudes it is the stationary vacuum.  A measurement view (`scenarios`).
    """

    start: int
    amps: np.ndarray
    time: float
    lam: float
    sources: tuple
    phi: float

    def w(self, site):
        idx = site - self.start
        if idx < 0 or idx >= len(self.amps):
            return 0.0 + 0.0j
        return self.amps[idx]

    @property
    def sites(self):
        return range(self.start, self.start + len(self.amps))

    @property
    def norm_defect(self):
        return abs(1.0 - float(np.sum(np.abs(self.amps) ** 2)))

    def rho1(self, site):
        p = abs(self.w(site)) ** 2
        return np.array([[p, 0.0], [0.0, 1.0 - p]])

    def rho2(self, n, m):
        """Reduced pair state in the basis (uu, ud, du, dd)."""
        wn, wm = self.w(n), self.w(m)
        x = abs(wn) ** 2
        y = abs(wm) ** 2
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = x
        rho[2, 2] = y
        rho[1, 2] = wn * np.conj(wm)
        rho[2, 1] = np.conj(rho[1, 2])
        rho[3, 3] = 1.0 - x - y
        return rho

    def one_tangle(self, n):
        p = abs(self.w(n)) ** 2
        return 4.0 * p * (1.0 - p)

    def concurrence(self, n, m):
        """C_{nm} = 2 |w_n wbar_m| for a one-particle state."""
        return 2.0 * abs(self.w(n) * np.conj(self.w(m)))

    @functools.cached_property
    def _magnitudes(self):
        return np.abs(self.amps)

    def partner_concurrences(self, n):
        """C_{nq} = 2|w_n w_q| over the window; the entry of n itself is 0
        (cheaper than cutting it out, and neutral in every partner sum)."""
        partners = 2.0 * abs(self.w(n)) * self._magnitudes
        if n in self.sites:
            partners[n - self.start] = 0.0
        return partners

    def baseline_tangle(self, n):
        """Tangle of the unperturbed state: the stationary vacuum, zero."""
        return 0.0


def _widening(lam_t, span, pad, build):
    """build(radius) -> (result, weight defect), with the window radius
    ceil(lam_t) + pad widened by PAD_STEP until the defect is at most
    NORM_DEFECT_TOL.  span is the ladder's reach beyond the radius; a
    ladder past bessel.MAX_ORDER raises CutoffError."""
    while True:
        radius = int(math.ceil(lam_t)) + pad
        result, defect = build(radius)
        if defect <= NORM_DEFECT_TOL:
            return result
        pad += PAD_STEP
        if int(math.ceil(lam_t)) + pad + span > MAX_ORDER:
            raise CutoffError(
                f"window too small at lam*t={lam_t}: defect {defect:.3e}, "
                f"and a wider one needs Bessel orders past {MAX_ORDER}")


def wavepacket(i, j, phi, t, lam, pad=LIGHT_CONE_PAD):
    """Evolved one-particle Bell seed (c_i + e^{i phi} c_j)^dag |vac>/sqrt(2)."""
    if i == j:
        raise ValueError("seed sites must differ")
    i, j = (i, j) if i < j else (j, i)

    def build(radius):
        nmax = radius + (j - i)
        g = _ladder(nmax, abs(lam) * t)
        start = i - radius
        sites = np.arange(start, j + radius + 1)
        amps = (g[(sites - i) + nmax]
                + np.exp(1j * phi) * g[(sites - j) + nmax])
        amps = amps / math.sqrt(2.0)
        state = SingleParticleState(start=int(start), amps=amps,
                                    time=float(t), lam=float(lam),
                                    sources=(i, j), phi=float(phi))
        return state, state.norm_defect

    return _widening(abs(lam) * t, j - i, pad, build)


def _modulus(v):
    """|v| of complex scalars or arrays.  np.abs rounds complex arrays
    differently from scalars; hypot rounds both like Python's abs()."""
    return np.hypot(np.real(v), np.imag(v))


def _branches(a, b, x, y, c, z):
    """Competing concurrence branches 2(|c|-sqrt(xy)), 2(|z|-sqrt(ab)) of
    X-matrix entries (scalars or arrays)."""
    return (2.0 * (_modulus(c) - np.sqrt(np.maximum(x * y, 0.0))),
            2.0 * (_modulus(z) - np.sqrt(np.maximum(a * b, 0.0))))


@dataclass(frozen=True)
class PhiCoefficients:
    """X-matrix entries of a pair-seed reduced state on sites n < m."""

    a: float
    b: float
    x: float
    y: float
    c: complex
    z: complex

    def rho2(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.a
        rho[1, 1] = self.x
        rho[2, 2] = self.y
        rho[3, 3] = self.b
        rho[0, 3] = self.c
        rho[3, 0] = np.conj(self.c)
        rho[1, 2] = self.z
        rho[2, 1] = np.conj(self.z)
        return rho

    def branches(self):
        """Competing concurrence branches 2(|c|-sqrt(xy)), 2(|z|-sqrt(ab))."""
        b1, b2 = _branches(self.a, self.b, self.x, self.y, self.c, self.z)
        return float(b1), float(b2)

    def concurrence(self):
        b1, b2 = self.branches()
        return max(0.0, b1, b2)

    def active_branch(self):
        """'pair' when the uu/dd coherence branch dominates, else 'exchange'."""
        b1, b2 = self.branches()
        return "pair" if b1 >= b2 else "exchange"


class PhiState:
    """Evolved two-particle Bell seed (|vac> + e^{i phi} c_i^dag c_j^dag)/sqrt(2).

    Works in the rotating frame described in the module docstring.  The
    window is sized by the light cone and widened until the pair-sector
    weight it holds, sum_{p<q} |T_pq|^2, is within NORM_DEFECT_TOL of one.
    A measurement view (`scenarios`).
    """

    def __init__(self, i, j, phi, t, lam, pad=LIGHT_CONE_PAD):
        if i == j:
            raise ValueError("seed sites must differ")
        i, j = (i, j) if i < j else (j, i)
        self.i, self.j = int(i), int(j)
        self.phi = float(phi)
        self.time = float(t)
        self.lam = float(lam)

        def build(radius):
            sites = np.arange(i - radius, j + radius + 1)
            nmax = radius + (j - i)
            g = _ladder(nmax, abs(lam) * t)
            gi = g[(sites - i) + nmax]
            gj = g[(sites - j) + nmax]
            # sum_{p<q} |T_pq|^2 is the Gram determinant of the orbitals
            weight = (np.vdot(gi, gi).real * np.vdot(gj, gj).real
                      - abs(np.vdot(gi, gj)) ** 2)
            return (sites, gi, gj), abs(1.0 - weight)

        sites, gi, gj = _widening(abs(lam) * t, j - i, pad, build)
        self.start = int(sites[0])
        self.sites = sites
        self.t_mat = np.exp(1j * phi) * (np.outer(gi, gj) - np.outer(gj, gi))

    def _idx(self, site):
        """Window positions of the sites (any shape)."""
        idx = np.asarray(site) - self.start
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.sites)):
            raise CutoffError("site outside the coefficient window "
                              f"[{self.start}, {self.sites[-1]}]")
        return idx

    def pair_entries(self, ns, ms):
        """X-matrix entries (a, b, x, y, c, z) of the ordered pairs
        ns < ms, as arrays over the pairs.

        Each pair's sums run over the window with q = n, m cut out, in
        (pairs x window) blocks of at most _BLOCK entries."""
        ns, ms = np.broadcast_arrays(np.atleast_1d(ns), np.atleast_1d(ms))
        if np.any(ns >= ms):
            raise ValueError("coefficients need ordered sites n < m")
        ni, mi = self._idx(ns), self._idx(ms)
        rest = np.arange(len(self.sites) - 2)
        x, y = np.empty(len(ni)), np.empty(len(ni))
        z = np.empty(len(ni), dtype=complex)
        step = max(1, _BLOCK // len(self.sites))
        for lo in range(0, len(ni), step):
            bn = ni[lo:lo + step, None]
            bm = mi[lo:lo + step, None]
            qs = rest + (rest >= bn)  # window positions other than n, m
            qs += qs >= bm
            t_n, t_m = self.t_mat[bn, qs], self.t_mat[bm, qs]
            x[lo:lo + step] = np.sum(np.abs(t_n) ** 2, axis=1)
            y[lo:lo + step] = np.sum(np.abs(t_m) ** 2, axis=1)
            prod = t_n * np.conj(t_m)
            inside = (qs > bn) & (qs < bm)
            z[lo:lo + step] = np.sum(np.where(inside, -prod, prod), axis=1)
        t_nm = self.t_mat[ni, mi]
        a = 0.5 * _modulus(t_nm) ** 2
        x *= 0.5
        y *= 0.5
        z *= 0.5
        return a, 1.0 - a - x - y, x, y, 0.5 * t_nm, z

    def coefficients(self, n, m):
        """PhiCoefficients of the ordered pair n < m."""
        a, b, x, y, c, z = (v[0] for v in self.pair_entries(n, m))
        return PhiCoefficients(a=float(a), b=float(b), x=float(x),
                               y=float(y), c=complex(c), z=complex(z))

    def rho2(self, n, m):
        return self.coefficients(n, m).rho2()

    def concurrence(self, n, m):
        return self.coefficients(n, m).concurrence()

    def one_tangle(self, n):
        ni = self._idx(n)
        p = 0.5 * float(np.sum(np.abs(self.t_mat[ni]) ** 2))
        return 4.0 * p * (1.0 - p)

    def partner_concurrences(self, n):
        """Concurrences of site n with every other site of the window."""
        qs = np.delete(self.sites, self._idx(n))
        b1, b2 = _branches(*self.pair_entries(np.minimum(n, qs),
                                              np.maximum(n, qs)))
        return np.maximum(0.0, np.maximum(b1, b2))

    def baseline_tangle(self, n):
        """Tangle of the unperturbed state: the stationary vacuum, zero."""
        return 0.0
