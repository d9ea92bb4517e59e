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


def _orbitals(i, j, lam_t, radius):
    """Window sites i - radius .. j + radius and g_{site-i}, g_{site-j}."""
    nmax = radius + (j - i)
    g = _ladder(nmax, lam_t)
    sites = np.arange(i - radius, j + radius + 1)
    return sites, g[(sites - i) + nmax], g[(sites - j) + nmax]


def wavepacket(i, j, phi, t, lam, pad=LIGHT_CONE_PAD):
    """Evolved one-particle Bell seed (c_i + e^{i phi} c_j)^dag |vac>/sqrt(2)."""
    if i == j:
        raise ValueError("seed sites must differ")
    i, j = (i, j) if i < j else (j, i)

    def build(radius):
        sites, gi, gj = _orbitals(i, j, abs(lam) * t, radius)
        amps = (gi + np.exp(1j * phi) * gj) / math.sqrt(2.0)
        state = SingleParticleState(start=int(sites[0]), amps=amps,
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
    Memory is O(window): the orbitals gi, gj, prefix sums and row weights.
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
            sites, gi, gj = _orbitals(i, j, abs(lam) * t, radius)
            # sum_{p<q} |T_pq|^2 is the Gram determinant of the orbitals
            weight = (np.vdot(gi, gi).real * np.vdot(gj, gj).real
                      - abs(np.vdot(gi, gj)) ** 2)
            return (sites, gi, gj), abs(1.0 - weight)

        sites, gi, gj = _widening(abs(lam) * t, j - i, pad, build)
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
        as arrays over the pairs (closed forms of the module docstring)."""
        ns, ms = np.broadcast_arrays(np.atleast_1d(ns), np.atleast_1d(ms))
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
        return a, 1.0 - a - x - y, x, y, 0.5 * t_nm, 0.5 * z

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
        p = 0.5 * float(self._at(n)[2])
        return 4.0 * p * (1.0 - p)

    def partner_concurrences(self, n):
        """Concurrences of site n with every other site of the window."""
        qs = self.sites[self.sites != n]
        b1, b2 = _branches(*self.pair_entries(np.minimum(n, qs),
                                              np.maximum(n, qs)))
        return np.maximum(0.0, np.maximum(b1, b2))

    def baseline_tangle(self, n):
        """Tangle of the unperturbed state: the stationary vacuum, zero."""
        return 0.0
