"""Majorana contractions of the evolved vacuum and Bell-seeded states.

Everything downstream (Pfaffian spin correlators, density matrices) consumes
pair expectations of the Majorana operators A_l = c_l^dag + c_l and
B_l = c_l^dag - c_l in the Heisenberg picture.  Two families of states are
covered here:

* the bare vacuum |down...down>, whose contractions stay translation
  invariant and Wick-factorize over a single antisymmetric matrix, and
* one-particle Bell seeds (w_i c_i^dag + w_j c_j^dag)|vac>, which cover the
  two-site Bell insertions with one shared excitation.  (The two-particle
  pair seed is handled at gamma = 0 by `isotropic`.)

A one-particle Bell seed is a one-orbital Slater determinant evolved by a
quadratic H, so it is Gaussian: Wick's theorem holds with its own pair
contractions, which are the vacuum's plus a rank-two modification.  It is
assembled from one-particle matrix elements <vac| c_a X_l(t) |vac> (bra
side, "left") and <vac| X_l(t) c_b^dag |vac> (ket side, "right"):

    left_A(x)  = V(x) - i (E(x) - O(x))        x = source - site
    left_B(x)  = V(x) - i (E(x) + O(x))
    right_A(x) = conj(left_A(x))
    right_B(x) = -conj(left_B(x))

    bra_l = sum_a wbar_a left(l, a),    ket_l = sum_b w_b right(l, b)

    <X_l Y_m>_state = <X_l Y_m>_vac + (bra_l ket_m - bra_m ket_l) / n2

with n2 = sum |w|^2, a and b running over both sources, and each left and
right element taken at its operator's kind.  The vacuum pair values have
closed momentum-integral forms in terms of the kernels
u^o = s*t*sinc(Lambda t), u^e = e*t*sinc(Lambda t), v = cos(Lambda t):

    <A_l B_{l+r}> = delta_{r0} - (2/pi) int_0^pi [u_o^2 cos(kr)
                                                   + u_e u_o sin(kr)] dk
    <A_l A_{l+r}> = delta_{r0} - (2i/pi) int_0^pi v u_o sin(kr) dk
    <B_l B_{l+r}> = -conj(<A_l A_{l+r}>)

All of these were cross-checked against exact diagonalization on small rings
before being frozen into the test suite.

`VacuumContractions` evaluates these integrals and the kernels V, E, O of
`model` as one ring sum per (t, radius): the mean over M equally spaced
momenta of the k-even integrands (weight pi/M against the 1/pi above).
This is the only place the grid is built for the dynamics.  The boundary
sector of the ring follows the state's fermion parity (Lieb, Schultz &
Mattis, Ann. Phys. 16:407, 1961): antiperiodic for the vacuum, periodic
for a one-particle Bell seed.  On a finite ring M is its size, and the
tables are exact for that ring.  The thermodynamic limit is a ring too
large to wrap, M = `ring_size`: the integrands are periodic and analytic
in k, so the sum converges exponentially (Trefethen & Weideman, SIAM Rev.
56:385, 2014), and the only error is aliasing from separations M away.  A
Bell seed reads both from its vacuum, tabulated out to the seed span plus
the seed's own radius.

Every translation-invariant Gaussian state is a `PairTables`: rows AA,
AB, BA, BB of <X_l Y_{l+r}> over |r| <= radius, read by one `pair`.  The
vacuum fills them by ring sums, the ground state (`groundstate`) by
quadrature, and a Bell seed is its vacuum's tables plus the rank-two
update of `BellContractions.bra_ket`.  The tables hold a block of times:
each time has its own ring sum, radius and ring size, and the tables
stack on a leading time axis, zero-padded to the block's largest radius.
Every accessor answers for every time of the block and indexes the tables
with arrays: kinds are the codes A and B, and kinds and sites broadcast
together.  A separation beyond the radius of any time of the block raises
CutoffError naming that time.
"""

import math

import numpy as np

from .errors import CutoffError
from .model import dispersion, light_cone_radius, momentum_grid


A, B = 0, 1  # Majorana kind codes of A_l and B_l
RING_MARGIN = 32  # sites between the nearest alias and the product reach


def ring_size(params, t, radius):
    """Ring size M whose momentum sum gives the thermodynamic-limit tables
    of separations |x| <= radius at time t to roundoff.

    An M-site sum adds to separation x the Fourier coefficients at x + jM.
    The product integrands (u_o u_o, u_e u_o, v u_o) reach twice the light
    cone, and the group velocity is at most lam * max(1, |gamma|), so the
    nearest alias of a tabulated separation lies RING_MARGIN sites or more
    past that reach.
    """
    reach = math.ceil(2.0 * params.lam * max(1.0, abs(params.gamma)) * abs(t))
    return 2 * (int(radius) + reach + RING_MARGIN)


def _table_index(x, radii, what, times):
    """Positions x + max(radii) of the separations x (any shape) in tables
    of a block of times padded to its largest radius.  A separation beyond
    any time's own radius raises CutoffError naming the first such time."""
    x = np.asarray(x)
    short = np.flatnonzero(np.asarray(radii) < np.abs(x).max(initial=0))
    if short.size:
        k, worst = short[0], int(x.flat[np.argmax(np.abs(x))])
        when = "" if times[k] is None else f" at t={times[k]:.12g}"
        raise CutoffError(
            f"{what} radius {radii[k]} exceeded at separation {worst}{when}")
    return x + max(radii)


def _ring_tables(params, t, radius, sector):
    """V, E, O and the pair tables of |x| <= radius at one time t."""
    rs = np.arange(-radius, radius + 1)
    n = params.size if params.is_finite else ring_size(params, t, radius)
    w = np.full(n, np.pi / n)
    e, s, lam_k, ckr, skr = dispersion(params, momentum_grid(n, sector), rs)
    sinc_t = t * np.sinc(lam_k * t / np.pi)
    v = np.cos(lam_k * t)
    ue = e * sinc_t
    uo = s * sinc_t
    inv_pi = 1.0 / np.pi
    delta = (rs == 0).astype(float)
    ab = delta - 2.0 / np.pi * (ckr @ (w * uo * uo) + skr @ (w * ue * uo))
    aa = delta.astype(complex) - 2j / np.pi * (skr @ (w * v * uo))
    # rows by kind pair 2 * kind_l + kind_m: AA, AB, BA, BB, where
    # <B_l A_{l+r}> = -<A_{l+r} B_l> = -ab(-r) and bb = -conj(aa)
    return (inv_pi * ckr @ (w * v), inv_pi * ckr @ (w * ue),
            inv_pi * skr @ (w * uo),
            np.stack([aa, ab, -ab[::-1], -np.conj(aa)]))


class PairTables:
    """Pair expectations <X_l Y_m> of a translation-invariant Gaussian
    state at a block of times: tables (times, 4, 2 * radius + 1) with rows
    AA, AB, BA, BB by kind pair 2 * kind_l + kind_m, entry r + radius of a
    row at separation r = m - l, and radii the times' own radii.  what
    names the table in a CutoffError."""

    is_modified = False

    def __init__(self, times, radii, tables, what):
        self.times, self.radii, self._tables = times, radii, tables
        self.radius, self._what = int(max(radii)), what

    def pair(self, kind_l, l, kind_m, m):
        """<X_l Y_m> for kind codes X, Y in {A, B}; arguments broadcast."""
        idx = _table_index(np.subtract(m, l), self.radii, self._what,
                           self.times)
        return self._tables[:, 2 * np.asarray(kind_l) + kind_m, idx]


class VacuumContractions(PairTables):
    """Pair tables of the time-evolved vacuum at a block of times (a scalar
    t is a block of one), and the kernel tables V, E, O they are built
    from: entry x + radius of a row holds separation x.  sector is the
    ring's boundary sector, antiperiodic for the vacuum itself."""

    def __init__(self, params, times, radii, sector="antiperiodic"):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        radii = np.broadcast_to(radii, times.shape).astype(int)
        radius = int(radii.max())
        shape = (len(times), 2 * radius + 1)
        self.v_table, self.e_table, self.o_table = np.zeros((3, *shape))
        tables = np.zeros((shape[0], 4, shape[1]), dtype=complex)
        for k, (t, r) in enumerate(zip(times, radii)):
            span = slice(radius - r, radius + r + 1)
            (self.v_table[k, span], self.e_table[k, span],
             self.o_table[k, span], tables[k, :, span]) = _ring_tables(
                 params, t, int(r), sector)
        super().__init__(times, radii, tables, "contraction")


class BellContractions:
    """Contractions of a one-particle Bell seed on the vacuum.

    The state is (w_i c_i^dag + w_j c_j^dag)|vac> / sqrt(n2) with weights
    (1, amp).  Real amp = +/-1 covers the Bell pair insertions used by the
    scenario engine; the machinery itself accepts any complex amp.  Every
    accessor takes kind codes and sites as broadcasting arrays.

    The state has odd fermion parity, so every table, the vacuum part
    included, is a periodic-sector ring sum.  On a finite ring `vacuum` is
    therefore not the state's unperturbed (even-parity) vacuum; in the
    thermodynamic limit the two sectors agree to roundoff.
    """

    is_modified = True
    sector = "periodic"

    def __init__(self, params, times, radii, i, j, amp=-1.0):
        if i == j:
            raise ValueError("Bell seed needs two distinct sites")
        self.weights = (1.0 + 0j, complex(amp))
        self.n2 = 1.0 + abs(amp) ** 2
        self.sources = (int(i), int(j))
        self.vacuum = VacuumContractions(
            params, times, abs(j - i) + np.asarray(radii), self.sector)
        self.times = self.vacuum.times

    def bra_ket(self, kind, site):
        """(bra, ket) of X_site: sum_a conj(w_a) left(a) and
        sum_b w_b right(b) over both sources; kind and site broadcast."""
        vac = self.vacuum
        kind, site = np.asarray(kind)[..., None], np.asarray(site)[..., None]
        idx = _table_index(np.subtract(self.sources, site), vac.radii,
                           "kernel", vac.times)
        v, e, o = vac.v_table[:, idx], vac.e_table[:, idx], vac.o_table[:, idx]
        is_a = kind == A
        eo = np.where(is_a, e - o, e + o)
        ket = v + 1j * eo
        return ((v - 1j * eo) @ np.conj(self.weights),
                np.where(is_a, ket, -ket) @ np.array(self.weights))

    def pair(self, kind_l, l, kind_m, m):
        """<X_l Y_m>: the vacuum's plus (bra_l ket_m - bra_m ket_l) / n2,
        the bras and kets of both operators from one kernel gather."""
        kind_l, l, kind_m, m = np.broadcast_arrays(kind_l, l, kind_m, m)
        bra, ket = self.bra_ket(np.stack([kind_l, kind_m]), np.stack([l, m]))
        return self.vacuum.pair(kind_l, l, kind_m, m) + (
            bra[:, 0] * ket[:, 1] - bra[:, 1] * ket[:, 0]) / self.n2


def vacuum_contractions(params, times):
    return VacuumContractions(params, times,
                              light_cone_radius(params, np.asarray(times)))


def bell_contractions(params, times, i, j, amp=-1.0):
    return BellContractions(params, times,
                            light_cone_radius(params, np.asarray(times)), i,
                            j, amp=amp)
