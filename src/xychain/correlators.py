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

Distinct Majoranas anticommute, A is Hermitian and B anti-Hermitian, so
with S = diag(1 on A, -i on B) the matrix M of <X_p Y_q> over a string's
operators is S M S = i K with K real antisymmetric: <A_l A_m> = i K,
<A_l B_m> = <B_l A_m> = -K and <B_l B_m> = -i K for distinct operators.
Every state is stored and read as K.  The vacuum's has closed
momentum-integral forms in terms of the kernels u^o = s*t*sinc(Lambda t),
u^e = e*t*sinc(Lambda t), v = cos(Lambda t), at separation r = m - l:

    K_AB(r) = -delta_{r0} + (2/pi) int_0^pi [u_o^2 cos(kr)
                                             + u_e u_o sin(kr)] dk
    K_AA(r) = -(2/pi) int_0^pi v u_o sin(kr) dk = -K_BB(r)

(The diagonals of AA and BB, A_l^2 = 1 and B_l^2 = -1, are never read by
a string.)  A one-particle Bell seed is a one-orbital Slater determinant
evolved by a quadratic H, so it is Gaussian: Wick's theorem holds with
its own contractions, the vacuum's plus a rank-two update.  Through S,
each operator's one-particle elements <vac| X_l(t) c_b^dag |vac> at both
sources b, x = b - l, give one complex number

    u_A(x) = V(x) + i (E(x) - O(x)),    u_B(x) = i V(x) - (E(x) + O(x)),
    u_l = w_i u(l, i) + w_j u(l, j);

its bra side, <vac| c_a X_l(t) |vac> summed with conj(w_a), is conj(u_l),
and the update is real:

    K_state(p, q) = K_vac(p, q) + 2 Im(conj(u_p) u_q) / n2,  n2 = sum |w|^2.

All of these were cross-checked against exact diagonalization on small
rings before being frozen into the test suite.

`VacuumContractions` evaluates these integrals and the kernels V, E, O of
`model` as one ring sum per (t, radius): the mean over M equally spaced
momenta of the k-even integrands (weight pi/M against the 1/pi above),
all six from one inverse FFT, O(M log M) per time.
This is the only place the grid is built for the dynamics.  The boundary
sector of the ring follows the state's fermion parity (Lieb, Schultz &
Mattis, Ann. Phys. 16:407, 1961): antiperiodic for the vacuum, periodic
for a one-particle Bell seed.  On a finite ring M is its size, and the
tables are exact for that ring.  The thermodynamic limit is a ring too
large to wrap, M = `ring_size`: the integrands are periodic and analytic
in k, so the sum converges exponentially (Trefethen & Weideman, SIAM Rev.
56:385, 2014), and the only error is aliasing from separations M away.  A
Bell seed reads both from its vacuum, tabulated out to the seed span plus
the seed's own radius; the scenario engine sizes a block's radius by what
its grid reads, the wrappers below by the light cone of its latest time.

Every translation-invariant Gaussian state is a `PairTables`: rows AA,
AB, BA, BB of K(l, l + r) over |r| <= radius, held as (kind pair,
separation, time) so that each entry is a vector over the block's times.
One `entries` gather gives the upper triangle of K for whole arrays of
strings (kinds are the codes A and B, operators first) as a real
(pairs, strings, times) block, the layout a Pfaffian stack is filled in.
The vacuum fills the rows by one ring sum per time, so a time's values
depend only on (t, radius); the ground state (`groundstate`) fills them
by quadrature.  A Bell seed's `entries` are its vacuum's block plus the
update, added in place from real gathers of the per-operator rows Re u
and Im u (operators, times).  A separation beyond the radius raises
CutoffError.
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


def _table_index(x, radius, what):
    """Positions x + radius of the separations x (any shape) in tables of
    that radius; a separation beyond it raises CutoffError."""
    x = np.asarray(x)
    if np.abs(x).max(initial=0) > radius:
        worst = int(x.flat[np.argmax(np.abs(x))])
        raise CutoffError(
            f"{what} radius {radius} exceeded at separation {worst}")
    return x + radius


def _ring_tables(params, t, radius, sector):
    """V, E, O and the K tables of |x| <= radius at one time t, from one
    inverse FFT over k_m = k_0 + 2 pi m / M read at x mod M and turned by
    e^{i k_0 x}: cosine sums are real parts, sine sums imaginary parts."""
    rs = np.arange(-radius, radius + 1)
    n = params.size if params.is_finite else ring_size(params, t, radius)
    k = momentum_grid(n, sector)
    e, s, lam_k = dispersion(params, k)
    sinc_t = t * np.sinc(lam_k * t / np.pi)
    v, ue, uo = np.cos(lam_k * t), e * sinc_t, s * sinc_t
    sums = np.fft.ifft([v, ue, uo, uo * uo, ue * uo, v * uo])[:, rs % n]
    sums *= np.exp(1j * k[0] * rs)
    delta = (rs == 0).astype(float)
    ab = delta - 2.0 * (sums[3].real + sums[4].imag)  # <A_l B_{l+r}>
    aa = -2.0 * sums[5].imag
    # rows by kind pair 2 * kind_l + kind_m: AA, AB, BA, BB, where
    # K_BA(r) = -K_AB(-r) and K_BB = -K_AA
    return (sums[0].real, sums[1].real, sums[2].imag,
            np.stack([aa, -ab, ab[::-1], -aa]))


class PairTables:
    """The real antisymmetric K of a translation-invariant Gaussian state
    at a block of times: tables (4, 2 * radius + 1, times) with rows AA,
    AB, BA, BB by kind pair 2 * kind_l + kind_m, entry r + radius of a row
    at separation r = m - l, and each entry a time vector.  what names the
    table in a CutoffError."""

    def __init__(self, times, radius, tables, what):
        self.times, self.radius, self._tables = times, int(radius), tables
        self._what = what

    def entries(self, kinds, sites, pairs=None):
        """K(p, q), (n (n - 1) / 2, ..., times) in `numpy.triu_indices`
        order, of strings given operators first by kind codes and sites
        (n, ...), which broadcast: one gather of time vectors into a fresh
        array.  pairs is the (p, q) of that order, when the caller has
        it."""
        kinds, sites = np.asarray(kinds), np.asarray(sites)
        p, q = pairs or np.triu_indices(len(sites), 1)
        idx = _table_index(sites[q] - sites[p], self.radius, self._what)
        return self._tables[2 * kinds[p] + kinds[q], idx]


class VacuumContractions(PairTables):
    """Pair tables of the time-evolved vacuum at a block of times (a scalar
    t is a block of one), and the kernel tables V, E, O they are built
    from: entry x + radius of a row holds separation x.  sector is the
    ring's boundary sector, antiperiodic for the vacuum itself."""

    def __init__(self, params, times, radius, sector="antiperiodic"):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        v, e, o, tables = zip(*[_ring_tables(params, t, radius, sector)
                                for t in times])
        self.v_table, self.e_table, self.o_table = map(np.stack, (v, e, o))
        super().__init__(times, radius, np.stack(tables, axis=-1),
                         "contraction")


class BellContractions:
    """Contractions of a one-particle Bell seed on the vacuum.

    The state is (w_i c_i^dag + w_j c_j^dag)|vac> / sqrt(n2) with weights
    (1, amp), amp = `model.seed_amp(phi)` for a psi_bell seed at phase phi.
    Every accessor takes kind codes and sites as broadcasting arrays.

    The state has odd fermion parity, so every table, the vacuum part
    included, is a periodic-sector ring sum.  On a finite ring `vacuum` is
    therefore not the state's unperturbed (even-parity) vacuum; in the
    thermodynamic limit the two sectors agree to roundoff.
    """

    sector = "periodic"

    def __init__(self, params, times, radius, i, j, amp=-1.0):
        if i == j:
            raise ValueError("Bell seed needs two distinct sites")
        self.weights = (1.0 + 0j, complex(amp))
        self.n2 = 1.0 + abs(amp) ** 2
        self.sources = (int(i), int(j))
        self.vacuum = VacuumContractions(
            params, times, abs(j - i) + radius, self.sector)
        self.times = self.vacuum.times

    def entries(self, kinds, sites, pairs=None):
        """K(p, q) of strings as `PairTables.entries`: the vacuum's plus
        2 (Re u_p Im u_q - Im u_p Re u_q) / n2, added in place.  u is formed
        once per distinct (kind, site) operator of the strings, from one
        gather of the kernels V, E, O at both sources, and its real and
        imaginary rows (operators, times) are gathered to every slot."""
        kinds, sites = np.asarray(kinds), np.asarray(sites)
        p, q = pairs or np.triu_indices(len(sites), 1)
        vac = self.vacuum
        upper = vac.entries(kinds, sites, (p, q))
        codes = 2 * sites + kinds  # one code per operator, kind in bit 0
        ops, slots = np.unique(codes, return_inverse=True)
        idx = _table_index(np.subtract(self.sources, (ops >> 1)[:, None]),
                           vac.radius, "kernel")
        v, e, o = vac.v_table[:, idx], vac.e_table[:, idx], vac.o_table[:, idx]
        x = np.where(((ops & 1) == A)[:, None], v + 1j * (e - o),
                     1j * v - (e + o))
        u = self.weights[0] * x[..., 0] + self.weights[1] * x[..., 1]
        re, im = np.ascontiguousarray(u.real.T), np.ascontiguousarray(u.imag.T)
        slots = slots.reshape(codes.shape)
        sp, sq = slots[p], slots[q]
        update = re[sp]  # in place: one gather beside each product
        update *= im[sq]
        cross = im[sp]
        cross *= re[sq]
        update -= cross
        update *= 2.0
        upper += np.divide(update, self.n2, out=update)
        return upper


def vacuum_contractions(params, times):
    radius = light_cone_radius(params, np.max(np.abs(times)))
    return VacuumContractions(params, times, radius)


def bell_contractions(params, times, i, j, amp=-1.0):
    radius = light_cone_radius(params, np.max(np.abs(times)))
    return BellContractions(params, times, radius, i, j, amp=amp)
