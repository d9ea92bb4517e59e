"""Chain parameters, dispersion, and the kernels of mode evolution.

The Hamiltonian is

    H = -lam * sum_i [(1+gamma) Sx_i Sx_{i+1} + (1-gamma) Sy_i Sy_{i+1}]
        - sum_i Sz_i

on a periodic spin-1/2 chain, either at a finite ring size or directly in the
thermodynamic limit.  After the Jordan-Wigner map the elementary objects are
fermion modes c_l whose Heisenberg evolution mixes c with c^dagger:

    c_l(t) = sum_m [ a(m-l) c_m - b(m-l) c_m^dagger ]

with translation-invariant coefficients a(x) = V(x) + i E(x) and
b(x) = -i O(x) built from three momentum kernels

    V(x) = (1/pi) int_0^pi cos(Lambda_k t) cos(k x) dk
    E(x) = (1/pi) int_0^pi (1 + lam cos k) t sinc(Lambda_k t) cos(k x) dk
    O(x) = (1/pi) int_0^pi lam gamma sin(k) t sinc(Lambda_k t) sin(k x) dk

where Lambda_k = sqrt((1 + lam cos k)^2 + (lam gamma sin k)^2).  Writing
sin(Lambda t)/Lambda as t*sinc(Lambda t) keeps the kernels smooth through
Lambda = 0.  On a ring of N sites the integrals become 1/N sums over the
ring momenta of the state's fermion-parity sector (`momentum_grid`): odd
multiples of pi/N (antiperiodic) for even parity, such as the vacuum, and
even multiples (periodic) for odd parity, such as a one-particle Bell seed.
The thermodynamic limit is the same sum on a ring too large to wrap.

`dispersion` gives e_k = 1 + lam cos k, s_k = lam gamma sin k and Lambda_k
on a set of momenta; the ring sums of the dynamics, one FFT per time, and
the ground state's panel quadrature both start from it.  The kernels are
tabulated by `correlators.VacuumContractions`, on the same ring of
momenta as the vacuum contractions they feed.  At gamma = 0 the
anomalous kernel O vanishes identically and a(x) = exp(i t) i^x J_x(lam t);
the Bessel route in `isotropic` builds on that closed form, and the
equality is checked in the tests.
"""

from dataclasses import dataclass

import numpy as np

THERMODYNAMIC_LIMIT = None  # the size of the infinite chain

LIGHT_CONE_PAD = 30
PAIR_WINDOW = 7  # partner reach of pair sums on the Pfaffian route


@dataclass(frozen=True)
class ModelParams:
    """Couplings and system size.

    Attributes
    ----------
    lam : float
        Overall exchange coupling (>= 0).
    gamma : float
        XY anisotropy; 0 is the isotropic point.
    size : int or None
        Ring length; None (THERMODYNAMIC_LIMIT) is the infinite chain.
    """

    lam: float
    gamma: float = 0.0
    size: int = None

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.size is not None:
            if not isinstance(self.size, (int, np.integer)) or self.size < 2:
                raise ValueError(f"size must be an int >= 2, got {self.size!r}")

    @property
    def is_finite(self):
        return self.size is not None


def momentum_grid(n, sector):
    """Ring momenta of the given boundary sector, ascending: the n odd
    multiples of pi/n in (-pi, pi] for 'antiperiodic' (even fermion
    parity), the n even ones in [-pi, pi) for 'periodic' (odd parity).  At
    odd n that puts pi in the antiperiodic grid and k = 0 in the periodic.
    """
    m = np.arange(n)
    if sector == "antiperiodic":
        return np.pi * (2.0 * m + 1.0 - n + n % 2) / n
    if sector == "periodic":
        return 2.0 * np.pi * m / n - np.pi * (1.0 - (n % 2) / n)
    raise ValueError(f"unknown sector {sector!r}")


def light_cone_radius(params, t):
    """Site cutoff beyond which evolved-mode weight is negligible at t >= 0."""
    return LIGHT_CONE_PAD + np.ceil(params.lam * np.asarray(t)).astype(int)


def seed_amp(phi):
    """e^{i phi}, exactly +-1 within 1e-9 of the phases 0 and pi."""
    amp = complex(np.exp(1j * phi))
    return next((s for s in (1.0, -1.0) if abs(amp - s) < 1e-9), amp)


def dispersion(params, k):
    """e_k, s_k and Lambda_k on the momenta k."""
    e = 1.0 + params.lam * np.cos(k)
    s = params.lam * params.gamma * np.sin(k)
    return e, s, np.hypot(e, s)
