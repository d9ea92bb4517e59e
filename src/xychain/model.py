"""Chain parameters, dispersion, and Heisenberg-picture mode evolution.

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
Lambda = 0.  On a finite ring the integrals become 1/N sums over the
antiperiodic momentum grid (odd multiples of pi/N), which never contains the
gapless points.

At gamma = 0 the anomalous kernel O vanishes identically and
a(x) = exp(i t) i^x J_x(lam t); the Bessel route in `isotropic` builds on
that closed form, and the equality is checked in the tests.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, DegenerateMomentumError
from .quadrature import kernel_grid


class _ThermodynamicLimit:
    """Sentinel for 'no finite ring': momentum sums become integrals."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "THERMODYNAMIC_LIMIT"


THERMODYNAMIC_LIMIT = _ThermodynamicLimit()

LIGHT_CONE_PAD = 30


@dataclass(frozen=True)
class ModelParams:
    """Couplings and system size.

    Attributes
    ----------
    lam : float
        Overall exchange coupling (>= 0).
    gamma : float
        XY anisotropy; 0 is the isotropic point.
    size : int or THERMODYNAMIC_LIMIT
        Ring length, or the thermodynamic-limit sentinel.
    """

    lam: float
    gamma: float = 0.0
    size: object = field(default=THERMODYNAMIC_LIMIT)

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.size is not THERMODYNAMIC_LIMIT:
            if not isinstance(self.size, (int, np.integer)) or self.size < 2:
                raise ValueError(f"size must be an int >= 2, got {self.size!r}")

    @property
    def is_isotropic(self):
        return self.gamma == 0.0

    @property
    def is_finite(self):
        return self.size is not THERMODYNAMIC_LIMIT


def dispersion(params, k):
    """Quasiparticle energy Lambda_k (vectorized in k)."""
    k = np.asarray(k, dtype=float)
    e = 1.0 + params.lam * np.cos(k)
    s = params.lam * params.gamma * np.sin(k)
    return np.hypot(e, s)


def bogoliubov(params, k):
    """Bogoliubov pair (alpha_k, beta_k) with alpha^2 + beta^2 = 1.

    alpha = (Lambda - e)/D and beta = s/D with D = sqrt(2 Lambda (Lambda-e)),
    e = 1 + lam cos k, s = lam gamma sin k.  For e > 0, Lambda - e =
    s^2/(Lambda + e) is divided out by hand: the naive subtraction loses all
    digits once gamma drops below ~1e-7, and s^2 underflows below ~1e-154.

    Conventions at the undefined points: s = 0 with e > 0 returns (0, 0)
    (the mode is already diagonal); Lambda = 0 (critical momentum at
    lam = 1) raises DegenerateMomentumError.
    """
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    e = 1.0 + params.lam * np.cos(k)
    s = params.lam * params.gamma * np.sin(k)
    lam_k = np.hypot(e, s)
    if np.any(lam_k == 0.0):
        raise DegenerateMomentumError(
            "dispersion vanishes at a requested momentum")
    pos = e > 0.0
    plus = np.where(pos, lam_k + e, 1.0)
    minus = np.where(pos, 1.0, lam_k - e)
    alpha = np.where(pos, np.abs(s) / np.sqrt(2.0 * lam_k * plus),
                     np.sqrt(minus / (2.0 * lam_k)))
    beta = np.where(pos, np.sign(s) * np.sqrt(plus / (2.0 * lam_k)),
                    s / np.sqrt(2.0 * lam_k * minus))
    if scalar:
        return float(alpha[0]), float(beta[0])
    return alpha, beta


def momentum_grid(n, sector):
    """Ring momenta in (-pi, pi] for the given boundary sector.

    'antiperiodic' gives odd multiples of pi/n (even fermion parity),
    'periodic' gives even multiples (odd parity).
    """
    m = np.arange(n)
    if sector == "antiperiodic":
        return np.pi * (2.0 * m + 1.0 - n) / n
    if sector == "periodic":
        return 2.0 * np.pi * m / n - np.pi
    raise ValueError(f"unknown sector {sector!r}")


def _momentum_weights(params, lam_t, reach):
    """Grid (k, w) such that sum w*f approximates (1/?) int_0^pi f dk.

    Thermodynamic limit: composite Gauss-Legendre on [0, pi] with weights
    summing to pi.  Finite ring: the full antiperiodic grid with uniform
    weight pi/n, valid for integrands written in k-even form (all kernels
    here are).
    """
    if params.is_finite:
        k = momentum_grid(params.size, "antiperiodic")
        w = np.full(params.size, np.pi / params.size)
        return k, w
    return kernel_grid(lam_t, reach)


def propagation_kernels(params, t, xs, extra_panels=0):
    """Kernel tables (V, E, O) evaluated at integer separations xs."""
    xs = np.asarray(xs, dtype=float)
    reach = float(np.max(np.abs(xs))) if xs.size else 0.0
    if params.is_finite:
        k, w = _momentum_weights(params, 0.0, 0.0)
    else:
        k, w = kernel_grid(params.lam * t, reach, extra_panels)
    e = 1.0 + params.lam * np.cos(k)
    s = params.lam * params.gamma * np.sin(k)
    lam_k = np.hypot(e, s)
    v = np.cos(lam_k * t)
    sinc_t = t * np.sinc(lam_k * t / np.pi)
    ue = e * sinc_t
    uo = s * sinc_t
    ckx = np.cos(np.outer(xs, k))
    skx = np.sin(np.outer(xs, k))
    inv_pi = 1.0 / np.pi
    vx = inv_pi * ckx @ (w * v)
    ex = inv_pi * ckx @ (w * ue)
    ox = inv_pi * skx @ (w * uo)
    return vx, ex, ox


@dataclass(frozen=True)
class EvolutionCoefficients:
    """Mode-mixing coefficients a(x), b(x) at a fixed time."""

    params: ModelParams
    time: float
    x_lo: int
    a_tilde: np.ndarray
    b_tilde: np.ndarray

    def a(self, x):
        return self.a_tilde[x - self.x_lo]

    def b(self, x):
        return self.b_tilde[x - self.x_lo]

    @property
    def x_hi(self):
        return self.x_lo + len(self.a_tilde) - 1

    @property
    def weight_defect(self):
        total = np.sum(np.abs(self.a_tilde) ** 2 + np.abs(self.b_tilde) ** 2)
        return abs(1.0 - total)


def light_cone_radius(params, t):
    """Site cutoff beyond which evolved-mode weight is negligible."""
    return int(np.ceil(abs(params.lam) * abs(t))) + LIGHT_CONE_PAD


def evolution_coefficients(params, t, x_max=None):
    """Evolved-mode coefficients over separations within x_max.

    In the thermodynamic limit the truncated weight must satisfy
    sum_x (|a|^2 + |b|^2) = 1 within 1e-10, otherwise CutoffError is raised
    (the light cone has outrun the cutoff).  On a finite ring the full ring
    is always returned and the same identity holds exactly.
    """
    if params.is_finite:
        n = params.size
        x_lo = -((n - 1) // 2)
        xs = np.arange(x_lo, x_lo + n)
    else:
        if x_max is None:
            x_max = light_cone_radius(params, t)
        x_lo = -int(x_max)
        xs = np.arange(x_lo, x_max + 1)
    vx, ex, ox = propagation_kernels(params, t, xs)
    coeffs = EvolutionCoefficients(
        params=params,
        time=float(t),
        x_lo=int(x_lo),
        a_tilde=vx + 1j * ex,
        b_tilde=-1j * ox,
    )
    if coeffs.weight_defect > 1e-10:
        raise CutoffError(
            f"coefficient cutoff x_max={xs.max()} too small at t={t}: "
            f"weight defect {coeffs.weight_defect:.3e}")
    return coeffs
