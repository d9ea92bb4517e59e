"""Entanglement measures built from spin correlators or density matrices.

The parity structure of all states handled here (eigenstates of the spin
parity, or number-conserving sectors) forces the two-site reduced density
matrix into X form in the basis (uu, ud, du, dd):

    rho2 = [[1/4 + Mz + gzz, 0,               0,               c     ],
            [0,              1/4 - gzz + dSz, z,               0     ],
            [0,              zbar,            1/4 - gzz - dSz, 0     ],
            [cbar,           0,               0,               1/4 - Mz + gzz]]

with c = gxx - gyy - i(gxy + gyx), z = gxx + gyy + i(gxy - gyx),
Mz = (mz_l + mz_m)/2, dSz = (mz_l - mz_m)/2 and spin-1/2 correlators
g_{ab} = <S^a_l S^b_m>.  The closed concurrence formula evaluates Wootters'
concurrence directly on that structure; the generic eigenvalue route is kept
alongside and the two are required to agree to 1e-10 on random physical
states.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalHealthError

EIG_CLAMP = 1e-8
RADICAND_HARD = 1e-6
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)  # sigma_y x sigma_y, the spin flip of two qubits


@dataclass(frozen=True)
class CorrelatorBundle:
    """Spin correlators of one site pair, enough to assemble rho2."""

    gxx: float
    gyy: float
    gzz: float
    gxy: float
    gyx: float
    mz_l: float
    mz_m: float

    @property
    def mz_mean(self):
        return 0.5 * (self.mz_l + self.mz_m)

    @property
    def mz_diff(self):
        return 0.5 * (self.mz_l - self.mz_m)


def rho2_from_correlators(bundle):
    """Two-site density matrix in the basis (uu, ud, du, dd)."""
    b = bundle
    c = b.gxx - b.gyy - 1j * (b.gxy + b.gyx)
    z = b.gxx + b.gyy + 1j * (b.gxy - b.gyx)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.25 + b.mz_mean + b.gzz
    rho[1, 1] = 0.25 - b.gzz + b.mz_diff
    rho[2, 2] = 0.25 - b.gzz - b.mz_diff
    rho[3, 3] = 0.25 - b.mz_mean + b.gzz
    rho[0, 3] = c
    rho[3, 0] = np.conj(c)
    rho[1, 2] = z
    rho[2, 1] = np.conj(z)
    validate_density(rho)
    return rho


def validate_density(rho, clamp=EIG_CLAMP):
    """Check trace, hermiticity and positivity of a density matrix.

    Eigenvalues in [-clamp, 0) count as roundoff; anything more negative is
    a genuine inconsistency and raises NumericalHealthError.
    """
    rho = np.asarray(rho)
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise NumericalHealthError(
            f"density matrix trace {np.trace(rho):.12g} != 1")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise NumericalHealthError("density matrix is not hermitian")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -clamp:
        raise NumericalHealthError(
            f"density matrix eigenvalue {evals.min():.3e} below -{clamp:.1e}")
    return np.clip(evals, 0.0, None)


def _safe_sqrt(value, what):
    """sqrt of a radicand that is nonnegative up to roundoff."""
    if value < -RADICAND_HARD:
        raise NumericalHealthError(
            f"{what}: radicand {value:.3e} is negative beyond tolerance")
    return math.sqrt(max(value, 0.0))


def concurrence_branches(bundle):
    """The two competing branch values of the closed concurrence formula."""
    b = bundle
    c_abs = math.hypot(b.gxx - b.gyy, b.gxy + b.gyx)
    z_abs = math.hypot(b.gxx + b.gyy, b.gxy - b.gyx)
    root_c = _safe_sqrt((0.25 - b.gzz) ** 2 - b.mz_diff ** 2,
                        "concurrence parallel branch")
    root_z = _safe_sqrt((0.25 + b.gzz) ** 2 - b.mz_mean ** 2,
                        "concurrence antiparallel branch")
    return 2.0 * (c_abs - root_c), 2.0 * (z_abs - root_z)


def concurrence_closed(bundle):
    """Wootters concurrence from the closed X-state formula."""
    branch_c, branch_z = concurrence_branches(bundle)
    return max(0.0, branch_c, branch_z)


def concurrence_wootters(rho):
    """Wootters concurrence of an arbitrary two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    r = rho @ _YY @ rho.conj() @ _YY
    evals = np.linalg.eigvals(r)
    if np.max(np.abs(evals.imag)) > 1e-8:
        raise NumericalHealthError(
            f"spin-flip spectrum has imaginary part {np.max(np.abs(evals.imag)):.3e}")
    vals = evals.real
    if vals.min() < -EIG_CLAMP:
        raise NumericalHealthError(
            f"spin-flip spectrum has eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    # rho rho~ can pick up a non-semisimple zero block, whose eigenvalue
    # noise scales like sqrt(eps); without a relative floor that noise
    # passes through the square root at the 1e-8 level
    vals[vals < 1e-12 * vals.max()] = 0.0
    roots = np.sqrt(vals)
    roots.sort()
    return max(0.0, 2.0 * roots[-1] - roots.sum())


def one_tangle(mz):
    """tau1 = 1 - 4 <S^z>^2, the single-site tangle of an X-family state."""
    return 1.0 - 4.0 * mz * mz


def entropy_vn(rho):
    """Von Neumann entropy in bits of a density matrix."""
    evals = validate_density(np.asarray(rho, dtype=complex))
    evals = evals[evals > 0.0]
    # 0 - sum rather than -sum: a pure state gives +0.0, not -0.0
    return float(0.0 - np.sum(evals * np.log2(evals)))


def bell_fidelities(rho):
    """Overlaps of rho, or of each of a stack, with the four Bell states, as
    (psi-, psi+, phi-, phi+).

    psi^phi = (ud + e^{i phi} du)/sqrt(2), phi^phi = (uu + e^{i phi} dd)/sqrt(2);
    the minus/plus labels are phi = pi and phi = 0.  The four values sum to
    one exactly when the off-X entries of rho vanish, as they do for every
    state family handled by this package.
    """
    rho = np.asarray(rho, dtype=complex)
    mid = 0.5 * (rho[..., 1, 1].real + rho[..., 2, 2].real)
    outer = 0.5 * (rho[..., 0, 0].real + rho[..., 3, 3].real)
    z_re = rho[..., 1, 2].real
    c_re = rho[..., 0, 3].real
    return (mid - z_re, mid + z_re, outer - c_re, outer + c_re)


def ckw_residual(tau1, concurrences):
    """tau1 minus the sum of squared pair concurrences (the last axis)."""
    concs = np.asarray(concurrences, dtype=float)
    return tau1 - np.sum(concs * concs, axis=-1)


def tangle_deviation(tau_state, tau_baseline):
    """Absolute and relative one-tangle deviation from a baseline state.

    Returns (tau_state - tau_baseline, 1 - tau_baseline/tau_state); the
    relative form is 0 when both tangles vanish.
    """
    delta = tau_state - tau_baseline
    if tau_state == 0.0:
        rel = 0.0 if tau_baseline == 0.0 else math.inf
    else:
        rel = 1.0 - tau_baseline / tau_state
    return delta, rel
