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
g_{ab} = <S^a_l S^b_m>, which come as columns (..., 7) laid out as COLUMNS.
The closed concurrence formula evaluates Wootters' concurrence directly on
that structure; the generic eigenvalue route is kept alongside and the two
are required to agree to 1e-10 on random physical states.
"""

import math

import numpy as np

from .errors import NumericalHealthError

EIG_CLAMP = 1e-8
RADICAND_HARD = 1e-6
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)  # sigma_y x sigma_y, the spin flip of two qubits
_hypot = np.frompyfunc(math.hypot, 2, 1)  # numpy's hypot rounds otherwise


COLUMNS = ("gxx", "gyy", "gzz", "gxy", "gyx", "mz_l", "mz_m")


def _unpack(columns):
    """gxx, gyy, gzz, gxy, gyx, Mz, dSz of columns (..., 7), each (...)."""
    gxx, gyy, gzz, gxy, gyx, mz_l, mz_m = np.moveaxis(
        np.asarray(columns, dtype=float), -1, 0)
    return gxx, gyy, gzz, gxy, gyx, 0.5 * (mz_l + mz_m), 0.5 * (mz_l - mz_m)


def x_matrices(a, b, x, y, c, z):
    """X-form density matrices in the basis (uu, ud, du, dd), shape
    (..., 4, 4), from entries that broadcast together."""
    rho = np.zeros(np.broadcast(a, b, x, y, c, z).shape + (4, 4),
                   dtype=complex)
    for k, v in enumerate((a, x, y, b)):
        rho[..., k, k] = v
    rho[..., 0, 3] = c
    rho[..., 3, 0] = np.conj(c)
    rho[..., 1, 2] = z
    rho[..., 2, 1] = np.conj(z)
    return rho


def rho2_from_correlators(columns):
    """Two-site density matrices (..., 4, 4) of columns (..., 7), each
    checked by validate_density."""
    gxx, gyy, gzz, gxy, gyx, mz_mean, mz_diff = _unpack(columns)
    rho = x_matrices(0.25 + mz_mean + gzz, 0.25 - mz_mean + gzz,
                     0.25 - gzz + mz_diff, 0.25 - gzz - mz_diff,
                     gxx - gyy - 1j * (gxy + gyx),
                     gxx + gyy + 1j * (gxy - gyx))
    validate_density(rho)
    return rho


def validate_density(rho, clamp=EIG_CLAMP):
    """Check trace, hermiticity and positivity of a density matrix or a
    stack (..., n, n) of them; returns the clamped eigenvalues.

    Eigenvalues in [-clamp, 0) count as roundoff; anything more negative is
    a genuine inconsistency and raises NumericalHealthError.
    """
    rho = np.asarray(rho)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > 1e-8
    if off.any():
        raise NumericalHealthError(
            f"density matrix trace {trace[off].flat[0]:.12g} != 1")
    skew = np.abs(rho - np.swapaxes(rho, -1, -2).conj())
    if np.max(skew, initial=0.0) > 1e-10:
        raise NumericalHealthError("density matrix is not hermitian")
    evals = np.linalg.eigvalsh(rho)
    low = np.min(evals, initial=0.0)
    if low < -clamp:
        raise NumericalHealthError(
            f"density matrix eigenvalue {low:.3e} below -{clamp:.1e}")
    return np.clip(evals, 0.0, None)


def _safe_sqrt(values, what):
    """sqrt of radicands that are nonnegative up to roundoff."""
    bad = values < -RADICAND_HARD
    if bad.any():
        raise NumericalHealthError(f"{what}: radicand {values[bad][0]:.3e} "
                                   "is negative beyond tolerance")
    return np.sqrt(np.maximum(values, 0.0))


def concurrence_branches(columns):
    """The two competing branch values (...) of the closed concurrence
    formula on columns (..., 7).  Moduli round as math.hypot and squares as
    x ** 2 (libm pow), as the formula on Python floats does."""
    gxx, gyy, gzz, gxy, gyx, mz_mean, mz_diff = _unpack(columns)
    c_abs = np.asarray(_hypot(gxx - gyy, gxy + gyx), dtype=float)
    z_abs = np.asarray(_hypot(gxx + gyy, gxy - gyx), dtype=float)
    root_c = _safe_sqrt(np.float_power(0.25 - gzz, 2)
                        - np.float_power(mz_diff, 2),
                        "concurrence parallel branch")
    root_z = _safe_sqrt(np.float_power(0.25 + gzz, 2)
                        - np.float_power(mz_mean, 2),
                        "concurrence antiparallel branch")
    return 2.0 * (c_abs - root_c), 2.0 * (z_abs - root_z)


def concurrence_closed(columns):
    """Wootters concurrences (...) of columns (..., 7), closed X form."""
    branch_c, branch_z = concurrence_branches(columns)
    return np.maximum(0.0, np.maximum(branch_c, branch_z))


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
