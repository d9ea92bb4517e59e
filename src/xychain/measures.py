"""Entanglement measures of X states, and the views that serve them.

The parity structure of all states handled here (eigenstates of the spin
parity, or number-conserving sectors) forces the two-site reduced density
matrix into X form in the basis (uu, ud, du, dd): populations a, x, y, b on
the diagonal, coherences c = rho[uu, dd] and z = rho[ud, du].  These X
entries (a, b, x, y, c, z) are the currency between states and measures:
`rho2` builds and checks the matrices, and the closed concurrence is
max(0, 2(|c| - sqrt(xy)), 2(|z| - sqrt(ab))) (Wootters, PRL 80:2245, 1998;
Yu & Eberly, QIC 7:459, 2007).  `x_entries` reads them off correlator
columns (..., 7) laid out as COLUMNS, g_{ab} = <S^a_l S^b_m>:
a, b = 1/4 +- Mz + gzz, x, y = 1/4 - gzz +- dSz, c = gxx - gyy - i(gxy + gyx)
and z = gxx + gyy + i(gxy - gyx), with Mz, dSz = (mz_l +- mz_m)/2.  An
analytic view (`XView`) gives the entries of its pairs and derives
concurrence, rho2 and partner sums.  The generic Wootters route is the
oracle's reference; the two agree to 1e-10 on random physical states.
"""

import math

import numpy as np

from .errors import NumericalHealthError

EIG_CLAMP = 1e-8
RADICAND_HARD = 1e-6
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)  # sigma_y x sigma_y, the spin flip of two qubits


COLUMNS = ("gxx", "gyy", "gzz", "gxy", "gyx", "mz_l", "mz_m")


def _modulus(v):
    """|v| of complex scalars or arrays.  np.abs rounds complex arrays
    differently from scalars; hypot rounds both like Python's abs()."""
    return np.hypot(np.real(v), np.imag(v))


def x_entries(columns):
    """X entries (a, b, x, y, c, z), each (...), of columns (..., 7)."""
    gxx, gyy, gzz, gxy, gyx, mz_l, mz_m = np.moveaxis(
        np.asarray(columns, dtype=float), -1, 0)
    mz_mean, mz_diff = 0.5 * (mz_l + mz_m), 0.5 * (mz_l - mz_m)
    return (0.25 + mz_mean + gzz, 0.25 - mz_mean + gzz,
            0.25 - gzz + mz_diff, 0.25 - gzz - mz_diff,
            gxx - gyy - 1j * (gxy + gyx), gxx + gyy + 1j * (gxy - gyx))


def rho2(entries):
    """X-form density matrices (..., 4, 4) of entries that broadcast
    together, each checked by validate_density."""
    a, b, x, y, c, z = entries
    rho = np.zeros(np.broadcast(a, b, x, y, c, z).shape + (4, 4),
                   dtype=complex)
    for k, m, v in ((0, 0, a), (1, 1, x), (2, 2, y), (3, 3, b), (0, 3, c),
                    (1, 2, z)):
        rho[..., k, m], rho[..., m, k] = v, np.conj(v)
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
    values = np.asarray(values)
    bad = values < -RADICAND_HARD
    if bad.any():
        raise NumericalHealthError(f"{what}: radicand {values[bad][0]:.3e} "
                                   "is negative beyond tolerance")
    return np.sqrt(np.maximum(values, 0.0))


def concurrence_branches(entries):
    """The two competing branch values 2(|c| - sqrt(xy)) and
    2(|z| - sqrt(ab)) of the closed concurrence formula on X entries."""
    a, b, x, y, c, z = entries
    root_c = _safe_sqrt(x * y, "concurrence parallel branch")
    root_z = _safe_sqrt(a * b, "concurrence antiparallel branch")
    return 2.0 * (_modulus(c) - root_c), 2.0 * (_modulus(z) - root_z)


def concurrence_closed(entries):
    """Wootters concurrences of X entries, closed form."""
    branch_c, branch_z = concurrence_branches(entries)
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
    """Von Neumann entropies in bits of a density matrix or a stack
    (..., n, n) of them, from the eigenvalues validate_density returns."""
    evals = validate_density(np.asarray(rho, dtype=complex))
    terms = evals * np.log2(np.where(evals > 0.0, evals, 1.0))
    # 0 - sum rather than -sum: a pure state gives +0.0, not -0.0
    return 0.0 - np.sum(terms, axis=-1)


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


def ckw_residual(tau1, square_sums):
    """tau1 minus the summed squared pair concurrences of a site."""
    return np.subtract(tau1, square_sums)


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


class XView:
    """A measurement view whose pair states are X matrices.

    A subclass gives pair_entries(ls, ms), the X entries of the pairs with
    the times first, and partners(x), the sites a partner sum of site x
    runs over; concurrence, rho2 and partner_sums follow from them."""

    def concurrence(self, ls, ms):
        return concurrence_closed(self.pair_entries(ls, ms))

    def rho2(self, ls, ms):
        return rho2(self.pair_entries(ls, ms))

    def partner_sums(self, xs):
        """(sum_q C_xq, sum_q C_xq^2) over the partners q of each site x,
        each shaped like xs after the times."""
        rows = [np.asarray(self.partners(x)) for x in np.ravel(xs)]
        counts = [len(q) for q in rows]
        ns, qs = np.repeat(np.ravel(xs), counts), np.concatenate(rows)
        concs = self.concurrence(np.minimum(ns, qs), np.maximum(ns, qs))
        parts = np.split(concs, np.cumsum(counts)[:-1], axis=-1)
        sums = [(c.sum(-1), (c * c).sum(-1)) for c in parts]
        return tuple(np.reshape(np.stack(v, -1), concs.shape[:-1]
                                + np.shape(xs)) for v in zip(*sums))
