"""Entanglement measures of X states, and the views that serve them.

The parity structure of all states handled here (eigenstates of the spin
parity, or number-conserving sectors) forces the two-site reduced density
matrix into X form in the basis (uu, ud, du, dd): populations a, x, y, b on
the diagonal, coherences c = rho[uu, dd] and z = rho[ud, du].  These X
entries (a, b, x, y, c, z) are the only input of every measure; no matrix
is built.  `x_spectrum` checks them by the closed-form spectrum of the two
2x2 blocks, which `entropy_vn` reads, and the closed concurrence is
max(0, 2(|c| - sqrt(xy)), 2(|z| - sqrt(ab))) (Wootters, PRL 80:2245, 1998;
Yu & Eberly, QIC 7:459, 2007).  `x_entries` reads them off correlator
columns (..., 7) laid out as COLUMNS, g_{ab} = <S^a_l S^b_m>:
a, b = 1/4 +- Mz + gzz, x, y = 1/4 - gzz +- dSz, c = gxx - gyy - i(gxy + gyx)
and z = gxx + gyy + i(gxy - gyx), with Mz, dSz = (mz_l +- mz_m)/2.  A view
(`XView`) gives the entries of its pairs and derives concurrence, checked
spectra and partner sums, evaluating each pair set once.  The oracle's
concurrence, Wootters' on the closed-form spin-flip roots
(`concurrence_wootters`), agrees to 1e-10 on random physical states.
"""

import math

import numpy as np

from .errors import NumericalHealthError

EIG_CLAMP = 1e-8
RADICAND_HARD = 1e-6

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


def x_spectrum(entries):
    """The eigenvalues (..., 4) of the X matrices of entries that broadcast
    together, (a + b)/2 -+ hypot((a - b)/2, |c|) and the same of x, y, z,
    clamped at 0, after checking the trace, hermiticity (real populations)
    and positivity: an eigenvalue below -EIG_CLAMP is no roundoff and raises
    NumericalHealthError."""
    a, b, x, y, c, z = np.broadcast_arrays(*entries)
    populations = np.stack([a, b, x, y])
    trace = populations.sum(axis=0)
    off = np.abs(trace - 1.0) > 1e-8
    if off.any():
        raise NumericalHealthError(
            f"density matrix trace {trace[off].real.flat[0]:.12g} != 1")
    # |rho - rho^dagger| on the diagonal is 2 |Im d|
    if 2.0 * np.max(np.abs(np.imag(populations)), initial=0.0) > 1e-10:
        raise NumericalHealthError("density matrix is not hermitian")
    a, b, x, y = np.real(populations)
    blocks = [((p + q) / 2, np.hypot((p - q) / 2, _modulus(v)))
              for p, q, v in ((a, b, c), (x, y, z))]
    evals = np.stack([m + s * r for m, r in blocks for s in (-1, 1)], -1)
    low = np.min(evals, initial=0.0)
    if low < -EIG_CLAMP:
        raise NumericalHealthError(
            f"density matrix eigenvalue {low:.3e} below -{EIG_CLAMP:.1e}")
    return np.maximum(evals, 0.0)


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


def concurrence_wootters(entries):
    """Wootters' concurrence max(0, l1 - l2 - l3 - l4) of X entries, from
    the square roots l of the spin-flip spectrum of rho (sigma_y x sigma_y)
    rho* (sigma_y x sigma_y), in closed form |sqrt(ab) +- |c|| and
    |sqrt(xy) +- |z||."""
    a, b, x, y, c, z = entries
    blocks = [(_safe_sqrt(p * q, "spin-flip spectrum"), _modulus(v))
              for p, q, v in ((a, b, c), (x, y, z))]
    roots = np.abs(np.stack(np.broadcast_arrays(
        *(r + s * m for r, m in blocks for s in (1, -1))), axis=-1))
    # l^2 below 1e-12 of the largest counts as 0: the floor an eigensolver
    # on rho rho~ needs against the sqrt(eps) noise of a non-semisimple zero
    # block.  The oracle's pinned outputs (goldens, benchmark references to
    # 1e-9) hold floored values; without it rows move by up to 1e-6.
    squares = roots * roots
    roots[squares < 1e-12 * squares.max(axis=-1, keepdims=True)] = 0.0
    roots = np.sort(roots, axis=-1)
    return np.maximum(0.0, 2.0 * roots[..., -1] - roots.sum(axis=-1))


def one_tangle(mz):
    """tau1 = 1 - 4 <S^z>^2, the single-site tangle of an X-family state."""
    return 1.0 - 4.0 * mz * mz


def entropy_vn(spectrum):
    """Von Neumann entropies in bits of the pair states with the checked
    spectra (..., 4) that x_spectrum gives of their X entries."""
    terms = spectrum * np.log2(np.where(spectrum > 0.0, spectrum, 1.0))
    # 0 - sum rather than -sum: a pure state gives +0.0, not -0.0
    return 0.0 - np.sum(terms, axis=-1)


def bell_fidelities(entries):
    """Overlaps of the X states of entries with the four Bell states, as
    (psi-, psi+, phi-, phi+).

    psi^phi = (ud + e^{i phi} du)/sqrt(2), phi^phi = (uu + e^{i phi} dd)/sqrt(2);
    the minus/plus labels are phi = pi and phi = 0.  The four values sum to
    one, the trace of the state.
    """
    a, b, x, y, c, z = map(np.real, entries)
    mid, outer = 0.5 * (x + y), 0.5 * (a + b)
    return (mid - z, mid + z, outer - c, outer + c)


def ckw_residual(tau1, square_sums):
    """tau1 minus the summed squared pair concurrences of a site."""
    return np.subtract(tau1, square_sums)


def tangle_deviation(tau_state, tau_baseline):
    """Absolute and relative one-tangle deviations from a baseline state,
    elementwise over arrays that broadcast together.

    Returns (tau_state - tau_baseline, 1 - tau_baseline/tau_state); the
    relative form is 0 where both tangles vanish and inf where only the
    state's does.
    """
    tau_state, tau_baseline = np.asarray(tau_state), np.asarray(tau_baseline)
    zero = tau_state == 0.0
    rel = 1.0 - tau_baseline / np.where(zero, 1.0, tau_state)
    return tau_state - tau_baseline, np.where(
        zero, np.where(tau_baseline == 0.0, 0.0, math.inf), rel)


class XView:
    """A measurement view whose pair states are X matrices.

    A subclass gives pair_entries(ls, ms), the X entries of the pairs with
    the times first, and partners(x), the sites a partner sum of site x
    runs over; concurrence, spectrum and partner_sums follow from them.
    `ask` answers each request once per view."""

    def ask(self, method, *args):
        """method(*args), made once per view and shared by every caller
        that asks for the same method and argument values."""
        held = vars(self).setdefault("_held", {})
        key = (method, *((a.shape, a.dtype.char, a.tobytes())
                         for a in map(np.asarray, args)))
        if key not in held:
            held[key] = getattr(self, method)(*args)
        return held[key]

    def concurrence(self, ls, ms):
        return concurrence_closed(self.ask("pair_entries", ls, ms))

    def spectrum(self, ls, ms):
        """The pairs' checked spectra, x_spectrum of their X entries."""
        return x_spectrum(self.ask("pair_entries", ls, ms))

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
