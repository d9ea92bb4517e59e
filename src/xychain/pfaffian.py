"""Pfaffians and Wick-contracted spin correlators.

Spin-spin correlators map onto vacuum expectations of even Majorana strings
through the Jordan-Wigner transformation.  With R = m - l >= 1 the operator
strings, written with all A factors first (ascending site) and then all B
factors (ascending site), are

    Sx_l Sx_m : A_{l+1..l+R},   B_{l..l+R-1},   prefactor (1/4)(-1)^{R(R+1)/2}
    Sy_l Sy_m : A_{l..l+R-1},   B_{l+1..l+R},   prefactor (1/4)(-1)^{R(R+1)/2}
    Sx_l Sy_m : A_{l+1..l+R-1}, B_{l..l+R},     prefactor -(i/4)(-1)^{R(R-1)/2}
    Sy_l Sx_m : A_{l..l+R},     B_{l+1..l+R-1}, prefactor -(i/4)(-1)^{R(R-1)/2}
    Sz_l Sz_m : A_l B_l A_m B_m in that order,  prefactor 1/4
    Sz_l      : A_l B_l,                        prefactor -1/2

For a Gaussian state the string expectation is the Pfaffian of the matrix of
pair contractions.  For the one-particle Bell seeds the state is vacuum plus
a two-source excitation, and the expectation becomes a weighted sum of four
enlarged Pfaffians: the contraction matrix is bordered with a bra row of
"left" elements, a ket column of "right" elements, and a corner entry
delta_ab that books the direct c_a - c_b^dag pairing.  The tests check this
against an independent row-replacement expansion of the same expectation.

The Pfaffian itself is computed by the Parlett-Reid tridiagonalization with
partial pivoting; pf(M)^2 = det(M) serves as a health check.
"""

import numpy as np

from .errors import NumericalHealthError

IMAG_RESIDUE_TOL = 1e-10


def pfaffian(mat):
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Parlett-Reid tridiagonalization with partial pivoting; the input is
    copied.  Dimensions 0, 2 and 4 short-circuit to the closed forms (the
    four-operator strings keep this path hot).  Odd dimension raises
    ValueError.
    """
    a = np.array(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    n = a.shape[0]
    if n % 2:
        raise ValueError("pfaffian needs even dimension")
    if n == 0:
        return 1.0 + 0.0j
    if n == 2:
        return a[0, 1]
    if n == 4:
        return (a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3]
                + a[0, 3] * a[1, 2])
    val = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        piv = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if a[piv, k] == 0.0:
            return 0.0 + 0.0j
        if piv != k + 1:
            a[[k + 1, piv], :] = a[[piv, k + 1], :]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            val = -val
        val *= a[k, k + 1]
        w = a[k + 2:, k] / a[k + 1, k]
        v = a[k + 1, k + 2:]
        a[k + 2:, k + 2:] += np.outer(v, w) - np.outer(w, v)
    return val * a[n - 2, n - 1]


def pfaffian_checked(mat, rtol=1e-9):
    """Pfaffian with the pf^2 = det consistency check.

    Raises NumericalHealthError when the relative residual exceeds rtol.
    """
    pf = pfaffian(mat)
    det = np.linalg.det(np.asarray(mat, dtype=complex))
    scale = max(abs(det), abs(pf) ** 2, 1e-300)
    residual = abs(pf * pf - det) / scale
    if residual > rtol:
        raise NumericalHealthError(
            f"pfaffian^2 vs det residual {residual:.3e} exceeds {rtol:.1e}")
    return pf


def operator_string(alpha, beta, l, m):
    """Majorana string for S^alpha_l S^beta_m with l < m.

    Returns (kinds, sites, prefactor) with kinds a tuple of 'A'/'B' in the
    fixed contraction order described in the module docstring.
    """
    if m <= l:
        raise ValueError("operator_string expects l < m")
    r = m - l
    if (alpha, beta) == ("z", "z"):
        return ("A", "B", "A", "B"), (l, l, m, m), 0.25
    if (alpha, beta) == ("x", "x"):
        a_sites = tuple(range(l + 1, l + r + 1))
        b_sites = tuple(range(l, l + r))
        pref = 0.25 * (-1.0) ** ((r * (r + 1)) // 2)
    elif (alpha, beta) == ("y", "y"):
        a_sites = tuple(range(l, l + r))
        b_sites = tuple(range(l + 1, l + r + 1))
        pref = 0.25 * (-1.0) ** ((r * (r + 1)) // 2)
    elif (alpha, beta) == ("x", "y"):
        a_sites = tuple(range(l + 1, l + r))
        b_sites = tuple(range(l, l + r + 1))
        pref = -0.25j * (-1.0) ** ((r * (r - 1)) // 2)
    elif (alpha, beta) == ("y", "x"):
        a_sites = tuple(range(l, l + r + 1))
        b_sites = tuple(range(l + 1, l + r))
        pref = -0.25j * (-1.0) ** ((r * (r - 1)) // 2)
    else:
        raise ValueError(f"unsupported component pair {(alpha, beta)!r}")
    kinds = ("A",) * len(a_sites) + ("B",) * len(b_sites)
    return kinds, a_sites + b_sites, pref


def _vacuum_matrix(contractions, kinds, sites):
    n = len(kinds)
    mat = np.zeros((n, n), dtype=complex)
    vac = contractions.vacuum if contractions.is_modified else contractions
    for p in range(n):
        for q in range(p + 1, n):
            mat[p, q] = vac.pair(kinds[p], sites[p], kinds[q], sites[q])
    return mat - mat.T


def _string_expectation(contractions, kinds, sites):
    """<op string> in the given state via Pfaffian machinery."""
    mvac = _vacuum_matrix(contractions, kinds, sites)
    if not contractions.is_modified:
        return pfaffian(mvac)
    n = len(kinds)
    total = 0.0 + 0.0j
    for ai, (a, wa) in enumerate(zip(contractions.sources,
                                     contractions.weights)):
        for bi, (b, wb) in enumerate(zip(contractions.sources,
                                         contractions.weights)):
            big = np.zeros((n + 2, n + 2), dtype=complex)
            big[1:n + 1, 1:n + 1] = np.triu(mvac)
            for p in range(n):
                big[0, p + 1] = contractions.left(kinds[p], sites[p], a)
                big[p + 1, n + 1] = contractions.right(kinds[p], sites[p], b)
            big[0, n + 1] = 1.0 if ai == bi else 0.0
            big -= big.T.copy()
            total += np.conj(wa) * wb * pfaffian(big)
    return total / contractions.n2


def _real_result(value, what):
    value = complex(value)
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(value)):
        raise NumericalHealthError(
            f"{what} has imaginary residue {value.imag:.3e}")
    return value.real


def spin_correlator(contractions, alpha, beta, l, m):
    """g^{alpha beta}_{lm} = <S^alpha_l S^beta_m> in the given state.

    Sites may come in either order (operators at distinct sites commute, so
    g^{ab}_{lm} = g^{ba}_{ml}).
    """
    if l == m:
        raise ValueError("spin_correlator needs two distinct sites")
    if l > m:
        alpha, beta = beta, alpha
        l, m = m, l
    kinds, sites, pref = operator_string(alpha, beta, l, m)
    raw = _string_expectation(contractions, kinds, sites)
    return _real_result(pref * raw, f"g_{alpha}{beta}({l},{m})")


def magnetization(contractions, l):
    """<S^z_l> = -(1/2) <A_l B_l> in the given state."""
    return _real_result(-0.5 * contractions.pair("A", l, "B", l),
                        f"mz({l})")
