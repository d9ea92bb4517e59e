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

For a Gaussian state the string expectation is the Pfaffian of the matrix M
of pair contractions, and `correlators` holds every state as the real
antisymmetric K with S M S = i K, S = diag(1 on A, -i on B).  So

    pf(M) = i^(n/2 + n_B) pf(K)

for a string of n operators, n_B of them B, and every string's phase
times its prefactor is real.  A one-particle Bell seed
(w_i c_i^dag + w_j c_j^dag)|vac> is a one-orbital Slater determinant
evolved by a quadratic H, so it is Gaussian too, and its K is the
vacuum's plus the real rank-two update 2 Im(conj(u_p) u_q) / n2 of
`BellContractions.entries`.  (It is the Schur complement, on its corner
n2, of the vacuum matrix bordered by a bra row and a ket column, so it
needs no inverse of the vacuum block.)  The tests check this against an
independent row-replacement expansion of the same expectation.

`bundles` expands every requested site pair into its five strings (xx,
yy, zz, xy, yx: sizes 2R, 2R, 4, 2R, 2R), groups them by size n and cuts
each group into stacks of at most STACK_CHUNK entries (times x strings x
n^2, one string at least), so short strings share a few large stacks.  A
stack is allocated once, stack last, (n, n, strings x times): the state's
`entries` give its upper triangle as one real (pairs, strings, times)
block, written straight into it and then negated in place into the
lower one.  It goes through `pfaffians`, a batched Parlett-Reid
tridiagonalization (Wimmer, ACM TOMS 38:30, 2012) over contiguous stack
vectors with the pivot chosen per matrix.  Its stacks are real, and real
products round the same in a stack of any size, so a time's values do
not depend on its block; a zero pivot column gives Pfaffian 0.  The
tests check `pfaffians` bit for bit against the row-major elimination,
and against pf(M)^2 = det(M).
"""

import numpy as np

from . import measures
from .correlators import A, B, PairTables
from .model import PAIR_WINDOW

STACK_CHUNK = 256 * 14 ** 2  # entries per stack (times x strings x n^2)
COMPONENTS = (("x", "x"), ("y", "y"), ("z", "z"), ("x", "y"), ("y", "x"))
_SWAPPED = (0, 1, 2, 4, 3)  # component columns of (m, l) from those of (l, m)
_OFFSETS = np.delete(np.arange(-PAIR_WINDOW, PAIR_WINDOW + 1), PAIR_WINDOW)


def pfaffians(a):
    """Pfaffians of a stack a (n, n, count) of antisymmetric matrices, of
    a's dtype, overwritten; each step's v w^T - w v^T goes through two
    buffers made once per stack.  Dimensions 0, 2 and 4 use the closed
    forms (four-operator strings keep them hot); odd n raises ValueError."""
    n, count = a.shape[1], a.shape[2]
    if n % 2:
        raise ValueError("pfaffian needs even dimension")
    if n == 0:
        return np.ones(count, dtype=a.dtype)
    if n == 2:
        return a[0, 1].copy()
    if n == 4:
        return a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    val = np.ones(count, dtype=a.dtype)
    buffers = np.empty((2, (n - 2) ** 2 * count), dtype=a.dtype)
    every = np.arange(count)
    for k in range(0, n - 2, 2):
        piv = k + 1 + np.argmax(np.abs(a[k + 1:, k]), axis=0)
        # rows, then columns, k + 1 and piv trade places in every matrix
        # (most swap; the rest write a row onto itself) by one gather and
        # one scatter each; swaps start at k, as earlier ones stay unread
        row = a[k + 1, k:].copy()
        a[k + 1, k:] = a[piv, k:, every].T
        a[piv, k:, every] = row.T
        column = a[k:, k + 1].copy()
        a[k:, k + 1] = a[k:, piv, every]
        a[k:, piv, every] = column
        np.negative(val, out=val, where=piv != k + 1)
        # a pivot below 1e-300 leaves a column k of underflow: val goes to
        # 0, and dividing by 1 keeps the stack finite where 1 / pivot is not
        pivot = a[k + 1, k]
        val *= a[k, k + 1]
        w = a[k + 2:, k] / np.where(abs(pivot) < 1e-300, 1, pivot)
        v = a[k + 1, k + 2:]
        m = n - 2 - k  # the trailing block's side; its buffers contiguous
        vw, wv = buffers[:, :m * m * count].reshape(2, m, m, count)
        np.multiply(v[:, None], w, out=vw)
        np.multiply(w[:, None], v, out=wv)
        a[k + 2:, k + 2:] += np.subtract(vw, wv, out=vw)
    return val * a[n - 2, n - 1]


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


def _expectations(contractions, kinds, sites, triangle):
    """pf(K) (times, count) of equal-size strings given as (count, n)
    arrays of kind codes and sites, as one real stack of count x times:
    the state's (pairs, count, times) block of the upper triangle (p, q)
    is written into it, then negated in place for the lower one."""
    n = kinds.shape[1]
    p, q = triangle
    upper = contractions.entries(kinds.T, sites.T, triangle)
    mats = np.zeros((n, n) + upper.shape[1:])
    mats[p, q] = upper
    mats[q, p] = np.negative(upper, out=upper)
    del upper  # the elimination's buffers take its place
    return pfaffians(mats.reshape(n, n, -1)).reshape(mats.shape[2:]).T


def bundles(contractions, pairs):
    """Correlator columns (times, pairs, 7) (`measures.COLUMNS`) of every
    site pair (l, m), l != m, in the state of the contractions."""
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("bundles needs two distinct sites per pair")
    times = contractions.times
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    blocks = {}  # string size -> [(rows, columns, kinds, sites, prefactors)]
    for r in sorted(set((hi - lo).tolist())):
        rows = np.flatnonzero(hi - lo == r)
        for col, (alpha, beta) in enumerate(COMPONENTS):
            kinds, offsets, pref = operator_string(alpha, beta, 0, r)
            codes = [A if kind == "A" else B for kind in kinds]
            phase = 1j ** (len(codes) // 2 + sum(codes))  # n/2 + n_B
            blocks.setdefault(len(kinds), []).append((
                rows, np.full(len(rows), col),
                np.broadcast_to(codes, (len(rows), len(kinds))),
                lo[rows, None] + np.array(offsets, dtype=int),
                np.full(len(rows), (pref * phase).real)))
    values = np.empty((len(times), len(pairs), len(COMPONENTS) + 2))
    for n, group in blocks.items():
        step = max(1, STACK_CHUNK // (len(times) * n * n))  # strings a stack
        triangle = np.triu_indices(n, 1)
        rows, cols, kinds, sites, prefs = map(np.concatenate, zip(*group))
        values[:, rows, cols] = prefs * np.concatenate([
            _expectations(contractions, kinds[s:s + step], sites[s:s + step],
                          triangle)
            for s in range(0, len(rows), step)], axis=1)
    swapped = pairs[:, 0] > pairs[:, 1]
    values[:, swapped, :5] = values[:, swapped][..., _SWAPPED]
    values[..., 5:] = magnetization(contractions, pairs)
    return values


def magnetization(contractions, sites):
    """<S^z_l> = -(1/2) <A_l B_l> = K_AB(l, l) / 2, (times, *shape), at
    the sites (any shape): the entry of the string (A_l, B_l)."""
    sites = np.asarray(sites, dtype=int)
    entry = contractions.entries(np.reshape([A, B], (2,) + (1,) * sites.ndim),
                                 np.stack([sites, sites]))[0]
    return 0.5 * np.moveaxis(entry, -1, 0)


class ContractionView(measures.XView):
    """Pfaffian-route view of the contractions of a block of times, whose
    answers are arrays with the times first (one row, which broadcasts, for
    the ground state).  Correlator columns are held per (l, m), or per
    separation (0, m - l) for a translation-invariant `PairTables`: each
    call evaluates the pairs it needs that are not held yet in one `bundles`
    call.  Its partner grid is x +- 1..PAIR_WINDOW, which partner_sums adds
    left to right whatever the order the columns are stored in."""

    def __init__(self, contractions):
        self.con = contractions
        self._slots = {}
        self._columns = np.empty((len(contractions.times), 0, 7))

    def _fill(self, pairs):
        """Correlator columns (times, len(pairs), 7) of the pairs."""
        todo = [p for p in dict.fromkeys(pairs) if p not in self._slots]
        if todo:
            self._slots |= {p: k for k, p in enumerate(todo, len(self._slots))}
            self._columns = np.concatenate(
                [self._columns, bundles(self.con, todo)], axis=1)
        return self._columns[:, [self._slots[p] for p in pairs]]

    def pair_entries(self, ls, ms):
        ls, ms = np.ravel(ls), np.ravel(ms)
        if isinstance(self.con, PairTables):
            ls, ms = np.zeros_like(ls), ms - ls
        pairs = zip(ls.tolist(), ms.tolist())
        return measures.x_entries(self._fill(list(pairs)))

    def magnetization(self, xs):
        return magnetization(self.con, xs)

    def one_tangle(self, xs):
        return measures.one_tangle(self.ask("magnetization", xs))

    def partners(self, xs):
        """x - PAIR_WINDOW .. x + PAIR_WINDOW but x, per site x."""
        return np.add.outer(xs, _OFFSETS)
