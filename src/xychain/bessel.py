"""Integer-order Bessel functions of the first kind, many ladders at once.

The isotropic chain propagates a locally inserted excitation with amplitudes
i^x J_x(lambda*t), so a run needs whole ladders J_0..J_n at every time of its
grid.  Miller's downward recurrence produces a full ladder in one sweep and
stays accurate in the tail where upward recurrence blows up.  The values are
normalized with J_0(x) + 2*sum_k J_{2k}(x) = 1.  The sweep is a fixed
three-term recurrence (Gautschi, SIAM Review 9:24, 1967), so `bessel_rows`
runs it for a batch of (order, argument) lanes at once: one loop over
orders, each step an array operation over the lanes, in which every lane
does exactly the arithmetic of a sweep of its own.

Supported range is 0 <= n <= 2000 and 0 <= x <= 2000, plenty for light cones
of a few hundred sites; outside that an OutOfRangeError is raised rather
than returning something quietly wrong.
"""

import numpy as np

from .errors import OutOfRangeError

MAX_ORDER = 2000
MAX_ARGUMENT = 2000.0

_SMALL_X = 1e-4


def range_errors(nmax, x):
    """{lane: OutOfRangeError} of the lanes (nmax, x), arrays, out of range."""
    order = (0 <= nmax) & (nmax <= MAX_ORDER)
    bad = np.flatnonzero(~(order & (0.0 <= x) & (x <= MAX_ARGUMENT)))
    return {k: OutOfRangeError(
        f"argument {x[k]} outside [0, {MAX_ARGUMENT}]" if order[k] else
        f"order {nmax[k]} outside [0, {MAX_ORDER}]") for k in bad.tolist()}


def _series_row(nmax, x):
    # Ascending series for tiny argument: J_n(x) ~ (x/2)^n/n! * (1 - q/(n+1)
    # + q^2/(2(n+1)(n+2))), q = (x/2)^2.  At x <= 1e-4 the dropped q^3 term
    # is below 1e-26 relative.
    row = np.zeros(nmax + 1)
    half = 0.5 * x
    q = half * half
    lead = 1.0
    for n in range(nmax + 1):
        corr = 1.0 - q / (n + 1.0) + q * q / (2.0 * (n + 1.0) * (n + 2.0))
        row[n] = lead * corr
        lead *= half / (n + 1.0)
        if lead == 0.0:
            break
    return row


def _miller(nmax, x):
    """Miller sweeps of the lanes (nmax, x), x >= _SMALL_X, as the
    transpose of one order-major array.  A lane holds zero until the sweep
    reaches its own start order, where it takes the arbitrary seed;
    0 * (2m/x) - 0 keeps it exactly zero before that.  Each lane rescales,
    in place, at the step where its own |J_m| passes 1e250; its orders past
    nmax are swept like the others and zeroed at the end.  As |J_{m-1}| <=
    (2m/x + 1) max(|J_m|, |J_{m+1}|), a sweep whose lanes all have start *
    log1p(2 start / x) < 540 ln 10 cannot pass 1e250 and tests nothing."""
    # Start each sweep far enough above both the order and the turning
    # point that the minimal solution dominates by > 1e18.
    start = np.maximum(nmax, np.ceil(x).astype(int)) + 16
    start += (2.0 * np.sqrt(start)).astype(int) + 20
    start += start % 2
    seeds = set(start.tolist())
    bound = np.max(start * np.log1p(2.0 * start / x), initial=0)
    tested = bound >= 540 * np.log(10)  # else no lane can pass 1e250
    rows = np.zeros((nmax.max(initial=0) + 1, len(x)))  # order-major
    jp, j, jm = np.zeros((3, len(x)))  # J_{m+1}, J_m, J_{m-1}
    even_sum = np.zeros(len(x))  # J_0 + 2*sum_{k>=1} J_{2k}
    work, big = np.empty(len(x)), np.empty(len(x), dtype=bool)
    for m in range(max(seeds, default=0), 0, -1):
        if m in seeds:
            j[start == m] = 1e-290
        np.divide(2.0 * m, x, out=jm)
        jm *= j
        jm -= jp
        jp, j, jm = j, jm, jp
        n = m - 1
        if n < len(rows):
            rows[n] = j
        if n % 2 == 0:
            even_sum += j if n == 0 else np.multiply(2.0, j, out=work)
        if tested and np.greater(np.abs(j, out=work), 1e250, out=big).any():
            for v in (j, jp, even_sum, rows[n:]):
                np.multiply(v, 1e-250, out=v, where=big)
    rows[np.arange(len(rows))[:, None] > nmax] = 0.0
    rows /= even_sum
    return rows.T


def bessel_rows(nmax, x):
    """Ladders [J_0(x_k), ..., J_{nmax_k}(x_k)] of the lanes k, as one
    (lanes, max(nmax) + 1) array that is zero past each lane's nmax.  The
    first lane out of range raises OutOfRangeError.  Lanes with x < 1e-4
    take the series; they sweep at x = 1 meanwhile, so that every lane
    shares one order-major buffer."""
    nmax, x = np.asarray(nmax, dtype=int), np.asarray(x, dtype=float)
    errors = range_errors(nmax, x)
    if errors:
        raise errors[min(errors)]
    small = x < _SMALL_X
    rows = _miller(nmax, np.where(small, 1.0, x))
    for k in np.flatnonzero(small).tolist():
        rows[k] = 0.0
        rows[k, :nmax[k] + 1] = _series_row(int(nmax[k]), float(x[k]))
    return rows
