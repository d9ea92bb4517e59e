"""Equilibrium (ground-state) correlations.

The ground state of the chain is Gaussian in the Jordan-Wigner fermions, so
the same Pfaffian machinery applies with the static contraction

    G(r) = -<A_l B_{l+r}>_GS
         = (1/pi) int_0^pi [ (e_k / Lambda_k) cos(kr)
                             - (lam gamma sin k / Lambda_k) sin(kr) ] dk

together with <A_l A_m> = delta_lm and <B_l B_m> = -delta_lm: the pair
tables of `correlators.PairTables` at one stationary time (times =
(None,)), rows [delta, -G(r), G(-r), -delta], which the Pfaffian route
reads like any other Gaussian state's.  At lam = 0 this gives G(0) = 1:
the fully polarized all-up state.  Above lam = 1 (and
at gamma = 0 for lam > 1, where e_k changes sign inside the zone) the
integrand steepens or jumps, so extra panels are spent there.

The dynamics sum their integrands over a ring of momenta (`correlators`):
those are periodic and analytic in k.  G(r) is not analytic at a gapless
point (lam = 1, or lam > 1 at gamma = 0), and there a ring sum converges
only algebraically.  Composite Gauss-Legendre panels, split at the
non-analytic point where it is known, keep the tables accurate.
"""

import math

import numpy as np

from .correlators import PairTables
from .measures import (concurrence_branches, concurrence_closed, one_tangle,
                       x_entries)
from .model import PAIR_WINDOW, dispersion
from .pfaffian import bundles, magnetization

# The 8-point Gauss-Legendre rule on [-1, 1], bit for bit as
# numpy.polynomial.legendre.leggauss(8) gives it; held here so that a run
# never imports numpy.polynomial.
_HALF = np.array([0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_HALF_WEIGHTS = np.array([0.36268378337836166, 0.3137066458778869,
                          0.22238103445337443, 0.10122853629037706])
LEGENDRE_NODES = np.concatenate([-_HALF[::-1], _HALF])
LEGENDRE_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


def _composite_grid(n_panels, a=0.0, b=math.pi):
    """Nodes and weights of n_panels equal Gauss-Legendre panels on [a, b]."""
    xr, wr = LEGENDRE_NODES, LEGENDRE_WEIGHTS
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * xr[None, :]).ravel()
    weights = np.tile(half * wr, n_panels)
    return nodes, weights


def _gs_grid(params, reach):
    panels = int(math.ceil(8.0 * (1.0 + reach)))
    if params.lam > 1.0 and abs(params.gamma) < 0.1:
        panels = max(panels, 384)
    elif params.lam >= 0.99:
        panels = max(panels, 128)
    return _composite_grid(panels)


def pair_tables(g):
    """The ground state's pair tables from G(r) on |r| <= radius."""
    radius = len(g) // 2
    same = np.arange(-radius, radius + 1) == 0
    rows = [np.where(same, 1.0, 0.0), -g, g[::-1], np.where(same, -1.0, 0.0)]
    return PairTables((None,), [radius], np.stack(rows)[None].astype(complex),
                      "ground-state table")


def gs_contractions(params, radius):
    """The ground state's pair tables, G(r) tabulated on |r| <= radius."""
    rs = np.arange(-radius, radius + 1)
    if params.gamma == 0.0 and params.lam > 1.0:
        # e_k changes sign at k_F; split the integral there.
        kf = math.acos(-1.0 / params.lam)
        panels = int(math.ceil(8.0 * (1.0 + radius)))
        k1, w1 = _composite_grid(panels, 0.0, kf)
        k2, w2 = _composite_grid(panels, kf, math.pi)
        k = np.concatenate([k1, k2])
        w = np.concatenate([w1, w2])
    else:
        k, w = _gs_grid(params, radius)
    e, s, lam_k, ckr, skr = dispersion(params, k, rs)
    if np.any(lam_k == 0.0):
        lam_k = np.where(lam_k == 0.0, 1e-300, lam_k)
    return pair_tables(
        (ckr @ (w * e / lam_k) - skr @ (w * s / lam_k)) / np.pi)


def gs_concurrence(params, d):
    """Ground-state concurrence at distance d >= 1, with the winning
    branch."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    columns = bundles(gs_contractions(params, d + 1), [(0, d)])[0, 0]
    branch_c, branch_z = map(float, concurrence_branches(x_entries(columns)))
    value = max(0.0, branch_c, branch_z)
    label = "parallel" if branch_c >= branch_z else "antiparallel"
    return value, label


def gs_tangle_budget(params, window=PAIR_WINDOW):
    """(tau1, sum of squared pair concurrences up to the window distance),
    both read off one table of radius window + 1."""
    con = gs_contractions(params, window + 1)
    tau1 = one_tangle(magnetization(con, 0)[0])
    columns = bundles(con, [(0, d) for d in range(1, window + 1)])[0]
    concs = concurrence_closed(x_entries(columns)).tolist()
    return tau1, sum(2.0 * c * c for c in concs)  # both chain directions
