"""Equilibrium (ground-state) correlations.

The ground state of the chain is Gaussian in the Jordan-Wigner fermions, so
the same Pfaffian machinery applies with the static contraction

    G(r) = -<A_l B_{l+r}>_GS
         = (1/pi) int_0^pi [ (e_k / Lambda_k) cos(kr)
                             - (lam gamma sin k / Lambda_k) sin(kr) ] dk

together with <A_l A_m> = delta_lm and <B_l B_m> = -delta_lm: the real
K tables of `correlators.PairTables` at one stationary time (times =
(None,)), rows [0, G(r), -G(-r), 0] (K_AB = -<A B>; no string reads the
diagonals of AA and BB), which the Pfaffian route reads like any other
Gaussian state's.  At lam = 0 this gives G(0) = 1:
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
from .measures import concurrence_branches, x_entries
from .model import dispersion
from .pfaffian import bundles

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
    """Panels in k for G(r) on |r| <= reach, split at a known k_F."""
    panels = int(math.ceil(8.0 * (1.0 + reach)))
    if params.gamma == 0.0 and params.lam > 1.0:
        kf = math.acos(-1.0 / params.lam)  # e_k changes sign at k_F
        k1, w1 = _composite_grid(panels, 0.0, kf)
        k2, w2 = _composite_grid(panels, kf, math.pi)
        return np.concatenate([k1, k2]), np.concatenate([w1, w2])
    if params.lam > 1.0 and abs(params.gamma) < 0.1:
        panels = max(panels, 384)
    elif params.lam >= 0.99:
        panels = max(panels, 128)
    return _composite_grid(panels)


def pair_tables(g):
    """The ground state's K tables from G(r) on |r| <= radius."""
    zero = np.zeros_like(g)
    return PairTables((None,), len(g) // 2,
                      np.stack([zero, g, -g[::-1], zero])[..., None],
                      "ground-state table")


def gs_contractions(params, radius):
    """The ground state's K tables, G(r) tabulated on |r| <= radius."""
    k, w = _gs_grid(params, radius)
    e, s, lam_k = dispersion(params, k)
    kr = np.outer(np.arange(-radius, radius + 1), k)
    lam_k = np.where(lam_k == 0.0, 1e-300, lam_k)
    return pair_tables((np.cos(kr) @ (w * e / lam_k)
                        - np.sin(kr) @ (w * s / lam_k)) / np.pi)


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

