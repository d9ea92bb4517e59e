"""Equilibrium (ground-state) correlations.

The ground state of the chain is Gaussian in the Jordan-Wigner fermions, so
the same Pfaffian machinery applies with the static contraction

    G(r) = -<A_l B_{l+r}>_GS
         = (1/pi) int_0^pi [ (e_k / Lambda_k) cos(kr)
                             - (lam gamma sin k / Lambda_k) sin(kr) ] dk

together with <A_l A_m> = delta_lm and <B_l B_m> = -delta_lm.  At lam = 0
this gives G(0) = 1: the fully polarized all-up state.  Above lam = 1 (and
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

from .correlators import A, _table_index
from .measures import concurrence_branches, one_tangle
from .model import PAIR_WINDOW
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
    panels = int(math.ceil(8.0 * (1.0 + reach)))
    if params.lam > 1.0 and abs(params.gamma) < 0.1:
        panels = max(panels, 384)
    elif params.lam >= 0.99:
        panels = max(panels, 128)
    return _composite_grid(panels)


def gs_contractions(params, radius):
    """GroundStateContractions with G(r) tabulated on |r| <= radius."""
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
    e = 1.0 + params.lam * np.cos(k)
    s = params.lam * params.gamma * np.sin(k)
    lam_k = np.hypot(e, s)
    if np.any(lam_k == 0.0):
        lam_k = np.where(lam_k == 0.0, 1e-300, lam_k)
    ckr = np.cos(np.outer(rs, k))
    skr = np.sin(np.outer(rs, k))
    g = (ckr @ (w * e / lam_k) - skr @ (w * s / lam_k)) / np.pi
    return GroundStateContractions(params, int(radius), g)


class GroundStateContractions:
    """Static Majorana contractions of the ground state: one time for all."""

    is_modified = False
    times = (None,)

    def __init__(self, params, radius, g_table):
        self.params = params
        self.radius = radius
        self._g = g_table

    def g(self, r):
        """G(r) at the separations r (any shape); CutoffError beyond the
        tabulated radius."""
        return self._g[_table_index(r, [self.radius], "ground-state table")]

    def pair(self, kind_l, l, kind_m, m):
        """<X_l Y_m> (1, *shape) for kind codes X, Y in {A, B}.

        <A_l B_m> = -G(m - l) and <B_l A_m> = G(l - m); same-kind pairs
        vanish except for the operator identities A_l^2 = 1, B_l^2 = -1.
        """
        is_a = np.asarray(kind_l) == A
        same = is_a == (np.asarray(kind_m) == A)
        r = np.subtract(m, l)
        g = self.g(np.where(same, 0, np.where(is_a, r, -r)))[None]
        square = np.where(r == 0, np.where(is_a, 1.0, -1.0), 0.0)
        return np.where(same, square, np.where(is_a, -g, g)).astype(complex)


def gs_magnetization(params):
    """<S^z> in the ground state."""
    return 0.5 * gs_contractions(params, 0).g(0)


def gs_bundle(params, d):
    """Correlator column of a ground-state site pair at distance d >= 1."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    return bundles(gs_contractions(params, d + 1), [(0, d)])[0, 0]


def gs_concurrence(params, d):
    """Ground-state concurrence at distance d, with the winning branch."""
    branch_c, branch_z = map(float, concurrence_branches(gs_bundle(params, d)))
    value = max(0.0, branch_c, branch_z)
    label = "parallel" if branch_c >= branch_z else "antiparallel"
    return value, label


def gs_one_tangle(params):
    return one_tangle(gs_magnetization(params))


def gs_tangle_budget(params, window=PAIR_WINDOW):
    """(tau1, sum of squared pair concurrences up to the window distance)."""
    tau1 = gs_one_tangle(params)
    total = 0.0
    for d in range(1, window + 1):
        c, _ = gs_concurrence(params, d)
        total += 2.0 * c * c  # both directions along the chain
    return tau1, total

