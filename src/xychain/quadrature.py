"""Composite Gauss-Legendre quadrature on [0, pi] for the ground state.

The dynamics never come here: their integrands are periodic and analytic in
k, so `correlators` sums them over a ring of momenta.  The ground-state
contraction G(r) of `groundstate` is not analytic at a gapless point (lam = 1,
or lam > 1 at gamma = 0, where e_k changes sign), and there a ring sum
converges only algebraically.  Gauss-Legendre panels placed by the caller,
split at the non-analytic point where it is known, keep that accuracy.
"""

import functools
import math

import numpy as np

NODES_PER_PANEL = 8


@functools.lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def composite_grid(n_panels, a=0.0, b=math.pi, nodes_per_panel=NODES_PER_PANEL):
    """Nodes and weights for n_panels equal Gauss-Legendre panels on [a, b]."""
    if n_panels < 1:
        raise ValueError("need at least one panel")
    xr, wr = _leggauss(nodes_per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * xr[None, :]).ravel()
    weights = np.tile(half * wr, n_panels)
    return nodes, weights
