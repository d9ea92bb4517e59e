#!/usr/bin/env python3
"""Scan the vacuum-created nearest-neighbour concurrence in time: report
the short-time growth rate against the perturbative slope gamma*lambda and
the height and location of the maximum.

Usage: python scripts/vacuum_max.py [gamma] [lambda]
"""

import sys

import numpy as np

from xychain.correlators import vacuum_contractions
from xychain.measures import concurrence_closed, x_entries
from xychain.model import ModelParams
from xychain.pfaffian import bundles


def pair_concurrence(params, t):
    columns = bundles(vacuum_contractions(params, t), [(0, 1)])
    return float(concurrence_closed(x_entries(columns))[0, 0])


def main():
    gamma = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    lam = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    params = ModelParams(lam, gamma=gamma)

    ts = np.linspace(0.0, 0.1, 11)
    slope = np.polyfit(ts, [pair_concurrence(params, t) for t in ts], 1)[0]
    print(f"gamma={gamma} lambda={lam}")
    print(f"short-time slope {slope:.4f}  (perturbative {gamma * lam:.4f})")

    grid = np.arange(0.05, 6.0 + 1e-9, 0.05)
    vals = [pair_concurrence(params, t) for t in grid]
    k = int(np.argmax(vals))
    print(f"maximum C = {vals[k]:.6f} at t = {grid[k]:.2f}")


if __name__ == "__main__":
    main()
