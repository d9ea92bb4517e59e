#!/usr/bin/env python3
"""Fit the entanglement-front velocity of a spreading singlet.

For each distance x the arrival time t*(x) is the global argmax of the
concurrence between the seed site and site x; a through-origin least
squares fit of x = v t* then recovers the group velocity, which tracks
the coupling lambda.

Usage: python scripts/propagation_fit.py [lambda ...]
"""

import sys

import numpy as np

from xychain import isotropic


def arrival_time(x, lam):
    grid = np.arange(0.01 / lam, (x + 18) / lam + 1e-12, 0.01 / lam)
    packet = isotropic.block_packet(0, 1, np.pi, isotropic.windows(
        0, 1, np.pi, abs(lam) * grid), range(0, x + 1))
    return grid[int(np.argmax(packet.concurrence(0, x)))]


def main():
    lams = [float(a) for a in sys.argv[1:]] or [0.5, 1.0]
    xs = np.arange(4, 13)
    for lam in lams:
        tstars = np.array([arrival_time(int(x), lam) for x in xs])
        v = float(np.sum(xs * xs) / np.sum(xs * tstars))
        print(f"lambda={lam}: fitted velocity {v:.4f} "
              f"(ratio {v / lam:.4f})")
        for x, ts in zip(xs, tstars):
            print(f"  x={x:2d}  t*={ts:7.2f}")


if __name__ == "__main__":
    main()
