#!/usr/bin/env python3
"""Print the nearest-neighbour ground-state concurrence across the phase
diagram, together with the monogamy budget at lambda = 1, read off a
ground-state scenario at x = 0: sum C^2 is tau_1 minus the CKW residual.

Usage: python scripts/gs_table.py
"""

from xychain import (ModelParams, gs_concurrence, parse_config_text,
                     run_scenario)

POINTS = [
    (0.1, 0.5), (0.1, 1.0),
    (0.5, 0.5), (0.5, 1.0),
    (1.0, 0.5), (1.0, 0.9), (1.0, 1.0),
]

BUDGET = """
model.lambda = 1.0
model.gamma = {gamma}
scenario.kind = ground_state_equilibrium
grid.t_start = 0.0
grid.t_stop = 0.0
grid.dt = 1.0
grid.x_start = 0
grid.x_stop = 0
measures.list = one_tangle, ckw_residual
"""


def main():
    print(f"{'gamma':>6} {'lambda':>7} {'C(1)':>9} branch")
    for gamma, lam in POINTS:
        value, branch = gs_concurrence(ModelParams(lam, gamma=gamma), 1)
        print(f"{gamma:6.2f} {lam:7.2f} {value:9.4f} {branch}")

    print()
    print(f"{'gamma':>6} {'tau_1':>9} {'sum C^2':>9} {'residual':>9}")
    for gamma in (0.1, 0.5, 1.0):
        _, _, columns = run_scenario(parse_config_text(
            BUDGET.format(gamma=gamma)))
        tau1 = columns["one_tangle"][0, 0]
        residual = columns["ckw_residual"][0, 0]
        total = tau1 - residual
        print(f"{gamma:6.2f} {tau1:9.4f} {total:9.4f} {residual:9.4f}")


if __name__ == "__main__":
    main()
