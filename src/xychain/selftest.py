"""Oracle-equivalence selftest.

Runs the analytic machinery and the exact-diagonalization oracle over a
matrix of parameter combinations and compares correlators, two-site density
matrices, concurrences, one-tangles and Bell fidelities on a 12-site ring.
Ring wraparound limits how far in time and distance a thermodynamic-limit
calculation can be compared against a 12-site ring: each cell must satisfy
lam*t + offset <= n/2 - 2, with the offset measured from the insertion
sites (or the pair separation for the translation-invariant vacuum).

This suite doubles as the `xychain selftest` CLI command and as one of the
acceptance tests.
"""

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import isotropic, measures, oracle
from .correlators import bell_contractions, vacuum_contractions
from .model import ModelParams
from .pfaffian import COMPONENTS, bundles, magnetization

RING = 12
SEED_I, SEED_J = 1, 2
LT_GRID = (0.5, 1.0, 1.5, 2.0, 2.5)
PFAFFIAN_TOL = 2e-3
BESSEL_TOL = 1e-4
COMBOS = ((0.0, 0.5), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0),
          (1.0, 0.5), (1.0, 1.0))
FAST_COMBOS = ((0.0, 1.0), (0.5, 0.5))


@dataclass
class CaseReport:
    label: str
    worst: dict = field(default_factory=dict)
    cells: int = 0

    def record(self, category, diff):
        self.worst[category] = max(self.worst.get(category, 0.0), diff)

    def tolerance(self, category):
        return BESSEL_TOL if category.endswith("(bessel)") else PFAFFIAN_TOL

    @property
    def ok(self):
        return all(diff <= self.tolerance(cat)
                   for cat, diff in self.worst.items())

    def line(self):
        parts = ", ".join(f"{cat}={diff:.2e}"
                          for cat, diff in sorted(self.worst.items()))
        status = "OK" if self.ok else "FAIL"
        return f"[{status}] {self.label}: {self.cells} cells; {parts}"


def _mask_limit():
    return RING / 2 - 2


def _pair_cells(kind, lam_t):
    """(l, m, max offset) pairs inside the ring-wraparound window.

    The operator string of a pair at separation d spans d+1 sites, so the
    cell weight counts the extra width d-1 on top of the site offset; the
    N=8/10/12 convergence of the excluded cells confirms the cut tracks
    pure finite-size error.
    """
    limit = _mask_limit() - lam_t + 1e-9
    cells = []
    if kind == "vacuum_only":
        for d in (1, 2, 3):
            if d + (d - 1) <= limit:
                cells.append((0, d, d))
    else:
        sites = range(SEED_I - 3, SEED_J + 4)
        for d in (1, 2, 3):
            for l in sites:
                m = l + d
                if m > max(sites):
                    continue
                off = max(min(abs(l - SEED_I), abs(l - SEED_J)),
                          min(abs(m - SEED_I), abs(m - SEED_J)))
                if off + (d - 1) <= limit:
                    cells.append((l, m, off))
    return cells


def _site_cells(kind, lam_t):
    limit = _mask_limit() - lam_t + 1e-9
    if kind == "vacuum_only":
        return [0] if 0 <= limit else []
    sites = range(SEED_I - 3, SEED_J + 4)
    return [s for s in sites
            if min(abs(s - SEED_I), abs(s - SEED_J)) <= limit]


def _analytic_contractions(params, t, kind):
    if kind == "vacuum_only":
        return vacuum_contractions(params, t)
    return bell_contractions(params, t, SEED_I, SEED_J, amp=-1.0)


def run_case(gamma, lam, kind, fast=False):
    """Compare analytic and oracle values for one parameter combination."""
    report = CaseReport(label=f"gamma={gamma} lam={lam} {kind}")
    params = ModelParams(lam=lam, gamma=gamma)
    ws = oracle.OracleWorkspace(RING, gamma, lam)
    base = (ws.vacuum() if kind == "vacuum_only"
            else ws.psi_bell(SEED_I, SEED_J, np.pi))
    lt_grid = LT_GRID[1::2] if fast else LT_GRID
    isotropic_route = gamma == 0.0
    times = [lam_t / lam for lam_t in lt_grid]
    windows = [None] * len(lt_grid)
    if isotropic_route and kind != "vacuum_only":
        windows = isotropic.windows(SEED_I, SEED_J, np.pi,
                                    [abs(lam) * t for t in times])

    for lam_t, t, window, vecs in zip(lt_grid, times, windows,
                                      ws.evolve_grid(base, times)):
        con = _analytic_contractions(params, t, kind)
        pair_cells = _pair_cells(kind, lam_t)
        site_cells = _site_cells(kind, lam_t)
        state = None if window is None else isotropic.wavepacket(
            SEED_I, SEED_J, np.pi, t, lam, window=window)
        ring = oracle.RingState(ws, vecs)

        ls, ms = [l for l, _, _ in pair_cells], [m for _, m, _ in pair_cells]
        columns = bundles(con, list(zip(ls, ms)))[0]
        entries, rho_refs = measures.x_entries(columns), ring.rho2(ls, ms)
        for (l, m), values, rho, conc, rho_ref, c_ref in zip(
                zip(ls, ms), columns, measures.rho2(entries),
                measures.concurrence_closed(entries), rho_refs,
                measures.concurrence_wootters(rho_refs)):
            for (alpha, beta), value in zip(COMPONENTS, values):
                ref = ws.correlator(vecs, alpha, beta, l, m)
                report.record("correlators", abs(value - ref))
            report.record("rho2", float(np.max(np.abs(rho - rho_ref))))
            report.record("concurrence", abs(conc - c_ref))
            if state is not None:
                report.record(
                    "concurrence(bessel)",
                    abs(state.concurrence(l, m) - c_ref))
            report.cells += 1

        fid_sites = site_cells[:-1]  # the sites s with s + 1 in the window
        fid_right = [s + 1 for s in fid_sites]
        fid_rhos = dict(zip(fid_sites, zip(measures.rho2(measures.x_entries(
            bundles(con, list(zip(fid_sites, fid_right)))[0])),
            ring.rho2(fid_sites, fid_right))))
        for s, mz, tau_ref in zip(site_cells,
                                  magnetization(con, site_cells)[0],
                                  ring.one_tangle(site_cells)):
            report.record("correlators",
                          abs(mz - ws.magnetization(vecs, s)))
            report.record("one_tangle",
                          abs(measures.one_tangle(mz) - tau_ref))
            if state is not None:
                report.record("one_tangle(bessel)",
                              abs(state.one_tangle(s) - tau_ref))
            if s in fid_rhos:
                fids, fids_ref = (measures.bell_fidelities(rho)
                                  for rho in fid_rhos[s])
                diff = max(abs(a - b) for a, b in zip(fids, fids_ref))
                report.record("fidelities", diff)
                if state is not None:
                    fids_b = measures.bell_fidelities(state.rho2(s, s + 1))
                    diff_b = max(abs(a - b)
                                 for a, b in zip(fids_b, fids_ref))
                    report.record("fidelities(bessel)", diff_b)
            report.cells += 1
        if state is None and isotropic_route:
            # stationary vacuum: the Bessel route asserts exact zeros
            for tau_ref in ring.one_tangle(site_cells):
                report.record("one_tangle(bessel)", abs(tau_ref))
    return report


def run_selftest(fast=False, stream=None):
    """Run all equivalence cases; returns True when everything passed."""
    stream = stream or sys.stdout
    combos = FAST_COMBOS if fast else COMBOS
    t0 = time.monotonic()
    all_ok = True
    for gamma, lam in combos:
        for kind in ("vacuum_only", "singlet_on_vacuum"):
            report = run_case(gamma, lam, kind, fast=fast)
            stream.write(report.line() + "\n")
            all_ok = all_ok and report.ok
    elapsed = time.monotonic() - t0
    verdict = "PASS" if all_ok else "FAIL"
    stream.write(f"selftest {verdict} in {elapsed:.1f}s "
                 f"(tolerances: pfaffian {PFAFFIAN_TOL:g}, "
                 f"bessel {BESSEL_TOL:g})\n")
    return all_ok
