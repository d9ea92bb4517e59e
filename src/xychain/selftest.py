"""Oracle-equivalence selftest.

Runs the analytic machinery and the exact-diagonalization oracle over a
matrix of parameter combinations and compares magnetizations (category
`correlators`), the X entries of two-site reduced states (`rho2`, checked
by `measures.x_spectrum` on both sides), concurrences, one-tangles and
Bell fidelities on a 12-site ring.
Ring wraparound limits how far in time and distance a thermodynamic-limit
calculation can be compared against a 12-site ring: each cell must satisfy
lam*t + offset <= n/2 - 2, with the offset measured from the insertion
sites (or the pair separation for the translation-invariant vacuum).
The two sides meet as arrays of X entries.  A case builds one contraction
block over all its times and makes one `bundles` and one `magnetization`
call over the union of the times' cells; each time reads its own rows of
those and one `RingState.pair_entries` call, and differences are taken
array by array.

This suite doubles as the `xychain selftest` CLI command and as one of the
acceptance tests.
"""

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import isotropic, measures, oracle
from .correlators import bell_contractions, vacuum_contractions
from .model import ModelParams, seed_amp
from .pfaffian import bundles, magnetization

RING = 12
SEED_I, SEED_J = 1, 2
SITES = range(SEED_I - 3, SEED_J + 4)  # the sites a Bell seed's cells use
MASK_LIMIT = RING / 2 - 2
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

    def record(self, category, got, want):
        """Keep the largest |got - want|; empty arrays record nothing."""
        diffs = np.abs(np.subtract(got, want))
        if diffs.size:
            self.worst[category] = max(self.worst.get(category, 0.0),
                                       float(diffs.max()))

    @property
    def ok(self):
        return all(diff <= (BESSEL_TOL if cat.endswith("(bessel)")
                            else PFAFFIAN_TOL)
                   for cat, diff in self.worst.items())

    def line(self):
        parts = ", ".join(f"{cat}={diff:.2e}"
                          for cat, diff in sorted(self.worst.items()))
        status = "OK" if self.ok else "FAIL"
        return f"[{status}] {self.label}: {self.cells} cells; {parts}"


def _offset(s):
    """Distance of site s from the nearer insertion site."""
    return min(abs(s - SEED_I), abs(s - SEED_J))


def _pair_cells(kind, lam_t):
    """(l, m) pairs inside the ring-wraparound window.

    The operator string of a pair at separation d spans d+1 sites, so the
    cell weight counts the extra width d-1 on top of the site offset; the
    N=8/10/12 convergence of the excluded cells confirms the cut tracks
    pure finite-size error.
    """
    limit = MASK_LIMIT - lam_t + 1e-9
    if kind == "vacuum_only":
        return [(0, d) for d in (1, 2, 3) if d + (d - 1) <= limit]
    return [(l, l + d) for d in (1, 2, 3) for l in SITES
            if l + d <= SITES[-1]
            and max(_offset(l), _offset(l + d)) + (d - 1) <= limit]


def _site_cells(kind, lam_t):
    limit = MASK_LIMIT - lam_t + 1e-9
    if kind == "vacuum_only":
        return [0] if 0 <= limit else []
    return [s for s in SITES if _offset(s) <= limit]


def run_case(gamma, lam, kind, fast=False):
    """Compare analytic and oracle values for one parameter combination."""
    report = CaseReport(label=f"gamma={gamma} lam={lam} {kind}")
    params = ModelParams(lam=lam, gamma=gamma)
    ws = oracle.OracleWorkspace(RING, gamma, lam)
    vacuum = kind == "vacuum_only"
    base = ws.vacuum() if vacuum else ws.psi_bell(SEED_I, SEED_J, np.pi)
    lt_grid = LT_GRID[1::2] if fast else LT_GRID
    isotropic_route = gamma == 0.0
    times = [lam_t / lam for lam_t in lt_grid]
    windows = [None] * len(lt_grid)
    if isotropic_route and not vacuum:
        windows = list(zip(*isotropic.windows(
            SEED_I, SEED_J, np.pi, [abs(lam) * t for t in times])))
    # each time's sites, and its pair cells then the fidelity pairs
    # (s, s + 1) in the window; one contraction block over all times reads
    # the union of their cells, and each time picks its own rows
    cells = [(_site_cells(kind, lam_t), _pair_cells(kind, lam_t))
             for lam_t in lt_grid]
    cells = [(sites, pairs + [(s, s + 1) for s in sites[:-1]], len(pairs))
             for sites, pairs in cells]
    site_at = {s: k for k, s in enumerate(
        dict.fromkeys(s for sites, _, _ in cells for s in sites))}
    pair_at = {p: k for k, p in enumerate(
        dict.fromkeys(p for _, pairs, _ in cells for p in pairs))}
    con = (vacuum_contractions(params, times) if vacuum else bell_contractions(
        params, times, SEED_I, SEED_J, amp=seed_amp(np.pi)))
    columns = bundles(con, list(pair_at))
    mzs = magnetization(con, list(site_at))

    for k, (t, window, vecs) in enumerate(zip(times, windows,
                                              ws.evolve_grid(base, times))):
        ring = oracle.RingState(ws, vecs)
        sites, pairs, n_cells = cells[k]
        cell, fid = slice(n_cells), slice(n_cells, None)
        report.cells += n_cells + len(sites)
        ls, ms = zip(*pairs)
        entries = measures.x_entries(columns[k, [pair_at[p] for p in pairs]])
        ref = ring.pair_entries(ls, ms)
        measures.x_spectrum(entries), measures.x_spectrum(ref)  # both sides
        c_refs = measures.concurrence_wootters(ref)[cell]
        fids_ref = np.asarray(measures.bell_fidelities(ref))[:, fid]
        mz = mzs[k, [site_at[s] for s in sites]]
        up, down = ring.site_populations(sites).T
        tau_refs = 4.0 * (up * down)  # `RingState.one_tangle`
        report.record("correlators", mz, (up - down) / 2)
        report.record("rho2", np.asarray(entries)[:, cell],
                      np.asarray(ref)[:, cell])
        report.record("concurrence",
                      measures.concurrence_closed(entries)[cell], c_refs)
        report.record("one_tangle", measures.one_tangle(mz), tau_refs)
        report.record("fidelities", np.asarray(
            measures.bell_fidelities(entries))[:, fid], fids_ref)
        if window is not None:
            state = isotropic.wavepacket(SEED_I, SEED_J, np.pi, t, lam,
                                         window=window)
            report.record("concurrence(bessel)",
                          state.concurrence(ls[cell], ms[cell]), c_refs)
            report.record("one_tangle(bessel)", state.one_tangle(sites),
                          tau_refs)
            bessel = state.pair_entries(ls[fid], ms[fid])
            measures.x_spectrum(bessel)
            report.record("fidelities(bessel)",
                          measures.bell_fidelities(bessel), fids_ref)
        elif isotropic_route:
            # stationary vacuum: the Bessel route asserts exact zeros
            report.record("one_tangle(bessel)", tau_refs, 0.0)
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
    stream.write(f"selftest {verdict} in {elapsed:.3f}s "
                 f"(tolerances: pfaffian {PFAFFIAN_TOL:g}, "
                 f"bessel {BESSEL_TOL:g})\n")
    return all_ok
