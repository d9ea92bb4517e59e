"""Oracle-equivalence selftest.

Runs the analytic machinery and the exact-diagonalization oracle over a
matrix of parameter combinations and compares magnetizations (category
`correlators`), the X entries of two-site reduced states (`rho2`),
concurrences, one-tangles and Bell fidelities on a 12-site ring.
Ring wraparound limits how far in time and distance a thermodynamic-limit
calculation can be compared against a 12-site ring: each cell must satisfy
lam*t + offset <= n/2 - 2, with the offset measured from the insertion
sites (or the pair separation for the translation-invariant vacuum).
Each side is read as the engines read it, as a `measures.XView`: a
`pfaffian.ContractionView` of one contraction block over the case's times,
at gamma = 0 also one `isotropic.block_packet` of one `isotropic.windows`
call (the `(bessel)` categories; the empty packet on the vacuum), and an
`oracle.RingState` per time.  The cells only shrink as lam*t grows, so a
block view is read once over the first time's cells, spectra checked, and
each time keeps its own rows; a ring is read over its time's cells.

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
from .pfaffian import ContractionView

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


def _cells(kind, limit):
    """The sites and the pairs (l, l + d), d = 1, 2, 3, of a case's cells up
    to a weight limit, as arrays, and the weight of each: a cell is compared
    at lam*t while its weight is at most MASK_LIMIT - lam*t.  A site weighs
    its offset, its distance from the nearer insertion site (from site 0,
    which stands for every site, on the translation-invariant vacuum).  The
    operator string of a pair spans d+1 sites, so a pair weighs the larger
    offset of its sites plus the extra width d-1; the N=8/10/12 convergence
    of the excluded cells confirms the cut tracks pure finite-size error."""
    vacuum = kind == "vacuum_only"
    sites = np.array([0] if vacuum else SITES)
    ls, ms = np.array([(l, l + d) for d in (1, 2, 3) for l in sites
                       if l + d <= SITES[-1]]).T
    seeds = [0] if vacuum else [SEED_I, SEED_J]
    site_w, l_w, m_w = (np.abs(np.subtract.outer(s, seeds)).min(-1)
                        for s in (sites, ls, ms))
    pair_w = np.maximum(l_w, m_w) + (ms - ls - 1)
    on, cell = site_w <= limit, pair_w <= limit
    return sites[on], site_w[on], (ls[cell], ms[cell]), pair_w[cell]


def _read(view, sites, ls, ms):
    """What a case compares on every route, with the times first on a
    block: the sites' one-tangles, and the pairs' concurrences and Bell
    fidelities (4, ...), after checking the pairs' spectra."""
    view.ask("spectrum", ls, ms)
    return {"one_tangle": view.ask("one_tangle", sites),
            "concurrence": view.concurrence(ls, ms),
            "fidelities": np.asarray(measures.bell_fidelities(
                view.ask("pair_entries", ls, ms)))}


def run_case(gamma, lam, kind, fast=False):
    """Compare analytic and oracle values for one parameter combination."""
    report = CaseReport(label=f"gamma={gamma} lam={lam} {kind}")
    params = ModelParams(lam=lam, gamma=gamma)
    ws = oracle.OracleWorkspace(RING, gamma, lam)
    vacuum = kind == "vacuum_only"
    base = ws.vacuum() if vacuum else ws.psi_bell(SEED_I, SEED_J, np.pi)
    lt_grid = LT_GRID[1::2] if fast else LT_GRID
    times = [lam_t / lam for lam_t in lt_grid]
    limits = MASK_LIMIT - np.array(lt_grid) + 1e-9
    sites, site_w, (ls, ms), pair_w = _cells(kind, limits[0])
    fid = (ms - ls == 1) & (not vacuum)  # Bell fidelities: a seed's (s, s+1)
    pf = ContractionView(vacuum_contractions(params, times) if vacuum else
                         bell_contractions(params, times, SEED_I, SEED_J,
                                           amp=seed_amp(np.pi)))
    reads = [("", _read(pf, sites, ls, ms) | {
        "correlators": pf.ask("magnetization", sites),
        "rho2": np.asarray(pf.ask("pair_entries", ls, ms))})]
    if gamma == 0.0 and vacuum:  # the stationary empty packet
        empty = isotropic.SingleParticleState(0, np.zeros((len(times), 1)))
        reads.append(("(bessel)", {"one_tangle": empty.one_tangle(sites)}))
    elif gamma == 0.0:
        seed = (SEED_I, SEED_J, np.pi)
        reads.append(("(bessel)", _read(isotropic.block_packet(
            *seed, isotropic.windows(*seed, [abs(lam) * t for t in times]),
            SITES), sites, ls, ms)))

    for k, vecs in enumerate(ws.evolve_grid(base, times)):
        ring = oracle.RingState(ws, vecs)
        on, cell = site_w <= limits[k], pair_w <= limits[k]
        report.cells += int(on.sum() + cell.sum())
        up, down = ring.ask("site_populations", sites[on]).T
        ref = _read(ring, sites[on], ls[cell], ms[cell]) | {
            "correlators": (up - down) / 2,
            "rho2": np.asarray(ring.ask("pair_entries", ls[cell], ms[cell]))}
        ref["fidelities"] = ref["fidelities"][:, fid[cell]]
        rows = {"correlators": on, "one_tangle": on, "concurrence": cell,
                "rho2": cell, "fidelities": cell & fid}
        for tag, block in reads:
            for category, values in block.items():
                report.record(category + tag, values[..., k, rows[category]],
                              ref[category])
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
