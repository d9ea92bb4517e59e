"""Scenario configs, evaluation engines, and the measurement grid.

A scenario file is flat ``section.key = value`` text, one scenario per file:

    model.lambda = 1.0
    model.gamma = 0.0
    scenario.kind = singlet_on_vacuum
    scenario.i = 0
    scenario.j = 1
    grid.t_start = 0.0
    grid.t_stop = 10.0
    grid.dt = 0.5
    grid.x_start = -8
    grid.x_stop = 8
    measures.list = concurrence, one_tangle
    measures.concurrence_distance = 1
    engine = analytic

Scenario kinds: vacuum_only, singlet_on_vacuum, psi_bell, phi_bell,
ground_state_equilibrium, singlet_knitted_gs.  Measures: concurrence (pair
(x, x+d)), one_tangle, entropy2 (pair (x, x+1)), bell_fidelities (pair
(x, x+1), four rows), tangle_deviation (two rows: absolute and relative,
against the evolved unperturbed reference of the scenario family),
total_concurrence, ckw_residual; each at most once per list.

Each measure is defined once, in `measure_rows`, over a view of the state
at a block of times, which it asks once per measure for the whole site
grid, as a (name, values) column of shape (times, sites) per output name.
Measures that read the same request share its answer through the view's
one memo (`measures.XView.ask`).
`run_scenario` fills the grid (times, sites, {name: values}) a block at a
time; `write_csv` prints it a (name, x) column at a time.  A view offers
one_tangle(xs), concurrence(ls, ms), pair_entries(ls, ms), spectrum(ls, ms)
(the pairs' checked spectra) and partner_sums(xs), the sums of C and C^2 over
a fixed grid of partners per site, added left to right in site order (the
light cone's window on the Bessel route, +-PAIR_WINDOW on the Pfaffian
route, the whole ring on the oracle; a packet's are closed forms), each one
entry per site or pair (per time and site or pair on a block).
Every view is a `measures.XView`, which gives only the X entries of pairs
and derives the rest.  Engines yield each block's times and view with a
baseline: the view of the unperturbed reference, whose one_tangle
tangle_deviation reads.  The analytic engine's views are, at gamma = 0,
`isotropic.block_packet` (the vacuum is the empty packet) and
`isotropic.PhiState`, else `pfaffian.ContractionView`; the oracle's is the
evolved ring (`oracle.RingState`), whose X entries come from one pass over
the state and whose concurrence is Wootters' on them.  The selftest
compares these same views.  A stationary view serves the whole grid, a
packet a block of Bessel windows (`isotropic.windows`, sized a block at a
time, each block within WINDOW_BLOCK_BYTES by its own longest ladder and
its packet's amplitudes on the sites the grid reads), Pfaffian
contractions such a block (bounded by their tables and partner
concurrences), any other view one time.  Pfaffian tables reach what the
grid reads (`AnalyticEngine.views`), Bessel windows start at the light
cone, and every seed's phase is `model.seed_amp`.  What the analytic
engine cannot represent exactly (knitted scenarios, phi_bell at gamma != 0,
ckw_residual on phi_bell) raises CapabilityError when the engine is built;
the oracle engine handles those on small rings.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import groundstate, isotropic, measures, oracle
from .correlators import BellContractions, VacuumContractions
from .errors import CapabilityError, ConfigError
from .model import PAIR_WINDOW, ModelParams, light_cone_radius, seed_amp
from .pfaffian import ContractionView

SCENARIO_KINDS = (
    "vacuum_only",
    "singlet_on_vacuum",
    "psi_bell",
    "phi_bell",
    "ground_state_equilibrium",
    "singlet_knitted_gs",
)
PAIR_SEED_KINDS = ("singlet_on_vacuum", "psi_bell", "phi_bell",
                   "singlet_knitted_gs")

MEASURES = (
    "concurrence",
    "one_tangle",
    "entropy2",
    "bell_fidelities",
    "tangle_deviation",
    "total_concurrence",
    "ckw_residual",
)

WINDOW_BLOCK_BYTES = 1 << 18  # ladders or tables held per block of times

_FIDELITY_NAMES = (
    "bell_fidelity_psi_minus",
    "bell_fidelity_psi_plus",
    "bell_fidelity_phi_minus",
    "bell_fidelity_phi_plus",
)


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """One scenario.  Each field is set by the config key that CONFIG_KEYS
    maps onto it; a field without a default is a required key."""

    lam: float
    gamma: float
    kind: str
    i: int = None
    j: int = None
    phi: float = None
    oracle_sites: int = 12
    t_start: float
    t_stop: float
    dt: float
    x_start: int
    x_stop: int
    measure_list: tuple
    concurrence_distance: int = 1
    engine: str = "analytic"

    @property
    def params(self):
        return ModelParams(lam=self.lam, gamma=self.gamma)

    @property
    def seed_phase(self):
        if self.kind == "singlet_on_vacuum":
            return math.pi
        return self.phi

    def times(self):
        count = int(math.floor((self.t_stop - self.t_start) / self.dt
                               + 1e-9)) + 1
        return [self.t_start + k * self.dt for k in range(max(count, 0))]

    def sites(self):
        return list(range(self.x_start, self.x_stop + 1))


def _comma_list(text):
    return tuple(m.strip() for m in text.split(",") if m.strip())


# config key: (ScenarioConfig field, parser); missing keys named in this order
CONFIG_KEYS = {
    "model.lambda": ("lam", float),
    "model.gamma": ("gamma", float),
    "scenario.kind": ("kind", str),
    "scenario.i": ("i", int),
    "scenario.j": ("j", int),
    "scenario.phi": ("phi", float),
    "scenario.oracle_sites": ("oracle_sites", int),
    "grid.dt": ("dt", float),
    "grid.t_start": ("t_start", float),
    "grid.t_stop": ("t_stop", float),
    "grid.x_start": ("x_start", int),
    "grid.x_stop": ("x_stop", int),
    "measures.list": ("measure_list", _comma_list),
    "measures.concurrence_distance": ("concurrence_distance", int),
    "engine": ("engine", str),
}


def parse_config_text(text, source="<config>"):
    """Parse scenario text into a validated ScenarioConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        name, parse = CONFIG_KEYS[key]
        if name in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[name] = parse(value.strip())
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    for key, (name, _) in CONFIG_KEYS.items():
        if name not in values and defaults[name] is dataclasses.MISSING:
            raise ConfigError(f"{source}: missing required key {key!r}")
    config = ScenarioConfig(**values)
    _validate(config, source)
    return config


def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _validate(cfg, source):
    """Raise ConfigError for the first setting out of its range."""
    pair_seed = cfg.kind in PAIR_SEED_KINDS
    unknown = next((m for m in cfg.measure_list if m not in MEASURES), None)
    twice = [m for m in MEASURES if cfg.measure_list.count(m) > 1]
    checks = (
        (cfg.kind not in SCENARIO_KINDS,
         f"unknown scenario.kind {cfg.kind!r}; expected one of "
         f"{', '.join(SCENARIO_KINDS)}"),
        (cfg.lam < 0 or not math.isfinite(cfg.lam),
         "model.lambda must be finite and >= 0"),
        (not math.isfinite(cfg.gamma), "model.gamma must be finite"),
        (pair_seed and None in (cfg.i, cfg.j),
         f"scenario.kind {cfg.kind} needs scenario.i and scenario.j"),
        (pair_seed and cfg.i == cfg.j, "scenario sites must differ"),
        (cfg.kind in ("psi_bell", "phi_bell") and cfg.phi is None,
         f"scenario.kind {cfg.kind} needs scenario.phi"),
        (not 4 <= cfg.oracle_sites <= oracle.MAX_SITES,
         f"scenario.oracle_sites must be in [4, {oracle.MAX_SITES}]"),
        (cfg.dt <= 0, "grid.dt must be > 0"),
        (cfg.t_start < 0, "grid.t_start must be >= 0"),
        (cfg.t_stop < cfg.t_start, "grid.t_stop below grid.t_start"),
        (cfg.x_stop < cfg.x_start, "grid.x_stop below grid.x_start"),
        (not cfg.measure_list, "measures.list is empty"),
        (unknown is not None, f"unknown measure {unknown!r}; expected one "
         f"of {', '.join(MEASURES)}"),
        (twice, f"measures.list repeats {', '.join(twice)}"),
        (cfg.concurrence_distance < 1,
         "measures.concurrence_distance must be >= 1"),
        (cfg.engine not in ENGINES, "engine must be 'analytic' or 'oracle'"),
    )
    for bad, message in checks:
        if bad:
            raise ConfigError(f"{source}: {message}")


# ---------------------------------------------------------------------------


def measure_rows(config, view, baseline, times):
    """(name, values) of every configured measure, values (times, sites)
    read off the view of the state at a block of times and the view of its
    unperturbed reference, one call per request for the block and grid."""
    xs = config.sites()
    right = [x + 1 for x in xs]
    out = {}

    def grid(values):  # one value per site serves every time
        values = np.asarray(values, dtype=float).reshape(-1, len(xs))
        return (values if len(values) == len(times) else
                np.broadcast_to(values, (len(times), len(xs))))

    for name in config.measure_list:
        if name == "concurrence":
            d = config.concurrence_distance
            out[name] = view.concurrence(xs, [x + d for x in xs])
        elif name == "one_tangle":
            out[name] = view.ask("one_tangle", xs)
        elif name == "entropy2":
            out[name] = measures.entropy_vn(view.ask("spectrum", xs, right))
        elif name == "bell_fidelities":
            view.ask("spectrum", xs, right)  # the pairs' one check
            out.update(zip(_FIDELITY_NAMES, measures.bell_fidelities(
                view.ask("pair_entries", xs, right))))
        elif name == "tangle_deviation":
            (out["tangle_deviation"],
             out["tangle_deviation_rel"]) = measures.tangle_deviation(
                 *(grid(v.ask("one_tangle", xs)) for v in (view, baseline)))
        elif name == "total_concurrence":
            out[name] = view.ask("partner_sums", xs)[0]
        else:  # ckw_residual
            out[name] = measures.ckw_residual(view.ask("one_tangle", xs),
                                              view.ask("partner_sums", xs)[1])
    return [(name, grid(values)) for name, values in out.items()]


def _ladder_blocks(lengths):
    """The slices of ladders, each within WINDOW_BLOCK_BYTES by its longest
    (a length of 0 counts as 1) or one ladder over it alone; no ladders
    are one empty slice.  A block ends at the first ladder k past its
    start where 8 (k + 1 - start) max(lengths[start:k + 1]) exceeds the
    budget, at most budget / (8 lengths[start]) + 1 ladders on."""
    lengths = np.maximum(np.asarray(lengths, dtype=np.int64), 1)
    blocks, start = [], 0
    while start < len(lengths):
        window = lengths[start:start + 2 + WINDOW_BLOCK_BYTES // (
            8 * lengths[start])]
        over = 8 * np.arange(1, len(window) + 1) * np.maximum.accumulate(
            window) > WINDOW_BLOCK_BYTES
        over[0] = False
        stop = start + int(np.argmax(over)) if over.any() else len(lengths)
        blocks.append(slice(start, stop))
        start = stop
    return blocks or [slice(0, 0)]


class AnalyticEngine:
    """Thermodynamic-limit engine: Bessel route at gamma = 0, Pfaffian
    route otherwise.  Everything it cannot represent is refused here."""

    def __init__(self, config):
        self.config = config
        self.params = config.params
        kind = config.kind
        if kind == "singlet_knitted_gs":
            raise CapabilityError(
                "singlet_knitted_gs runs on the oracle engine only")
        if config.gamma != 0.0 and kind == "phi_bell":
            raise CapabilityError(
                "phi_bell with gamma != 0 has no analytic route; use the "
                "oracle engine")
        if kind == "phi_bell" and "ckw_residual" in config.measure_list:
            raise CapabilityError(
                "ckw_residual of the pair seed refers to its one-particle "
                "orbitals; evaluate it on a psi seed or the oracle engine")
        # the farthest separation any string or partner sum of the grid reads
        self.reach = max(config.concurrence_distance, PAIR_WINDOW)
        self._ground = (groundstate.gs_contractions(self.params, self.reach)
                        if kind == "ground_state_equilibrium" else None)

    def views(self, times):
        """(times, view, baseline) of each block, in order: a Bell seed's
        baseline is the vacuum it sits on, a stationary state is its own and
        one view for the whole grid.  At gamma = 0 a block of windows holds
        at most WINDOW_BLOCK_BYTES by its own longest ladder plus, for a
        packet, its complex amplitudes on the sites the grid reads (x_start
        to x_stop + max(concurrence_distance, 1)); a packet serves the whole
        block, a pair seed has a view per time.  A block's window failure is
        raised before any view of that block is measured.  At gamma != 0 a
        block is cut the same way by its tables, of radius `reach` plus a
        Bell seed's farthest grid site, and partners."""
        cfg = self.config
        if self._ground is not None:
            stationary = ContractionView(self._ground)
        elif cfg.gamma != 0.0:
            span = 0 if cfg.kind == "vacuum_only" else abs(cfg.j - cfg.i)
            radius = self.reach
            if span:  # a seed's kernels reach from either seed to every read
                radius += max(cfg.x_stop - min(cfg.i, cfg.j),
                              max(cfg.i, cfg.j) - cfg.x_start)
            partners = len(cfg.sites()) * (2 * PAIR_WINDOW + 1)
            for k in _ladder_blocks(
                    [2 * (radius + span) + 1 + partners] * len(times)):
                con = (BellContractions(self.params, times[k], radius, cfg.i,
                                        cfg.j, seed_amp(cfg.seed_phase))
                       if span else
                       VacuumContractions(self.params, times[k], radius))
                view = ContractionView(con)
                yield times[k], view, (
                    ContractionView(con.vacuum) if span else view)
            return
        else:  # the gamma = 0 vacuum is stationary: the empty packet
            stationary = isotropic.SingleParticleState(
                0, np.zeros(1, complex))
        if cfg.kind in ("vacuum_only", "ground_state_equilibrium"):
            yield times, stationary, stationary
            return
        pair, seed = cfg.kind == "phi_bell", (cfg.i, cfg.j, cfg.seed_phase)
        lam_ts = abs(cfg.lam) * np.asarray(times)
        reads = range(cfg.x_start, cfg.x_stop + max(cfg.concurrence_distance,
                                                    1) + 1)
        held = 0 if pair else 2 * len(reads)  # a packet's complex amplitudes
        for k in _ladder_blocks(light_cone_radius(self.params, times) + 1
                                + abs(cfg.j - cfg.i) + held):
            if not pair:  # the block's ladders go with the packet's making
                packet = isotropic.block_packet(
                    *seed, isotropic.windows(*seed, lam_ts[k]), reads)
                yield times[k], packet, stationary
                continue
            for t, radius, ladder in zip(times[k], *isotropic.windows(
                    *seed, lam_ts[k], pair=True)):
                yield [t], isotropic.PhiState(
                    *seed, t, cfg.lam, window=(radius, ladder)), stationary


class OracleEngine:
    """Small-ring exact-diagonalization engine; site indices wrap."""

    def __init__(self, config):
        self.config = config
        n = config.oracle_sites
        kind = config.kind
        if kind in PAIR_SEED_KINDS:
            if not (0 <= config.i < n and 0 <= config.j < n):
                raise ConfigError(
                    f"scenario sites must lie in [0, {n - 1}] on the oracle "
                    "ring")
        self.ws = oracle.OracleWorkspace(n, config.gamma, config.lam)
        self._base = self._prepare()
        self._reference = []
        if "tangle_deviation" in config.measure_list:
            equilibrium = kind in ("ground_state_equilibrium",
                                   "singlet_knitted_gs")
            self._reference = (self.ws.ground_state() if equilibrium
                               else self.ws.vacuum())

    def _prepare(self):
        cfg = self.config
        ws = self.ws
        if cfg.kind == "vacuum_only":
            return ws.vacuum()
        if cfg.kind in ("singlet_on_vacuum", "psi_bell"):
            return ws.psi_bell(cfg.i, cfg.j, cfg.seed_phase)
        if cfg.kind == "phi_bell":
            return ws.phi_bell(cfg.i, cfg.j, cfg.seed_phase)
        if cfg.kind == "ground_state_equilibrium":
            return ws.ground_state()
        return ws.knitted_singlet(cfg.i, cfg.j)

    def views(self, times):
        """([t], view, baseline) of each time, in order: the state and its
        reference (empty unless tangle_deviation asks) step along the grid
        together as the rows of one block."""
        k, ws = len(self._base), self.ws
        blocks = ws.evolve_grid(self._base + self._reference, times)
        for t, vecs in zip(times, blocks):
            yield ([t], oracle.RingState(ws, vecs[:k]),
                   oracle.RingState(ws, vecs[k:]))


ENGINES = {"analytic": AnalyticEngine, "oracle": OracleEngine}


def make_engine(config):
    if config.engine not in ENGINES:
        raise ConfigError(f"unknown engine {config.engine!r}")
    return ENGINES[config.engine](config)


def run_scenario(config):
    """The measurement grid (times, sites, {name: values}): each values
    array (times, sites) is allocated once and filled a block at a time."""
    engine, times, sites = make_engine(config), config.times(), config.sites()
    columns, k = {}, 0
    for block, view, baseline in engine.views(times):
        for name, values in measure_rows(config, view, baseline, block):
            if name not in columns:
                columns[name] = np.empty((len(times), len(sites)))
            columns[name][k:k + len(block)] = values
        k += len(block)
    return times, sites, columns


def write_csv(grid, stream):
    """A grid as CSV rows measure,x,t,value by name, x, then t, t and value
    to 12 significant digits: one format call per (name, x) column, on t
    fields formatted once and a %.12g left for each value, with only that
    column's values as Python floats."""
    times, sites, columns = grid
    tails = [",%.12g,%%.12g\n" % t for t in times]
    stream.write("measure,x,t,value\n")
    for name in sorted(columns):
        for x, column in zip(sites, columns[name].T):
            head = "%s,%d" % (name, x)
            stream.write((head + head.join(tails)) % tuple(column.tolist()))
