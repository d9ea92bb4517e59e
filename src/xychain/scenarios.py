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
total_concurrence, ckw_residual.

Each measure is defined once, in `measure_rows`, over a view of the state
at one time.  A view offers one_tangle(x), concurrence(l, m), rho2(l, m),
partner_concurrences(x) over the route's window (the light cone on the
Bessel route, +-PAIR_WINDOW on the Pfaffian route, the whole ring on the
oracle) and baseline_tangle(x), the tangle of the unperturbed reference.
The analytic engine's views are the one-particle packet (the gamma = 0
vacuum is the empty packet) and `isotropic.PhiState` at gamma = 0, and
Pfaffian contractions otherwise or in equilibrium; the oracle's view is
the evolved ring.  Views are built per time and hold only that time's
state.  What the analytic engine cannot represent exactly (knitted
scenarios, phi_bell and generic seed phases at gamma != 0, ckw_residual on
phi_bell) raises CapabilityError when the engine is built; the oracle
engine handles those on small rings.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import groundstate, isotropic, measures, oracle
from .pfaffian import bundles, magnetization
from .correlators import bell_contractions, vacuum_contractions
from .errors import CapabilityError, ConfigError
from .model import THERMODYNAMIC_LIMIT, ModelParams

SCENARIO_KINDS = (
    "vacuum_only",
    "singlet_on_vacuum",
    "psi_bell",
    "phi_bell",
    "ground_state_equilibrium",
    "singlet_knitted_gs",
)

MEASURES = (
    "concurrence",
    "one_tangle",
    "entropy2",
    "bell_fidelities",
    "tangle_deviation",
    "total_concurrence",
    "ckw_residual",
)

PAIR_WINDOW = 7  # partner reach of sums evaluated on the Pfaffian route

_FIDELITY_NAMES = (
    "bell_fidelity_psi_minus",
    "bell_fidelity_psi_plus",
    "bell_fidelity_phi_minus",
    "bell_fidelity_phi_plus",
)


@dataclass(frozen=True)
class ScenarioConfig:
    lam: float
    gamma: float
    kind: str
    i: int = None
    j: int = None
    phi: float = None
    oracle_sites: int = 12
    t_start: float = 0.0
    t_stop: float = 0.0
    dt: float = 1.0
    x_start: int = 0
    x_stop: int = 0
    measure_list: tuple = ()
    concurrence_distance: int = 1
    engine: str = "analytic"

    @property
    def params(self):
        return ModelParams(lam=self.lam, gamma=self.gamma,
                           size=THERMODYNAMIC_LIMIT)

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


_KEY_TYPES = {
    "model.lambda": float,
    "model.lam": float,
    "model.gamma": float,
    "scenario.kind": str,
    "scenario.i": int,
    "scenario.j": int,
    "scenario.phi": float,
    "scenario.oracle_sites": int,
    "grid.t_start": float,
    "grid.t_stop": float,
    "grid.dt": float,
    "grid.x_start": int,
    "grid.x_stop": int,
    "measures.list": str,
    "measures.concurrence_distance": int,
    "engine": str,
}


def parse_config_text(text, source="<config>"):
    """Parse scenario text into a validated ScenarioConfig."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        caster = _KEY_TYPES[key]
        try:
            raw[key] = caster(value) if caster is not str else value
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return _validate(raw, source)


def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _require(raw, key, source):
    if key not in raw:
        raise ConfigError(f"{source}: missing required key {key!r}")
    return raw[key]


def _validate(raw, source):
    if "model.lambda" in raw and "model.lam" in raw:
        raise ConfigError(f"{source}: give model.lambda or model.lam, not both")
    lam = raw.get("model.lambda", raw.get("model.lam"))
    if lam is None:
        raise ConfigError(f"{source}: missing required key 'model.lambda'")
    gamma = _require(raw, "model.gamma", source)
    kind = _require(raw, "scenario.kind", source)
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"{source}: unknown scenario.kind {kind!r}; expected one of "
            f"{', '.join(SCENARIO_KINDS)}")
    if lam < 0 or not math.isfinite(lam):
        raise ConfigError(f"{source}: model.lambda must be finite and >= 0")
    if not math.isfinite(gamma):
        raise ConfigError(f"{source}: model.gamma must be finite")

    needs_pair = kind in ("singlet_on_vacuum", "psi_bell", "phi_bell",
                          "singlet_knitted_gs")
    i = raw.get("scenario.i")
    j = raw.get("scenario.j")
    if needs_pair:
        if i is None or j is None:
            raise ConfigError(
                f"{source}: scenario.kind {kind} needs scenario.i and "
                "scenario.j")
        if i == j:
            raise ConfigError(f"{source}: scenario sites must differ")
    phi = raw.get("scenario.phi")
    if kind in ("psi_bell", "phi_bell") and phi is None:
        raise ConfigError(
            f"{source}: scenario.kind {kind} needs scenario.phi")

    oracle_sites = raw.get("scenario.oracle_sites", 12)
    if not 4 <= oracle_sites <= oracle.MAX_SITES:
        raise ConfigError(
            f"{source}: scenario.oracle_sites must be in "
            f"[4, {oracle.MAX_SITES}]")

    dt = _require(raw, "grid.dt", source)
    t_start = _require(raw, "grid.t_start", source)
    t_stop = _require(raw, "grid.t_stop", source)
    x_start = _require(raw, "grid.x_start", source)
    x_stop = _require(raw, "grid.x_stop", source)
    if dt <= 0:
        raise ConfigError(f"{source}: grid.dt must be > 0")
    if t_stop < t_start:
        raise ConfigError(f"{source}: grid.t_stop below grid.t_start")
    if x_stop < x_start:
        raise ConfigError(f"{source}: grid.x_stop below grid.x_start")

    mtext = _require(raw, "measures.list", source)
    mlist = tuple(m.strip() for m in mtext.split(",") if m.strip())
    if not mlist:
        raise ConfigError(f"{source}: measures.list is empty")
    for m in mlist:
        if m not in MEASURES:
            raise ConfigError(
                f"{source}: unknown measure {m!r}; expected one of "
                f"{', '.join(MEASURES)}")
    distance = raw.get("measures.concurrence_distance", 1)
    if distance < 1:
        raise ConfigError(
            f"{source}: measures.concurrence_distance must be >= 1")

    engine = raw.get("engine", "analytic")
    if engine not in ("analytic", "oracle"):
        raise ConfigError(f"{source}: engine must be 'analytic' or 'oracle'")

    return ScenarioConfig(
        lam=float(lam), gamma=float(gamma), kind=kind,
        i=i, j=j, phi=phi, oracle_sites=int(oracle_sites),
        t_start=float(t_start), t_stop=float(t_stop), dt=float(dt),
        x_start=int(x_start), x_stop=int(x_stop),
        measure_list=mlist, concurrence_distance=int(distance),
        engine=engine,
    )


# ---------------------------------------------------------------------------


def measure_rows(config, view, t):
    """Rows (name, x, t, value) of every configured measure, read off the
    view of the state at time t."""
    d = config.concurrence_distance
    rows = []
    for name in config.measure_list:
        for x in config.sites():
            if name == "concurrence":
                rows.append((name, x, t, view.concurrence(x, x + d)))
            elif name == "one_tangle":
                rows.append((name, x, t, view.one_tangle(x)))
            elif name == "entropy2":
                rows.append((name, x, t,
                             measures.entropy_vn(view.rho2(x, x + 1))))
            elif name == "bell_fidelities":
                vals = measures.bell_fidelities(view.rho2(x, x + 1))
                rows.extend(zip(_FIDELITY_NAMES, (x,) * 4, (t,) * 4, vals))
            elif name == "tangle_deviation":
                delta, rel = measures.tangle_deviation(
                    view.one_tangle(x), view.baseline_tangle(x))
                rows.append(("tangle_deviation", x, t, delta))
                rows.append(("tangle_deviation_rel", x, t, rel))
            elif name == "total_concurrence":
                total = float(view.partner_concurrences(x).sum())
                rows.append((name, x, t, total))
            else:  # ckw_residual
                rows.append((name, x, t, measures.ckw_residual(
                    view.one_tangle(x), view.partner_concurrences(x))))
    return rows


class _ContractionView:
    """Pfaffian-route view of one time's Majorana contractions on the
    config's site grid.  Bundles are memoized per (l, m) and evaluated a
    column at a time: a miss at (l, m) fills (x, x + m - l) for every grid
    site x in one batched call, and the first partner sum fills the
    +-PAIR_WINDOW windows of every grid site in another.  Each pair's
    concurrence is memoized next to its bundle.  Magnetizations of the grid
    sites come as one array.  ``baseline`` holds the reference contractions
    (None: the state is its own reference)."""

    def __init__(self, contractions, sites, baseline=None):
        self.con = contractions
        self.sites = sites
        self._baseline = baseline
        self._bundles = {}
        self._concurrences = {}

    def _fill(self, pairs):
        todo = list(dict.fromkeys(p for p in pairs if p not in self._bundles))
        if todo:
            self._bundles.update(zip(todo, bundles(self.con, todo)))

    def _bundle(self, l, m):
        if (l, m) not in self._bundles:
            self._fill([(l, m)] + [(x, x + m - l) for x in self.sites])
        return self._bundles[(l, m)]

    @staticmethod
    def _window(x):
        return [(min(x, q), max(x, q))
                for q in range(x - PAIR_WINDOW, x + PAIR_WINDOW + 1) if q != x]

    def _tangles(self, contractions):
        mz = magnetization(contractions, self.sites)
        return dict(zip(self.sites, measures.one_tangle(mz).tolist()))

    @functools.cached_property
    def _tangle(self):
        return self._tangles(self.con)

    @functools.cached_property
    def _baseline_tangle(self):
        if self._baseline is None:
            return self._tangle
        return self._tangles(self._baseline)

    def one_tangle(self, x):
        return self._tangle[x]

    def concurrence(self, l, m):
        if (l, m) not in self._concurrences:
            self._concurrences[(l, m)] = measures.concurrence_closed(
                self._bundle(l, m))
        return self._concurrences[(l, m)]

    def rho2(self, l, m):
        return measures.rho2_from_correlators(self._bundle(l, m))

    def partner_concurrences(self, x):
        pairs = self._window(x)
        if any(p not in self._bundles for p in pairs):
            self._fill(pairs + [p for s in self.sites
                                for p in self._window(s)])
        return np.array([self.concurrence(l, m) for l, m in pairs])

    def baseline_tangle(self, x):
        return self._baseline_tangle[x]


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
        if config.gamma != 0.0 and kind == "psi_bell":
            phase = config.seed_phase % (2.0 * math.pi)
            if min(abs(phase), abs(phase - math.pi),
                   abs(phase - 2.0 * math.pi)) > 1e-12:
                raise CapabilityError(
                    "psi_bell with gamma != 0 supports only phi in {0, pi}")
        if kind == "phi_bell" and "ckw_residual" in config.measure_list:
            raise CapabilityError(
                "ckw_residual of the pair seed refers to its one-particle "
                "orbitals; evaluate it on a psi seed or the oracle engine")
        self._ground = None
        if kind == "ground_state_equilibrium":
            reach = (abs(config.x_stop - config.x_start)
                     + max(config.concurrence_distance, PAIR_WINDOW) + 2)
            self._ground = groundstate.gs_contractions(self.params, reach)

    def _view(self, t):
        cfg = self.config
        if self._ground is not None:
            return _ContractionView(self._ground, cfg.sites())
        if cfg.gamma == 0.0:
            if cfg.kind == "vacuum_only":  # stationary: the empty packet
                return isotropic.SingleParticleState(
                    start=0, amps=np.zeros(0, dtype=complex), time=t,
                    lam=cfg.lam, sources=(), phi=0.0)
            if cfg.kind == "phi_bell":
                return isotropic.PhiState(cfg.i, cfg.j, cfg.seed_phase, t,
                                          cfg.lam)
            return isotropic.wavepacket(cfg.i, cfg.j, cfg.seed_phase, t,
                                        cfg.lam)
        if cfg.kind == "vacuum_only":
            return _ContractionView(vacuum_contractions(self.params, t),
                                    cfg.sites())
        amp = 1.0 if abs(np.exp(1j * cfg.seed_phase) - 1.0) < 1e-9 else -1.0
        seed = bell_contractions(self.params, t, cfg.i, cfg.j, amp=amp)
        return _ContractionView(seed, cfg.sites(), baseline=seed.vacuum)

    def rows_at(self, t):
        return measure_rows(self.config, self._view(t), t)


class _RingView:
    """Oracle view of one evolved ring state; site indices wrap.
    ``reference`` evolves the unperturbed reference on first use."""

    def __init__(self, ws, vecs, reference):
        self.ws = ws
        self.vecs = vecs
        self._evolve_reference = reference

    def one_tangle(self, x):
        return self.ws.one_tangle(self.vecs, x)

    def concurrence(self, l, m):
        return self.ws.concurrence(self.vecs, l, m)

    def rho2(self, l, m):
        return self.ws.rho2(self.vecs, l, m)

    def partner_concurrences(self, x):
        site = x % self.ws.n
        return np.array([self.ws.concurrence(self.vecs, site, m)
                         for m in range(self.ws.n) if m != site])

    @functools.cached_property
    def _reference(self):
        return self._evolve_reference()

    def baseline_tangle(self, x):
        return self.ws.one_tangle(self._reference, x)


class OracleEngine:
    """Small-ring exact-diagonalization engine; site indices wrap."""

    def __init__(self, config):
        self.config = config
        n = config.oracle_sites
        kind = config.kind
        if kind in ("singlet_on_vacuum", "psi_bell", "phi_bell",
                    "singlet_knitted_gs"):
            if not (0 <= config.i < n and 0 <= config.j < n):
                raise ConfigError(
                    f"scenario sites must lie in [0, {n - 1}] on the oracle "
                    "ring")
        self.ws = oracle.workspace(n, config.gamma, config.lam)
        self._base = self._prepare()
        equilibrium = kind in ("ground_state_equilibrium", "singlet_knitted_gs")
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
        if cfg.kind == "singlet_knitted_gs":
            return ws.knitted_singlet(cfg.i, cfg.j)
        raise ConfigError(f"unknown scenario kind {cfg.kind!r}")

    def rows_at(self, t):
        ws = self.ws
        view = _RingView(ws, ws.evolve_components(self._base, t),
                         lambda: ws.evolve_components(self._reference, t))
        return measure_rows(self.config, view, t)


def make_engine(config, engine_name=None):
    name = engine_name or config.engine
    if name == "analytic":
        return AnalyticEngine(config)
    if name == "oracle":
        return OracleEngine(config)
    raise ConfigError(f"unknown engine {name!r}")


def run_scenario(config, engine_name=None):
    """Evaluate the full measurement grid; rows sorted deterministically."""
    engine = make_engine(config, engine_name)
    rows = [row for t in config.times() for row in engine.rows_at(t)]
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def format_value(value):
    """Shortest-ish float formatting capped at 12 significant digits."""
    return f"{value:.12g}"


def write_csv(rows, stream):
    stream.write("measure,x,t,value\n")
    for name, x, t, value in rows:
        stream.write(f"{name},{x},{format_value(t)},{format_value(value)}\n")
