import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import grid_rows, ladder_blocks_greedy, same_bits
from xychain import correlators, groundstate, isotropic, measures, scenarios
from xychain.errors import (CapabilityError, ConfigError, CutoffError,
                            OutOfRangeError)
from xychain.model import LIGHT_CONE_PAD, ModelParams
from xychain.scenarios import (MEASURES, parse_config_file, parse_config_text,
                               run_scenario, write_csv)
from xychain.selftest import PFAFFIAN_TOL

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

BASE = """
model.lambda = 1.0
model.gamma = 0.0
scenario.kind = singlet_on_vacuum
scenario.i = 0
scenario.j = 1
grid.t_start = 0.0
grid.t_stop = 1.0
grid.dt = 0.5
grid.x_start = -1
grid.x_stop = 2
measures.list = concurrence, one_tangle
"""


def run_python(*argv):
    # the child imports the same xychain as this process
    src = str(Path(scenarios.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*argv):
    return run_python("-m", "xychain", *argv)


def test_parse_roundtrip():
    cfg = parse_config_text(BASE)
    assert cfg.lam == 1.0 and cfg.gamma == 0.0
    assert cfg.kind == "singlet_on_vacuum"
    assert cfg.measure_list == ("concurrence", "one_tangle")
    assert list(cfg.sites()) == [-1, 0, 1, 2]
    assert np.allclose(cfg.times(), [0.0, 0.5, 1.0])


def test_parse_errors_carry_location():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_text("model.lambda = 1.0\nmodel.bogus = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(BASE + "model.gamma = 0.5\n")
    # the thread count is no longer a setting
    with pytest.raises(ConfigError, match="unknown key 'threads'"):
        parse_config_text(BASE + "threads = 1\n")
    with pytest.raises(ConfigError, match="="):
        parse_config_text("model.lambda 1.0\n")
    with pytest.raises(ConfigError):
        parse_config_text(BASE.replace("model.gamma = 0.0",
                                       "model.gamma = high"))


def test_parse_requires_grid_and_measures():
    with pytest.raises(ConfigError, match="grid.dt"):
        parse_config_text(BASE.replace("grid.dt = 0.5\n", ""))
    with pytest.raises(ConfigError, match="measures.list"):
        parse_config_text(BASE.replace(
            "measures.list = concurrence, one_tangle\n", ""))
    with pytest.raises(ConfigError, match="unknown measure"):
        parse_config_text(BASE.replace("one_tangle", "entanglement"))


def test_measure_listed_twice_is_a_config_error(tmp_path):
    # the grid holds one column per measure name, so a repeat is refused
    # rather than printed twice
    text = BASE.replace("concurrence, one_tangle",
                        "one_tangle, concurrence, one_tangle")
    with pytest.raises(ConfigError, match="measures.list repeats one_tangle$"):
        parse_config_text(text)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    code, out, err = run_cli("run", str(cfg))
    assert code == 2 and out == ""
    assert "repeats one_tangle" in err


def test_parse_rejects_lambda_alias_conflict(tmp_path):
    # model.lam is no second spelling of model.lambda: alone or beside it,
    # it is an unknown key, exit code 2 through the CLI
    for text in (BASE + "model.lam = 2.0\n",
                 BASE.replace("model.lambda", "model.lam")):
        with pytest.raises(ConfigError, match="unknown key 'model.lam'"):
            parse_config_text(text)
        cfg = tmp_path / "lam.cfg"
        cfg.write_text(text)
        code, _, err = run_cli("run", str(cfg))
        assert code == 2 and "unknown key 'model.lam'" in err


def test_every_config_field_is_set_by_one_key():
    fields = dataclasses.fields(scenarios.ScenarioConfig)
    mapped = [name for name, _ in scenarios.CONFIG_KEYS.values()]
    assert sorted(mapped) == sorted(f.name for f in fields)


def test_missing_required_key_is_named():
    required = {f.name for f in dataclasses.fields(scenarios.ScenarioConfig)
                if f.default is dataclasses.MISSING}
    keys = [key for key, (name, _) in scenarios.CONFIG_KEYS.items()
            if name in required]
    assert keys == ["model.lambda", "model.gamma", "scenario.kind",
                    "grid.dt", "grid.t_start", "grid.t_stop", "grid.x_start",
                    "grid.x_stop", "measures.list"]
    for key in keys:
        text = "\n".join(line for line in BASE.splitlines()
                         if not line.startswith(key + " "))
        with pytest.raises(ConfigError,
                           match=f"missing required key '{key}'"):
            parse_config_text(text)


def test_parse_validates_scenario_shape():
    with pytest.raises(ConfigError):
        parse_config_text(BASE.replace("scenario.j = 1", "scenario.j = 0"))
    with pytest.raises(ConfigError):
        parse_config_text(BASE.replace("grid.dt = 0.5", "grid.dt = -1"))
    with pytest.raises(ConfigError, match="kind"):
        parse_config_text(BASE.replace("singlet_on_vacuum", "quench"))


def test_time_grid_endpoint():
    cfg = parse_config_text(BASE.replace("grid.dt = 0.5", "grid.dt = 0.3"))
    assert np.allclose(cfg.times(), [0.0, 0.3, 0.6, 0.9])
    with pytest.raises(ConfigError, match="t_stop"):
        parse_config_text(BASE.replace("grid.t_stop = 1.0",
                                       "grid.t_stop = -1.0"))


def test_vacuum_scenario_is_trivial_at_zero_gamma():
    text = BASE.replace("singlet_on_vacuum", "vacuum_only")
    text = text.replace("scenario.i = 0\n", "").replace("scenario.j = 1\n", "")
    text = text.replace("measures.list = concurrence, one_tangle",
                        "measures.list = concurrence, bell_fidelities")
    rows = grid_rows(run_scenario(parse_config_text(text)))
    by_name = {}
    for name, x, t, v in rows:
        by_name.setdefault(name, []).append(v)
    assert np.allclose(by_name["concurrence"], 0.0, atol=1e-12)
    assert np.allclose(by_name["bell_fidelity_phi_minus"], 0.5, atol=1e-12)
    assert np.allclose(by_name["bell_fidelity_psi_plus"], 0.0, atol=1e-12)


def test_rows_are_deterministic_and_thread_safe():
    cfg = parse_config_text(BASE)
    rows1 = grid_rows(run_scenario(cfg))
    rows2 = grid_rows(run_scenario(cfg))
    # runs share no mutable state, so concurrent callers get the same rows
    with ThreadPoolExecutor(max_workers=3) as pool:
        concurrent = [grid_rows(grid)
                      for grid in pool.map(run_scenario, [cfg] * 3)]
    assert rows1 == rows2
    assert all(rows == rows1 for rows in concurrent)


def test_csv_format():
    cfg = parse_config_text(BASE)
    buf = io.StringIO()
    write_csv(run_scenario(cfg), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "measure,x,t,value"
    name, x, t, v = lines[1].split(",")
    float(x), float(t), float(v)
    # 12 significant digits survive a round trip; a grid of one cell
    buf = io.StringIO()
    write_csv(([1.0 / 3.0], [-2], {"m": np.array([[-1.0 / 3.0]])}), buf)
    line = buf.getvalue().splitlines()[1]
    assert line == "m,-2,0.333333333333,-0.333333333333"
    assert float(line.split(",")[-1]) == pytest.approx(
        -1.0 / 3.0, abs=1e-12)


def test_equilibrium_scenario_matches_direct_call():
    text = """
model.lambda = 1.0
model.gamma = 0.5
scenario.kind = ground_state_equilibrium
grid.t_start = 0.0
grid.t_stop = 1.0
grid.dt = 1.0
grid.x_start = 0
grid.x_stop = 0
measures.list = concurrence, tangle_deviation
"""
    rows = grid_rows(run_scenario(parse_config_text(text)))
    con_rows = [r for r in rows if r[0] == "concurrence"]
    ref, _ = groundstate.gs_concurrence(ModelParams(lam=1.0, gamma=0.5), 1)
    assert len(con_rows) == 2  # static state, one row per time
    for _, _, _, v in con_rows:
        assert np.isclose(v, ref, atol=1e-12)
    # the state equals its own reference, so the deviation rows vanish
    for r in rows:
        if r[0].startswith("tangle_deviation"):
            assert abs(r[3]) < 1e-12


def test_analytic_engine_rejects_what_it_cannot_do():
    text = BASE.replace("singlet_on_vacuum", "singlet_knitted_gs")
    with pytest.raises(CapabilityError, match="oracle"):
        run_scenario(parse_config_text(text))
    # the pair seed at gamma != 0 has no analytic route yet
    text = BASE.replace("model.gamma = 0.0", "model.gamma = 0.5")
    text = text.replace("scenario.kind = singlet_on_vacuum",
                        "scenario.kind = phi_bell\nscenario.phi = 0.7")
    with pytest.raises(CapabilityError, match="phi_bell"):
        run_scenario(parse_config_text(text))


def test_psi_bell_at_gamma_nonzero_runs_at_any_phase():
    # amp = e^{i phi}, rounded to exactly -1 within 1e-9 of pi
    text = BASE.replace("model.gamma = 0.0", "model.gamma = 0.5").replace(
        "scenario.kind = singlet_on_vacuum",
        "scenario.kind = psi_bell\nscenario.phi = {}")
    outputs = []
    for phi in (0.7, math.pi, math.pi + 1e-10):
        buf = io.StringIO()
        write_csv(run_scenario(parse_config_text(text.format(phi))), buf)
        outputs.append(buf.getvalue())
    assert outputs[0] != outputs[1] and outputs[1] == outputs[2]


def test_seed_tables_reach_every_grid_site():
    # a gamma != 0 singlet's tables cover the whole grid: at sites beyond
    # the light cone of both seeds its rows are the vacuum's
    text = BASE.replace("model.gamma = 0.0", "model.gamma = 0.5").replace(
        "grid.x_start = -1\ngrid.x_stop = 2", "grid.x_start = -300\n"
        "grid.x_stop = 300").replace(
            "grid.t_stop = 1.0", "grid.t_stop = 2.0").replace(
            "concurrence, one_tangle",
            "concurrence, one_tangle, entropy2, total_concurrence")
    times, sites, seeded = run_scenario(parse_config_text(text))
    _, _, vacuum = run_scenario(parse_config_text(text.replace(
        "singlet_on_vacuum", "vacuum_only")))
    xs, lam = np.array(sites), 1.0
    for k, t in enumerate(times):
        far = np.minimum(np.abs(xs - 0), np.abs(xs - 1)) > (
            lam * t + LIGHT_CONE_PAD)
        assert far.sum() > 500
        for name, values in seeded.items():
            assert np.abs(values[k, far] - vacuum[name][k, far]).max() <= (
                1e-12), (name, t)


def test_vacuum_tables_reach_every_string_the_grid_reads(tmp_path):
    # a gamma != 0 vacuum's tables reach the farthest separation a string
    # or partner sum reads, here 40 sites past the light cone's 30 at t = 0:
    # the run exits 0, and by translation invariance every site reads the
    # same values
    cfg = tmp_path / "far.cfg"
    cfg.write_text(BASE.replace("model.gamma = 0.0", "model.gamma = 0.5")
                   .replace("singlet_on_vacuum", "vacuum_only")
                   .replace("grid.t_stop = 1.0", "grid.t_stop = 2.0")
                   .replace("grid.dt = 0.5", "grid.dt = 1.0")
                   .replace("grid.x_start = -1\ngrid.x_stop = 2",
                            "grid.x_start = -60\ngrid.x_stop = 60")
                   .replace("concurrence, one_tangle",
                            "concurrence, one_tangle, total_concurrence")
                   + "measures.concurrence_distance = 40\n")
    code, out, err = run_cli("run", str(cfg))
    assert code == 0, err
    columns = {}
    for line in out.splitlines()[1:]:
        name, _, t, value = line.split(",")
        columns.setdefault((name, t), []).append(float(value))
    assert len(columns) == 9
    assert all(len(values) == 121 and np.ptp(values) <= 1e-12
               for values in columns.values())


def test_ground_state_table_reaches_the_reads_alone():
    # the ground state is translation invariant: its table reaches the
    # farthest separation a string or partner sum reads, however wide the
    # grid
    ground = BASE.replace("singlet_on_vacuum", "ground_state_equilibrium"
                          ).replace("model.gamma = 0.0", "model.gamma = 0.5"
                          ).replace("grid.x_start = -1\ngrid.x_stop = 2",
                                    "grid.x_start = -20\ngrid.x_stop = 20")
    for distance, radius in ((3, scenarios.PAIR_WINDOW), (12, 12)):
        cfg = parse_config_text(
            ground + f"measures.concurrence_distance = {distance}\n")
        (_, view, _), = scenarios.AnalyticEngine(cfg).views(cfg.times())
        assert view.con.radius == radius


def test_oracle_engine_agrees_with_analytic():
    # every measure on the gamma = 0 singlet (Bessel route) and on a
    # gamma = 0.5 psi_bell at phi = pi (Pfaffian route)
    bessel = BASE.replace("grid.t_stop = 1.0", "grid.t_stop = 1.5").replace(
        "concurrence, one_tangle", ", ".join(MEASURES))
    pfaffian = bessel.replace("model.gamma = 0.0", "model.gamma = 0.5")
    pfaffian = pfaffian.replace(
        "kind = singlet_on_vacuum",
        "kind = psi_bell\nscenario.phi = 3.141592653589793")
    # The pair sums run over the light cone on the Bessel route, +-7 sites
    # on the Pfaffian route and the whole 12-site ring on the oracle.  Up
    # to lambda*t = 1.5 the Bessel tails that the ring folds back onto
    # itself moved total_concurrence by 3.6e-4 (the Pfaffian route 4.6e-7)
    # and ckw_residual by 7e-16 (1.4e-7).
    window_tol = {"total_concurrence": 1e-3, "ckw_residual": 1e-6}
    for text, tol in ((bessel, 1e-4), (pfaffian, PFAFFIAN_TOL)):
        cfg = parse_config_text(text)
        ana = grid_rows(run_scenario(cfg))
        orc = grid_rows(run_scenario(dataclasses.replace(cfg,
                                                         engine="oracle")))
        assert len(ana) == len(orc) == 4 * 4 * 11  # sites, times, rows
        for (n1, x1, t1, v1), (n2, x2, t2, v2) in zip(ana, orc):
            assert (n1, x1, t1) == (n2, x2, t2)
            assert abs(v1 - v2) < window_tol.get(n1, tol), (n1, x1, t1)


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_config_runs(path):
    cfg = parse_config_file(path)
    rows = grid_rows(run_scenario(cfg))
    per_cell = {"bell_fidelities": 4, "tangle_deviation": 2}
    cells = len(cfg.sites()) * len(cfg.times())
    assert len(rows) == cells * sum(per_cell.get(m, 1)
                                    for m in cfg.measure_list)
    assert all(math.isfinite(value) for _, _, _, value in rows)


def test_shipped_configs_refused_at_engine_construction(monkeypatch):
    def no_time_step(self, times):
        raise AssertionError("a time step ran before the refusal")

    monkeypatch.setattr(scenarios.AnalyticEngine, "views", no_time_step)
    knitted = parse_config_file(SCRIPTS / "knitted.cfg")
    phi = parse_config_file(SCRIPTS / "phi_switch.cfg")
    refused = (
        knitted,
        dataclasses.replace(phi, gamma=0.5),
        dataclasses.replace(
            phi, measure_list=phi.measure_list + ("ckw_residual",)),
    )
    for cfg in refused:
        cfg = dataclasses.replace(cfg, engine="analytic")
        with pytest.raises(CapabilityError):
            scenarios.make_engine(cfg)
        with pytest.raises(CapabilityError):
            run_scenario(cfg)


def test_analytic_engine_builds_each_table_once(monkeypatch):
    built = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        correlators.VacuumContractions, "__init__",
        counting("vacuum", correlators.VacuumContractions.__init__))
    monkeypatch.setattr(correlators, "_ring_tables",
                        counting("ring sum", correlators._ring_tables))
    monkeypatch.setattr(groundstate, "gs_contractions",
                        counting("ground", groundstate.gs_contractions))
    times = 3
    singlet = BASE.replace("model.gamma = 0.0", "model.gamma = 0.5").replace(
        "concurrence, one_tangle",
        "concurrence, tangle_deviation, total_concurrence")
    run_scenario(parse_config_text(singlet))
    # one block holds the grid: the seed's own vacuum part, which also
    # holds its kernel tables and is the baseline, with one ring sum per
    # time
    assert built == {"vacuum": 1, "ring sum": times}
    built.clear()
    ground = """
model.lambda = 1.0
model.gamma = 0.5
scenario.kind = ground_state_equilibrium
grid.t_start = 0.0
grid.t_stop = 1.0
grid.dt = 0.5
grid.x_start = 0
grid.x_stop = 1
measures.list = concurrence, ckw_residual, tangle_deviation
"""
    run_scenario(parse_config_text(ground))
    assert built == {"ground": 1}


def test_ground_state_view_serves_every_time(monkeypatch):
    # the ground state is stationary: a grid of 5 times evaluates the
    # bundles of a grid of 1 time
    calls = []
    bundles = scenarios.bundles

    def counting(contractions, pairs):
        calls.append(len(pairs))
        return bundles(contractions, pairs)

    monkeypatch.setattr(scenarios, "bundles", counting)
    ground = BASE.replace("singlet_on_vacuum", "ground_state_equilibrium")
    ground = ground.replace("model.gamma = 0.0", "model.gamma = 0.5").replace(
        "concurrence, one_tangle",
        "concurrence, entropy2, total_concurrence, tangle_deviation")
    counts = []
    for t_stop in ("0.0", "2.0"):
        calls.clear()
        cfg = parse_config_text(ground.replace("grid.t_stop = 1.0",
                                               f"grid.t_stop = {t_stop}"))
        rows = grid_rows(run_scenario(cfg))
        assert len({t for _, _, t, _ in rows}) == len(cfg.times())
        counts.append(list(calls))
    assert len(cfg.times()) == 5
    assert counts[0] == counts[1] and counts[0]


def test_contraction_view_evaluates_each_pair_concurrence_once(monkeypatch):
    # each distinct pair reaches `bundles` once: the concurrence measure's
    # pairs, and those of the partner windows that total_concurrence and
    # ckw_residual share, which repeat every pair of two sites in reach
    evaluated = []

    def recording(contractions, pairs):
        evaluated.extend(pairs)
        return bundles(contractions, pairs)

    bundles = scenarios.bundles
    monkeypatch.setattr(scenarios, "bundles", recording)
    singlet = BASE.replace("model.gamma = 0.0", "model.gamma = 0.5").replace(
        "concurrence, one_tangle",
        "concurrence, total_concurrence, ckw_residual")
    cfg = parse_config_text(singlet)
    run_scenario(cfg)
    xs, w = cfg.sites(), scenarios.PAIR_WINDOW
    windows = {(min(x, q), max(x, q)) for x in xs
               for q in range(x - w, x + w + 1) if q != x}
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == windows | {(x, x + 1) for x in xs}


def counting_methods(monkeypatch, cls, names):
    """A Counter of the calls of the methods names of cls."""
    calls = Counter()
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(cls, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_measure_rows_asks_a_view_once_per_request(monkeypatch):
    # one_tangle, total_concurrence and ckw_residual share the answers of
    # each packet view of the singlet spread, one view per block of windows
    asked = ("one_tangle", "partner_sums")
    calls = counting_methods(monkeypatch, isotropic.SingleParticleState,
                             asked)
    cfg = parse_config_file(SCRIPTS / "singlet_spread.cfg")
    blocks = list(scenarios.make_engine(cfg).views(cfg.times()))
    run_scenario(cfg)
    assert calls == {"one_tangle": len(blocks), "partner_sums": len(blocks)}
    # a vacuum at gamma != 0 is its own baseline: one_tangle and
    # tangle_deviation share one answer per block of times
    calls = counting_methods(monkeypatch, scenarios._ContractionView, asked)
    cfg = parse_config_file(SCRIPTS / "vacuum_creation.cfg")
    blocks = list(scenarios.make_engine(cfg).views(cfg.times()))
    run_scenario(cfg)
    assert len(blocks) == 1 and calls == {"one_tangle": 1}


ISOTROPIC = """
model.lambda = {lam}
model.gamma = 0.0
scenario.kind = {kind}
scenario.i = {i}
scenario.j = {j}
scenario.phi = {phi}
grid.t_start = {t_start}
grid.t_stop = {t_stop}
grid.dt = {dt}
grid.x_start = {x_start}
grid.x_stop = {x_stop}
measures.list = {measures}
measures.concurrence_distance = 3
"""


def site_by_site_rows(cfg):
    """The grid rows of a gamma = 0 scenario from views built per time on
    their own windows, each measure read one site at a time."""
    rows = []
    for t in cfg.times():
        if cfg.kind == "phi_bell":
            view = isotropic.PhiState(cfg.i, cfg.j, cfg.phi, t, cfg.lam)
        else:
            view = isotropic.wavepacket(cfg.i, cfg.j, cfg.seed_phase, t,
                                        cfg.lam)
        for x in cfg.sites():
            d = cfg.concurrence_distance
            entries = view.pair_entries(x, x + 1)
            tau = view.one_tangle(x)
            # the baseline is the stationary vacuum, of zero tangle
            dev = measures.tangle_deviation(tau, 0.0)
            values = {
                "concurrence": view.concurrence(x, x + d),
                "one_tangle": tau,
                "entropy2": measures.entropy_vn(measures.x_spectrum(entries)),
                "tangle_deviation": dev[0],
                "tangle_deviation_rel": dev[1],
                "total_concurrence": view.partner_sums(x)[0],
            }
            values.update(zip(scenarios._FIDELITY_NAMES,
                              measures.bell_fidelities(entries)))
            if cfg.kind != "phi_bell":
                values["ckw_residual"] = measures.ckw_residual(
                    tau, view.partner_sums(x)[1])
            rows += [(name, x, t, float(v)) for name, v in values.items()]
    return sorted(rows)


@pytest.mark.parametrize("kind, i, j, lam, dt", [
    pytest.param("psi_bell", -1, 2, 0.8, 1.5, id="psi_bell--1-2-0.8"),
    pytest.param("singlet_on_vacuum", 0, 1, 1.0, 1.5,
                 id="singlet_on_vacuum-0-1-1.0"),
    pytest.param("phi_bell", 0, 3, 1.1, 1.5, id="phi_bell-0-3-1.1"),
    # lam*dt = 0.08: up to 13 times in a row share a window radius, one
    # block of windows holds the grid, and each run of them is one packet
    # view
    pytest.param("psi_bell", -1, 2, 0.8, 0.1, id="psi_bell--1-2-0.8-fine")])
def test_grid_rows_equal_site_by_site_calls(kind, i, j, lam, dt):
    # at t = 0 the windows end 30 sites past the seeds, so the grid reaches
    # sites outside them
    measures_list = ("concurrence, one_tangle, entropy2, bell_fidelities, "
                     "tangle_deviation, total_concurrence")
    if kind != "phi_bell":
        measures_list += ", ckw_residual"
    cfg = parse_config_text(ISOTROPIC.format(
        lam=lam, kind=kind, i=i, j=j, phi=0.7, t_start=0.0, t_stop=6.0,
        dt=dt, x_start=-40, x_stop=40, measures=measures_list))
    assert grid_rows(run_scenario(cfg)) == site_by_site_rows(cfg)


@pytest.mark.parametrize("kind", ["psi_bell", "phi_bell"])
def test_time_grid_raises_at_its_earliest_failing_time(kind):
    # from lam*t = 1940 on a wider window would need Bessel orders past
    # 2000; from 1970 on the first window already does
    text = ISOTROPIC.format(lam=1.0, kind=kind, i=0, j=1, phi=0.4,
                            t_start=1800.0, t_stop=2000.0, dt=10.0,
                            x_start=0, x_stop=0, measures="one_tangle")
    defect = "2.584e-10" if kind == "psi_bell" else "5.168e-10"
    with pytest.raises(CutoffError) as err:
        run_scenario(parse_config_text(text))
    assert str(err.value) == (
        f"window too small at lam*t=1940.0: defect {defect}, and a wider "
        "one needs Bessel orders past 2000")
    text = text.replace("grid.t_start = 1800.0", "grid.t_start = 1990.0")
    with pytest.raises(OutOfRangeError, match=r"^order 2021 outside "):
        run_scenario(parse_config_text(text))


@pytest.mark.parametrize("kind", ["psi_bell", "phi_bell"])
def test_cli_negative_time_grid_is_out_of_range(tmp_path, kind):
    # refused at configuration time on every route: the Bessel route at
    # gamma = 0, the Pfaffian route at gamma = 0.5 and the oracle
    text = ISOTROPIC.format(
        lam=1.0, kind=kind, i=0, j=1, phi=0.0, t_start=-32.0,
        t_stop=-32.0, dt=1.0, x_start=0, x_stop=0, measures="one_tangle")
    cfg = tmp_path / "negative.cfg"
    for variant in (text, text.replace("gamma = 0.0", "gamma = 0.5"),
                    "engine = oracle\n" + text):
        cfg.write_text(variant)
        code, out, err = run_cli("run", str(cfg))
        assert code == 2 and out == ""
        assert err.strip() == f"error: {cfg}: grid.t_start must be >= 0"


def test_bessel_route_holds_one_block_of_ladders():
    # the ladders of this grid take 9.4 MB; the engine holds one block of
    # about 256 KB of them at a time
    cfg = parse_config_text(ISOTROPIC.format(
        lam=1.0, kind="psi_bell", i=0, j=1, phi=0.3, t_start=0.0,
        t_stop=1500.0, dt=1.0, x_start=0, x_stop=0, measures="one_tangle"))
    ladders = sum(8 * (math.ceil(t) + LIGHT_CONE_PAD + 2)
                  for t in cfg.times())
    tracemalloc.start()
    try:
        grid = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid_rows(grid)) == 1501 and ladders > 9e6
    assert peak < 2e6


def test_bessel_route_builds_one_packet_per_block_of_windows(monkeypatch):
    # lam*t steps by 0.1, so about ten times in a row share the window
    # radius ceil(lam*t) + LIGHT_CONE_PAD; a block of windows spans many
    # such runs, and its one packet holds each time's window sums and the
    # amplitudes on the four sites the grid reads (x = 0 to 0 + 3)
    cfg = parse_config_text(ISOTROPIC.format(
        lam=1.0, kind="psi_bell", i=0, j=1, phi=0.3, t_start=0.0,
        t_stop=300.0, dt=0.1, x_start=0, x_stop=0, measures="one_tangle"))
    times = cfg.times()
    blocks = []

    def counting_windows(*args, **kwargs):
        blocks.append(args)
        return windows(*args, **kwargs)

    windows = isotropic.windows
    monkeypatch.setattr(isotropic, "windows", counting_windows)
    views = list(scenarios.AnalyticEngine(cfg).views(times))
    assert len(times) == 3001 and len(views) == len(blocks)
    assert sum((ts for ts, _, _ in views), []) == times
    for (ts, view, _), (*_, lam_ts) in zip(views, blocks):
        assert view.amps.shape == (len(ts), 4) and view.start == 0
        assert [np.shape(v) for v in view.norms] == [(len(ts),)] * 2
        # a block holds WINDOW_BLOCK_BYTES by its own longest ladder, so
        # the short ladders of early times share a few long blocks
        longest = math.ceil(max(lam_ts)) + LIGHT_CONE_PAD + 2
        assert 8 * len(lam_ts) * longest <= scenarios.WINDOW_BLOCK_BYTES
    assert sum(len(lam_ts) for *_, lam_ts in blocks) == 3001
    assert len(blocks) <= 20


@pytest.mark.parametrize("phi, i, j, t_start, t_stop, dt", [
    pytest.param(0.0, 0, 1, 0.0, 100.0, 0.25, id="phase-0-span-1"),
    pytest.param(math.pi, -1, 1, 0.0, 100.0, 0.25, id="phase-pi-span-2"),
    pytest.param(2.1, 2, 5, 0.0, 100.0, 0.25, id="phase-2.1-span-3"),
    # past lam*t ~ 361 the windows widen beyond the light cone
    pytest.param(2.1, 0, 1, 370.0, 390.0, 0.5, id="phase-2.1-widening")])
def test_block_packets_equal_per_time_packets_bit_for_bit(phi, i, j, t_start,
                                                          t_stop, dt):
    # a block's packet holds only the amplitudes on the sites the grid
    # reads and each time's window sums, taken run by run on the real
    # ladders; every measure at every grid site has the bits of the packet
    # `wavepacket` builds for its time alone
    cfg = parse_config_text(ISOTROPIC.format(
        lam=1.0, kind="psi_bell", i=i, j=j, phi=phi, t_start=t_start,
        t_stop=t_stop, dt=dt, x_start=-6, x_stop=6, measures=", ".join(
            MEASURES)))
    times = cfg.times()
    views = list(scenarios.AnalyticEngine(cfg).views(times))
    radii, _ = isotropic.windows(i, j, phi, times)
    cone = np.ceil(times).astype(int) + LIGHT_CONE_PAD
    assert np.any(radii > cone) if t_start else len(views) > 1
    start = 0
    for ts, view, baseline in views:
        # each block spans several runs of times that share a radius
        assert len(set(radii[start:start + len(ts)].tolist())) > 1
        got = dict(scenarios.measure_rows(cfg, view, baseline, ts))
        for k, t in enumerate(ts):
            alone = isotropic.wavepacket(i, j, phi, t, cfg.lam)
            for name, want in scenarios.measure_rows(cfg, alone, baseline,
                                                     [t]):
                assert same_bits(got[name][k], want[0]), (name, t)
        start += len(ts)


def test_bessel_route_bounds_the_partner_sums_of_a_view():
    # over 81 sites a run of ten times on a window of 182 sites would hold
    # 1.2 MB of partner concurrences (times x sites x window); a packet
    # view takes its closed-form partner sums from one window sum per time
    # and holds none of them, beside the block of ladders it comes from
    cfg = parse_config_text(ISOTROPIC.format(
        lam=1.0, kind="psi_bell", i=0, j=1, phi=0.3, t_start=0.0,
        t_stop=60.0, dt=0.1, x_start=-40, x_stop=40,
        measures="total_concurrence, ckw_residual"))
    engine = scenarios.AnalyticEngine(cfg)
    tracemalloc.start()
    try:
        for times, view, baseline in engine.views(cfg.times()):
            scenarios.measure_rows(cfg, view, baseline, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_pfaffian_route_bounds_the_partner_concurrences_of_a_block():
    # over 121 sites the 33 times of this grid would hold 479 KB of partner
    # concurrences (times x sites x window); a block of contraction tables
    # holds at most WINDOW_BLOCK_BYTES of them
    cfg = parse_config_text(BASE.replace("model.gamma = 0.0",
                                         "model.gamma = 0.5").replace(
        "singlet_on_vacuum", "vacuum_only").replace(
        "grid.t_stop = 1.0", "grid.t_stop = 4.0").replace(
        "grid.dt = 0.5", "grid.dt = 0.125").replace(
        "grid.x_start = -1", "grid.x_start = -60").replace(
        "grid.x_stop = 2", "grid.x_stop = 60"))
    engine = scenarios.AnalyticEngine(cfg)
    blocks = [times for times, _, _ in engine.views(cfg.times())]
    width = len(cfg.sites()) * (2 * scenarios.PAIR_WINDOW + 1)
    assert len(blocks) > 1 and sum(blocks, []) == cfg.times()
    assert 8 * len(cfg.times()) * width > 479e3
    assert all(8 * len(b) * width <= scenarios.WINDOW_BLOCK_BYTES
               for b in blocks)


OVER_BUDGET = scenarios.WINDOW_BLOCK_BYTES // 8 + 1  # one ladder past it


@given(st.lists(st.one_of(st.integers(0, 2), st.integers(0, 600),
                          st.integers(0, 2 * OVER_BUDGET)), max_size=300))
@example([])
@example([0, 0, 0])
@example([OVER_BUDGET])
@example([0, 7, OVER_BUDGET, 0, 3, OVER_BUDGET - 1, 1])
@example([1] * (OVER_BUDGET + 5))
def test_ladder_blocks_equal_the_greedy_loop(lengths):
    # the blocks by running maxima cut where the loop over the ladders
    # (`helpers.ladder_blocks_greedy`) cuts: an empty grid is one empty
    # block, a length of 0 counts as 1, and a ladder over the budget alone
    # is a block of one
    assert list(scenarios._ladder_blocks(lengths)) == list(
        ladder_blocks_greedy(lengths))


def test_oracle_engine_wraps_sites_on_the_ring():
    # ring geometry: site labels act modulo oracle_sites
    text = BASE.replace("grid.x_start = -1", "grid.x_start = 13")
    text = text.replace("grid.x_stop = 2", "grid.x_stop = 13")
    wrapped = grid_rows(
        run_scenario(parse_config_text(text + "engine = oracle\n")))
    text = BASE.replace("grid.x_start = -1", "grid.x_start = 1")
    text = text.replace("grid.x_stop = 2", "grid.x_stop = 1")
    direct = grid_rows(
        run_scenario(parse_config_text(text + "engine = oracle\n")))
    assert [(n, t, v) for n, _, t, v in wrapped] == \
        [(n, t, v) for n, _, t, v in direct]


def test_cli_run_and_out_file(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(BASE)
    code, out, err = run_cli("run", str(cfg))
    assert code == 0, err
    assert out.startswith("measure,x,t,value")
    out_file = tmp_path / "rows.csv"
    code, out2, err = run_cli("run", str(cfg), "--out", str(out_file))
    assert code == 0, err
    assert out_file.read_text() == out


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "nope.cfg"
    code, _, err = run_cli("run", str(missing))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE + "model.bogus = 1\n")
    code, _, err = run_cli("run", str(bad))
    assert code == 2
    assert "bad.cfg" in err and "unknown key" in err
    knit = tmp_path / "knit.cfg"
    knit.write_text(BASE.replace("singlet_on_vacuum", "singlet_knitted_gs"))
    code, _, err = run_cli("run", str(knit))
    assert code == 2
    assert "oracle" in err


def test_cli_engine_flag_overrides_the_config(tmp_path):
    knit = tmp_path / "knit.cfg"
    knit.write_text(BASE.replace("singlet_on_vacuum", "singlet_knitted_gs")
                    + "scenario.oracle_sites = 6\n")
    code, out, err = run_cli("run", str(knit), "--engine", "oracle")
    assert code == 0, err
    rows = run_scenario(dataclasses.replace(
        parse_config_file(knit), engine="oracle"))
    buf = io.StringIO()
    write_csv(rows, buf)
    assert out == buf.getvalue()


def test_cli_phi_bell_outside_the_window_reads_the_vacuum(tmp_path):
    # the grid lies beyond the pair seed's Bessel window [-30, 31]; like a
    # psi seed there, the phi seed prints vacuum values and exits 0
    far = (BASE.replace("grid.x_start = -1", "grid.x_start = -40")
           .replace("grid.x_stop = 2", "grid.x_stop = -38")
           .replace("concurrence, one_tangle", "concurrence, one_tangle, "
                    "entropy2, bell_fidelities, total_concurrence")
           + "scenario.phi = 0.0\n")
    outs = []
    for kind in ("phi_bell", "psi_bell"):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(far.replace("singlet_on_vacuum", kind))
        code, out, err = run_cli("run", str(cfg))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_selftest_failure_exits_1(monkeypatch):
    from xychain import cli, selftest

    monkeypatch.setattr(selftest, "run_selftest", lambda fast=False: False)
    assert cli.main(["selftest", "--fast"]) == 1


def test_selftest_reports_its_time_to_the_millisecond(monkeypatch):
    from xychain import selftest

    monkeypatch.setattr(selftest, "run_case",
                        lambda gamma, lam, kind, fast=False:
                        selftest.CaseReport(f"gamma={gamma} lam={lam} {kind}"))
    stream = io.StringIO()
    assert selftest.run_selftest(fast=True, stream=stream)
    assert re.fullmatch(r"selftest PASS in \d+\.\d{3}s \(tolerances: "
                        r"pfaffian 0\.002, bessel 0\.0001\)\n",
                        stream.getvalue().splitlines(keepends=True)[-1])


def test_selftest_single_case_passes():
    from xychain.selftest import run_case

    report = run_case(0.0, 1.0, "vacuum_only", fast=True)
    assert report.ok
    assert report.cells > 0


@pytest.mark.parametrize("argv,header", [
    (("gs_table.py",), " gamma  lambda      C(1) branch"),
    (("vacuum_max.py",), "gamma=0.5 lambda=0.5"),
    (("propagation_fit.py", "1.0"), "lambda=1.0: fitted velocity"),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_worked_example_scripts_run(argv, header):
    code, out, err = run_python(str(SCRIPTS / argv[0]), *argv[1:])
    assert code == 0, err
    assert out.startswith(header)


def test_gs_table_prints_its_golden_table():
    code, out, err = run_python(str(SCRIPTS / "gs_table.py"))
    assert code == 0, err
    assert out == (SCRIPTS.parent / "tests" / "golden" /
                   "gs_table.txt").read_text()


IMPORT_FREE_RUNS = """
import sys
import xychain, xychain.selftest
loaded = set(sys.modules)
base = '''
model.lambda = 1.0
model.gamma = 0.5
grid.t_start = 0.0
grid.t_stop = 1.0
grid.dt = 0.5
grid.x_start = 0
grid.x_stop = 2
measures.list = concurrence, one_tangle
'''
xychain.run_scenario(xychain.parse_config_text(
    base + "scenario.kind = ground_state_equilibrium\\n"
    "measures.concurrence_distance = 2\\n"))
xychain.run_scenario(xychain.parse_config_text(
    base + "engine = oracle\\nscenario.oracle_sites = 6\\n"
    "scenario.kind = singlet_knitted_gs\\nscenario.i = 1\\nscenario.j = 2\\n"))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
print(sorted(m for m in set(sys.modules) - loaded
             if m.startswith('numpy.')))
"""


def test_runs_import_no_scipy_and_no_numpy_submodule():
    # an analytic ground-state run (Legendre panels, Pfaffian bundles) and an
    # oracle run (Lanczos ground state, Chebyshev steps) on numpy alone,
    # with every numpy module they use loaded by the import of xychain
    code, out, err = run_python("-c", IMPORT_FREE_RUNS)
    assert code == 0, err
    assert out.splitlines() == ["[]", "[]"]
