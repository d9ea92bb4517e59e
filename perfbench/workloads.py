"""Benchmark workloads: the operations each one runs, generated from a seed.

An operation is either one scenario run (a config text for
``xychain.parse_config_text``, evaluated by ``run_scenario`` and written by
``write_csv``) or one ``selftest.run_case`` call.

Seed 0 reproduces the named inputs: the shipped ``scripts/*.cfg`` configs,
the gamma = 0.5 singlet of the roadmap, and the ``xychain selftest --fast``
matrix.  Other seeds draw lambda, gamma, insertion sites and phases from
fixed ranges.  Grid sizes and ring sizes never depend on the seed; analytic
time grids are fixed in units of lambda*t, so the light cones, Bessel ladders
and quadrature grids keep their size too.

Reference outputs are recorded for ``REFERENCE_SEEDS`` input sets, and seed
``n`` runs input set ``n % REFERENCE_SEEDS``.
"""

import math
import random
from dataclasses import dataclass

REFERENCE_SEEDS = 10

WORKLOADS = ("oracle_ring", "pfaffian_route", "bessel_route", "crosscheck")


@dataclass(frozen=True)
class Operation:
    """One unit of work; ``failed``/``attempted`` count these."""

    name: str
    config: str = None          # scenario config text, for scenario runs
    case: tuple = None          # (gamma, lam, kind) for selftest cases
    invariant: str = None       # check used when no reference rows exist


def input_set(seed):
    return seed % REFERENCE_SEEDS


def _config(**fields):
    lines = []
    for key, value in fields.items():
        key = key.replace("__", ".")
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _lam_t_grid(lam, start, stop, step):
    """Time grid keys for a grid fixed in units of lambda*t."""
    return dict(grid__t_start=start / lam, grid__t_stop=stop / lam,
                grid__dt=step / lam)


def _draw(rng, lo, hi, digits=3):
    return round(rng.uniform(lo, hi), digits)


def _rng(workload, seed):
    return random.Random(f"{workload}:{input_set(seed)}")


def oracle_ring(seed):
    """scripts/knitted.cfg and scripts/bell_oracle.cfg on the N = 12 ring."""
    if input_set(seed) == 0:
        kn = dict(lam=1.0, gamma=0.5, i=1)
        bo = dict(lam=0.5, gamma=0.5, i=0, phi=math.pi)
    else:
        rng = _rng("oracle_ring", seed)
        kn = dict(lam=_draw(rng, 0.6, 1.2), gamma=_draw(rng, 0.3, 0.8),
                  i=rng.randint(0, 10))
        bo = dict(lam=_draw(rng, 0.3, 1.0), gamma=_draw(rng, 0.3, 0.8),
                  i=rng.randint(0, 10), phi=_draw(rng, 0.0, 2 * math.pi, 4))
    knitted = _config(
        engine="oracle", scenario__oracle_sites=12,
        model__lambda=kn["lam"], model__gamma=kn["gamma"],
        scenario__kind="singlet_knitted_gs",
        scenario__i=kn["i"], scenario__j=kn["i"] + 1,
        grid__t_start=0.0, grid__t_stop=2.0, grid__dt=0.25,
        grid__x_start=0, grid__x_stop=11,
        measures__list="concurrence, one_tangle")
    bell = _config(
        engine="oracle", scenario__oracle_sites=12,
        model__lambda=bo["lam"], model__gamma=bo["gamma"],
        scenario__kind="psi_bell",
        scenario__i=bo["i"], scenario__j=bo["i"] + 1, scenario__phi=bo["phi"],
        grid__t_start=0.0, grid__t_stop=1.5, grid__dt=0.25,
        grid__x_start=0, grid__x_stop=3,
        measures__list="concurrence, one_tangle, bell_fidelities")
    return [Operation("knitted", config=knitted),
            Operation("bell_oracle", config=bell)]


def pfaffian_route(seed):
    """Analytic engine at gamma != 0: four configs on the Pfaffian route."""
    if input_set(seed) == 0:
        sg = dict(lam=1.0, gamma=0.5, i=0)
        pb = dict(lam=1.0, gamma=0.5, i=0, j=2, phi=0.0)
        vc = dict(lam=0.5, gamma=0.5)
        gs = dict(lam=1.0, gamma=0.5)
    else:
        rng = _rng("pfaffian_route", seed)
        sg = dict(lam=_draw(rng, 0.75, 1.25), gamma=_draw(rng, 0.3, 0.8),
                  i=rng.randint(-3, 3))
        i = rng.randint(-3, 3)
        pb = dict(lam=_draw(rng, 0.75, 1.25), gamma=_draw(rng, 0.3, 0.8),
                  i=i, j=i + rng.randint(1, 3),
                  phi=rng.choice((0.0, math.pi)))
        vc = dict(lam=_draw(rng, 0.3, 0.8), gamma=_draw(rng, 0.3, 0.8))
        gs = dict(lam=_draw(rng, 0.5, 1.5), gamma=_draw(rng, 0.3, 0.8))
    # The roadmap's singlet, kept at full size (49,980 Pfaffians) because the
    # roadmap states its Pfaffian targets on it.
    singlet = _config(
        model__lambda=sg["lam"], model__gamma=sg["gamma"],
        scenario__kind="singlet_on_vacuum",
        scenario__i=sg["i"], scenario__j=sg["i"] + 1,
        **_lam_t_grid(sg["lam"], 0.0, 8.0, 0.5),
        grid__x_start=-8, grid__x_stop=8,
        measures__list=("concurrence, one_tangle, total_concurrence, "
                        "ckw_residual"),
        measures__concurrence_distance=3)
    psi = _config(
        model__lambda=pb["lam"], model__gamma=pb["gamma"],
        scenario__kind="psi_bell",
        scenario__i=pb["i"], scenario__j=pb["j"], scenario__phi=pb["phi"],
        **_lam_t_grid(pb["lam"], 0.0, 4.0, 0.5),
        grid__x_start=-4, grid__x_stop=4,
        measures__list=("concurrence, entropy2, bell_fidelities, "
                        "tangle_deviation"))
    vacuum = _config(
        model__lambda=vc["lam"], model__gamma=vc["gamma"],
        scenario__kind="vacuum_only",
        **_lam_t_grid(vc["lam"], 0.0, 3.0, 0.125),
        grid__x_start=0, grid__x_stop=0,
        measures__list="concurrence, one_tangle, tangle_deviation")
    ground = _config(
        model__lambda=gs["lam"], model__gamma=gs["gamma"],
        scenario__kind="ground_state_equilibrium",
        grid__t_start=0.0, grid__t_stop=2.0, grid__dt=0.5,
        grid__x_start=0, grid__x_stop=3,
        measures__list=("concurrence, one_tangle, ckw_residual, "
                        "tangle_deviation"))
    return [Operation("singlet_gamma", config=singlet),
            Operation("psi_bell_gamma", config=psi),
            Operation("vacuum_creation", config=vacuum),
            Operation("gs_background", config=ground)]


def bessel_route(seed):
    """Analytic engine at gamma = 0, plus the long-time defect probe."""
    if input_set(seed) == 0:
        pl = dict(lam=1.0, i=0, j=1, phi=0.0)
        pp = dict(lam=1.0, i=0, j=1, phi=0.0)
    else:
        rng = _rng("bessel_route", seed)
        i = rng.randint(-3, 3)
        pl = dict(lam=_draw(rng, 0.5, 1.5), i=i, j=i + rng.randint(1, 3),
                  phi=_draw(rng, 0.0, 2 * math.pi, 4))
        i = rng.randint(-3, 3)
        pp = dict(lam=_draw(rng, 0.5, 1.5), i=i, j=i + rng.randint(1, 4),
                  phi=_draw(rng, 0.0, 2 * math.pi, 4))
    psi_keys = dict(model__lambda=pl["lam"], model__gamma=0.0,
                    scenario__kind="psi_bell", scenario__i=pl["i"],
                    scenario__j=pl["j"], scenario__phi=pl["phi"])
    long_psi = _config(
        **psi_keys, **_lam_t_grid(pl["lam"], 0.0, 300.0, 0.1),
        grid__x_start=-5, grid__x_stop=5,
        measures__list="concurrence, one_tangle, total_concurrence")
    # About 4e4 PhiState.coefficients calls in about 1.5 s; a grid to
    # lambda*t = 20 over x in [-20, 20] makes 3e5 in 10 s, too few passes a run.
    pairs = _config(
        model__lambda=pp["lam"], model__gamma=0.0,
        scenario__kind="phi_bell", scenario__i=pp["i"], scenario__j=pp["j"],
        scenario__phi=pp["phi"],
        **_lam_t_grid(pp["lam"], 0.0, 12.0, 0.5),
        grid__x_start=-10, grid__x_stop=10,
        measures__list="concurrence, total_concurrence, entropy2")
    # Past lambda*t ~ 361 the fixed light-cone pad loses more than the
    # wavepacket norm tolerance; this operation keeps that failure visible.
    probe = _config(
        **psi_keys, **_lam_t_grid(pl["lam"], 380.0, 400.0, 5.0),
        grid__x_start=-2, grid__x_stop=2,
        measures__list="one_tangle, ckw_residual")
    return [Operation("psi_long", config=long_psi),
            Operation("phi_pairs", config=pairs),
            Operation("long_time_probe", config=probe,
                      invariant="one_particle")]


def crosscheck(seed):
    """selftest.run_case on one gamma = 0 and one gamma != 0 point."""
    if input_set(seed) == 0:
        points = ((0.0, 1.0), (0.5, 0.5))
    else:
        rng = _rng("crosscheck", seed)
        points = ((0.0, _draw(rng, 0.5, 1.5)),
                  (_draw(rng, 0.3, 1.0), _draw(rng, 0.4, 1.0)))
    ops = []
    for label, (gamma, lam) in zip(("isotropic", "anisotropic"), points):
        for kind in ("vacuum_only", "singlet_on_vacuum"):
            ops.append(Operation(f"{label}_{kind}", case=(gamma, lam, kind)))
    return ops


GENERATORS = {
    "oracle_ring": oracle_ring,
    "pfaffian_route": pfaffian_route,
    "bessel_route": bessel_route,
    "crosscheck": crosscheck,
}


def operations(workload, seed):
    return GENERATORS[workload](seed)
