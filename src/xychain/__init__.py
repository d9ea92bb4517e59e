"""Entanglement dynamics in the anisotropic XY chain in a transverse field.

Three mutually validating computational routes:

* closed-form Bessel dynamics at zero anisotropy (`isotropic`),
* Pfaffian free-fermion machinery for general anisotropy
  (`correlators`, `pfaffian`, `measures`, `groundstate`),
* an exact-diagonalization oracle on small rings (`oracle`).

Scenario orchestration and CSV output live in `scenarios`; the console
entry point is `xychain` (see `cli`).
"""

from .errors import (
    CapabilityError,
    ConfigError,
    CutoffError,
    NumericalHealthError,
    OutOfRangeError,
    XYChainError,
)
from .model import THERMODYNAMIC_LIMIT, ModelParams
from .correlators import bell_contractions, vacuum_contractions
from .pfaffian import magnetization
from .measures import (
    bell_fidelities,
    concurrence_closed,
    one_tangle,
    x_entries,
)
from .groundstate import gs_concurrence, gs_contractions
from .scenarios import (
    ScenarioConfig,
    parse_config_file,
    parse_config_text,
    run_scenario,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConfigError",
    "CutoffError",
    "ModelParams",
    "NumericalHealthError",
    "OutOfRangeError",
    "ScenarioConfig",
    "THERMODYNAMIC_LIMIT",
    "XYChainError",
    "bell_contractions",
    "bell_fidelities",
    "concurrence_closed",
    "gs_concurrence",
    "gs_contractions",
    "magnetization",
    "one_tangle",
    "parse_config_file",
    "parse_config_text",
    "run_scenario",
    "vacuum_contractions",
    "write_csv",
    "x_entries",
]
