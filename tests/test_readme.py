"""The README's library examples run against the package as it stands."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_block_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the packet's partner sums are those of its own pair concurrences
    state, total, squares = (namespace[k] for k in ("state", "total",
                                                    "squares"))
    window = range(state.start, state.start + state.amps.shape[-1])
    concs = [state.concurrence(0, q) for q in window if q != 0]
    assert np.isclose(total, sum(concs)) and total > 1.0
    assert np.isclose(squares, sum(c * c for c in concs))
    assert 0.0 <= namespace["c"] <= 1.0
    assert np.shape(namespace["c_grid"]) == (3,)
    assert namespace["branch"] in ("parallel", "antiparallel")
