#!/usr/bin/env python3
"""Print the sha256 of every output a performance change must keep.

One line per output: every ``scripts/*.cfg`` CSV, the table of
``scripts/gs_table.py``, the CSVs of ``scripts/singlet_gamma.cfg`` and of a
``vacuum_only`` run on its *x60* grid (x in [-60, 60], dt = 0.1: 81 times,
where the Pfaffian stacks are many), and each perfbench operation's output
for input sets 0-9 of every workload (a scenario's CSV; for a
``selftest.run_case`` operation, its label, cell count and every recorded
deviation in repr).
Run it in two checkouts and compare with ``diff``:

    python3 scripts/output_digests.py > digests.txt

It imports ``xychain`` from ``src/`` of the checkout it sits in.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import REFERENCE_SEEDS, WORKLOADS, operations  # noqa: E402
from xychain import parse_config_text, run_scenario, selftest  # noqa: E402
from xychain import write_csv  # noqa: E402


def _csv(config):
    out = io.StringIO()
    write_csv(run_scenario(config), out)
    return out.getvalue()


def _output(op):
    """A perfbench operation's output as text, or its error."""
    try:
        if op.case is None:
            return _csv(parse_config_text(op.config, source=op.name))
        report = selftest.run_case(*op.case, fast=True)
        return repr((report.label, report.cells, sorted(report.worst.items())))
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def digests():
    """(name, text) of every output, in a fixed order."""
    for path in sorted((ROOT / "scripts").glob("*.cfg")):
        yield path.name, _csv(parse_config_text(path.read_text(),
                                                source=str(path)))
    sys.path.insert(0, str(ROOT / "scripts"))
    import gs_table
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        gs_table.main()
    yield "gs_table.py", table.getvalue()
    path = ROOT / "scripts" / "singlet_gamma.cfg"
    singlet = parse_config_text(path.read_text(), source=str(path))
    x60 = dataclasses.replace(singlet, dt=0.1, x_start=-60, x_stop=60)
    yield "singlet_gamma.cfg x60", _csv(x60)
    yield "vacuum_only x60", _csv(dataclasses.replace(x60,
                                                      kind="vacuum_only"))
    for workload in WORKLOADS:
        for seed in range(REFERENCE_SEEDS):
            for op in operations(workload, seed):
                yield f"{workload}/{seed}/{op.name}", _output(op)


def main():
    for name, text in digests():
        print(hashlib.sha256(text.encode()).hexdigest(), name, flush=True)


if __name__ == "__main__":
    main()
