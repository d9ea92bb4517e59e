"""The selftest's case reports hold their pinned numbers.

`tests/golden/selftest_cases.json` holds the report of every case of the
full selftest and of `--fast`: its label, its cell count and the worst
deviation of each category.  Cells and categories must match exactly and
each deviation to 1e-12 relative, so a change to either side of the
comparison, or to how a case reads them, shows here.  To re-pin after an
intended change, write each report's `label`, `cells` and `worst` in the
same layout.
"""

import json
from pathlib import Path

import pytest

from xychain import selftest

GOLDEN = Path(__file__).resolve().parent / "golden" / "selftest_cases.json"
RTOL = 1e-12
KINDS = ("vacuum_only", "singlet_on_vacuum")


def _cases():
    golden = json.loads(GOLDEN.read_text())
    for name, fast in (("full", False), ("fast", True)):
        combos = selftest.FAST_COMBOS if fast else selftest.COMBOS
        cases = [(gamma, lam, kind) for gamma, lam in combos for kind in KINDS]
        assert len(golden[name]) == len(cases)
        for case, want in zip(cases, golden[name]):
            yield pytest.param(case, fast, want,
                               id=f"{name}-{want['label'].replace(' ', '-')}")


@pytest.mark.parametrize("case,fast,want", list(_cases()))
def test_case_report_matches_golden(case, fast, want):
    report = selftest.run_case(*case, fast=fast)
    assert report.label == want["label"]
    assert report.cells == want["cells"]
    assert sorted(report.worst) == sorted(want["worst"])
    for category, ref in want["worst"].items():
        got = report.worst[category]
        assert abs(got - ref) <= RTOL * abs(ref), (category, got, ref)
