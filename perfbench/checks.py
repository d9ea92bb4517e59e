"""Reference outputs and the output check.

A reference is recorded once per operation and input set.  For a scenario
run it holds the CSV's SHA-256, a hash of its key columns
(``measure,x,t``), the number of non-finite values, the values of every
``stride``-th row (all rows up to ``SAMPLE_CAP``), and the sum and sum of
squares of each block of ``stride`` consecutive rows, so that every row is
checked.  For a selftest case it holds the case verdict, the cell count and
the worst deviation per category.  An operation that raised at the reference
commit records the error type.

An operation matches its reference when it ends the same way and its values
agree within ``ATOL + RTOL * |reference|``; a block sum may move by as much
as its rows may together.  Every comparison is written so that a NaN fails
it.  Selftest deviations may shrink but not grow.  Byte identity of the
output is reported on its own.
"""

import hashlib
import math

ATOL = 1e-9
RTOL = 1e-9
SAMPLE_CAP = 1000
# A one-particle state saturates monogamy: ckw_residual = 4|w|^2 * (norm
# defect), so any window that passes the norm check keeps it below this.
ONE_PARTICLE_CKW_TOL = 1e-9


def sha256(data):
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def _parse_csv(data):
    lines = data.decode("ascii").splitlines()
    keys, values = [], []
    for line in lines[1:]:
        key, _, value = line.rpartition(",")
        keys.append(key)
        values.append(float(value))
    return keys, values


def _blocks(values, stride):
    """``[sum, sum of squares]`` of each block of ``stride`` rows."""
    blocks = []
    for start in range(0, len(values), stride):
        block = values[start:start + stride]
        blocks.append([math.fsum(block), math.fsum(v * v for v in block)])
    return blocks


def _nonfinite(values):
    return sum(not math.isfinite(v) for v in values)


def summarize_csv(data):
    keys, values = _parse_csv(data)
    stride = max(1, math.ceil(len(values) / SAMPLE_CAP))
    summary = {
        "outcome": "ok",
        "rows": len(values),
        "sha256": sha256(data),
        "keys_sha256": sha256("\n".join(keys)),
        "nonfinite": _nonfinite(values),
        "stride": stride,
        "values": values[::stride],
    }
    if stride > 1:
        summary["blocks"] = _blocks(values, stride)
    return summary


def summarize_case(report):
    return {
        "outcome": "ok",
        "ok": bool(report.ok),
        "cells": int(report.cells),
        "worst": {cat: float(v) for cat, v in sorted(report.worst.items())},
        "sha256": sha256(report.line()),
    }


def summarize_error(exc):
    return {"outcome": "raised", "error": type(exc).__name__}


def _within(value, ref, tol):
    """``|value - ref| <= tol``, false for a NaN unless both are NaN."""
    if not math.isfinite(ref):
        return value == ref or (math.isnan(ref) and math.isnan(value))
    return abs(value - ref) <= tol


def _close(value, ref):
    return _within(value, ref, ATOL + RTOL * abs(ref))


def _block_tolerances(n, sum_sq):
    """Largest moves of a block's sum and sum of squares when each of its
    ``n`` rows moves by at most ``ATOL + RTOL * |v|``; the rows' summed
    ``|v|`` is at most ``sqrt(n * sum_sq)``."""
    sum_abs = math.sqrt(n * sum_sq) if math.isfinite(sum_sq) else 0.0
    tol_sum = n * ATOL + RTOL * sum_abs
    tol_sq = 2 * (ATOL * sum_abs + RTOL * sum_sq
                  + n * ATOL ** 2 + RTOL ** 2 * sum_sq)
    return tol_sum, tol_sq


def _compare_csv(ref, data):
    keys, values = _parse_csv(data)
    if len(values) != ref["rows"]:
        return f"{len(values)} rows, reference {ref['rows']}"
    if sha256("\n".join(keys)) != ref["keys_sha256"]:
        return "measure/x/t columns differ from the reference"
    nonfinite = _nonfinite(values)
    if nonfinite != ref["nonfinite"]:
        return (f"{nonfinite} non-finite values, reference "
                f"{ref['nonfinite']}")
    stride = ref["stride"]
    for n, (value, want) in enumerate(zip(values[::stride], ref["values"])):
        if not _close(value, want):
            return f"row {n * stride}: {value!r} vs reference {want!r}"
    if stride == 1:
        return None
    got_blocks = _blocks(values, stride)
    for n, (got, want) in enumerate(zip(got_blocks, ref["blocks"])):
        rows = min(stride, len(values) - n * stride)
        tol_sum, tol_sq = _block_tolerances(rows, want[1])
        if not (_within(got[0], want[0], tol_sum)
                and _within(got[1], want[1], tol_sq)):
            return (f"rows {n * stride}-{n * stride + rows - 1}: sum "
                    f"{got[0]!r}, sum of squares {got[1]!r} vs reference "
                    f"{want[0]!r}, {want[1]!r}")
    return None


def _compare_case(ref, summary):
    if summary["ok"] != ref["ok"]:
        return f"case verdict {summary['ok']}, reference {ref['ok']}"
    if summary["cells"] != ref["cells"]:
        return f"{summary['cells']} cells, reference {ref['cells']}"
    if set(summary["worst"]) != set(ref["worst"]):
        return "deviation categories differ from the reference"
    for cat, want in ref["worst"].items():
        if not summary["worst"][cat] <= want + ATOL:
            return (f"{cat} deviation {summary['worst'][cat]:.3e} above "
                    f"reference {want:.3e}")
    return None


def _check_invariant(name, data):
    """Check an operation that raised at the reference commit but now runs."""
    if name != "one_particle":
        return f"no reference rows and no invariant ({name})"
    keys, values = _parse_csv(data)
    if not keys:
        return "no rows"
    for key, value in zip(keys, values):
        measure = key.split(",", 1)[0]
        if (measure == "ckw_residual"
                and not abs(value) <= ONE_PARTICLE_CKW_TOL):
            return f"{key}: ckw_residual {value!r} of a one-particle state"
        if measure == "one_tangle" and not -ATOL <= value <= 1.0 + ATOL:
            return f"{key}: one_tangle {value!r} outside [0, 1]"
    return None


def judge(ref, result, invariant=None):
    """Compare one operation's result with its reference.

    ``result`` is ``("csv", bytes)``, ``("case", summary)`` or
    ``("raised", summary)``.  Returns ``(mismatch, identical)``: a
    description of the mismatch or None, and whether the operation wrote
    output byte-identical to the reference.
    """
    kind, payload = result
    if kind == "raised":
        if ref["outcome"] == "raised" and ref["error"] == payload["error"]:
            return None, False
        return f"raised {payload['error']}", False
    if ref["outcome"] == "raised":
        if kind == "csv" and invariant:
            return _check_invariant(invariant, payload), False
        return f"reference raised {ref['error']}, now runs", False
    if kind == "csv":
        return _compare_csv(ref, payload), sha256(payload) == ref["sha256"]
    return _compare_case(ref, payload), payload["sha256"] == ref["sha256"]
