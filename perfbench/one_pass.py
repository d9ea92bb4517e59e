"""One benchmark pass of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.  Set-up
(importing ``xychain``, generating and parsing the configs) ends at the
``ready`` timestamp.  The timed region runs from the start of the first
operation to the last CSV written; outputs are checked after it.

    python3 perfbench/one_pass.py --workload W --seed N --out DIR
        [--trace] [--setup-only] [--record]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import checks
from workloads import input_set, operations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _import_xychain():
    sys.path.insert(0, str(SRC))
    import xychain
    from xychain import selftest

    if SRC not in Path(xychain.__file__).resolve().parents:
        raise SystemExit(f"xychain imported from {xychain.__file__}, "
                         f"not from {SRC}")
    return xychain, selftest


def _load_references(workload, seed):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(input_set(seed)), {})


def _run_op(op, config, xychain, selftest, out_dir):
    """Run one operation; every failure is counted, never retried."""
    try:
        if op.case is not None:
            gamma, lam, kind = op.case
            return "case", selftest.run_case(gamma, lam, kind, fast=True)
        rows = xychain.run_scenario(config)
        path = out_dir / f"{op.name}.csv"
        with open(path, "w", encoding="ascii") as fh:
            xychain.write_csv(rows, fh)
        return "csv", path
    except Exception as exc:
        return "raised", exc


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    xychain, selftest = _import_xychain()
    ops = operations(args.workload, args.seed)
    parsed = [xychain.parse_config_text(op.config, source=op.name)
              if op.config is not None else None for op in ops]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    calls_before = tracer.calls() if tracer else None
    per_op_calls = []
    start = time.monotonic()
    raw = []
    for op, config in zip(ops, parsed):
        raw.append(_run_op(op, config, xychain, selftest, out_dir))
        if tracer:
            calls_after = tracer.calls()
            per_op_calls.append({k: v - calls_before[k]
                                 for k, v in calls_after.items()
                                 if v != calls_before[k]})
            calls_before = calls_after
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    refs = {} if args.record else _load_references(args.workload, args.seed)
    op_reports = []
    csv_bytes = 0
    for n, (op, (kind, payload)) in enumerate(zip(ops, raw)):
        if kind == "csv":
            data = payload.read_bytes()
            csv_bytes += len(data)
            summary = checks.summarize_csv(data)
            result = ("csv", data)
        elif kind == "case":
            summary = checks.summarize_case(payload)
            result = ("case", summary)
        else:
            summary = checks.summarize_error(payload)
            result = ("raised", summary)
        entry = {"name": op.name, "outcome": summary["outcome"],
                 "error": summary.get("error"),
                 "sha256": summary.get("sha256")}
        if args.record:
            entry["reference"] = summary
        elif op.name not in refs:
            entry["mismatch"] = "no reference recorded"
            entry["identical"] = False
        else:
            mismatch, identical = checks.judge(refs[op.name], result,
                                               op.invariant)
            entry["mismatch"] = mismatch
            entry["identical"] = identical
        if tracer:
            entry["calls"] = per_op_calls[n]
        op_reports.append(entry)

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "ready": ready,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "ops": op_reports,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer:
        out["trace"] = tracer.metrics()
        out["trace"]["scenarios.write_csv.bytes"] = csv_bytes
        out["absent"] = tracer.absent()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
