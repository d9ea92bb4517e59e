"""Benchmark harness for xychain.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, traced
    python3 perfbench/run.py --workload W --seed N --record

Every pass runs in a fresh interpreter (``one_pass.py``), one at a time from
this process: a closed loop with one client.  BLAS threads are pinned to the
number of usable cores.  Passes repeat while another one still fits in
``--seconds``; at least one always runs.  ``setup_s`` is the median over at
least ``SETUP_SAMPLES`` interpreter starts, topped up with set-up-only
children.

With ``--trace 0`` the result holds the end-to-end metrics of untraced
passes.  With ``--trace 1`` untraced and traced passes alternate, and the
result holds the per-layer metrics of the traced passes; ``trace.overhead_s``
is the traced minus the untraced median wall time.  Human-readable lines go
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record`` writes the reference
outputs of one input set instead of checking them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TARGETS
from workloads import REFERENCE_SEEDS, WORKLOADS, input_set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class PassFailed(Exception):
    """A child pass crashed or printed no result."""


def usable_cores():
    return len(os.sched_getaffinity(0))


def child_env(threads):
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_revision():
    """Revision from ``.git`` inside the checkout, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload, seed, env, trace=False, setup_only=False,
             record=False):
    out = OUT_DIR / (workload + ("-traced" if trace else ""))
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--record"] * record
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") \
            from exc
    finished = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["duration_s"] = finished - spawned
    return result


def measure(workload, seed, seconds, trace, env):
    """Untraced (and traced) passes while the next round fits the budget."""
    deadline = time.monotonic() + seconds
    plain, traced, rounds = [], [], []
    while True:
        started = time.monotonic()
        plain.append(run_pass(workload, seed, env))
        if trace:
            traced.append(run_pass(workload, seed, env, trace=True))
        rounds.append(time.monotonic() - started)
        if time.monotonic() + statistics.median(rounds) > deadline:
            break
    setups = [p["setup_s"] for p in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, env, setup_only=True)
                      ["setup_s"])
    return plain, traced, setups


def violated_predictions(workload, layers):
    """``(target, calls)`` of the zero-call predictions the counts break."""
    return [(t.name, layers.get(f"{t.name}.calls", 0)) for t in TARGETS
            if workload in t.zero_on and layers.get(f"{t.name}.calls", 0)]


def _median_metrics(passes):
    names = set().union(*(p["trace"] for p in passes))
    return {n: statistics.median(p["trace"].get(n, 0) for p in passes)
            for n in names}


def _output_drift(plain, traced):
    """Operations whose traced output differs from the untraced one."""
    untraced = {(op["name"], op["outcome"], op["error"], op["sha256"])
                for p in plain for op in p["ops"]}
    return sorted({op["name"] for p in traced for op in p["ops"]
                   if (op["name"], op["outcome"], op["error"], op["sha256"])
                   not in untraced})


def summarize(workload, seed, plain, traced, setups):
    passes = plain + traced
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["outcome"] != "ok" or op["mismatch"]]
    mismatched = sorted({(op["name"], op["mismatch"]) for op in ops
                         if op["mismatch"]})
    drift = _output_drift(plain, traced)
    with_output = [op for op in plain[0]["ops"] if op["outcome"] == "ok"]
    identical = min(sum(op["identical"] for op in p["ops"]) for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    layers = {}
    absent = []
    if traced:
        layers = _median_metrics(traced)
        layers["check.csv_identical"] = identical
        layers["check.predictions_violated"] = len(violated_predictions(
            workload, layers))
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - wall)
        absent = sorted(set().union(*(p["absent"] for p in traced)))
    return {
        "workload": workload,
        "seed": seed,
        "passes": (len(plain), len(traced)),
        "walls": [p["wall_s"] for p in plain],
        "setups": setups,
        "attempted": len(ops),
        "failed": len(failed),
        "with_output": len(with_output),
        "identical": identical,
        "mismatched": mismatched,
        "drift": drift,
        "correct": not mismatched and not drift,
        "e2e": e2e,
        "layers": layers,
        "absent": absent,
        "plain_ops": plain[0]["ops"],
        "traced_ops": traced[0]["ops"] if traced else [],
        "versions": plain[0]["versions"],
    }


def _metric_block(values, spec):
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def print_summary(s, bench, threads):
    w = s["workload"]
    print(f"== {w}  seed {s['seed']} (input set {input_set(s['seed'])} of "
          f"{REFERENCE_SEEDS})  passes: {s['passes'][0]} untraced, "
          f"{s['passes'][1]} traced, one at a time in fresh interpreters")
    v = s["versions"]
    print(f"   python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
          f"blas {v['blas']} with {threads} threads, nproc "
          f"{usable_cores()}, revision {git_revision()}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    walls = ", ".join(f"{x:.3f}" for x in s["walls"])
    setups = ", ".join(f"{x:.3f}" for x in s["setups"])
    notes = {"wall_s": f"median of {len(s['walls'])} passes [{walls}]",
             "setup_s": f"median of {len(s['setups'])} starts [{setups}]",
             "peak_rss_mb": "median over untraced passes"}
    for name, value in s["e2e"].items():
        print(f"   {name:<14} {value:12.4f} {units[name]:<8} {notes[name]}")
    share = s["failed"] / s["attempted"]
    print(f"   {'fail_share':<14} {share:12.4f} {'fraction':<8} "
          f"{s['failed']} of {s['attempted']} operations failed")
    print(f"   {'csv_identical':<14} {s['identical']:12d} {'count':<8} "
          f"of {s['with_output']} operations with output, per pass")
    for op in s["plain_ops"]:
        status = op["outcome"] if not op["error"] else f"raised {op['error']}"
        if op["mismatch"]:
            check = op["mismatch"]
        elif op["outcome"] != "ok":
            check = "as recorded in the reference"
        else:
            check = "identical" if op["identical"] else "within tolerance"
        print(f"   op {op['name']:<26} {status:<20} {check}")
    for name, why in s["mismatched"]:
        print(f"   MISMATCH {name}: {why}")
    for name in s["drift"]:
        print(f"   TRACED OUTPUT DIFFERS {name}")
    if not s["layers"]:
        return
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print("   per-layer metrics, median over traced passes:")
    for name, unit in layer_units.items():
        value = s["layers"].get(name, 0)
        text = f"{value:.4f}" if isinstance(value, float) else f"{value}"
        print(f"     {name:<44} {text:>14} {unit}")
    if s["absent"]:
        print(f"   entry points and metrics absent from the code, read as 0: "
              f"{', '.join(s['absent'])}")
    violated = dict(violated_predictions(w, s["layers"]))
    for target in TARGETS:
        if w in target.zero_on:
            calls = violated.get(target.name, 0)
            verdict = "VIOLATED" if calls else "held"
            print(f"   prediction {target.name}.calls = 0 on {w}: "
                  f"{verdict} ({calls})")
    for op in s["traced_ops"]:
        calls = ", ".join(f"{k}={v}" for k, v in sorted(op["calls"].items()))
        print(f"   calls in {op['name']}: {calls}")


def format_references(refs):
    """JSON with one line per operation, so a diff shows what changed."""
    sets = []
    for key in sorted(refs, key=int):
        ops = ",\n".join(f"  {json.dumps(name)}: "
                         f"{json.dumps(refs[key][name], sort_keys=True)}"
                         for name in sorted(refs[key]))
        sets.append(f" {json.dumps(key)}: {{\n{ops}\n }}")
    return "{\n" + ",\n".join(sets) + "\n}\n"


def record(workload, seed, env):
    result = run_pass(workload, seed, env, record=True)
    path = HERE / "reference" / f"{workload}.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs[str(input_set(seed))] = {op["name"]: op["reference"]
                                  for op in result["ops"]}
    path.parent.mkdir(exist_ok=True)
    path.write_text(format_references(refs))
    for op in result["ops"]:
        print(f"recorded {workload} set {input_set(seed)} {op['name']}: "
              f"{op['outcome']} {op['error'] or ''}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xychain" / "__init__.py").exists():
        print(f"error: no xychain sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = usable_cores()
    env = child_env(threads)
    try:
        if args.workload != "all":
            runs = [(args.workload, bool(args.trace))]
        else:
            runs = [(w, True) for w in WORKLOADS]
        if args.record:
            for workload, _ in runs:
                record(workload, args.seed, env)
            return 0
        summaries = []
        for workload, trace in runs:
            plain, traced, setups = measure(workload, args.seed, args.seconds,
                                            trace, env)
            summaries.append(summarize(workload, args.seed, plain, traced,
                                       setups))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for s in summaries:
        print_summary(s, bench, threads)
    if len(summaries) > 1:
        print(f"== {'workload':<16}{'wall_s':>10}{'setup_s':>10}"
              f"{'peak_rss_mb':>13}{'fail_share':>12}")
        for s in summaries:
            e = s["e2e"]
            print(f"   {s['workload']:<16}{e['wall_s']:>8.3f} s"
                  f"{e['setup_s']:>8.3f} s{e['peak_rss_mb']:>10.1f} MB"
                  f"{s['failed'] / s['attempted']:>12.4f}")
    correct = all(s["correct"] for s in summaries)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if args.workload != "all":
        s = summaries[0]
        if args.trace:
            metrics = _metric_block(s["layers"], bench["per_layer"])
        else:
            metrics = _metric_block(s["e2e"], bench["end_to_end"])
    else:
        metrics = {}
        for s in summaries:
            for key, block in (("e2e", "end_to_end"), ("layers", "per_layer")):
                for name, entry in _metric_block(s[key], bench[block]).items():
                    metrics[f"{s['workload']}.{name}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
