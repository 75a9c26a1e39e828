"""Alternating benchmark runs of two checkouts, compared metric by metric.

    python tools/bench_pairs.py --parent A --change B --workload tall --pairs 10 --seconds 12

``--parent`` and ``--change`` each name a checkout root holding
``bench/run.py``.  Pair i (1 to ``--pairs``) runs ``bench/run.py --workload W
--seed i --seconds T`` of both checkouts, one after the other: the parent
first in odd pairs, the change first in even pairs.  Every run gets this
process's environment unchanged; its ``*_NUM_THREADS`` variables are printed
first, because BLAS threads move the timings.

For each end-to-end metric that the parent's ``BENCHMARK.json`` declares, the
tool prints the parent's median and quartiles over the pairs, the change's
median, the change of the medians in percent, and the number of pairs in
which the change was better (ties count for neither side).  ``gain`` is
``yes`` when the change won at least nine tenths of the pairs and its median
is better by more than the parent's quartile spread, the rule for claiming a
gain.  A last line says in how many pairs the two checkouts' ``fingerprint``
lines (trace sha256 of the first operation) were equal.  Each pair's line
also gives both runs' median ``host.calib_ms``, the harness's timing of a
fixed pure-Python loop, which shows a host that slowed down.  The tool exits 1
if any run exited non-zero or reported ``correct: false``, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from stats import quartiles  # noqa: E402

SIDES = ("parent", "change")


def run_bench(root, workload, seed, seconds):
    """One ``bench/run.py`` run; returns (its metrics, None if it failed; its
    fingerprint line; whether it succeeded; its median ``host.calib_ms``,
    None if not printed)."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=root,
    )
    lines = proc.stdout.splitlines()
    fingerprint = next((line for line in lines if line.startswith("fingerprint ")), None)
    calib = next((float(line.split(" median ")[1].split()[0]) for line in lines
                  if " host.calib_ms first " in line), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        print(f"  FAILED {root} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()} if ok else None
    return metrics, fingerprint, ok, calib


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout root")
    parser.add_argument("--change", type=Path, required=True, help="checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    print(f"env *_NUM_THREADS: {threads or 'none set'}")

    samples = {side: {m["name"]: [] for m in spec} for side in SIDES}
    won = {m["name"]: 0 for m in spec}
    failed = same_fingerprint = 0
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        runs = {side: run_bench(roots[side], args.workload, seed, args.seconds) for side in order}
        failed += sum(not run[2] for run in runs.values())
        same_fingerprint += runs["parent"][1] is not None and runs["parent"][1] == runs["change"][1]
        if not (runs["parent"][0] and runs["change"][0]):
            continue
        for m in spec:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            values = {side: runs[side][0][name] for side in SIDES}
            for side in SIDES:
                samples[side][name].append(values[side])
            won[name] += sign * (values["change"] - values["parent"]) > 0
        print(f"pair {seed} ({' first, '.join(order)} second): "
              + "  ".join(f"{m['name']} {runs['parent'][0][m['name']]:.5g} -> "
                          f"{runs['change'][0][m['name']]:.5g}" for m in spec)
              + f"  host.calib_ms {runs['parent'][3]} -> {runs['change'][3]}")

    pairs = len(samples["parent"][spec[0]["name"]])
    print(f"\n{args.workload}: {pairs} complete pairs of {args.pairs}, --seconds {args.seconds}")
    print(f"{'metric':14s} {'parent median':>14s} {'parent q1-q3':>22s} "
          f"{'change median':>14s} {'change':>8s} {'won':>7s}  gain")
    for m in spec if pairs else ():
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        q1, med, q3 = quartiles(samples["parent"][name])
        change = statistics.median(samples["change"][name])
        gain = won[name] >= 0.9 * pairs and sign * (change - med) > q3 - q1
        print(f"{name:14s} {med:14.6g} {f'{q1:.6g}-{q3:.6g}':>22s} {change:14.6g} "
              f"{100.0 * (change - med) / med:+7.2f}% {f'{won[name]}/{pairs}':>7s}  "
              f"{'yes' if gain else 'no'}")
    print(f"fingerprints equal in {same_fingerprint} of {args.pairs} pairs; {failed} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
