"""Steadiness mode: one workload, K fresh processes, spread per metric.

    python3 perfbench/steady.py --workload perm_stardust --runs 10 \\
        --seed 101 [--vary-seed]

Runs ``run.py`` K times in fresh processes and prints, per metric, the
median, the quartiles (``statistics.quantiles(n=4)``) and IQR/median
against the metric's bound in ``BENCHMARK.json``.  Every run uses
``--seed``, so the spread is the host's run-to-run noise alone, the
noise a parent-versus-change comparison at one seed sees.
``--vary-seed`` gives run i the seed ``seed + i`` instead, so the
spread also holds the workload's differences between seeds.  A spread
is ``ok`` below a third of its bound.  With ``--out``, the runs, the
table and the host are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread_table(
    runs: List[Dict[str, Any]], bounds: Dict[str, float]
) -> List[Dict[str, Any]]:
    """Median, quartiles and IQR/median of every metric over ``runs``."""
    rows = []
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        rows.append({
            "metric": name,
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_over_median": spread,
            "bound": bound,
            "ok": None if bound is None else spread < bound / 3,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i instead of seed")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, host = [], None
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(
                f"run {i} (seed {seed}): run.py exited {proc.returncode}"
            )
        info = [json.loads(line) for line in lines[:-1]]
        host = info[0]["host"]
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["info"] = info[1:]
        runs.append(result)
        print(f"run {i} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    rows = spread_table(runs, bounds)
    seeds = (f"seeds {args.seed}-{args.seed + args.runs - 1}"
             if args.vary_seed else f"seed {args.seed}")
    print(f"\n{args.workload}, {len(runs)} runs of {seconds:g} s, {seeds}, "
          f"on {host}")
    print(f"{'metric':<28} {'unit':<9} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'iqr/med':>8} {'bound':>6}  ok")
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        ok = "" if row["ok"] is None else ("yes" if row["ok"] else "NO")
        print(f"{row['metric']:<28} {row['unit']:<9} {row['median']:>13.6g} "
              f"{row['q1']:>13.6g} {row['q3']:>13.6g} "
              f"{row['iqr_over_median']:>8.4f} {bound:>6}  {ok}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "workload": args.workload,
                       "seconds": seconds, "trace": args.trace,
                       "seed": args.seed, "vary_seed": args.vary_seed,
                       "runs": runs, "table": rows}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
