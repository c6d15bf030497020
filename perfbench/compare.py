"""Collect alternated benchmark runs of two source trees and compare them.

    python3 perfbench/compare.py collect --a <tree> --b <tree> --workload <name> \
        --pairs 10 --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

`collect` runs perfbench/run.py from the root of each tree, pair by pair, with
the same seed on both sides of a pair and the side that runs first alternating
between pairs; every result is appended to the JSONL file as it arrives.
Passing one tree as both --a and --b measures the benchmark's own spread.

`report` prints, per workload and end-to-end metric, each side's median and
quartiles, the spread (quartile distance over median), the share of pairs
that side b wins, and the verdict against the bound in BENCHMARK.json:
a regression when b's median is worse than a's by more than the bound, a gain
only when b wins at least nine tenths of the pairs and the medians differ by
more than a's quartile distance. It also prints the ungated figures a run
reports (the median wall time per operation, `op_wall_s`) with each side's
median and the ratio of the medians, so a host clock that hides a change
shows as a wall-time ratio the clock ratio does not follow.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced run: its result and its ungated figures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}")
    ungated = {}
    for line in lines[:-1]:
        if line.startswith("ungated: "):
            ungated.update(json.loads(line[len("ungated: "):]))
    return json.loads(lines[-1]), ungated


def collect(args) -> None:
    trees = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    with open(args.out, "a") as out:
        for workload in args.workload:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                for side in ("ab" if pair % 2 == 0 else "ba"):
                    result, ungated = run_once(trees[side], workload, seed)
                    record = {"side": side, "tree": str(trees[side]), "workload": workload,
                              "pair": pair, "seed": seed, "result": result,
                              "ungated": ungated}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                    print(f"{workload} pair {pair} side {side}: {values}", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def side_stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (quartile distance over median)."""
    q1, med, q3 = quartiles(values)
    return med, q1, q3, (q3 - q1) / med


def report(args) -> None:
    records = [json.loads(line) for line in open(args.runs) if line.strip()]
    by_key = defaultdict(dict)      # (workload, side) -> pair -> record
    for rec in records:
        by_key[(rec["workload"], rec["side"])][rec["pair"]] = rec
    workloads = sorted({rec["workload"] for rec in records})
    for workload in workloads:
        sides = {side: {pair: rec["result"] for pair, rec in by_key.get((workload, side), {}).items()}
                 for side in "ab"}
        print(f"== {workload}")
        for side, runs in sides.items():
            if runs:
                shares = {r["failed"] / r["attempted"] for r in runs.values()}
                print(f"   side {side}: {len(runs)} runs, failed share(s) "
                      f"{sorted(round(s, 6) for s in shares)}, all correct: "
                      f"{all(r['correct'] for r in runs.values())}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            stats = {}
            for side, runs in sides.items():
                values = [r["metrics"][name]["value"] for r in runs.values()]
                if values:
                    stats[side] = side_stats(values)
            line = f"   {name:<12}" + "".join(
                f" {side}: median {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}] spread {spread:.3f};"
                for side, (med, q1, q3, spread) in stats.items())
            if len(stats) == 2:
                pairs = set(sides["a"]) & set(sides["b"])
                wins = sum((sides["b"][p]["metrics"][name]["value"]
                            < sides["a"][p]["metrics"][name]["value"]) == lower
                           and sides["b"][p]["metrics"][name]["value"]
                           != sides["a"][p]["metrics"][name]["value"] for p in pairs)
                med_a, q1_a, q3_a, _ = stats["a"]
                med_b = stats["b"][0]
                worse = (med_b - med_a) / med_a * (1 if lower else -1)
                if worse > bound:
                    verdict = f"REGRESSION ({worse:+.1%} > bound {bound:.0%})"
                elif wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
                    verdict = f"gain ({-worse:+.1%})"
                else:
                    verdict = f"within bound ({worse:+.1%} of {bound:.0%})"
                line += f" b wins {wins}/{len(pairs)}; {verdict}"
            print(line)
        # Ungated figures (wall time beside the host clock): no verdict.
        names = sorted({name for side in "ab" for rec in by_key.get((workload, side), {}).values()
                        for name in rec.get("ungated", {})})
        for name in names:
            stats = {}
            for side in "ab":
                values = [rec["ungated"][name] for rec in by_key.get((workload, side), {}).values()
                          if name in rec.get("ungated", {})]
                if values:
                    stats[side] = side_stats(values)
            line = f"   {name:<12}" + "".join(
                f" {side}: median {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}] spread {spread:.3f};"
                for side, (med, q1, q3, spread) in stats.items())
            if len(stats) == 2:
                line += f" b/a - 1 = {stats['b'][0] / stats['a'][0] - 1:+.1%} (not gated)"
            print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run alternated pairs and append results")
    p.add_argument("--a", required=True, help="root of the base tree")
    p.add_argument("--b", required=True, help="root of the changed tree")
    p.add_argument("--workload", action="append", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="summarise a JSONL file of collected runs")
    p.add_argument("runs")
    p.set_defaults(func=report)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
