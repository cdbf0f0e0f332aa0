#!/usr/bin/env python3
"""Steadiness of the benchmark: repeats each workload N times, each run with
its own seed, and prints for every end-to-end metric (and every figure of
the DETAIL line) the median, the quartiles, the spread (q3 - q1) / median
and the coefficient of variation, plus each run's share of failed
operations. The spreads are what the bounds in BENCHMARK.json rest on.

    python3 perfbench/steady.py --runs 10

Run i (from 1) of each workload uses --seed i and BENCHMARK.json's
run_seconds.
"""
import argparse
import fractions
import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    mean = statistics.fmean(values)
    cv = statistics.pstdev(values) / mean if mean else 0.0
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread, cv


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = run.build("phbench")
    rev = run.revision()
    print(f"# {args.runs} runs per workload, {seconds} s each, seeds "
          f"1..{args.runs}, revision {rev}")
    print(f"# {'workload':18s} {'metric':26s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'cv':>7s} {'bound':>6s}")
    for workload in run.WORKLOADS:
        values = {}
        failed_shares = set()
        correct = True
        for i in range(args.runs):
            lines, result = run.run_workload(binary, workload, i + 1,
                                             seconds, 0, rev)
            correct = correct and result["correct"]
            failed_shares.add(str(fractions.Fraction(result["failed"],
                                                     result["attempted"])))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                if line.startswith("DETAIL "):
                    for name, value in json.loads(line[7:]).items():
                        if isinstance(value, (int, float)):
                            values.setdefault("detail." + name, []).append(value)
        for name in sorted(values, key=lambda n: (n.startswith("detail."), n)):
            med, q1, q3, spread, cv = summarize(values[name])
            bound = bounds.get(name)
            print(f"  {workload:18s} {name:26s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.4f} {cv:7.4f} "
                  f"{'' if bound is None else bound:>6}")
        print(f"  {workload:18s} correct={correct} failed share: "
              f"{', '.join(sorted(failed_shares))}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
