#!/usr/bin/env python3
"""The repository benchmark's command.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke          # all four workloads, small sizes
    python3 perfbench/run.py --selftest       # tests of the correctness checks
    python3 perfbench/run.py probe <kind> [--<param> <value>]...

Builds phbench (perfbench/CMakeLists.txt, Release only) into
.bench_build/perfbench from the sources in the checkout, then runs each
workload in its own process with a clean environment. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["office-dense", "walk-stream-chaos", "rt-loopback", "relay-outage"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    # No PEERHOOD_SHARDS or other settings leak in: phbench fixes the
    # shard count and the log level itself.
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LC_ALL": "C"}


def build(target):
    if not (ROOT / "src" / "scenario" / "scenario.hpp").is_file():
        fail(f"no PeerHood sources under {ROOT / 'src'}; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", target])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=clean_env(),
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / target


def revision():
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    # Not a git checkout: name the sources by their digest instead.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, rev, extra=()):
    """Runs one workload; returns (provenance+detail lines, result dict)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--revision", rev, *extra]
    try:
        done = subprocess.run(command, cwd=ROOT, env=clean_env(),
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with status {done.returncode}")
    result = json.loads(lines[-1])
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        fail(f"{workload} reported {sorted(result['metrics'])}, "
             f"BENCHMARK.json declares {sorted(declared)}")
    return lines[:-1], result


def print_table(workload, result):
    print(f"# {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"#   {name:40s} {metric['value']:>18.6g} {metric['unit']}")


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "probe":
        binary = build("phbench")
        sys.exit(subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT,
                                env=clean_env()).returncode)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run all four workloads at smoke size")
    parser.add_argument("--selftest", action="store_true",
                        help="run the tests of the correctness checks")
    args = parser.parse_args()

    if args.selftest:
        binary = build("phbench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=BUILD_DIR,
                                env=clean_env()).returncode)
    if args.smoke:
        args.workload, args.seconds = "all", 0.2
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("phbench")
    rev = revision()
    extra = ["--smoke"] if args.smoke else []
    if args.workload != "all":
        lines, result = run_workload(binary, args.workload, args.seed,
                                     args.seconds, args.trace, rev, extra)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    ok = True
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, args.seed, args.seconds,
                                     args.trace, rev, extra)
        print("\n".join(lines))
        print_table(workload, result)
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
