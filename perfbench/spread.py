"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sharded_n1024 --seeds 1 2 3 4 5

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time,
for BENCHMARK.json's ``run_seconds``, and prints for every metric its
median and its quartile spread: the distance between the first and
third quartiles of the per-run values (``statistics.quantiles(n=4)``)
as a share of their median. A spread
below a third of the metric's bound in BENCHMARK.json is steady. The
unscaled ``host.*`` figures of the ``detail:`` line are shown too, to
compare with the scaled metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.stats import median, quartile_spread  # noqa: E402


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise SystemExit("seed {} failed:\n{}{}".format(seed, done.stdout, done.stderr))
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].partition("detail: ")[2])
    return json.loads(lines[-1]), detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    values = {}
    for seed in args.seeds:
        result, detail = run_once(args.workload, seed, seconds)
        row = {name: entry["value"] for name, entry in result["metrics"].items()}
        row.update((name, value) for name, value in detail.items()
                   if name.startswith("host.") and not name.endswith(".n"))
        print("seed {:>4}: {}  fingerprint {}".format(
            seed, "  ".join("{}={:.6g}".format(k, v) for k, v in row.items()),
            detail["fingerprint"][:12]), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "NOT steady"
        print("{:22s} median {:.6g}  spread {:.4f}  bound {}  {}".format(
            name, median(series), spread, bound, verdict))


if __name__ == "__main__":
    main()
