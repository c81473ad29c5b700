"""End-to-end benchmark of the fail-over reproduction; see perfbench/README.md.

    python3 perfbench/run.py --workload failover_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with no shims and prints the
end-to-end metrics. ``--trace 1`` runs the same loop untraced and then
traced, and prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit status is 0 only when every output check
passed, and 2 when the checkout holds no program source.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench-out")


def import_program():
    """Import ``repro`` from this checkout's ``src/``; False when it is not there."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        return False
    sys.path.insert(0, SOURCE)
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) == SOURCE


def _git(*args):
    try:
        done = subprocess.run(
            ("git",) + args, cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Where the numbers came from: host, interpreter, flow backend, tree."""
    from repro.flow import FlowEngine
    from repro.sim.simulation import Simulation

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    rev = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "flow_backend": "numpy" if FlowEngine(Simulation(seed=0)).use_numpy else "python",
        "git_rev": rev,
        "git_dirty": dirty,
    }


def peak_rss_mb():
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, rss_mb):
    """``--trace 0`` metrics as {name: (value, unit)}, and report-only figures.

    The times are scaled to the calibration loop's reference speed
    (see :mod:`perfbench.calibrate`); the ``host.*`` figures are the
    same statistics unscaled.
    """
    from perfbench.calibrate import REFERENCE_S
    from perfbench.stats import median, percentile

    trials = run.scaled(run.trials)
    metrics = {
        "setup_s": (median(run.scaled(run.setups)), "s"),
        "trial_wall_s.p50": (median(trials), "s"),
        "trials_per_s": (run.attempted / sum(run.scaled(run.steps)), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    points = run.timeline.seconds
    report = {
        "trial_wall_s.n": run.attempted,
        "trial_wall_s.p90": percentile(trials, 0.9),
        "setup_s.n": len(run.setups),
        "host.setup_s": median(run.host(run.setups)),
        "host.trial_wall_s.p50": median(run.host(run.trials)),
        "host.trials_per_s": run.attempted / sum(run.host(run.steps)),
        "host.speed.p50": median([REFERENCE_S / point for point in points]),
        "host.speed.n": len(points),
    }
    return metrics, report


def per_layer(workload, plain, traced):
    """``--trace 1`` metrics as {name: (value, unit)}, and report-only figures."""
    from perfbench.stats import median
    from perfbench.tracer import layer_metrics

    metrics = {}
    for name, value in layer_metrics(traced.layer_deltas, workload.prefix).items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "count/trial"
        metrics[name] = (value, unit)
    overhead = median(traced.scaled(traced.trials)) / median(plain.scaled(plain.trials)) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    report = {
        "untraced_trials": plain.attempted,
        "traced_trials": traced.attempted,
        "traced_fingerprint": traced.fingerprint,
    }
    return metrics, report


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not import_program():
        sys.stderr.write("perfbench: no program source under {}\n".format(SOURCE))
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, measure

    args = parse_args(argv, sorted(WORKLOADS))
    workload_cls = WORKLOADS[args.workload]
    plain = measure(workload_cls(args.seed), args.seconds)
    runs = [plain]
    if args.trace:
        tracer = Tracer()
        workload = workload_cls(args.seed)
        traced = measure(workload, args.seconds, tracer=tracer)
        runs.append(traced)
        metrics, report = per_layer(workload, plain, traced)
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_path = os.path.join(
            SPAN_DIR, "spans-{}-seed{}.json".format(args.workload, args.seed)
        )
        tracer.write_spans(span_path)
        report["span_log"] = os.path.relpath(span_path, ROOT)
    else:
        metrics, report = end_to_end(plain, peak_rss_mb())
    report.update((name, value) for name, (value, _unit) in plain.summary.items())
    report["fingerprint"] = plain.fingerprint
    report["provenance"] = provenance()
    failures = [message for run in runs for message in run.failures]
    attempted = sum(run.attempted for run in runs)
    same_behaviour = all(run.fingerprint == plain.fingerprint for run in runs)
    correct = not failures and same_behaviour

    print("perfbench {} seed={} seconds={:g} trace={}".format(
        args.workload, args.seed, args.seconds, args.trace))
    for name, (value, unit) in metrics.items():
        print("  {:28s} {:>16.6g} {}".format(name, value, unit))
    if "trial_wall_s.n" in report:
        p90 = report["trial_wall_s.p90"]
        print("  {:28s} {:>16} {}".format(
            "trial_wall_s.p90", "omitted" if p90 is None else "{:.6g}".format(p90),
            "(n={}; needs 10 trials beyond it)".format(report["trial_wall_s.n"])))
    for name, (value, unit) in plain.summary.items():
        print("  {:28s} {:>16} {} (first {} trials)".format(
            name, value, unit, workload_cls.prefix))
    print("  {:28s} {:>16d} of {} attempted".format("trials_failed", len(failures), attempted))
    for message in failures[:10]:
        print("  FAILED: {}".format(message))
    if not same_behaviour:
        print("  FAILED: traced and untraced runs simulated different behaviour")
    print("detail: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
