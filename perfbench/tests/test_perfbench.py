"""Tests of the benchmark's own code: statistics, shims, workloads, CLI."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import calibrate, stats, tracer as tracing
from perfbench.tracer import SHIMS, FirstCall, Tracer, layer_metrics, resolve_target
from perfbench.workloads import (
    CheckCorruptCampaign,
    FailoverPaper,
    ScaleN256Flow,
    Measurement,
    ShardedN1024,
    measure,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# the percentile rule


def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(99)), 0.9) is None
    assert stats.percentile(list(range(100)), 0.9) == 89
    assert stats.percentile(list(range(1000)), 0.99) == 989


def test_p90_is_omitted_when_ties_leave_too_few_beyond():
    # 100 samples, but the top 20 are equal: nothing lies beyond the p90 value.
    samples = list(range(80)) + [500] * 20
    assert stats.percentile(samples, 0.9) is None


def test_median_is_always_reported():
    assert stats.median([3.0]) == 3.0
    assert stats.percentile([3.0], 0.5) is None


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    assert stats.quartile_spread(values) == pytest.approx((10.275 - 9.725) / 10.0)


# ----------------------------------------------------------------------
# calibration


def _timeline(*seconds):
    """Points of the given seconds, taken over [10 i, 10 i + 1]."""
    timeline = calibrate.Timeline()
    timeline.points = [(10.0 * i, 10.0 * i + 1, value) for i, value in enumerate(seconds)]
    return timeline


def test_each_piece_is_scaled_by_the_median_of_the_points_around_it():
    ref = calibrate.REFERENCE_S
    timeline = _timeline(ref, ref, ref / 2, ref / 2, ref / 2, 9 * ref)
    twice = 2.0 ** calibrate.SPEED_EXPONENT
    # Piece 0 sees points 0-2, piece 2 points 1-4, piece 4 points 3-5:
    # the disturbed last point does not move piece 4.
    assert [timeline.factor(i) for i in (0, 2, 4)] == pytest.approx([1.0, twice, twice])
    assert timeline.pieces(12.0, 18.0) == [(6.0, 1)]
    # [5, 35] holds points 1-3: four pieces, the points' own time left out.
    assert timeline.pieces(5.0, 35.0) == [(5.0, 0), (9.0, 1), (9.0, 2), (4.0, 3)]
    assert timeline.host(5.0, 35.0) == pytest.approx(27.0)
    assert timeline.scaled(5.0, 35.0) == pytest.approx(
        sum(seconds * timeline.factor(index) for seconds, index in timeline.pieces(5.0, 35.0)))


def test_measurement_reads_its_spans_through_the_timeline():
    ref = calibrate.REFERENCE_S
    run = Measurement()
    # The host halved its speed after the first point.
    run.timeline = _timeline(ref, 2 * ref, 2 * ref, 2 * ref)
    run.trials = [(2.0, 4.0), (21.0, 25.0)]
    run.steps = [(1.5, 4.5), (21.0, 26.0)]
    half = 0.5 ** calibrate.SPEED_EXPONENT
    assert run.host(run.trials) == pytest.approx([2.0, 4.0])
    assert run.scaled(run.trials) == pytest.approx([2.0 * half, 4.0 * half])
    assert sum(run.scaled(run.steps)) == pytest.approx((3.0 + 5.0) * half)


def test_untraced_runs_take_points_inside_trials(monkeypatch):
    from repro.sim.scheduler import Scheduler

    original = Scheduler.__dict__["run"]
    monkeypatch.setattr(calibrate, "INTERVAL", 0.005)
    run = measure(FailoverPaper(3, servers=2, vips=2), 0.0)
    assert Scheduler.__dict__["run"] is original
    inside = [
        (start, end) for start, end in run.trials
        if any(start < point_start < end for point_start, _end, _s in run.timeline.points)
    ]
    assert inside
    start, end = inside[0]
    assert 0 < run.timeline.host(start, end) < end - start


def test_calibration_point_is_positive():
    assert calibrate.calibration_point() > 0


# ----------------------------------------------------------------------
# shims


def _originals():
    found = {}
    for shim in SHIMS:
        owner = resolve_target(shim.target)
        for attribute in shim.attributes:
            found[(shim.target, attribute)] = getattr(owner, attribute)
    return found


def test_install_then_remove_restores_every_original():
    from repro.core import daemon
    from repro.experiments import runner

    before = _originals()
    aliases = (runner.extract_episodes, daemon.reallocate_ips)
    tracer = Tracer()
    tracer.install()
    assert all(
        getattr(resolve_target(target), attribute) is not original
        for (target, attribute), original in before.items()
    )
    assert runner.extract_episodes is not aliases[0]
    assert daemon.reallocate_ips is not aliases[1]
    tracer.remove()
    assert _originals() == before
    assert (runner.extract_episodes, daemon.reallocate_ips) == aliases


def test_first_call_probe_restores_and_times_only_the_first_call():
    from repro.check.harness import CheckCluster

    original = CheckCluster.__dict__["settle"]
    with FirstCall(CheckCluster, "settle") as probe:
        assert CheckCluster.__dict__["settle"] is not original
        assert probe.first is None
    assert CheckCluster.__dict__["settle"] is original


def test_self_times_from_the_span_log_match_the_stack_totals():
    tracer = Tracer()
    run = measure(FailoverPaper(3, servers=2, vips=2), 0.0, tracer=tracer)
    assert run.failed == 0
    first = run.layer_deltas[0]["self_time"]
    assert len(tracer.spans) < tracing.SPAN_CAP
    recomputed = tracing.self_time_from_spans(tracer.spans, tracing.span_layers(tracer))
    for layer, seconds in recomputed.items():
        assert seconds == pytest.approx(first[layer], rel=1e-6, abs=1e-9)
    assert first["net"] > 0 and first["sim"] > 0


# ----------------------------------------------------------------------
# tiny-size smoke runs of every workload


TINY = {
    "failover_paper": lambda seed: FailoverPaper(seed, servers=2, vips=2),
    "check_corrupt_campaign": lambda seed: CheckCorruptCampaign(
        seed, servers=3, vips=4, horizon=10.0, events=3),
    "scale_n256_flow": lambda seed: ScaleN256Flow(
        seed, hosts=64, vips=256, segment_size=16, flow_users=10**4),
    "sharded_n1024": lambda seed: ShardedN1024(
        seed, hosts=64, vips=256, segment_size=16, horizon=9.0),
}

# Layers whose work counts must be nonzero on each workload.
WORKING = {
    "failover_paper": ("net.frames", "gcs.views_installed", "core.reallocations",
                       "obs.extract_calls"),
    "check_corrupt_campaign": ("net.frames", "gcs.agreed_delivered", "core.audit_calls",
                               "check.samples"),
    "scale_n256_flow": ("segments.views_adopted", "placement.calls", "flow.ticks",
                        "flow.resolve_calls", "flow.map_rebuilds"),
    "sharded_n1024": ("sim.events", "segments.views_adopted", "placement.calls",
                      "shard.epochs", "shard.envelopes"),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_deterministic_and_traceable(name):
    first = measure(TINY[name](5), 0.0)
    again = measure(TINY[name](5), 0.0)
    other = measure(TINY[name](6), 0.0)
    tracer = Tracer()
    traced = measure(TINY[name](5), 0.0, tracer=tracer)

    assert first.failed == 0 and traced.failed == 0, first.failures + traced.failures
    assert first.attempted >= TINY[name](5).prefix
    assert first.setups and all(seconds > 0 for seconds in first.scaled(first.setups))
    assert len(first.steps) == first.attempted
    assert first.fingerprint == again.fingerprint == traced.fingerprint
    assert other.fingerprint != first.fingerprint
    assert first.summary == traced.summary
    metrics = layer_metrics(traced.layer_deltas, TINY[name](5).prefix)
    for metric in WORKING[name]:
        assert metrics[metric] > 0, metric


# ----------------------------------------------------------------------
# the command line


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric_in_the_last_line(trace, section):
    done = _run(ROOT, "--workload", "failover_paper", "--seed", "2", "--seconds", "0",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared


def test_cli_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "failover_paper", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
