"""Trial runner: verdicts are deterministic functions of the spec."""

import pytest

from repro.check.campaign import build_trial_spec, campaign_params
from repro.check.schedule import FaultEvent, FaultSchedule, generate_schedule
from repro.check.trial import make_spec, result_signature, run_trial
from repro.sim.rng import RngRegistry


def small_spec(seed=42, fixture="standard", events=None, horizon=20.0):
    if events is None:
        schedule = generate_schedule(
            RngRegistry(seed).stream("schedule"), n_hosts=3, horizon=horizon, n_events=4
        )
    else:
        schedule = FaultSchedule(events, horizon)
    return make_spec(seed, schedule, n_servers=3, n_vips=4, fixture=fixture)


def test_empty_schedule_passes():
    spec = small_spec(events=[])
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    assert result["events_fired"] > 0


def test_standard_daemon_survives_random_schedule():
    result = run_trial(small_spec(seed=77))
    assert result["verdict"] == "pass"


def test_trial_is_deterministic():
    spec = small_spec(seed=123)
    assert run_trial(spec) == run_trial(spec)


def test_single_crash_recovers_cleanly():
    spec = small_spec(events=[FaultEvent("crash", 2.0, host=0, duration=4.0)])
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    assert result["restarts"] == 1


def test_broken_balance_fixture_fails_after_one_crash():
    spec = small_spec(
        fixture="broken-balance",
        events=[FaultEvent("crash", 2.0, host=0, duration=4.0)],
    )
    result = run_trial(spec)
    assert result["verdict"] == "violation"
    assert result["violation_kinds"] == ["duplicate"]
    assert result["violations"]
    assert result["trace_tail"]


def test_failure_results_carry_signature():
    spec = small_spec(
        fixture="broken-balance",
        events=[FaultEvent("crash", 2.0, host=0, duration=4.0)],
    )
    result = run_trial(spec)
    assert result_signature(result) == ("violation", ("duplicate",))


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        run_trial(small_spec(fixture="nonexistent", events=[]))


def test_unknown_spec_field_rejected():
    with pytest.raises(ValueError):
        make_spec(1, FaultSchedule([], 10.0), bogus_field=1)


# ----------------------------------------------------------------------
# gray trials (hardened cluster vs the gray repertoire)


def gray_spec(seed=42, horizon=25.0, events=6):
    schedule = generate_schedule(
        RngRegistry(seed).stream("schedule"),
        n_hosts=4,
        horizon=horizon,
        n_events=events,
        gray=True,
    )
    return make_spec(seed, schedule, n_servers=4, n_vips=6, gray=True)


def test_gray_trial_passes_and_is_deterministic():
    spec = gray_spec(seed=404)
    first = run_trial(spec)
    second = run_trial(spec)
    assert first["verdict"] == "pass"
    assert first == second


def test_gray_trial_records_fault_log_and_degraded_spans():
    result = run_trial(gray_spec(seed=404))
    assert result["verdict"] == "pass"
    # The applied timeline rides along in the artifact...
    assert result["fault_log"]
    assert all(set(r) >= {"time", "kind", "target"} for r in result["fault_log"])
    # ...and gray exposure windows are stitched into spans.
    assert isinstance(result["degraded"], list)


def test_gray_trial_spans_cover_applied_gray_faults():
    from repro.check.schedule import GRAY_KINDS

    # Hunt a seed whose schedule actually fires a gray onset (guards
    # can skip events against dead hosts); the draw is deterministic.
    for seed in range(300, 320):
        result = run_trial(gray_spec(seed=seed))
        assert result["verdict"] == "pass"
        gray_kinds_applied = {
            r["kind"]
            for r in result["fault_log"]
            if r["kind"] in ("asym_partition", "burst_loss_on", "slow_host",
                             "clock_skew", "daemon_wedge")
        }
        if gray_kinds_applied:
            span_kinds = {span["kind"] for span in result["degraded"]}
            assert gray_kinds_applied <= span_kinds
            return
    raise AssertionError("no seed in range applied a gray fault: {}".format(GRAY_KINDS))


def test_non_gray_spec_unchanged_by_gray_support():
    """The historical spec shape (no gray key set) still runs and its
    dict form carries gray=False — replay artifacts stay compatible."""
    spec = small_spec(seed=42, events=[])
    assert spec["gray"] is False
    assert run_trial(spec)["verdict"] == "pass"


def test_message_masking_delivered_ahead_corruption_is_repaired():
    """Regression: base seed 3, trial 165 of an n4 corruption campaign.
    ``delivered_ahead`` on spread@s3 was followed by the next ordered
    message before the audit ran; the message filled the gap, was never
    applied, and s0 and s3 kept covering the same VIPs to the end."""
    params = campaign_params(
        base_seed=3, n_servers=4, n_vips=8, horizon=40.0, events_per_trial=8, corrupt=True
    )
    result = run_trial(build_trial_spec(params, 165))
    assert result["verdict"] == "pass"
    spans = [s for s in result["stabilization"] if s["mutation"] == "delivered_ahead"]
    assert spans and all(s["end"] is not None for s in spans)
