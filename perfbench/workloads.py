"""The four end-to-end workloads and the timed loop that runs them.

Every workload drives the program only through a public entry point
and checks each trial's output. A trial that raises or fails its check
counts as failed; it is never dropped from the timings.

* ``failover_paper`` - the paper's section 6 experiment: repeated
  ``run_failover_trial`` with ``SpreadConfig.tuned()``, 4 servers, 10
  VIPs and a 10 ms probe. Tuned timeouts only, so trial cost has one
  mode. Packet dispatch (``net``) dominates.
* ``check_corrupt_campaign`` - a fixed-seed ``repro check --corrupt``
  campaign of 48 trials run serially in-process through
  ``build_trial_spec``/``run_trial``, in an order set by the seed: the
  same ``net``/``gcs``/``core`` code under loss, supervisors,
  stabilization audits and auditor sampling.
* ``scale_n256_flow`` - ``ScaleClusterScenario`` with 256 hosts, 2048
  VIPs, segments of 32 and 10^6 flow users. A trial is a kill and a
  revive of one victim, each followed by a fixed settle window and a
  convergence check. The only workload where ``repro.flow`` dominates.
* ``sharded_n1024`` - one ``ShardedScaleScenario.run`` per trial: 1024
  hosts, 8192 VIPs, 2 shards advanced in this process, flow off. The
  only workload where ``repro.sim.shard`` does work.

Every workload runs in the benchmark's own process: on a host of a
few shared CPUs, worker processes measure the scheduler as much as
the program.

Inputs come from the ``--seed`` through :func:`derive_seed`, which does
not use the program's own random streams, so a change to those cannot
change what the benchmark asks the program to do.
"""

import gc
import hashlib
import json
import time

from perfbench.calibrate import Timeline
from perfbench.stats import median
from perfbench.tracer import FirstCall, patch_function, restore

def derive_seed(*parts):
    """A 32-bit seed from the workload name, the run seed and an index."""
    text = "/".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big")


class Trial:
    """One trial's outcome: check result, set-up share, fingerprint input.

    ``setup`` is the ``(start, end)`` host interval of the trial's
    set-up, or None.
    """

    __slots__ = ("ok", "message", "setup", "digest", "value")

    def __init__(self, ok, message="", setup=None, digest="", value=None):
        self.ok = ok
        self.message = message
        self.setup = setup
        self.digest = digest
        self.value = value


# ----------------------------------------------------------------------
# workloads


class Workload:
    """What :func:`measure` asks of a workload, with the common defaults.

    ``prefix`` trials are fingerprinted; the loop stops only at a
    multiple of ``batch``; ``setup(index)`` runs untimed before each
    trial and returns the ``(start, end)`` host interval of the set-up
    it did, or None;
    ``trial(index)`` returns a :class:`Trial`; ``summary(values)``
    turns the prefix trials' values into deterministic figures, as
    ``{name: (value, unit)}``.
    ``probe``, when set, is a :class:`FirstCall` active for the loop.
    """

    prefix = 1
    batch = 1
    probe = None

    def __enter__(self):
        if self.probe is not None:
            self.probe.__enter__()
        return self

    def __exit__(self, *exc_info):
        if self.probe is not None:
            self.probe.__exit__(*exc_info)

    def setup(self, index):
        return None

    def summary(self, values):
        return {}


class FailoverPaper(Workload):
    """Section 6 fail-over trials with Table 1's tuned timeouts."""

    name = "failover_paper"
    prefix = 20
    PROBE_INTERVAL = 0.010

    def __init__(self, seed, servers=4, vips=10):
        from repro.apps.webcluster import WebClusterScenario
        from repro.gcs.config import SpreadConfig

        self.seed = seed
        self.servers = servers
        self.vips = vips
        self.config = SpreadConfig.tuned()
        self.window = self.config.notification_window()
        self.probe = FirstCall(WebClusterScenario, "run_until_stable")

    def trial(self, index):
        from repro.experiments.runner import run_failover_trial

        self.probe.arm()
        start = time.perf_counter()
        result = run_failover_trial(
            derive_seed(self.name, self.seed, index),
            self.servers,
            self.config,
            n_vips=self.vips,
            probe_interval=self.PROBE_INTERVAL,
        )
        setup = self.probe.span(since=start)
        lo, hi = self.window
        problems = []
        if result.interruption is None or not lo - 0.1 <= result.interruption <= hi + 1.0:
            problems.append("interruption {} outside [{}, {}]".format(
                result.interruption, lo - 0.1, hi + 1.0))
        if result.takeover is None:
            problems.append("no takeover owner")
        if result.violations:
            problems.append("{} auditor violations".format(len(result.violations)))
        digest = repr((result.interruption, result.victim, result.takeover))
        return Trial(not problems, "; ".join(problems), setup, digest, result.interruption)

    def summary(self, values):
        measured = [value for value in values if value is not None]
        return {"interruption_s.p50": (median(measured) if measured else None, "sim_s")}


class CheckCorruptCampaign(Workload):
    """A fixed-seed corruption campaign, one ``run_trial`` per trial.

    The campaign is the same 48 trials for every ``--seed`` (base seed
    of the CI corruption job); the seed sets the order in which each
    pass visits them. The loop stops only after whole passes, so every
    run times the same mix of fault schedules, whose costs range over
    a factor of three.
    """

    name = "check_corrupt_campaign"
    prefix = 10
    CAMPAIGN_SEED = 20260806
    CAMPAIGN_TRIALS = 48
    batch = CAMPAIGN_TRIALS

    def __init__(self, seed, servers=4, vips=8, horizon=40.0, events=8):
        from repro.check.campaign import campaign_params
        from repro.check.harness import CheckCluster

        self.seed = seed
        self.params = campaign_params(
            base_seed=self.CAMPAIGN_SEED,
            trials=self.CAMPAIGN_TRIALS,
            n_servers=servers,
            n_vips=vips,
            horizon=horizon,
            events_per_trial=events,
            corrupt=True,
        )
        self.probe = FirstCall(CheckCluster, "settle")
        self.order = []

    def trial(self, index):
        import random

        from repro.check.campaign import build_trial_spec
        from repro.check.trial import run_trial

        size = self.CAMPAIGN_TRIALS
        if index % size == 0:
            rng = random.Random(derive_seed(self.name, self.seed, index // size))
            self.order = rng.sample(range(size), size)
        campaign_index = self.order[index % size]
        spec = build_trial_spec(self.params, campaign_index)
        self.probe.arm()
        start = time.perf_counter()
        result = run_trial(spec)
        setup = self.probe.span(since=start)
        ok = result["verdict"] == "pass"
        message = "" if ok else "campaign trial {} verdict {}".format(
            campaign_index, result["verdict"])
        return Trial(ok, message, setup, json.dumps(result, sort_keys=True))


class ScaleN256Flow(Workload):
    """Kill/revive pairs on a 256-host segmented cluster with 10^6 flow users.

    Each cycle boots a fresh cluster (one set-up sample) and runs
    ``batch`` pairs on it; the victims of a cycle are an ordinary
    member of one segment and the initial leader of another. Settle windows are fixed, so every pair simulates the
    same time and costs the same flow ticks whoever the victim is.
    """

    name = "scale_n256_flow"
    batch = 2
    prefix = 4
    # Simulated seconds after a kill and after a revive; convergence
    # takes at most 2.5 s and 1.0 s with the default SegmentConfig.
    KILL_WINDOW = 3.5
    REVIVE_WINDOW = 1.5

    def __init__(self, seed, hosts=256, vips=2048, segment_size=32, flow_users=10**6):
        self.seed = seed
        self.hosts = hosts
        self.vips = vips
        self.segment_size = segment_size
        self.flow_users = flow_users
        self.scenario = None
        self.victims = []
        self.lost = 0

    def _victims(self, cycle):
        import random

        rng = random.Random(derive_seed(self.name, self.seed, "victims", cycle))
        segments = rng.sample(range(self.hosts // self.segment_size), self.batch)
        victims = []
        for position, segment in enumerate(segments):
            base = segment * self.segment_size
            offset = 0 if position == 1 else rng.randrange(1, self.segment_size)
            victims.append(base + offset)
        return victims

    def setup(self, index):
        if index % self.batch:
            return None
        from repro.apps.scalecluster import ScaleClusterScenario

        cycle = index // self.batch
        # The previous cluster is garbage with reference cycles; collect
        # it here so that no boot pays for tearing down the last one.
        self.scenario = None
        gc.collect()
        start = time.perf_counter()
        scenario = ScaleClusterScenario(
            seed=derive_seed(self.name, self.seed, cycle),
            n_hosts=self.hosts,
            n_vips=self.vips,
            segment_size=self.segment_size,
            flow_users=self.flow_users,
        )
        scenario.start()
        booted = scenario.settle()
        end = time.perf_counter()
        self.scenario = scenario if booted else None
        self.victims = self._victims(cycle)
        self.lost = 0
        return start, end

    def trial(self, index):
        scenario = self.scenario
        if scenario is None:
            return Trial(False, "cluster did not boot to a converged view")
        victim = self.victims[index % self.batch]
        problems = []
        scenario.kill(victim)
        scenario.sim.run_for(self.KILL_WINDOW)
        if not scenario.converged():
            problems.append("no convergence after killing node {}".format(victim))
        scenario.revive(victim)
        scenario.sim.run_for(self.REVIVE_WINDOW)
        if not scenario.converged():
            problems.append("no convergence after reviving node {}".format(victim))
        if scenario.coverage_violations() != ([], []):
            problems.append("inexact coverage after node {}".format(victim))
        totals = scenario.flow_engine.totals()
        if totals["offered"] != totals["served"] + totals["lost"]:
            problems.append("flow ledger: offered != served + lost")
        lost, self.lost = totals["lost"] - self.lost, totals["lost"]
        digest = json.dumps([totals, scenario.fingerprint()], sort_keys=True)
        return Trial(not problems, "; ".join(problems), None, digest, lost)

    def summary(self, values):
        return {"requests_lost": (sum(values), "requests")}


class ShardedN1024(Workload):
    """One fixed-horizon sharded run per trial: boot, 2 kills, 1 revive.

    The shards run in this process (``workers=0``), so the kernel's
    epochs, envelopes and merge are timed without fork or pipe costs.
    """

    name = "sharded_n1024"
    prefix = 2
    SHARDS = 2

    def __init__(self, seed, hosts=1024, vips=8192, segment_size=32, horizon=12.0):
        from repro.sim.shard.kernel import ShardedKernel

        self.seed = seed
        self.params = dict(
            n_hosts=hosts,
            n_vips=vips,
            segment_size=segment_size,
            shards=self.SHARDS,
            horizon=horizon,
            flow_users=0,
        )
        self.probe = FirstCall(ShardedKernel, "start")

    def trial(self, index):
        import random

        from repro.apps.scalecluster import ShardedScaleScenario
        from repro.sim.shard.merge import artifact_bytes

        rng = random.Random(derive_seed(self.name, self.seed, index))
        revived, killed = rng.sample(range(self.params["n_hosts"]), 2)
        horizon = self.params["horizon"]
        scenario = ShardedScaleScenario(
            seed=derive_seed(self.name, self.seed, "world", index),
            kills=((horizon / 3, revived), (horizon / 3, killed)),
            revives=((horizon * 2 / 3, revived),),
            **self.params,
        )
        self.probe.arm()
        artifact = scenario.run()
        setup = self.probe.span()
        ok = bool(artifact["converged"])
        message = "" if ok else "trial {} did not converge".format(index)
        digest = hashlib.sha256(artifact_bytes(artifact)).hexdigest()
        return Trial(ok, message, setup, digest)


WORKLOADS = {
    workload.name: workload
    for workload in (FailoverPaper, CheckCorruptCampaign, ScaleN256Flow, ShardedN1024)
}


# ----------------------------------------------------------------------
# the timed loop


class Measurement:
    """Everything one timed loop observed.

    A *step* is one pass of the loop: the workload's ``setup`` and
    ``trial`` for one index, with the bookkeeping around them. Steps,
    trials and set-ups are kept as ``(start, end)`` host intervals and
    read through the run's :class:`~perfbench.calibrate.Timeline`:
    host seconds with the calibration points left out, or scaled.
    """

    def __init__(self):
        self.timeline = Timeline()
        self.trials = []
        self.steps = []
        self.setups = []
        self.failures = []
        self.values = []
        self.fingerprint = None
        self.summary = {}
        self.layer_deltas = []

    @property
    def attempted(self):
        return len(self.trials)

    @property
    def failed(self):
        return len(self.failures)

    def host(self, spans):
        return [self.timeline.host(*span) for span in spans]

    def scaled(self, spans):
        return [self.timeline.scaled(*span) for span in spans]


def _paced(timeline):
    """Let ``timeline`` take its due points after every ``Scheduler.run``.

    A trial can last seconds while the host changes speed; points
    inside it scale each part by the speed around that part. Returns
    the undo list for :func:`~perfbench.tracer.restore`.
    """
    from repro.sim.scheduler import Scheduler

    original = Scheduler.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        timeline.due()
        return result

    return patch_function(Scheduler, "run", run)


def measure(workload, seconds, tracer=None):
    """Run trials of ``workload`` for ``seconds``; returns a :class:`Measurement`.

    The loop always completes the workload's ``prefix`` trials, whose
    digests make the fingerprint, and stops only between batches. A
    calibration point is taken before the first step, after the last,
    and, once :data:`~perfbench.calibrate.INTERVAL` has passed since
    the previous one, between steps and after each ``Scheduler.run``.
    With a ``tracer`` the shims are installed for the whole loop,
    spans are logged for trial 0, and each trial's totals are kept;
    points are then taken only between steps, so that no layer span
    holds calibration time.
    """
    result = Measurement()
    timeline = result.timeline
    digests = hashlib.sha256()
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    undo = _paced(timeline) if tracer is None else []
    try:
        with workload:
            timeline.take()
            began = clock()
            index = 0
            while index < workload.prefix or index % workload.batch or clock() - began < seconds:
                timeline.due()
                step_start = clock()
                setup = workload.setup(index)
                if setup is not None:
                    result.setups.append(setup)
                if tracer is not None:
                    tracer.logging = index == 0
                    before = tracer.snapshot()
                start = clock()
                try:
                    trial = workload.trial(index)
                except Exception as exc:  # a failed trial is counted, not fatal
                    trial = Trial(False, "trial {} raised {!r}".format(index, exc))
                result.trials.append((start, clock()))
                if trial.setup is not None:
                    result.setups.append(trial.setup)
                if not trial.ok:
                    result.failures.append(trial.message)
                if tracer is not None:
                    tracer.logging = False
                    result.layer_deltas.append(_delta(tracer.snapshot(), before))
                if index < workload.prefix:
                    digests.update(trial.digest.encode("utf-8") + b"\n")
                    result.values.append(trial.value)
                result.steps.append((step_start, clock()))
                index += 1
            timeline.take()
    finally:
        restore(undo)
        if tracer is not None:
            tracer.remove()
    result.fingerprint = digests.hexdigest()
    result.summary = workload.summary(result.values)
    return result


def _delta(after, before):
    return {
        section: {key: value - before[section].get(key, 0) for key, value in table.items()}
        for section, table in after.items()
    }
