"""Change-driven resolution is exact: same output as resolving every tick.

The engine reuses a tick's resolution while no resolver is stale and
accounts only pools that can lose requests. These tests run scripted
fault sequences twice — once as shipped, once through a test-local
engine that rebuilds every resolver snapshot, re-resolves every VIP and
visits every pool on every tick (the behaviour before change-driven
resolution) — and require identical fingerprints, flow trace records
and metric totals on both backends.
"""

import pytest

from repro.apps.scalecluster import ScaleClusterScenario
from repro.apps.webcluster import WebClusterScenario
from repro.core.daemon import WackamoleDaemon
from repro.flow import DirectResolver, FlowEngine, FlowPool
from repro.flow.engine import _numpy
from repro.gcs.daemon import SpreadDaemon
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.sim.simulation import Simulation

BACKENDS = [False] + ([True] if _numpy is not None else [])


class EveryTickEngine(FlowEngine):
    """Rebuilds, re-resolves and visits every pool on every tick."""

    def _resolve(self):
        for resolver in self._resolvers:
            resolver.begin_tick()
        return self._resolve_groups()

    def _account(self, offered, served, resolution):
        reasons = resolution.reasons
        offered_total = 0
        served_total = 0
        lost_groups = {}
        group_totals = {}
        for index, group in enumerate(self._pool_group):
            offered_i = int(offered[index])
            if not offered_i:
                continue
            served_i = int(served[index])
            offered_total += offered_i
            served_total += served_i
            entry = group_totals.setdefault(group, [0, 0])
            entry[0] += offered_i
            entry[1] += served_i
            lost_i = offered_i - served_i
            if lost_i:
                reason = reasons[index] or "degraded"
                self.lost_by_reason[reason] = self.lost_by_reason.get(reason, 0) + lost_i
                pool = self.pools[index]
                pool.lost_by_reason[reason] = pool.lost_by_reason.get(reason, 0) + lost_i
                counter = self._m_lost.get(reason)
                if counter is None:
                    counter = self.sim.metrics.counter(
                        "flow.requests_lost", node=self.name, reason=reason
                    )
                    self._m_lost[reason] = counter
                counter.inc(lost_i)
                lost_groups.setdefault(group, reason)
        self.requests_offered += offered_total
        self.requests_served += served_total
        self.requests_lost += offered_total - served_total
        if offered_total:
            self._m_offered.inc(offered_total)
        if served_total:
            self._m_served.inc(served_total)
        for group in sorted(lost_groups):
            group_offered, group_served = group_totals[group]
            self.trace(
                "flow",
                "loss",
                vip=str(self._group_keys[group][1]),
                offered=group_offered,
                served=group_served,
                lost=group_offered - group_served,
                reason=lost_groups[group],
            )


def force_every_tick(engine):
    engine.__class__ = EveryTickEngine
    for resolver in {id(r): r for r in [engine.resolver] + [p.resolver for p in engine.pools]
                     if r is not None}.values():
        resolver.stale = lambda: True


def observed(sim, engine):
    flow_records = [
        (record.time, record.source, record.event, sorted(record.details.items()))
        for record in sim.trace.records
        if record.category == "flow"
    ]
    return engine.fingerprint(), flow_records, sim.metrics.totals()


def run_scale(use_numpy, forced):
    scenario = ScaleClusterScenario(
        seed=11,
        n_hosts=32,
        n_vips=96,
        segment_size=8,
        flow_users=40_000,
        flow_use_numpy=use_numpy,
        trace_enabled=True,
        metrics_enabled=True,
    )
    if forced:
        force_every_tick(scenario.flow_engine)
    faults = scenario.faults
    hosts = scenario.hosts
    scenario.start()
    scenario.settle(timeout=20.0)
    script = [
        lambda: scenario.kill(3),
        lambda: scenario.revive(3),
        lambda: faults.slow_host(hosts[5], 3.0),
        lambda: faults.unslow_host(hosts[5]),
        lambda: faults.burst_loss_on(scenario.lan, GilbertElliott(0.05, 0.25, 0.0, 0.6)),
        lambda: faults.burst_loss_off(scenario.lan),
        lambda: faults.nic_down(hosts[9].nics[0]),
        lambda: faults.nic_up(hosts[9].nics[0]),
        lambda: faults.partition(scenario.lan, [hosts[:8]]),
        lambda: faults.heal(scenario.lan),
    ]
    for step in script:
        step()
        scenario.sim.run_for(1.7)
    assert scenario.flow_engine.requests_lost > 0
    return observed(scenario.sim, scenario.flow_engine)


def run_web(use_numpy, forced):
    scenario = WebClusterScenario(
        seed=5, n_servers=3, n_vips=6, flow_users=30_000, flow_use_numpy=use_numpy
    )
    if forced:
        force_every_tick(scenario.flow_engine)
    faults = scenario.faults
    lan = scenario.lan
    scenario.start()
    scenario.run_until_stable()

    def revive(index):
        host = scenario.hosts[index]
        faults.recover_host(host)
        spread = SpreadDaemon(host, lan, scenario.spread_config, daemon_id=host.name + "-r")
        wack = WackamoleDaemon(host, spread, scenario.wackamole_config)
        spread.start()
        wack.start()

    script = [
        lambda: faults.crash_host(scenario.hosts[0]),
        lambda: revive(0),
        lambda: faults.slow_host(scenario.hosts[1], 4.0),
        lambda: faults.unslow_host(scenario.hosts[1]),
        lambda: faults.burst_loss_on(lan, GilbertElliott(0.05, 0.25, 0.0, 0.6)),
        lambda: faults.burst_loss_off(lan),
        lambda: faults.nic_down(scenario.hosts[2].nics[0]),
        lambda: faults.nic_up(scenario.hosts[2].nics[0]),
        lambda: faults.partition(lan, [[scenario.hosts[1]]]),
        lambda: faults.heal(lan),
    ]
    for step in script:
        step()
        scenario.sim.run_for(2.5)
    assert scenario.flow_engine.requests_lost > 0
    return observed(scenario.sim, scenario.flow_engine)


def run_shared_groups(use_numpy, forced):
    # Several pools per VIP: the loss trace reports group totals.
    sim = Simulation(seed=4, trace_enabled=True, metrics_enabled=True)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    hosts = [Host(sim, "s{}".format(index)) for index in range(2)]
    nics = [host.add_nic(lan, "10.0.0.{}".format(10 + index)) for index, host in enumerate(hosts)]

    def bindings():
        for host, nic in zip(hosts, nics):
            if host.alive:
                for vip in sorted(nic.virtual_ips):
                    yield vip, host

    engine = FlowEngine(sim, resolver=DirectResolver(bindings, lan=lan), use_numpy=use_numpy)
    for index, (vip, users) in enumerate(
        [("10.0.0.100", 700), ("10.0.0.101", 300), ("10.0.0.100", 450), ("10.0.0.101", 90)]
    ):
        engine.add_pool(FlowPool("p{}".format(index), vip, users, rate=1.3))
    if forced:
        force_every_tick(engine)
    nics[0].bind_ip("10.0.0.100")
    nics[1].bind_ip("10.0.0.101")
    engine.start()
    script = [
        (1.0, lambda: hosts[0].set_slowdown(2.5)),
        (2.0, lambda: hosts[1].crash()),
        (3.0, lambda: nics[0].bind_ip("10.0.0.101")),
        (4.0, lambda: lan.set_link_model(GilbertElliott(0.1, 0.3, 0.0, 0.5))),
        (5.0, lambda: lan.set_link_model(None)),
    ]
    for time, action in script:
        sim.at(time, action)
    sim.run(until=6.0)
    assert engine.requests_lost > 0
    return observed(sim, engine)


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_shared_vip_groups_match_every_tick_resolution(use_numpy):
    assert run_shared_groups(use_numpy, forced=False) == run_shared_groups(use_numpy, forced=True)


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_scale_scenario_matches_every_tick_resolution(use_numpy):
    assert run_scale(use_numpy, forced=False) == run_scale(use_numpy, forced=True)


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_webcluster_matches_every_tick_resolution(use_numpy):
    assert run_web(use_numpy, forced=False) == run_web(use_numpy, forced=True)


def test_backends_agree_under_change_driven_resolution():
    if _numpy is None:
        pytest.skip("numpy not importable")
    fingerprint, records, totals = run_scale(True, forced=False)
    expected = run_scale(False, forced=False)
    # Only the start record names the backend.
    assert (fingerprint, records[1:], totals) == (expected[0], expected[1][1:], expected[2])


def direct_setup():
    sim = Simulation(seed=2)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    host = Host(sim, "s0")
    nic = host.add_nic(lan, "10.0.0.10")
    calls = []

    def bindings():
        calls.append(sim.now)
        if host.alive:
            for vip in nic.virtual_ips:
                yield vip, host

    resolver = DirectResolver(bindings, lan=lan)
    engine = FlowEngine(sim, resolver=resolver, use_numpy=False)
    engine.add_pool(FlowPool("p", "10.0.0.100", users=1000))
    return sim, lan, host, nic, resolver, engine, calls


def test_direct_resolver_rebuilds_only_when_its_key_moves():
    sim, lan, host, nic, resolver, engine, calls = direct_setup()
    nic.bind_ip("10.0.0.100")
    engine.start()
    sim.run(until=1.0)
    assert len(calls) == 1
    nic.bind_ip("10.0.0.100")  # idempotent: no rebuild
    sim.run(until=2.0)
    assert len(calls) == 1
    host.crash()
    sim.run(until=3.0)
    assert len(calls) == 2
    lan.loss = 0.1
    sim.run(until=4.0)
    assert len(calls) == 3
    model = GilbertElliott(0.1, 0.3, 0.0, 0.5)
    lan.set_link_model(model)
    sim.run(until=5.0)
    assert len(calls) == 4
    model.loss_bad = 0.9  # expected_loss() moves with the parameters
    sim.run(until=6.0)
    assert len(calls) == 5


def test_direct_resolver_without_lan_rebuilds_every_tick():
    sim = Simulation(seed=2)
    calls = []

    def bindings():
        calls.append(sim.now)
        return ()

    resolver = DirectResolver(bindings)
    engine = FlowEngine(sim, resolver=resolver, tick=0.1, use_numpy=False)
    engine.add_pool(FlowPool("p", "10.0.0.100", users=10))
    engine.start()
    sim.run(until=1.05)
    assert len(calls) == engine.ticks == 10


def test_require_gated_pools_resolve_every_tick():
    sim, lan, host, nic, resolver, engine, calls = direct_setup()
    gate = {"open": True}
    engine.add_pool(FlowPool("gated", "10.0.0.100", users=1000, require=lambda h: gate["open"]))
    nic.bind_ip("10.0.0.100")
    engine.start()
    sim.run(until=1.0)
    assert engine.lost_by_reason == {}
    gate["open"] = False  # no epoch bump, yet the next tick must see it
    sim.run(until=2.0)
    assert engine.lost_by_reason.get("no_route", 0) > 0
