"""Every mutation that can change how a VIP resolves bumps the LAN's epoch."""

import pytest

from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.nic import Nic
from repro.sim.simulation import Simulation


@pytest.fixture
def setup():
    sim = Simulation(seed=1)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    other = Lan(sim, "other", "10.1.0.0/24")
    host = Host(sim, "h")
    nic = host.add_nic(lan, "10.0.0.1")
    host.add_nic(other, "10.1.0.1")
    return lan, other, host, nic


def bumps(lan, action):
    before = lan.binding_epoch
    action()
    return lan.binding_epoch - before


def test_bind_and_unbind_bump_only_on_change(setup):
    lan, _other, _host, nic = setup
    assert bumps(lan, lambda: nic.bind_ip("10.0.0.100")) == 1
    assert bumps(lan, lambda: nic.bind_ip("10.0.0.100")) == 0
    assert bumps(lan, lambda: nic.unbind_ip("10.0.0.100")) == 1
    assert bumps(lan, lambda: nic.unbind_ip("10.0.0.100")) == 0


def test_nic_up_down_and_reset_bump(setup):
    lan, _other, _host, nic = setup
    assert bumps(lan, lambda: nic.set_up(False)) > 0
    assert bumps(lan, lambda: nic.set_up(True)) > 0
    assert bumps(lan, nic.reset) > 0


@pytest.mark.parametrize("action", ["crash", "recover", "slowdown"])
def test_host_lifecycle_bumps_every_lan_it_sits_on(setup, action):
    lan, other, host, _nic = setup
    run = {
        "crash": host.crash,
        "recover": host.recover,
        "slowdown": lambda: host.set_slowdown(2.0),
    }[action]
    before = (lan.binding_epoch, other.binding_epoch)
    run()
    assert lan.binding_epoch > before[0]
    assert other.binding_epoch > before[1]


def test_attach_and_detach_bump(setup):
    lan, _other, host, _nic = setup
    extra = []
    assert bumps(lan, lambda: extra.append(Nic(host, lan, "10.0.0.2"))) == 1
    assert bumps(lan, lambda: lan.detach(extra[0])) == 1
    assert bumps(lan, lambda: lan.detach(extra[0])) == 0


def test_other_lans_are_untouched(setup):
    _lan, other, _host, nic = setup
    assert bumps(other, lambda: nic.bind_ip("10.0.0.100")) == 0
    assert bumps(other, lambda: nic.set_up(False)) == 0
