"""Shared fixtures: simple hosts and pre-wired Stardust networks."""

from __future__ import annotations

import pytest

from repro.fabrics import OneTierSpec, StardustNetwork, TwoTierSpec
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.entity import Entity


class RecordingHost(Entity):
    """A host that records everything delivered to it."""

    def __init__(self, sim, name, address):
        super().__init__(sim, name)
        self.address = address
        self.received = []

    def receive(self, packet, link):
        self.received.append((self.sim.now, packet))

    def send(self, packet: Packet) -> None:
        self.ports[0].send(packet, packet.wire_bytes)

    def send_to(self, dst: PortAddress, size_bytes: int, **kw) -> Packet:
        packet = Packet(
            size_bytes=size_bytes,
            src=self.address,
            dst=dst,
            created_ns=self.sim.now,
            **kw,
        )
        self.send(packet)
        return packet


def build_network(spec, config=None, reachability="static", **kw):
    """A StardustNetwork with a RecordingHost on every port."""
    net = StardustNetwork(spec, config=config, reachability=reachability, **kw)
    hosts = {}
    for fa_idx in range(len(net.fas)):
        for port in range(spec.hosts_per_fa):
            addr = PortAddress(fa_idx, port)
            host = RecordingHost(net.sim, f"h{fa_idx}.{port}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host
    return net, hosts


@pytest.fixture
def small_one_tier():
    spec = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=2)
    return build_network(spec)


@pytest.fixture
def small_two_tier():
    spec = TwoTierSpec(
        pods=2, fas_per_pod=4, fes_per_pod=2, spines=2, hosts_per_fa=2
    )
    return build_network(spec)
