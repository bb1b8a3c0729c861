"""Unit tests for links, lanes, the crossbar fabric, and packets."""

import json
from dataclasses import replace

import pytest

from repro.config import LinkConfig, scaled_config
from repro.errors import InterconnectError
from repro.interconnect.link import Direction, DuplexLink
from repro.interconnect.packets import (
    CONTROL_BYTES,
    DATA_BYTES,
    PacketKind,
    packet_bytes,
)
from repro.sim.engine import Engine
from repro.topology.fabric import MultiHopFabric, build_fabric
from repro.topology.spec import TopologySpec, crossbar, ring


def make_link(**overrides):
    engine = Engine()
    config = LinkConfig(**overrides)
    return DuplexLink(0, config, engine), engine


def test_packet_sizes():
    assert packet_bytes(PacketKind.READ_REQUEST) == CONTROL_BYTES
    assert packet_bytes(PacketKind.WRITE_ACK) == CONTROL_BYTES
    assert packet_bytes(PacketKind.READ_RESPONSE) == DATA_BYTES
    assert packet_bytes(PacketKind.WRITE_DATA) == DATA_BYTES
    assert packet_bytes(PacketKind.WRITEBACK_DATA) == DATA_BYTES
    assert DATA_BYTES == 128 + CONTROL_BYTES


def test_direction_other():
    assert Direction.EGRESS.other is Direction.INGRESS
    assert Direction.INGRESS.other is Direction.EGRESS


def test_symmetric_start():
    link, _ = make_link()
    assert link.is_symmetric()
    assert link.lanes(Direction.EGRESS) == 8
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(64.0)


def test_transfer_serializes_and_adds_latency():
    link, _ = make_link()
    # 64 bytes at 64 B/cyc = 1 cycle + 128 latency.
    assert link.transfer(0, Direction.EGRESS, 64) == 129


def test_transfer_latency_override():
    link, _ = make_link()
    assert link.transfer(0, Direction.EGRESS, 64, latency=10) == 11


def test_transfer_counts_stats():
    link, _ = make_link()
    link.transfer(0, Direction.EGRESS, 100)
    link.transfer(0, Direction.INGRESS, 50)
    assert link.stats["egress_bytes"] == 100
    assert link.stats["ingress_bytes"] == 50
    assert link.stats["egress_packets"] == 1


def test_turn_lane_conserves_total():
    link, engine = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=100)
    assert link.total_lanes == 16
    assert link.lanes(Direction.EGRESS) == 9
    assert link.lanes(Direction.INGRESS) == 7
    engine.run()
    assert link.total_lanes == 16


def test_donor_loses_bandwidth_immediately():
    link, _ = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=100)
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(7 * 8.0)


def test_recipient_gains_bandwidth_after_switch_time():
    link, engine = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=100)
    # Before the quiesce commits, egress still runs at the old rate.
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(64.0)
    engine.run()
    assert engine.now == 100
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(9 * 8.0)


def test_min_lanes_enforced():
    link, engine = make_link()
    for _ in range(7):
        link.turn_lane(Direction.EGRESS, switch_time=1)
        engine.run()
    assert link.lanes(Direction.INGRESS) == 1
    with pytest.raises(InterconnectError):
        link.turn_lane(Direction.EGRESS, switch_time=1)


def test_asymmetry_sign():
    link, engine = make_link()
    assert link.asymmetry() == 0
    link.turn_lane(Direction.EGRESS, switch_time=1)
    engine.run()
    assert link.asymmetry() == 2  # 9 egress vs 7 ingress


def test_reset_symmetric():
    link, engine = make_link()
    for _ in range(3):
        link.turn_lane(Direction.INGRESS, switch_time=1)
    engine.run()
    link.reset_symmetric()
    assert link.is_symmetric()
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(64.0)
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(64.0)


def test_min_lanes_floor_rate_is_exact():
    # At the min_lanes=1 floor the donor keeps exactly one lane's worth
    # of bandwidth — no more, no less.
    link, engine = make_link()
    for _ in range(7):
        link.turn_lane(Direction.EGRESS, switch_time=1)
        engine.run()
    assert link.lanes(Direction.INGRESS) == 1
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(8.0)


def test_zero_min_lanes_empties_without_phantom_bandwidth():
    # Regression: with min_lanes=0 the donor used to keep one lane's
    # bandwidth (max(lanes, 1)) even when holding zero lanes.
    link, engine = make_link(min_lanes=0)
    for _ in range(8):
        link.turn_lane(Direction.EGRESS, switch_time=1)
        engine.run()
    assert link.lanes(Direction.INGRESS) == 0
    assert link.bandwidth(Direction.INGRESS) == 0.0
    assert link.lanes(Direction.EGRESS) == 16
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(16 * 8.0)
    # An emptied direction cannot carry traffic.
    with pytest.raises(InterconnectError):
        link.transfer(engine.now, Direction.INGRESS, 64)
    # And the floor still raises once reached.
    with pytest.raises(InterconnectError):
        link.turn_lane(Direction.EGRESS, switch_time=1)


def test_commit_after_direction_emptied_mid_quiesce():
    # A direction can gain a lane (commit pending) and be emptied again
    # before that commit fires; the commit must not apply a zero rate.
    link, engine = make_link(min_lanes=0)
    link.turn_lane(Direction.EGRESS, switch_time=100)
    for _ in range(9):
        link.turn_lane(Direction.INGRESS, switch_time=1)
        engine.run(until=engine.now + 2)
    assert link.lanes(Direction.EGRESS) == 0
    engine.run()  # the outstanding egress commit fires harmlessly
    assert link.bandwidth(Direction.EGRESS) == 0.0
    assert link.total_lanes == 16


def test_emptied_direction_recovers_on_turn_back():
    link, engine = make_link(min_lanes=0)
    for _ in range(8):
        link.turn_lane(Direction.EGRESS, switch_time=1)
    engine.run()
    link.turn_lane(Direction.INGRESS, switch_time=1)
    engine.run()
    assert link.lanes(Direction.INGRESS) == 1
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(8.0)
    # Traffic flows again.
    assert link.transfer(engine.now, Direction.INGRESS, 8) > engine.now


def test_lane_turn_counts_stat():
    link, engine = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=1)
    engine.run()
    assert link.stats["lane_turns"] == 1


# ---------------------------------------------------------------------------
# switch: the paper's crossbar, as build_fabric builds it (a star fabric)
# ---------------------------------------------------------------------------

def crossbar_fabric(n_sockets, link=LinkConfig()):
    config = replace(scaled_config(n_sockets=n_sockets), link=link)
    return build_fabric(config, Engine())


def test_switch_needs_two_sockets():
    assert build_fabric(scaled_config(n_sockets=1), Engine()) is None
    with pytest.raises(InterconnectError):
        MultiHopFabric(TopologySpec("one", "crossbar", ("gpu0",)), Engine())


def test_switch_rejects_self_route():
    fabric = crossbar_fabric(4)
    with pytest.raises(InterconnectError):
        fabric.send(0, 1, 1, PacketKind.READ_REQUEST)


def test_switch_end_to_end_latency():
    fabric = crossbar_fabric(2)
    # 32B request: 1 cycle on each link + 2 x 64 half-latency.
    arrival = fabric.send(0, 0, 1, PacketKind.READ_REQUEST)
    assert arrival == 1 + 64 + 1 + 64


def test_switch_odd_latency_rounds_each_hop_down():
    fabric = crossbar_fabric(2, LinkConfig(latency=127))
    # Each of the two hops pays 127 // 2 = 63 cycles.
    arrival = fabric.send(0, 0, 1, PacketKind.READ_REQUEST)
    assert arrival == 1 + 63 + 1 + 63


def test_switch_charges_both_links():
    fabric = crossbar_fabric(2)
    fabric.send(0, 0, 1, PacketKind.READ_RESPONSE)
    links = fabric.balancer_links
    assert links[0].stats["egress_bytes"] == DATA_BYTES
    assert links[1].stats["ingress_bytes"] == DATA_BYTES
    assert links[1].stats["egress_bytes"] == 0


def test_switch_total_bytes_counts_once_per_packet():
    fabric = crossbar_fabric(4)
    fabric.send(0, 0, 1, PacketKind.READ_REQUEST)
    fabric.send(0, 2, 3, PacketKind.READ_RESPONSE)
    assert fabric.total_bytes == CONTROL_BYTES + DATA_BYTES


def test_switch_contention_on_shared_ingress():
    """Two sources sending to one destination serialize on its ingress."""
    fabric = crossbar_fabric(3)
    a1 = fabric.send(0, 0, 2, PacketKind.READ_RESPONSE)
    a2 = fabric.send(0, 1, 2, PacketKind.READ_RESPONSE)
    assert a2 > a1


def _edge_traffic(fabric):
    return [
        [edge.stats[key] for key in (
            "egress_bytes", "ingress_bytes",
            "egress_packets", "ingress_packets",
        )]
        for edge in fabric.edges
    ]


@pytest.mark.parametrize("spec", [crossbar(4), ring(4)], ids=lambda s: s.name)
def test_edge_traffic_stats_equal_what_was_sent(spec):
    config = replace(scaled_config(n_sockets=4), topology=spec)
    fabric = build_fabric(config, Engine())
    expected = [[0, 0, 0, 0] for _ in fabric.edges]
    sends = [(0, 1, CONTROL_BYTES), (1, 0, DATA_BYTES), (0, 2, DATA_BYTES),
             (3, 2, CONTROL_BYTES), (2, 0, DATA_BYTES), (3, 1, DATA_BYTES)]
    for t, (src, dst, nbytes) in enumerate(sends):
        fabric.send_bytes(t, src, dst, nbytes)
        for edge, _res, forward, _lat in fabric._programs[src][dst]:
            row = expected[edge.socket_id]
            row[0 if forward else 1] += nbytes
            row[2 if forward else 3] += 1
    assert _edge_traffic(fabric) == expected
    restored = build_fabric(config, Engine())
    restored.restore_state(json.loads(json.dumps(fabric.snapshot_state())))
    assert _edge_traffic(restored) == expected
