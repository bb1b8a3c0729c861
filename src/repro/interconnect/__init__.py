"""Inter-GPU interconnect: lanes, links, packets, and the load balancer.

The fabrics that route packets over these links live in
:mod:`repro.topology`.
"""

from repro.interconnect.balancer import LinkBalancer
from repro.interconnect.link import Direction, DuplexLink
from repro.interconnect.packets import (
    CONTROL_BYTES,
    DATA_BYTES,
    PacketKind,
    packet_bytes,
)

__all__ = [
    "LinkBalancer",
    "Direction",
    "DuplexLink",
    "CONTROL_BYTES",
    "DATA_BYTES",
    "PacketKind",
    "packet_bytes",
]
