"""The multi-hop fabric: topology edges, hop programs, and build_fabric.

:class:`MultiHopFabric` generalizes :class:`repro.interconnect.switch.Switch`
to an arbitrary :class:`~repro.topology.spec.TopologySpec`. Each edge is
an :class:`EdgeLink` — a :class:`~repro.interconnect.link.DuplexLink`
whose *egress* direction is ``a -> b`` (the spec's edge orientation) and
*ingress* is ``b -> a`` — so the Section 4 lane balancer and its
``set_rate`` machinery apply to every edge unchanged, and rebalancing is
naturally **per-edge** rather than per-socket.

Hop programs
------------
Routes are precompiled at construction into a *hop program* per
``(src, dst)`` socket pair: a tuple of flat hop descriptors
``(edge, resource, forward, latency)``, one per edge crossing, resolved
from the deterministic routing tables of :mod:`repro.topology.routing`.
``send_bytes`` unpacks each descriptor and performs the bandwidth
admission inline — no per-hop Python call, route lookup, or tuple
allocation per packet. Prebinding the direction's
:class:`~repro.interconnect.link.BandwidthResource` is safe because
``set_rate`` (lane turns) mutates the resource in place; the resource
objects live for the life of the edge.

Determinism (DESIGN.md, "Topology layer")
-----------------------------------------
All hops of one packet are admitted *at the send event*, each starting at
the previous hop's arrival — the same closed-form convention the crossbar
has always used for its two hops (egress then ingress admitted together
in ``Switch.send_bytes``). The hop program spans only FIFO bandwidth
admissions and pure latency, never a shared-state op (L2 probes, MSHRs,
and fills remain engine events at their exact cycles), so the fused-path
rule that *no state op moves in time* is preserved. A mid-transfer
``set_rate`` (lane turn) only affects *later* admissions: a
``BandwidthResource`` completion is fixed at admission, so quotes never
change retroactively.
"""

from __future__ import annotations

from repro.config import LinkConfig, SystemConfig
from repro.core.link_policy import effective_edge_link, effective_link_config
from repro.errors import ConfigError, InterconnectError
from repro.interconnect.link import Direction, DuplexLink
from repro.interconnect.packets import PacketKind, packet_bytes
from repro.interconnect.switch import Switch
from repro.locality.distance import DistanceModel
from repro.metrics.report import EdgeStats
from repro.obs.hooks import NOOP, register
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup, flatten_slots
from repro.topology.routing import compute_routes
from repro.topology.spec import TopologySpec

# Observability hook point (repro.obs.hooks): one event per routed
# fabric packet, with the route's real hop count.
_obs_fabric_send = NOOP
register(__name__, "_obs_fabric_send", "fabric_send")


class EdgeLink(DuplexLink):
    """One topology edge as a duplex link.

    ``Direction.EGRESS`` carries ``a -> b`` traffic and
    ``Direction.INGRESS`` carries ``b -> a``; ``socket_id`` holds the
    edge index and ``label`` the edge name (series/error names).
    """

    __slots__ = ("a_idx", "b_idx", "a_name", "b_name")

    def __init__(
        self,
        edge_id: int,
        a_idx: int,
        b_idx: int,
        a_name: str,
        b_name: str,
        config: LinkConfig,
        engine: Engine,
    ) -> None:
        super().__init__(edge_id, config, engine, label=f"{a_name}-{b_name}")
        self.a_idx = a_idx
        self.b_idx = b_idx
        self.a_name = a_name
        self.b_name = b_name


class _MonitorPort:
    """Aggregate per-socket bandwidth view over the incident edges.

    The cache partition controller estimates incoming inter-GPU pressure
    against the socket's link capacity; on a multi-hop fabric that
    capacity is the sum over the socket's incident edges of the
    direction pointing at (or away from) the socket.
    """

    __slots__ = ("_toward", "_away")

    def __init__(self, fabric: "MultiHopFabric", socket_id: int) -> None:
        self._toward: list[tuple[EdgeLink, Direction]] = []
        self._away: list[tuple[EdgeLink, Direction]] = []
        for edge in fabric.edges:
            if edge.a_idx == socket_id:
                self._away.append((edge, Direction.EGRESS))
                self._toward.append((edge, Direction.INGRESS))
            elif edge.b_idx == socket_id:
                self._away.append((edge, Direction.INGRESS))
                self._toward.append((edge, Direction.EGRESS))

    def bandwidth(self, direction: Direction) -> float:
        """Aggregate bytes/cycle toward (INGRESS) or from (EGRESS) the socket."""
        pairs = self._toward if direction is Direction.INGRESS else self._away
        return sum(edge.bandwidth(d) for edge, d in pairs)


class MultiHopFabric:
    """A routed interconnect over an arbitrary topology graph."""

    __slots__ = (
        "engine",
        "spec",
        "routes",
        "edges",
        "owners",
        "_edge_links",
        "_programs",
        "_route_hops",
        "_hop_hist",
        "_incident",
        "_stats",
        "n_packets",
        "n_bytes",
    )

    #: slotted counter -> public stats key (see repro.sim.stats).
    _STAT_FIELDS = (
        ("n_packets", "packets"),
        ("n_bytes", "bytes"),
    )

    def __init__(
        self,
        spec: TopologySpec,
        engine: Engine,
        edge_links: tuple[LinkConfig, ...] | None = None,
    ) -> None:
        if spec.n_sockets < 2:
            raise InterconnectError("a fabric needs at least two sockets")
        self.engine = engine
        self.spec = spec
        self.routes = compute_routes(spec)
        if edge_links is None:
            edge_links = tuple(edge.link for edge in spec.edges)
        self._edge_links = edge_links
        index = {node: i for i, node in enumerate(spec.nodes)}
        self.edges = [
            EdgeLink(
                e, index[edge.a], index[edge.b], edge.a, edge.b, link, engine
            )
            for e, (edge, link) in enumerate(zip(spec.edges, edge_links))
        ]
        self.owners: list = [None] * spec.n_sockets
        # Edge lookup by unordered node pair, then per-(src,dst) hop
        # programs: tuples of flat (edge, resource, forward, latency)
        # descriptors, admitted inline by send_bytes.
        by_pair: dict[tuple[int, int], EdgeLink] = {}
        for edge in self.edges:
            by_pair[(edge.a_idx, edge.b_idx)] = edge
            by_pair[(edge.b_idx, edge.a_idx)] = edge
        n = spec.n_sockets
        next_hop = self.routes.next_hop
        programs: list[list[tuple]] = []
        route_hops: list[list[int]] = []
        for src in range(n):
            row: list[tuple] = []
            hops_row: list[int] = []
            for dst in range(n):
                if src == dst:
                    row.append(())
                    hops_row.append(0)
                    continue
                hops = []
                node = src
                while node != dst:
                    peer = next_hop[node][dst]
                    edge = by_pair[(node, peer)]
                    if edge.a_idx == node:
                        hops.append(
                            (edge, edge._res_egress, True, edge.latency)
                        )
                    else:
                        hops.append(
                            (edge, edge._res_ingress, False, edge.latency)
                        )
                    node = peer
                row.append(tuple(hops))
                hops_row.append(len(hops))
            programs.append(row)
            route_hops.append(hops_row)
        self._programs = programs
        self._route_hops = route_hops
        max_hops = max(max(row) for row in route_hops)
        self._hop_hist = [0] * (max_hops + 1)
        self._incident: list[list[tuple[EdgeLink, bool]]] = [
            [] for _ in range(n)
        ]
        for edge in self.edges:
            if edge.a_idx < n:
                self._incident[edge.a_idx].append((edge, True))
            if edge.b_idx < n:
                self._incident[edge.b_idx].append((edge, False))
        self._stats = StatGroup(f"fabric.{spec.name}")
        self.n_packets = 0
        self.n_bytes = 0

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def send(self, now: int, src: int, dst: int, kind: PacketKind) -> int:
        """Route one packet; returns its arrival cycle at ``dst``."""
        return self.send_bytes(now, src, dst, packet_bytes(kind))

    def send_bytes(self, now: int, src: int, dst: int, nbytes: int) -> int:
        """Walk the precompiled hop program; returns the arrival cycle.

        Every hop is admitted here, at the send event, starting at the
        previous hop's arrival (the crossbar's two-hop closed-form
        convention generalized; see the module docstring for why this
        composes with mid-route ``set_rate``). The per-hop admission is
        inlined from :meth:`repro.interconnect.link.DuplexLink.transfer`
        — identical arithmetic and counters; packet sizes are fixed
        positive constants — so a route costs one Python frame no matter
        its hop count.
        """
        if src == dst:
            raise InterconnectError(f"fabric asked to route {src} -> {dst}")
        t = now
        for edge, res, forward, latency in self._programs[src][dst]:
            if forward:
                if edge._lanes_egress == 0:
                    edge._raise_emptied(Direction.EGRESS)
                edge.n_egress_bytes += nbytes
                edge.n_egress_packets += 1
            else:
                if edge._lanes_ingress == 0:
                    edge._raise_emptied(Direction.INGRESS)
                edge.n_ingress_bytes += nbytes
                edge.n_ingress_packets += 1
            next_free = res._next_free
            start = t if t > next_free else next_free
            duration = nbytes / res._rate
            next_free = start + duration
            res._next_free = next_free
            res._busy_granted += duration
            res._bytes_total += nbytes
            res._transfers += 1
            whole = int(next_free)
            done = whole if whole == next_free else whole + 1
            t = done + latency
        self.n_packets += 1
        self.n_bytes += nbytes
        hops = self._route_hops[src][dst]
        self._hop_hist[hops] += 1
        _obs_fabric_send(src, dst, nbytes, now, t, hops)
        return t

    # ------------------------------------------------------------------
    # stats / Fabric interface
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    @property
    def total_bytes(self) -> int:
        """Bytes injected into the fabric (counted once per packet)."""
        return self.n_bytes

    @property
    def balancer_links(self) -> list[EdgeLink]:
        """Every edge; the dynamic policy rebalances lanes per edge."""
        return self.edges

    def monitor_port(self, socket_id: int) -> _MonitorPort:
        """Aggregate bandwidth view of one socket's incident edges."""
        return _MonitorPort(self, socket_id)

    def socket_traffic(self, socket_id: int) -> tuple[int, int, int]:
        """``(egress, ingress, lane_turns)`` summed over incident edges.

        Egress counts bytes *leaving* the socket's node on any incident
        edge (including traffic the node forwards, on topologies where
        sockets route), ingress bytes arriving; lane turns are summed
        over the incident edges, so system-wide totals should use
        :meth:`edge_stats` (each edge touches two nodes).
        """
        egress = ingress = turns = 0
        for edge, is_a in self._incident[socket_id]:
            if is_a:
                egress += edge.n_egress_bytes
                ingress += edge.n_ingress_bytes
            else:
                egress += edge.n_ingress_bytes
                ingress += edge.n_egress_bytes
            turns += edge.n_lane_turns
        return egress, ingress, turns

    def edge_stats(self) -> list[EdgeStats]:
        """Per-edge counters for the metrics layer (RunResult.edges)."""
        return [
            EdgeStats(
                name=edge.label,
                a=edge.a_name,
                b=edge.b_name,
                lanes_ab=edge._lanes_egress,
                lanes_ba=edge._lanes_ingress,
                bytes_ab=edge.n_egress_bytes,
                bytes_ba=edge.n_ingress_bytes,
                packets_ab=edge.n_egress_packets,
                packets_ba=edge.n_ingress_packets,
                lane_turns=edge.n_lane_turns,
            )
            for edge in self.edges
        ]

    def hop_histogram(self) -> dict[int, int]:
        """``{hop count: packets}`` over everything sent so far."""
        return {
            hops: count
            for hops, count in enumerate(self._hop_hist)
            if count
        }

    def distance_model(self) -> DistanceModel:
        """Hop counts and bottleneck bandwidth of the routed topology.

        Derived from the same deterministic routing tables the hop
        programs were compiled from, over the *effective* per-edge links
        (so ``DOUBLED`` provisioning is visible to the locality layer).
        """
        return DistanceModel.from_spec(self.spec, self._edge_links,
                                       routes=self.routes)

    # ------------------------------------------------------------------
    # snapshot / restore (DESIGN.md, "Snapshot & resume contract")
    # ------------------------------------------------------------------
    # Routing tables, hop programs, and incidence lists are compiled from
    # the spec at construction; only the edges and the traffic counters
    # accumulate state.
    _SNAPSHOT_EXEMPT = (
        "engine",
        "spec",
        "routes",
        "owners",
        "_edge_links",
        "_programs",
        "_route_hops",
        "_incident",
        "_stats",
    )

    def snapshot_state(self) -> dict:
        """Per-edge link states, hop histogram, and packet counters."""
        return {
            "edges": [edge.snapshot_state() for edge in self.edges],
            "hop_hist": list(self._hop_hist),
            "packets": self.n_packets,
            "bytes": self.n_bytes,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`, onto a fresh fabric."""
        for edge, edge_state in zip(self.edges, state["edges"]):
            edge.restore_state(edge_state)
        self._hop_hist = [int(n) for n in state["hop_hist"]]
        self.n_packets = int(state["packets"])
        self.n_bytes = int(state["bytes"])


def build_fabric(config: SystemConfig, engine: Engine):
    """The single fabric-or-none decision for one system config.

    This is the one place that rules on the historical construction
    asymmetry (builders accepted ``n_sockets=1`` and silently skipped
    the fabric while ``Switch`` raises for ``n_sockets < 2``): a
    single-socket system has **no fabric** (`None`) — all traffic is
    local by construction — and every multi-socket system gets exactly
    one fabric:

    * no topology, or a ``crossbar`` spec -> the original
      :class:`~repro.interconnect.switch.Switch` (the crossbar fast
      path; byte-identical to the pre-topology simulator, pinned by
      ``tests/golden/hotpath``),
    * any other topology -> :class:`MultiHopFabric`.

    The ``DOUBLED`` link policy scales per-edge lane bandwidth exactly
    as it scaled the per-socket link before
    (:func:`repro.core.link_policy.effective_edge_link`).
    """
    if config.n_sockets < 2:
        return None
    topo = config.topology
    if topo is None:
        return Switch(config.n_sockets, effective_link_config(config), engine)
    if topo.n_sockets != config.n_sockets:  # defense; SystemConfig validates
        raise ConfigError(
            f"topology {topo.name!r} has {topo.n_sockets} sockets, "
            f"config has {config.n_sockets}"
        )
    if topo.kind == "crossbar":
        links = {edge.link for edge in topo.edges}
        if len(links) != 1:
            raise ConfigError(
                "a crossbar topology needs one uniform per-edge LinkConfig "
                "(it maps onto the non-blocking Switch fast path, which "
                "splits one link latency across its two hops)"
            )
        return Switch(
            config.n_sockets,
            effective_edge_link(config, next(iter(links))),
            engine,
        )
    edge_links = tuple(
        effective_edge_link(config, edge.link) for edge in topo.edges
    )
    return MultiHopFabric(topo, engine, edge_links=edge_links)
