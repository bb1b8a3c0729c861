"""The fabric distance model: hop counts and bottleneck bandwidth.

A :class:`DistanceModel` is the *contract* between the interconnect and
the locality policies: per ordered socket pair ``(src, dst)`` it gives
the number of fabric hops a packet crosses and the minimum (bottleneck)
per-direction bandwidth along the chosen route. Every fabric exposes one
via ``distance_model()``:

* the crossbar :class:`repro.interconnect.switch.Switch` returns the
  **identity** model — zero hops on the diagonal, one hop between every
  distinct pair, uniform bandwidth — because a non-blocking switch is
  distance-free by construction (which is also why the distance-aware
  policies degrade *exactly* to their distance-blind ancestors on it);
* :class:`repro.topology.fabric.MultiHopFabric` derives its model from
  the deterministic routing tables of :mod:`repro.topology.routing`, so
  policy decisions are a pure function of the spec.

The model is a frozen snapshot (tuples of tuples): policies read it at
construction/launch, and per-access hot paths index plain tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import LinkConfig
    from repro.topology.routing import RoutingTables
    from repro.topology.spec import TopologySpec


@dataclass(frozen=True)
class DistanceModel:
    """Per-(src, dst) hop counts and bottleneck bandwidth over sockets.

    ``hops[s][d]`` is the number of fabric edge crossings of the chosen
    route (0 on the diagonal); ``min_bandwidth[s][d]`` is the smallest
    per-direction bandwidth (bytes/cycle) among the crossed edges
    (``inf`` on the diagonal — a local access never crosses the fabric).
    """

    hops: tuple[tuple[int, ...], ...]
    min_bandwidth: tuple[tuple[float, ...], ...]

    @property
    def n_sockets(self) -> int:
        """Number of sockets the model covers."""
        return len(self.hops)

    def hop(self, src: int, dst: int) -> int:
        """Edge crossings from ``src`` to ``dst`` (0 when local)."""
        return self.hops[src][dst]

    def bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck per-direction bytes/cycle along the route."""
        return self.min_bandwidth[src][dst]

    def weighted_costs(self) -> tuple[tuple[float, ...], ...]:
        """Hop counts scaled by bottleneck-bandwidth scarcity.

        ``cost[s][d] = hops[s][d] * (ref / min_bandwidth[s][d])`` where
        ``ref`` is the largest finite off-diagonal bottleneck bandwidth
        in the model, so the best-provisioned route is weighted exactly
        by its hop count and a route through a half-width trunk costs
        twice its hops. On a uniform fabric (ring, symmetric mesh, the
        crossbar identity model) every weight is 1.0 and the matrix
        equals the hop matrix — bandwidth-aware policies degrade exactly
        to their hop-weighted behaviour there.

        Degenerate models (no finite positive off-diagonal bandwidth,
        e.g. ``identity()`` built with the 0.0 default) fall back to
        plain hop counts: scarcity is meaningless without a bandwidth
        scale.
        """
        n = self.n_sockets
        finite = [
            bw
            for s in range(n)
            for d in range(n)
            if s != d and 0.0 < (bw := self.min_bandwidth[s][d]) != float("inf")
        ]
        if not finite or min(finite) <= 0.0:
            return tuple(
                tuple(float(h) for h in row) for row in self.hops
            )
        ref = max(finite)
        return tuple(
            tuple(
                0.0 if s == d else self.hops[s][d] * (ref / self.min_bandwidth[s][d])
                for d in range(n)
            )
            for s in range(n)
        )

    def mean_hops(self) -> float:
        """Mean hops over all ordered distinct socket pairs."""
        n = self.n_sockets
        pairs = [
            self.hops[s][d] for s in range(n) for d in range(n) if s != d
        ]
        return sum(pairs) / len(pairs) if pairs else 0.0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n_sockets: int, bandwidth: float = 0.0) -> "DistanceModel":
        """The distance-free model of a non-blocking crossbar.

        Every distinct pair is one (uniform) hop, so hop-weighted policy
        arithmetic reduces to the distance-blind original: all remote
        choices cost the same.
        """
        if n_sockets < 1:
            raise ConfigError("a distance model needs at least one socket")
        hops = tuple(
            tuple(0 if s == d else 1 for d in range(n_sockets))
            for s in range(n_sockets)
        )
        bw = tuple(
            tuple(float("inf") if s == d else bandwidth for d in range(n_sockets))
            for s in range(n_sockets)
        )
        return cls(hops=hops, min_bandwidth=bw)

    @classmethod
    def from_spec(
        cls,
        spec: "TopologySpec",
        edge_links: "tuple[LinkConfig, ...] | None" = None,
        routes: "RoutingTables | None" = None,
    ) -> "DistanceModel":
        """Derive the model from a topology spec's routing tables.

        ``edge_links`` optionally overrides the spec's per-edge
        :class:`~repro.config.LinkConfig`s (the system builder passes
        the *effective* links so ``DOUBLED`` provisioning is visible to
        the model); it must align with ``spec.edges``. ``routes`` are
        the spec's routing tables when the caller already holds them (a
        fabric computed them for its hop programs); by default they are
        computed here.
        """
        from repro.topology.routing import compute_routes

        links = edge_links if edge_links is not None else tuple(
            edge.link for edge in spec.edges
        )
        if len(links) != len(spec.edges):
            raise ConfigError(
                f"{len(links)} edge links for {len(spec.edges)} spec edges"
            )
        index = {node: i for i, node in enumerate(spec.nodes)}
        by_pair: dict[tuple[int, int], float] = {}
        for edge, link in zip(spec.edges, links):
            a, b = index[edge.a], index[edge.b]
            by_pair[(a, b)] = link.direction_bandwidth
            by_pair[(b, a)] = link.direction_bandwidth
        if routes is None:
            routes = compute_routes(spec)
        n = spec.n_sockets
        hops: list[tuple[int, ...]] = []
        min_bw: list[tuple[float, ...]] = []
        for src in range(n):
            hop_row: list[int] = []
            bw_row: list[float] = []
            for dst in range(n):
                if src == dst:
                    hop_row.append(0)
                    bw_row.append(float("inf"))
                    continue
                path = routes.route(src, dst)
                hop_row.append(len(path) - 1)
                bw_row.append(
                    min(by_pair[(u, v)] for u, v in zip(path, path[1:]))
                )
            hops.append(tuple(hop_row))
            min_bw.append(tuple(bw_row))
        return cls(hops=tuple(hops), min_bandwidth=tuple(min_bw))
