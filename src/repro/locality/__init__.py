"""The locality subsystem: topology-aware placement + CTA scheduling.

The paper's central claim (Sections 3-4) is that a NUMA-aware GPU only
works when the *software* locality policy — where pages are homed and
which socket runs which CTA block — cooperates with the interconnect.
Both policy sites were once hardcoded enum chains that could not see
the fabric at all; on multi-hop fabrics that distance-blindness is
exactly the ring/mesh gap the topology driver measures at 8-16 sockets.

This package puts both sites behind one declarative, distance-aware
policy layer. The page table holds a run's placement policy and the
launcher its CTA policy, each directly:

* :mod:`repro.locality.distance` — :class:`DistanceModel`, the hop-count
  and bottleneck-bandwidth matrices every fabric exposes (identity for
  the crossbar, routing-table derived for multi-hop fabrics);
* :mod:`repro.locality.placement` — the page-placement policy registry:
  the four historical policies ported unchanged, plus the distance-aware
  ``distance_weighted_first_touch`` and ``access_counter_migration``;
* :mod:`repro.locality.cta` — the CTA-assignment policy registry:
  ``contiguous`` and ``interleaved`` ported unchanged, plus the
  affinity-aware ``distance_affine``;
* :mod:`repro.locality.spec` — the frozen policy specs
  (:class:`PlacementSpec` / :class:`CtaSpec`) that
  :class:`repro.config.SystemConfig` carries, so a locality policy is
  part of every run's content-addressed identity exactly like a
  topology.

Default-config behaviour (crossbar, ``FIRST_TOUCH``, ``contiguous``) is
byte-identical to the pre-locality simulator; see DESIGN.md, "Locality
layer".
"""

from repro.locality.cta import (
    CTA_POLICIES,
    CtaAssignmentPolicy,
    build_cta_policy,
)
from repro.locality.distance import DistanceModel
from repro.locality.placement import (
    PAGE_POLICIES,
    PagePolicy,
    build_page_policy,
)
from repro.locality.spec import CTA_KINDS, PLACEMENT_KINDS, CtaSpec, PlacementSpec

__all__ = [
    "CTA_KINDS",
    "CTA_POLICIES",
    "CtaAssignmentPolicy",
    "CtaSpec",
    "DistanceModel",
    "PAGE_POLICIES",
    "PLACEMENT_KINDS",
    "PagePolicy",
    "PlacementSpec",
    "build_cta_policy",
    "build_page_policy",
]
