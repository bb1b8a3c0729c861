"""Declarative locality-policy specs carried by :class:`SystemConfig`.

A :class:`PlacementSpec` / :class:`CtaSpec` names a registered policy
*kind* plus its tuning parameters. Both are frozen dataclasses of plain
scalars, so :func:`repro.config.config_fingerprint` canonicalizes them
exactly like every other config field — a locality policy can never be
silently dropped from a run's content-addressed identity.

``SystemConfig`` also carries ``placement`` / ``cta_policy`` enums
naming the original policies; a non-``None`` spec *overrides* the
corresponding enum, and ``SystemConfig.placement_kind`` / ``cta_kind``
are the one place that rule is applied. The enums stay because every
config digest (and so every result-cache key and benchmark cell key)
hashes them. The default config carries no specs, which keeps its
fingerprint-derived labels — and the ``tests/golden/hotpath`` goldens —
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Registered page-placement policy kinds. The first four are the
#: historical :class:`repro.config.PlacementPolicy` enum values, ported
#: unchanged into :mod:`repro.locality.placement`; the last two are the
#: distance-aware additions.
PLACEMENT_KINDS = (
    "fine_interleave",
    "page_interleave",
    "first_touch",
    "local_only",
    "distance_weighted_first_touch",
    "access_counter_migration",
)

#: Registered CTA-assignment policy kinds. The first two are the
#: :class:`repro.config.CtaPolicy` enum values; the last is the
#: affinity-aware addition.
CTA_KINDS = (
    "contiguous",
    "interleaved",
    "distance_affine",
)


@dataclass(frozen=True)
class PlacementSpec:
    """One page-placement policy selection plus its tuning knobs.

    ``touch_window`` — every this-many touches of a page,
    ``distance_weighted_first_touch`` re-evaluates the page's
    hop-weighted centroid; ``migration_threshold`` — remote touches from
    one socket that trigger an ``access_counter_migration`` re-home;
    ``max_migrations_per_page`` — re-home cap preventing ping-pong
    (first-touch claims are not counted against it);
    ``read_shared_filter`` — ``access_counter_migration`` only: suppress
    re-homing of pages that are *read-shared* (two or more distinct
    remote readers, zero remote writes since the last homing) — moving
    such a page can never make more than one of its readers local, so
    migration just ping-pongs it between sharers.
    """

    kind: str = "first_touch"
    touch_window: int = 32
    migration_threshold: int = 32
    max_migrations_per_page: int = 2
    read_shared_filter: bool = True

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ConfigError(
                f"unknown placement kind {self.kind!r}; "
                f"known: {sorted(PLACEMENT_KINDS)}"
            )
        if self.touch_window < 2:
            raise ConfigError("touch_window must be >= 2")
        if self.migration_threshold < 1:
            raise ConfigError("migration_threshold must be >= 1")
        if self.max_migrations_per_page < 0:
            raise ConfigError("max_migrations_per_page must be >= 0")


@dataclass(frozen=True)
class CtaSpec:
    """One CTA-assignment policy selection."""

    kind: str = "contiguous"

    def __post_init__(self) -> None:
        if self.kind not in CTA_KINDS:
            raise ConfigError(
                f"unknown CTA policy kind {self.kind!r}; "
                f"known: {sorted(CTA_KINDS)}"
            )
