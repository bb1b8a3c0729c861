"""Unit tests for the set-associative, class-aware cache."""

import pytest

from repro.config import CacheConfig
from repro.errors import CacheError
from repro.memory.cache import NumaClass, SetAssocCache


def small_cache(ways=4, sets=4, **kwargs):
    config = CacheConfig(capacity_bytes=sets * ways * 128, ways=ways)
    return SetAssocCache("t", config, **kwargs)


def test_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(7)
    cache.fill(7, NumaClass.LOCAL)
    assert cache.lookup(7)


def test_contains_does_not_mutate():
    cache = small_cache()
    cache.fill(1, NumaClass.LOCAL)
    assert cache.contains(1)
    assert cache.stats["read_hits"] == 0


def test_lru_eviction_within_set():
    cache = small_cache(ways=2, sets=1)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.LOCAL)
    cache.lookup(0)  # 0 is now MRU
    evicted = cache.fill(2, NumaClass.LOCAL)
    assert evicted is not None and evicted.line == 1
    assert cache.contains(0) and cache.contains(2)


def test_fill_existing_line_is_refresh_not_eviction():
    cache = small_cache(ways=2, sets=1)
    cache.fill(0, NumaClass.LOCAL)
    assert cache.fill(0, NumaClass.LOCAL) is None
    assert cache.valid_lines == 1


def test_lines_map_to_sets_by_modulo():
    cache = small_cache(ways=1, sets=4)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.LOCAL)
    cache.fill(4, NumaClass.LOCAL)  # same set as 0
    assert not cache.contains(0)
    assert cache.contains(1)
    assert cache.contains(4)


def test_dirty_fill_and_dirty_eviction():
    cache = small_cache(ways=1, sets=1)
    cache.fill(0, NumaClass.LOCAL, dirty=True)
    evicted = cache.fill(1, NumaClass.LOCAL)
    assert evicted.dirty
    assert cache.stats["dirty_evictions"] == 1


def test_write_hit_sets_dirty():
    cache = small_cache()
    cache.fill(0, NumaClass.LOCAL)
    cache.lookup(0, write=True)
    dirty = cache.invalidate_all()
    assert [e.line for e in dirty] == [0]


def test_write_through_cache_never_dirty():
    cache = small_cache(write_through=True)
    cache.fill(0, NumaClass.LOCAL)
    cache.lookup(0, write=True)
    assert cache.invalidate_all() == []


def test_invalidate_all_empties_cache():
    cache = small_cache()
    for line in range(8):
        cache.fill(line, NumaClass.LOCAL)
    cache.invalidate_all()
    assert cache.valid_lines == 0
    assert cache.stats["lines_invalidated"] == 8


def test_invalidate_class_only_touches_that_class():
    cache = small_cache()
    cache.fill(0, NumaClass.LOCAL, dirty=True)
    cache.fill(1, NumaClass.REMOTE, dirty=True)
    dirty = cache.invalidate_class(NumaClass.REMOTE)
    assert [e.line for e in dirty] == [1]
    assert cache.contains(0)
    assert not cache.contains(1)


def test_drop_removes_line_without_writeback():
    cache = small_cache()
    cache.fill(0, NumaClass.REMOTE, dirty=True)
    assert cache.drop(0)
    assert not cache.contains(0)
    assert not cache.drop(0)


def test_occupancy_by_class():
    cache = small_cache()
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.REMOTE)
    cache.fill(2, NumaClass.REMOTE)
    occ = cache.occupancy()
    assert occ[NumaClass.LOCAL] == 1
    assert occ[NumaClass.REMOTE] == 2


def test_hit_rate():
    cache = small_cache()
    cache.fill(0, NumaClass.LOCAL)
    cache.lookup(0)
    cache.lookup(1)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_hit_rate_untouched_cache_is_zero():
    assert small_cache().hit_rate() == 0.0


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_quota_must_sum_to_ways():
    cache = small_cache()
    with pytest.raises(CacheError):
        cache.set_quotas(3, 3)


def test_quota_starvation_rejected():
    cache = small_cache()
    with pytest.raises(CacheError):
        cache.set_quotas(4, 0)


def test_partition_respected_on_fill():
    cache = small_cache(ways=4, sets=1, local_ways=2, remote_ways=2)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.LOCAL)
    # Third local fill must evict a local line, not grow past its quota.
    cache.fill(2, NumaClass.LOCAL)
    occ = cache.occupancy()
    assert occ[NumaClass.LOCAL] == 2
    assert occ[NumaClass.REMOTE] == 0


def test_partition_victim_is_lru_of_own_class():
    cache = small_cache(ways=4, sets=1, local_ways=2, remote_ways=2)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.LOCAL)
    cache.lookup(0)
    evicted = cache.fill(2, NumaClass.LOCAL)
    assert evicted.line == 1


def test_lazy_eviction_on_repartition():
    """Shrinking a quota never evicts; lines leave only on later fills."""
    cache = small_cache(ways=4, sets=1, local_ways=2, remote_ways=2)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.LOCAL)
    cache.set_quotas(1, 3)
    assert cache.contains(0) and cache.contains(1)  # lazy: both remain
    # All ways are consulted on lookup, so both still hit.
    assert cache.lookup(0) and cache.lookup(1)
    # Remote fills use invalid frames first (lazier still)...
    cache.fill(10, NumaClass.REMOTE)
    cache.fill(11, NumaClass.REMOTE)
    assert cache.occupancy()[NumaClass.LOCAL] == 2
    # ...and reclaim from the over-quota local group once frames run out.
    cache.fill(12, NumaClass.REMOTE)
    occ = cache.occupancy()
    assert occ[NumaClass.LOCAL] == 1
    assert occ[NumaClass.REMOTE] == 3


def test_over_quota_class_is_preferred_victim():
    cache = small_cache(ways=4, sets=1, local_ways=2, remote_ways=2)
    for line in range(4):
        cache.fill(line, NumaClass.LOCAL if line < 2 else NumaClass.REMOTE)
    cache.set_quotas(3, 1)  # remote now over quota
    cache.fill(4, NumaClass.LOCAL)
    occ = cache.occupancy()
    assert occ[NumaClass.REMOTE] == 1
    assert occ[NumaClass.LOCAL] == 3


def test_invalid_frames_used_before_eviction():
    cache = small_cache(ways=4, sets=1, local_ways=2, remote_ways=2)
    cache.fill(0, NumaClass.LOCAL)
    evicted = cache.fill(1, NumaClass.REMOTE)
    assert evicted is None


def test_unpartitioned_cache_ignores_class_quota():
    cache = small_cache(ways=2, sets=1)
    cache.fill(0, NumaClass.REMOTE)
    cache.fill(1, NumaClass.REMOTE)
    occ = cache.occupancy()
    assert occ[NumaClass.REMOTE] == 2


def test_repartition_counts_stat():
    cache = small_cache(ways=4, sets=1, local_ways=2, remote_ways=2)
    before = cache.stats["repartitions"]
    cache.set_quotas(3, 1)
    assert cache.stats["repartitions"] == before + 1


def test_capacity_never_exceeded():
    cache = small_cache(ways=4, sets=4)
    for line in range(100):
        cache.fill(line, NumaClass.LOCAL if line % 2 else NumaClass.REMOTE)
    assert cache.valid_lines <= 16


def test_partitioned_capacity_never_exceeded():
    cache = small_cache(ways=4, sets=4, local_ways=1, remote_ways=3)
    for line in range(100):
        cache.fill(line, NumaClass.LOCAL if line % 3 else NumaClass.REMOTE)
    assert cache.valid_lines <= 16


# ----------------------------------------------------------------------
# invalidate_class x quotas / LRU (Static R$ flush semantics)
# ----------------------------------------------------------------------

def partitioned_cache(ways=4, sets=2, local_ways=2, remote_ways=2):
    config = CacheConfig(capacity_bytes=sets * ways * 128, ways=ways)
    return SetAssocCache("p", config, local_ways=local_ways,
                         remote_ways=remote_ways)


def test_invalidate_class_flushes_only_that_class():
    cache = partitioned_cache(sets=1)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(1, NumaClass.LOCAL)
    cache.fill(2, NumaClass.REMOTE)
    cache.fill(3, NumaClass.REMOTE)
    cache.invalidate_class(NumaClass.REMOTE)
    occ = cache.occupancy()
    assert occ[NumaClass.REMOTE] == 0
    assert occ[NumaClass.LOCAL] == 2
    assert cache.contains(0) and cache.contains(1)
    assert not cache.contains(2) and not cache.contains(3)


def test_invalidate_class_returns_only_dirty_lines_of_that_class():
    cache = partitioned_cache(sets=1)
    cache.fill(0, NumaClass.LOCAL, dirty=True)
    cache.fill(2, NumaClass.REMOTE, dirty=True)
    cache.fill(3, NumaClass.REMOTE, dirty=False)
    dirty = cache.invalidate_class(NumaClass.REMOTE)
    assert [e.line for e in dirty] == [2]
    assert all(e.numa_class is NumaClass.REMOTE and e.dirty for e in dirty)
    # The dirty local line is untouched and still resident.
    assert cache.contains(0)
    assert cache.stats["lines_invalidated"] == 2


def test_fills_after_class_flush_reclaim_freed_frames_first():
    # After a REMOTE flush the freed frames are invalid: new fills of
    # either class must take them before evicting any surviving line.
    cache = partitioned_cache(sets=1)
    for line, cls in ((0, NumaClass.LOCAL), (1, NumaClass.LOCAL),
                      (2, NumaClass.REMOTE), (3, NumaClass.REMOTE)):
        cache.fill(line, cls)
    cache.invalidate_class(NumaClass.REMOTE)
    assert cache.fill(4, NumaClass.REMOTE) is None  # invalid frame, no victim
    assert cache.fill(5, NumaClass.REMOTE) is None
    occ = cache.occupancy()
    assert occ[NumaClass.LOCAL] == 2 and occ[NumaClass.REMOTE] == 2


def test_quota_steering_resumes_after_class_flush():
    # Once the remote class re-fills to its quota, the next remote fill
    # evicts the remote LRU, never a local line (lazy-eviction rule).
    cache = partitioned_cache(sets=1, local_ways=2, remote_ways=2)
    for line, cls in ((0, NumaClass.LOCAL), (1, NumaClass.LOCAL),
                      (2, NumaClass.REMOTE), (3, NumaClass.REMOTE)):
        cache.fill(line, cls)
    cache.invalidate_class(NumaClass.REMOTE)
    cache.fill(4, NumaClass.REMOTE)
    cache.fill(6, NumaClass.REMOTE)
    cache.lookup(4)  # 4 becomes remote MRU; 6 is remote LRU
    evicted = cache.fill(8, NumaClass.REMOTE)
    assert evicted is not None and evicted.line == 6
    assert cache.contains(0) and cache.contains(1)


def test_class_flush_then_repartition_counts_stay_consistent():
    # Flush + quota moves must leave victim selection consistent: after
    # shrinking the remote quota to 1, a remote fill into a full set
    # evicts the remote LRU rather than stealing a local way.
    cache = partitioned_cache(sets=1, local_ways=2, remote_ways=2)
    for line, cls in ((0, NumaClass.LOCAL), (1, NumaClass.LOCAL),
                      (2, NumaClass.REMOTE), (3, NumaClass.REMOTE)):
        cache.fill(line, cls)
    cache.invalidate_class(NumaClass.REMOTE)
    cache.set_quotas(3, 1)
    cache.fill(4, NumaClass.REMOTE)
    cache.fill(6, NumaClass.REMOTE)  # second remote fill: over quota now
    evicted = cache.fill(8, NumaClass.REMOTE)
    assert evicted is not None
    assert evicted.numa_class is NumaClass.REMOTE
    assert cache.contains(0) and cache.contains(1)


def test_runtime_partitioning_of_unpartitioned_cache_rebuilds_counts():
    # An unpartitioned cache partitioned mid-run (set_quotas) must see
    # correct per-class occupancy for its first partitioned victim pick.
    cache = small_cache(ways=4, sets=1)
    for line, cls in ((0, NumaClass.LOCAL), (1, NumaClass.LOCAL),
                      (2, NumaClass.REMOTE), (3, NumaClass.REMOTE)):
        cache.fill(line, cls)
    cache.set_quotas(3, 1)
    # Remote already holds >= its new quota: the incoming remote line
    # must evict the remote LRU (line 2), not any local line.
    evicted = cache.fill(6, NumaClass.REMOTE)
    assert evicted is not None and evicted.line == 2
    assert cache.contains(0) and cache.contains(1) and cache.contains(3)


# ---------------------------------------------------------------------------
# on-demand frames vs a whole-set reference model
# ---------------------------------------------------------------------------

class _RefCache:
    """Reference model: whole sets allocated up front, timestamp LRU.

    Implements the documented victim rule directly — first invalid frame
    in set order, LRU by last-use tick, class quotas under partitioning —
    with none of the real cache's recency lists or on-demand frames.
    """

    def __init__(self, ways, sets, local_ways=None, write_through=False):
        self.ways = ways
        self.n_sets = sets
        self.write_through = write_through
        self.frames = [[None] * ways for _ in range(sets)]  # [line, cls, dirty, tick]
        self.tick = 0
        self.touched = set()  # sets that ever took a fill (allocated)
        self.partitioned = local_ways is not None
        self.quota = [ways, ways] if local_ways is None else [local_ways, ways - local_ways]
        self.c = dict.fromkeys(
            ("read_hits", "read_misses", "write_hits", "write_misses", "fills",
             "evictions", "dirty_evictions", "drops", "invalidations",
             "lines_invalidated", "repartitions"), 0)
        if local_ways is not None:
            self.c["repartitions"] = 1

    def _find(self, line):
        for frame in self.frames[line % self.n_sets]:
            if frame is not None and frame[0] == line:
                return frame
        return None

    def _touch(self, frame):
        self.tick += 1
        frame[3] = self.tick

    def _lru(self, frames, cls=None):
        valid = [(f[3], i) for i, f in enumerate(frames)
                 if f is not None and (cls is None or f[1] == cls)]
        return min(valid)[1]

    def _victim(self, frames, cls):
        count = [sum(1 for f in frames if f is not None and f[1] == c) for c in (0, 1)]
        if self.partitioned and count[cls] >= self.quota[cls]:
            return self._lru(frames, cls)
        for i, frame in enumerate(frames):
            if frame is None:
                return i
        other = 1 - cls
        if self.partitioned and count[other] > self.quota[other]:
            return self._lru(frames, other)
        return self._lru(frames)

    def lookup(self, line, write):
        frame = self._find(line)
        kind = "write" if write else "read"
        if frame is None:
            self.c[kind + "_misses"] += 1
            return False
        self._touch(frame)
        if write and not self.write_through:
            frame[2] = True
        self.c[kind + "_hits"] += 1
        return True

    def fill(self, line, cls, dirty):
        """Returns (line, cls, dirty) of an evicted valid line, else None."""
        frame = self._find(line)
        if frame is not None:
            self._touch(frame)
            frame[2] = frame[2] or dirty
            return None
        frames = self.frames[line % self.n_sets]
        index = self._victim(frames, cls)
        old = frames[index]
        evicted = None
        if old is not None:
            evicted = (old[0], old[1], old[2])
            self.c["evictions"] += 1
            self.c["dirty_evictions"] += old[2]
        frames[index] = [line, cls, dirty, 0]
        self._touch(frames[index])
        self.c["fills"] += 1
        return evicted

    def refill(self, line, cls):
        frame = self._find(line)
        if frame is not None:
            self._touch(frame)
            return
        self.fill(line, cls, False)

    def drop(self, line):
        frames = self.frames[line % self.n_sets]
        for i, frame in enumerate(frames):
            if frame is not None and frame[0] == line:
                frames[i] = None
                self.c["drops"] += 1
                return True
        return False

    def invalidate(self, cls=None):
        dirty = []
        count = 0
        for frames in self.frames:
            for i, frame in enumerate(frames):
                if frame is None or (cls is not None and frame[1] != cls):
                    continue
                count += 1
                if frame[2]:
                    dirty.append((frame[0], frame[1], True))
                frames[i] = None
        self.c["invalidations"] += 1
        self.c["lines_invalidated"] += count
        return dirty

    def set_quotas(self, local_ways, remote_ways):
        self.partitioned = True
        self.quota = [local_ways, remote_ways]
        self.c["repartitions"] += 1

    def snapshot_sets(self):
        """(set_idx, frames, order) for every set that ever held a line."""
        out = []
        for set_idx, frames in enumerate(self.frames):
            if set_idx not in self.touched:
                continue
            out.append([
                set_idx,
                [None if f is None else [f[0], f[1], f[2]] for f in frames],
                [i for _, i in sorted((f[3], i) for i, f in enumerate(frames)
                                      if f is not None)],
            ])
        return out


def _evicted(record):
    if record is None:
        return None
    return (record.line, record.numa_class.value, record.dirty)


def _random_ops(rng, n_ops, n_lines, ways):
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        line = rng.randrange(n_lines)
        cls = rng.randrange(2)
        if roll < 0.25:
            ops.append(("fill", line, cls, rng.random() < 0.4))
        elif roll < 0.5:
            ops.append(("fill_fast", line, cls, rng.random() < 0.4))
        elif roll < 0.65:
            ops.append(("refill", line, cls))
        elif roll < 0.8:
            ops.append(("lookup", line, rng.random() < 0.3))
        elif roll < 0.9:
            ops.append(("drop", line))
        elif roll < 0.94:
            ops.append(("invalidate_class", cls))
        elif roll < 0.96:
            ops.append(("invalidate_all",))
        else:
            local = rng.randrange(1, ways)
            ops.append(("set_quotas", local, ways - local))
    return ops


def _apply(cache, ref, op):
    """Run one op on both caches; assert identical observable outcomes."""
    kind = op[0]
    if kind == "fill":
        _, line, cls, dirty = op
        ref.touched.add(line % ref.n_sets)
        got = _evicted(cache.fill(line, NumaClass(cls), dirty=dirty))
        assert got == ref.fill(line, cls, dirty)
    elif kind == "fill_fast":
        _, line, cls, dirty = op
        ref.touched.add(line % ref.n_sets)
        want = ref.fill(line, cls, dirty)
        packed = -1 if want is None or not want[2] else (want[0] << 1) | want[1]
        assert cache.fill_fast(line, cls, dirty) == packed
    elif kind == "refill":
        _, line, cls = op
        ref.touched.add(line % ref.n_sets)
        cache.refill(line, NumaClass(cls))
        ref.refill(line, cls)
    elif kind == "lookup":
        _, line, write = op
        assert cache.lookup(line, write=write) == ref.lookup(line, write)
    elif kind == "drop":
        assert cache.drop(op[1]) == ref.drop(op[1])
    elif kind == "invalidate_class":
        got = cache.invalidate_class(NumaClass(op[1]))
        assert [_evicted(e) for e in got] == ref.invalidate(op[1])
    elif kind == "invalidate_all":
        assert [_evicted(e) for e in cache.invalidate_all()] == ref.invalidate()
    else:
        _, local, remote = op
        cache.set_quotas(local, remote)
        ref.set_quotas(local, remote)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("partitioned", [False, True])
def test_on_demand_frames_match_whole_set_reference(seed, partitioned):
    import random

    rng = random.Random(seed)
    ways, sets = 4, 4
    local = 2 if partitioned else None
    cache = small_cache(ways=ways, sets=sets, local_ways=local)
    ref = _RefCache(ways, sets, local_ways=local)
    for op in _random_ops(rng, 400, n_lines=40, ways=ways):
        _apply(cache, ref, op)
        assert {k: getattr(cache, "n_" + k) for k in ref.c} == ref.c
        # Frame placement (lowest-index free frame) and recency order
        # match the whole-set model exactly.
        assert cache.snapshot_state()["sets"] == ref.snapshot_sets()
    assert cache.valid_lines == sum(
        f is not None for frames in ref.frames for f in frames
    )


def _built(cache, set_idx):
    return sum(way is not None for way in cache._sets[set_idx])


def test_frames_are_built_one_way_per_fill():
    cache = small_cache(ways=4, sets=2)
    cache.fill(0, NumaClass.LOCAL)
    cache.fill(2, NumaClass.LOCAL)
    assert _built(cache, 0) == 2 and cache._sets[1] is None
    cache.drop(0)
    cache.fill(4, NumaClass.REMOTE)  # reuses the freed frame 0
    assert _built(cache, 0) == 2
    assert cache.snapshot_state()["sets"][0][1][0] == [4, 1, False]


def test_partial_set_snapshots_padded_and_round_trips():
    import json

    cache = small_cache(ways=4, sets=2)
    cache.fill(0, NumaClass.LOCAL, dirty=True)
    cache.fill(2, NumaClass.REMOTE)
    cache.fill(4, NumaClass.LOCAL)
    cache.drop(2)
    state = cache.snapshot_state()
    # Three frames built, the middle one freed; the fourth way was never
    # built and serializes as an invalid frame, like the freed one.
    assert _built(cache, 0) == 3
    assert state["sets"] == [[0, [[0, 0, True], None, [4, 0, False], None], [0, 2]]]
    restored = small_cache(ways=4, sets=2)
    restored.restore_state(json.loads(json.dumps(state)))
    assert _built(restored, 0) == 2  # only the valid frames
    assert json.dumps(restored.snapshot_state()) == json.dumps(state)
    # The restored set and the original keep choosing the same frames
    # and victims, though each built a different set of frames.
    for line in (6, 8, 10, 12, 14):
        assert _evicted(restored.fill(line, NumaClass.REMOTE)) == _evicted(
            cache.fill(line, NumaClass.REMOTE))
    assert json.dumps(restored.snapshot_state()) == json.dumps(
        cache.snapshot_state())
