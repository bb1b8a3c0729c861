"""The paper's contributions: dynamic links, NUMA-aware caches, builders."""

from repro.core.builder import build_system, run_workload_on
from repro.core.link_policy import build_balancers
from repro.core.numa_cache import CachePartitionController

__all__ = [
    "build_system",
    "run_workload_on",
    "build_balancers",
    "CachePartitionController",
]
