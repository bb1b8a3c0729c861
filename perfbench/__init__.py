"""Study-level benchmark of the NUMA-GPU simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one of the workloads defined in :mod:`perfbench.study` and prints its
metrics; see ``perfbench/README.md``.
"""

#: The benchmark's workloads, in ``BENCHMARK.json`` order.
NAMES = ("paper-grid", "fabric-pool", "deep-dive")

#: The suite's own workload seed (``WorkloadSpec.seed``'s default).
DEFAULT_SEED = 1234
