"""Multi-tenancy: partitioning a NUMA GPU into logical GPUs (Section 6).

The paper's discussion notes that once a large NUMA GPU exists, system
software should be able to expose it as 1-N *logical* GPUs, partitioned
along NUMA boundaries so small kernels keep their locality. This module
implements that runtime feature:

* a :class:`GpuPartition` is a contiguous group of sockets exposed as one
  logical GPU;
* a :class:`PartitionPlan` validates that partitions tile the machine;
* :func:`run_partitioned` runs one workload per partition concurrently on
  a single physical system — each partition's kernels are decomposed only
  across its own sockets, so tenants contend for the switch but never for
  each other's SMs.

The partitioned runtime reuses the standard launcher per partition; a
shared page-table keeps first-touch placement per-tenant local because
tenants only touch their own (offset) address spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.errors import RuntimeLaunchError
from repro.gpu.cta import MemOp, Slice
from repro.runtime.kernel import KernelWork
from repro.runtime.launcher import Launcher

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.metrics.report import RunResult
    from repro.workloads.spec import WorkloadScale, WorkloadSpec


@dataclass(frozen=True)
class GpuPartition:
    """A contiguous range of sockets exposed as one logical GPU."""

    name: str
    first_socket: int
    n_sockets: int

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise RuntimeLaunchError(
                f"partition {self.name!r} needs at least one socket"
            )
        if self.first_socket < 0:
            raise RuntimeLaunchError(
                f"partition {self.name!r} has negative first socket"
            )

    @property
    def sockets(self) -> range:
        """Socket ids belonging to this partition."""
        return range(self.first_socket, self.first_socket + self.n_sockets)


@dataclass(frozen=True)
class PartitionPlan:
    """A validated tiling of the machine into logical GPUs."""

    partitions: tuple[GpuPartition, ...]

    @classmethod
    def even(cls, n_sockets: int, n_partitions: int) -> "PartitionPlan":
        """Split ``n_sockets`` into ``n_partitions`` equal logical GPUs."""
        if n_partitions < 1 or n_sockets % n_partitions:
            raise RuntimeLaunchError(
                f"cannot split {n_sockets} sockets into {n_partitions} "
                "equal partitions"
            )
        per = n_sockets // n_partitions
        return cls(
            tuple(
                GpuPartition(f"lgpu{i}", i * per, per)
                for i in range(n_partitions)
            )
        )

    def validate(self, config: SystemConfig) -> None:
        """Check the partitions tile the machine without overlap."""
        claimed: set[int] = set()
        for part in self.partitions:
            for socket in part.sockets:
                if socket >= config.n_sockets:
                    raise RuntimeLaunchError(
                        f"partition {part.name!r} claims socket {socket} "
                        f"but the system has {config.n_sockets}"
                    )
                if socket in claimed:
                    raise RuntimeLaunchError(
                        f"socket {socket} claimed by two partitions"
                    )
                claimed.add(socket)
        if claimed != set(range(config.n_sockets)):
            missing = sorted(set(range(config.n_sockets)) - claimed)
            raise RuntimeLaunchError(f"sockets {missing} belong to no partition")


@dataclass
class TenantResult:
    """One tenant's completion data from a partitioned run."""

    partition: GpuPartition
    workload: str
    finish_cycle: int
    kernels: int


def _offset_kernels(
    kernels: list[KernelWork], offset_bytes: int
) -> list[KernelWork]:
    """Shift a tenant's address space so tenants never share pages."""
    if offset_bytes == 0:
        return kernels

    def shift(build):
        def build_shifted(cta_index: int) -> list[Slice]:
            return [
                Slice(
                    s.compute_cycles,
                    tuple(MemOp(op.addr + offset_bytes, op.is_write)
                          for op in s.ops),
                )
                for s in build(cta_index)
            ]

        return build_shifted

    return [
        KernelWork(k.name, k.n_ctas, shift(k.build_cta)) for k in kernels
    ]


def run_partitioned(
    config: SystemConfig,
    plan: PartitionPlan,
    workloads: list["WorkloadSpec"],
    scale: "WorkloadScale",
    address_stride: int = 1 << 32,
) -> tuple["RunResult", list[TenantResult]]:
    """Run one workload per partition concurrently on one physical system.

    Returns the whole-system :class:`RunResult` (cycles = last tenant's
    finish) plus per-tenant completion data. Tenants get disjoint address
    spaces ``address_stride`` bytes apart, so first-touch placement keeps
    every tenant's pages inside its own partition.
    """
    from repro.gpu.system import NumaGpuSystem
    from repro.metrics.report import collect_results

    plan.validate(config)
    if len(workloads) != len(plan.partitions):
        raise RuntimeLaunchError(
            f"{len(plan.partitions)} partitions but {len(workloads)} workloads"
        )
    system = NumaGpuSystem(config)
    tenants: list[TenantResult] = []
    pending = len(plan.partitions)
    launchers: list[Launcher] = []

    def make_done(partition: GpuPartition, workload_name: str,
                  launcher_index: int):
        def done() -> None:
            nonlocal pending
            pending -= 1
            launcher = launchers[launcher_index]
            tenants.append(
                TenantResult(
                    partition=partition,
                    workload=workload_name,
                    finish_cycle=system.engine.now,
                    kernels=launcher.stats["kernels_completed"],
                )
            )

        return done

    for index, (partition, workload) in enumerate(
        zip(plan.partitions, workloads)
    ):
        kernels = _offset_kernels(
            workload.build_kernels(scale), index * address_stride
        )
        sockets = [system.sockets[s] for s in partition.sockets]
        launcher = Launcher(
            engine=system.engine,
            sockets=sockets,
            kernels=kernels,
            # The system's wired policy object: distance-affine tenants
            # see the global fabric distances through their own socket
            # subset (assignment is per launcher-socket-list).
            cta_policy=system.cta_policy,
            launch_latency=config.kernel_launch_latency,
            on_workload_done=make_done(partition, workload.name, index),
        )
        launchers.append(launcher)
        launcher.begin()
    system.engine.run()
    if pending:
        raise RuntimeLaunchError("engine drained before all tenants finished")
    # Reuse the standard result collection for system-wide stats; attach
    # the slowest tenant's launcher for kernel counts.
    system._launcher = launchers[0]
    result = collect_results(system, "+".join(w.name for w in workloads))
    system.close()
    return result, tenants
