"""Typed descriptions of CPUs, GPUs and nodes, and of their cost inputs.

All types are immutable value objects, safe to share across threads. Prices
and idle powers are optional: the hardware market moves fast, so anything
cost-related must be declared explicitly and economics code raises
MissingDatumError instead of guessing.

Nodes arrive inside a manifest, validated against the node schema
(``schema.json#/$defs/node``); unknown fields are rejected to catch typos
early.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import MdtuneError, count_error
from .wire import checked

DESKTOP = "desktop"  # rack_units value for desktop-chassis machines


@checked
class GpuSpec(NamedTuple):
    """One GPU board.

    ``base_clock_mhz`` is the core clock the board runs benchmarks at;
    ``max_app_clock_mhz`` is the highest user-selectable application clock,
    set only for boards that support the feature (HPC-class cards).
    """

    model_name: str
    cuda_cores: int
    base_clock_mhz: float
    max_app_clock_mhz: Optional[float] = None
    memory_gb: float = 0.0
    price_eur: Optional[float] = None
    idle_power_w: Optional[float] = None

    def _check(self):
        if type(self.cuda_cores) is not int or self.cuda_cores <= 0:
            raise count_error(f"{self.model_name}: cuda_cores", self.cuda_cores, "positive")
        if self.base_clock_mhz <= 0:
            raise MdtuneError(f"{self.model_name}: base_clock_mhz must be positive")
        if self.max_app_clock_mhz is not None and self.max_app_clock_mhz < self.base_clock_mhz:
            raise MdtuneError(
                f"{self.model_name}: max_app_clock_mhz below base clock"
            )
        return self


@checked
class CpuSpec(NamedTuple):
    model_name: str
    sockets: int
    cores_per_socket: int
    hardware_threads_per_core: int = 1
    base_clock_mhz: float = 0.0

    def _check(self):
        if type(self.sockets) is not int or self.sockets < 1:
            raise count_error(f"{self.model_name}: sockets", self.sockets, ">= 1")
        if type(self.cores_per_socket) is not int or self.cores_per_socket < 1:
            raise count_error(f"{self.model_name}: cores_per_socket", self.cores_per_socket,
                              ">= 1")
        smt = self.hardware_threads_per_core
        if type(smt) is not int or smt not in (1, 2):
            raise count_error(f"{self.model_name}: hardware_threads_per_core", smt, "1 or 2")
        return self

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket


@checked
class NodeSpec(NamedTuple):
    """A compute node: one CPU spec plus an ordered list of GPUs.

    GPU order defines the numeric GPU ids 0..G-1 used in rank-to-GPU
    mapping strings.
    """

    cpu: CpuSpec
    gpus: tuple[GpuSpec, ...] = ()
    node_price_eur: float = 0.0
    interconnect: str = "none"  # one of the node schema's values
    rack_units: int | str = DESKTOP

    WIRE = {"node_price_eur": "node_price"}

    def _check(self):
        if self.node_price_eur < 0:
            raise MdtuneError("node_price_eur must be >= 0")
        if isinstance(self.rack_units, str) and self.rack_units != DESKTOP:
            raise MdtuneError(f"rack_units must be a count or {DESKTOP!r}")
        return self if type(self.gpus) is tuple else self._replace(gpus=tuple(self.gpus))

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)


METER_KWH_PER_300S = "meter_kwh_per_300s"
DIRECT_WATTS = "direct_watts"


@checked
class EconParams(NamedTuple):
    lifetime_years: float = 5.0
    energy_price_eur_per_kwh: float = 0.2  # including cooling

    def _check(self):
        for name, value in zip(self._fields, self):
            if value < 0:
                raise MdtuneError(f"{name} must be >= 0")
        return self


@checked
class PowerReading(NamedTuple):
    """A node power measurement, possibly taken with idle GPUs installed.

    Cards that sit idle in the chassis during a run still draw power; the
    effective draw attributable to the benchmarked configuration subtracts
    (gpus_installed - gpus_active) x idle_gpu_power.
    """

    kind: str
    value: float
    gpus_installed: int = 0
    gpus_active: int = 0
    idle_gpu_power_w: Optional[float] = None

    def _check(self):
        if self.kind not in (METER_KWH_PER_300S, DIRECT_WATTS):
            raise MdtuneError(f"unknown power reading kind {self.kind!r}")
        if type(self.gpus_installed) is not int or self.gpus_installed < 0:
            raise count_error("gpus_installed", self.gpus_installed, ">= 0")
        if type(self.gpus_active) is not int or self.gpus_active < 0:
            raise count_error("gpus_active", self.gpus_active, ">= 0")
        if self.gpus_active > self.gpus_installed:
            raise MdtuneError("gpus_active cannot exceed gpus_installed")
        return self


def sp_throughput(gpu: GpuSpec) -> float:
    """Theoretical single-precision throughput in Gflop/s.

    cuda_cores x clock(MHz) x 2 flops per core and cycle, scaled to Gflop/s.
    Vendor datasheets sometimes quote slightly different figures because they
    assume a different reference clock; this product form is the one used for
    comparing boards to each other.
    """
    return gpu.cuda_cores * gpu.base_clock_mhz * 2.0 / 1000.0


def total_hw_threads(node: NodeSpec, use_ht: bool) -> int:
    """Schedulable hardware threads on a node, with or without hyper-threading."""
    cpu = node.cpu
    per_core = cpu.hardware_threads_per_core if use_ht else 1
    return cpu.sockets * cpu.cores_per_socket * per_core
