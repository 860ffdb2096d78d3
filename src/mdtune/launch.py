"""Enumeration, validation, and rendering of candidate launch configurations.

A launch configuration fixes how an MD engine run is started on one or more
nodes: how many ranks, how many OpenMP threads per rank, how many of the
ranks do the long-range mesh work, how ranks map onto GPUs, and a few
engine toggles (dynamic load balancing, neighbor-search interval,
hyper-threading). Everything here is a pure function over immutable inputs.

``enumerate_plan`` is the one enumerator of a node's candidates, and every
config it returns fits the node by construction. ``validate_config`` checks
a config from anywhere else, such as a plan file, against a node.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InvalidConfigError, count_error
from .hardware import NodeSpec, total_hw_threads
from .wire import checked, dumps, from_doc, read, validate

# Separate-PME rank counts are tried at these fractions of the total rank
# count, rounded and deduplicated.
PME_FRACTIONS = (1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2)

# A rank-to-GPU map is a digit string, so at most 10 GPUs can be addressed.
MAX_MAPPED_GPUS = 10

DLB_VALUES = ("on", "off", "auto")
MAX_NSTLIST = 2147483647  # the largest C int: the engine reads -nstlist as one
MAX_MESH_POINTS = 10_000  # box_nm / spacing0_nm per dimension; past it, sizing takes minutes


@checked
class LaunchConfig(NamedTuple):
    """One candidate run.

    ``n_rank`` counts all ranks across all nodes, ``n_pme`` of which are
    dedicated long-range mesh ranks. ``n_th`` is OpenMP threads per
    particle-particle rank; 0 means "let the engine fill the node".
    ``gpu_id`` maps the per-node PP ranks onto numeric GPU ids, one digit
    per rank, empty when no GPUs are used.
    """

    n_rank: int
    n_th: int = 0
    n_pme: int = 0
    n_th_pme: Optional[int] = None
    dlb: str = "auto"
    gpu_id: str = ""
    use_ht: bool = False
    nstlist: Optional[int] = None
    dd_grid: Optional[tuple[int, int, int]] = None
    nodes: int = 1

    def _check(self):
        n_rank, n_th, n_pme, n_th_pme, dlb, gpu_id, use_ht, nstlist, dd_grid, nodes = self
        if type(n_rank) is not int or n_rank < 1:
            raise count_error("n_rank", n_rank, ">= 1")
        if type(n_th) is not int or n_th < 0:
            raise count_error("n_th", n_th, ">= 0")
        if n_th_pme is not None and (type(n_th_pme) is not int or n_th_pme < 1):
            raise count_error("n_th_pme", n_th_pme, ">= 1")
        if nstlist is not None and (type(nstlist) is not int or not 1 <= nstlist <= MAX_NSTLIST):
            raise count_error("nstlist", nstlist, f"in [1, {MAX_NSTLIST}]")
        if type(n_pme) is not int or not 0 <= n_pme < n_rank:
            raise count_error("n_pme", n_pme, "in [0, n_rank)")
        if dlb not in DLB_VALUES:
            raise InvalidConfigError(f"dlb must be one of {DLB_VALUES}")
        if type(nodes) is not int or nodes < 1:
            raise count_error("nodes", nodes, ">= 1")
        if type(use_ht) is not bool:  # 1 would pass, and alias True in a memo key
            raise InvalidConfigError(f"use_ht must be True or False, not {use_ht!r}")
        if gpu_id.strip("0123456789"):  # str.isdigit also takes "²" and "٠"
            raise InvalidConfigError("gpu_id must be a string of the digits 0-9")
        if dd_grid is not None and (len(dd_grid) != 3 or min(dd_grid) < 1):
            raise InvalidConfigError("dd_grid must be three counts >= 1")
        if dd_grid is not None and {*map(type, dd_grid)} != {int}:
            raise InvalidConfigError(f"dd_grid must be integers, not {dd_grid!r}")
        if dd_grid is None or type(dd_grid) is tuple:
            return self
        return self._replace(dd_grid=tuple(dd_grid))

    @property
    def n_pp(self) -> int:
        return self.n_rank - self.n_pme


def rank_threads(config: LaunchConfig, node: NodeSpec) -> tuple[int, int, int]:
    """The thread budget of one node, and OpenMP threads per PP and per PME rank.

    ``n_th`` = 0 spreads the budget of all nodes evenly over the ranks; an
    unset ``n_th_pme`` means ``n_th``.
    """
    budget = total_hw_threads(node, config.use_ht)
    n_th = config.n_th or budget * config.nodes // config.n_rank
    return budget, n_th, config.n_th_pme or n_th


def validate_config(config: LaunchConfig, node: NodeSpec) -> tuple[int, int, int]:
    """Check a config against a node; raises InvalidConfigError on violation.

    A config uses the GPUs its gpu_id names, any subset of the node's: one
    digit per PP rank on a node, each below the node's GPU count. Returns
    what ``rank_threads`` gives for the config, which the check computes.
    """
    if config.n_rank % config.nodes != 0:
        raise InvalidConfigError(
            f"{config.n_rank} ranks do not divide evenly over {config.nodes} nodes"
        )
    budget, n_th, pme_th = rank_threads(config, node)
    used = (config.n_rank - config.n_pme) * n_th + config.n_pme * pme_th
    if used > budget * config.nodes:
        raise InvalidConfigError(
            f"thread budget exceeded: {used} threads > {budget} per node x {config.nodes} nodes"
        )
    pp_per_node = (config.n_rank - config.n_pme) // config.nodes
    if config.gpu_id:
        if len(config.gpu_id) != pp_per_node:
            raise InvalidConfigError(
                f"gpu_id length {len(config.gpu_id)} != {pp_per_node} PP ranks per node"
            )
        if int(max(config.gpu_id)) >= node.n_gpus:
            raise InvalidConfigError(
                f"gpu_id references GPU {max(config.gpu_id)}; the node has {node.n_gpus} GPU(s)"
            )
    if config.dd_grid is not None:
        nx, ny, nz = config.dd_grid
        if nx * ny * nz != config.n_rank - config.n_pme:
            raise InvalidConfigError(
                f"DD grid {config.dd_grid} does not factor {config.n_rank - config.n_pme} PP ranks"
            )
    if n_th < 1:
        raise InvalidConfigError(
            f"{config.n_rank} ranks exceed {budget} threads per node x {config.nodes} nodes"
        )
    return budget, n_th, pme_th


def gpu_id_string(n_gpus: int, n_pp_ranks: int) -> str:
    """Map ``n_pp_ranks`` ranks onto ``n_gpus`` GPUs as a digit string.

    Rank i gets GPU floor(i * n_gpus / n_pp_ranks): ids come out
    non-decreasing, every GPU appears, and group sizes differ by at most
    one. (2, 6) -> "000111", (4, 10) -> "0001122233".
    """
    if n_gpus < 1:
        raise InvalidConfigError("need at least one GPU to build a gpu_id string")
    if n_gpus > MAX_MAPPED_GPUS:
        raise InvalidConfigError(
            f"cannot address {n_gpus} GPUs with single-digit ids (max {MAX_MAPPED_GPUS})"
        )
    if n_pp_ranks < n_gpus:
        raise InvalidConfigError(
            f"{n_pp_ranks} PP ranks < {n_gpus} GPUs (one rank per GPU required)"
        )
    return "".join(str(i * n_gpus // n_pp_ranks) for i in range(n_pp_ranks))


class SweepOptions(NamedTuple):
    """Knobs for single-node enumeration, and the runs per config.

    ``gpus_active=None`` uses every GPU of the node; ``ht=None`` tries both
    settings when the CPU has hyper-threading. ``dlb=None`` picks the
    engine-appropriate default set (on+off with GPUs, on without).
    ``repeats`` is how often a sweep runs each config; enumeration ignores it.
    """

    gpus_active: Optional[int] = None
    ht: Optional[Sequence[bool]] = None
    dlb: Optional[Sequence[str]] = None
    nstlist: Sequence[Optional[int]] = (None,)
    pme_variants: bool = True
    repeats: int = 2


def enumerate_plan(
    node: NodeSpec, options: SweepOptions = SweepOptions(), nodes: int = 1
) -> list[LaunchConfig]:
    """The full candidate plan for a node type, every config valid on it.

    First the single-node scan: for each hyper-threading setting the thread
    budget N is factored into every (ranks, threads) pair with ranks *
    threads = N, keeping only configurations with at least one rank per
    active GPU. This covers the three classic scans: all-ranks (N, 1),
    all-threads (1, N), and the hybrid combinations in between. On big
    CPU-only nodes (N >= 20), separate-PME variants are added for the
    rank-heavy configurations. GPU candidates are emitted with load
    balancing both on and off, since either can win depending on the system.

    Then, when GPUs are in play, the homogeneous interleaved-PME layouts over
    ``nodes`` nodes. The engine's default rank placement interleaves PP and
    PME ranks, so with two ranks per GPU on each node, half of them on mesh
    duty, each node gets one PP rank per GPU and the gpu_id "01...". They
    come with an even and a mesh-heavy thread split.
    """
    n_gpus = node.n_gpus if options.gpus_active is None else options.gpus_active
    if type(n_gpus) is not int:
        raise count_error("gpus_active", n_gpus, "an integer")
    if not 0 <= n_gpus <= node.n_gpus:
        raise InvalidConfigError(
            f"requested {n_gpus} active GPUs but node has {node.n_gpus}"
        )
    if type(nodes) is not int or nodes < 1:
        raise count_error("nodes", nodes, ">= 1")
    if options.ht is not None:
        ht_settings = tuple(options.ht)
    else:
        ht_settings = (False, True) if node.cpu.hardware_threads_per_core > 1 else (False,)
    if options.dlb is not None:
        dlb_settings = tuple(options.dlb)
    else:
        dlb_settings = ("on", "off") if n_gpus else ("on",)

    configs: list[LaunchConfig] = []
    for use_ht in ht_settings:
        budget = total_hw_threads(node, use_ht)
        for n_rank in range(budget, 0, -1):
            if budget % n_rank or n_rank < n_gpus:
                continue
            gpu_id = gpu_id_string(n_gpus, n_rank) if n_gpus else ""
            pme_counts = [0]
            if options.pme_variants and not n_gpus and budget >= 20 and n_rank >= 8:
                # every fraction of 8 or more ranks rounds into [1, n_rank / 2]
                pme_counts += sorted({round(n_rank * f) for f in PME_FRACTIONS})
            # Fields by position: keywords cost a dict through ``checked``'s wrapper.
            for n_pme in pme_counts:
                for dlb in dlb_settings:
                    for nstlist in options.nstlist:
                        configs.append(LaunchConfig(n_rank, budget // n_rank, n_pme, None, dlb,
                                                    gpu_id, use_ht, nstlist))
    if not n_gpus or not options.pme_variants:
        return configs
    for use_ht in ht_settings:
        n_th = total_hw_threads(node, use_ht) // (2 * n_gpus)
        if n_th < 1:
            continue
        splits = [(n_th, n_th)]
        if n_th >= 2:
            splits.append((n_th - 1, n_th + 1))  # shift CPU power to the mesh
        for pp_th, pme_th in splits:
            for nstlist in options.nstlist:
                configs.append(LaunchConfig(2 * n_gpus * nodes, pp_th, n_gpus * nodes, pme_th,
                                            "auto", gpu_id_string(n_gpus, n_gpus), use_ht,
                                            nstlist, None, nodes))
    return configs


class MultiSimPlan(NamedTuple):
    """Placement plan for M independent replicas of the same system."""

    replicas: int
    threads_per_replica: int
    placement: str  # "dense" | "interleaved"
    nodes: int
    per_replica_gpu_id: str
    ranks_per_replica: int = 1
    leftover_threads: int = 0


def plan_multi_sim(
    node: NodeSpec,
    replicas: int,
    nodes: int = 1,
    placement: str = "interleaved",
) -> MultiSimPlan:
    """Plan M replicas over one or more identical nodes, hyper-threads included.

    "interleaved" gives every node one rank of every replica with
    budget // M threads, and so does any placement on a single node;
    threads that do not divide evenly are reported as leftover, never
    silently absorbed, and with fewer replicas than GPUs the spare GPUs
    stay idle. "dense" across nodes packs each replica onto nodes/M
    contiguous nodes, one rank per GPU.
    """
    if placement not in ("dense", "interleaved"):
        raise InvalidConfigError(f"unknown placement {placement!r}")
    if type(replicas) is not int or replicas < 1:
        raise count_error("replicas", replicas, ">= 1")
    if type(nodes) is not int or nodes < 1:
        raise count_error("nodes", nodes, ">= 1")
    n_gpus = node.n_gpus
    budget = total_hw_threads(node, use_ht=True)

    if placement == "dense" and nodes > 1:
        if nodes % replicas != 0:
            raise InvalidConfigError(
                f"dense placement needs nodes divisible by replicas ({nodes} % {replicas})"
            )
        return MultiSimPlan(
            replicas=replicas,
            threads_per_replica=budget // max(1, n_gpus),
            placement=placement,
            nodes=nodes,
            per_replica_gpu_id=gpu_id_string(n_gpus, n_gpus) if n_gpus else "",
            ranks_per_replica=nodes // replicas * max(1, n_gpus),
        )

    if replicas > budget:
        raise InvalidConfigError(
            f"{replicas} replicas exceed {budget} hardware threads{' per node' if nodes > 1 else ''}"
        )
    threads = budget // replicas
    return MultiSimPlan(
        replicas=replicas,
        threads_per_replica=threads,
        placement=placement,
        nodes=nodes,
        per_replica_gpu_id=gpu_id_string(min(n_gpus, replicas), replicas) if n_gpus else "",
        ranks_per_replica=nodes,
        leftover_threads=budget - threads * replicas,
    )


# ---------------------------------------------------------------------------
# Command rendering
# ---------------------------------------------------------------------------


@checked
class Workload(NamedTuple):
    """The simulated system; its step counts size each run's command line."""

    name: str = "bench"
    atoms: int = 80_000
    timestep_fs: float = 2.0
    rc0: float = 1.0
    spacing0: float = 0.120
    box: tuple[float, float, float] = (10.8, 10.2, 9.6)
    benchmark_steps: int = 5000
    reset_steps: int = 1000

    WIRE = {"rc0": "rc0_nm", "spacing0": "spacing0_nm", "box": "box_nm"}

    def _check(self):
        if type(self.reset_steps) is not int or self.reset_steps < 0:
            raise count_error("reset_steps", self.reset_steps, ">= 0")
        if type(self.benchmark_steps) is not int:
            raise count_error("benchmark_steps", self.benchmark_steps, "an integer")
        if self.benchmark_steps <= self.reset_steps:
            raise InvalidConfigError(f"benchmark_steps ({self.benchmark_steps}) must exceed "
                                     f"reset_steps ({self.reset_steps})")
        if any(length > MAX_MESH_POINTS * self.spacing0 for length in self.box):
            raise InvalidConfigError(f"box_nm / spacing0_nm exceeds {MAX_MESH_POINTS} mesh points")
        for name, value in (("timestep_fs", self.timestep_fs), ("rc0_nm", self.rc0),
                            ("spacing0_nm", self.spacing0),
                            *(("box_nm", length) for length in self.box)):
            if not 0 < value < math.inf:  # so that NaN fails too
                raise InvalidConfigError(
                    f"{name} must be {'finite' if value > 0 else 'positive'}, not {value!r}")
        return self if type(self.box) is tuple else self._replace(box=tuple(self.box))


class EngineProfile(NamedTuple):
    """How to spell a run command for a particular engine build.

    ``thread_mpi`` selects the single-node built-in MPI flavor (-ntmpi)
    versus an external launcher (mpirun -np). ``log_file`` is where the
    engine writes the metrics log this toolkit parses.
    """

    mdrun: str = "mdrun"
    mpirun: str = "mpirun"
    thread_mpi: bool = True
    tpr_file: str = "in.tpr"
    log_file: str = "md.log"


def render_command(config: LaunchConfig, profile: EngineProfile = EngineProfile(),
                   workload: Optional[Workload] = None) -> str:
    """Deterministic engine command line for a config.

    Flags that are at their engine default (no separate PME ranks, automatic
    thread count, automatic DLB, no GPUs) are omitted, mirroring how such
    commands are written by hand. The run length comes from ``workload``;
    without one the engine runs the input file's full length.
    """
    parts: list[str] = []
    if profile.thread_mpi:
        parts += [profile.mdrun, "-ntmpi", str(config.n_rank)]
    else:
        parts += [profile.mpirun, "-np", str(config.n_rank), profile.mdrun]
    if config.n_th:
        parts += ["-ntomp", str(config.n_th)]
    if config.n_pme:
        parts += ["-npme", str(config.n_pme)]
        if config.n_th_pme is not None:
            parts += ["-ntomp_pme", str(config.n_th_pme)]
    if config.dlb != "auto":
        parts += ["-dlb", "yes" if config.dlb == "on" else "no"]
    if config.nstlist is not None:
        parts += ["-nstlist", str(config.nstlist)]
    if config.dd_grid is not None:
        parts += ["-dd"] + [str(d) for d in config.dd_grid]
    if config.gpu_id:
        parts += ["-gpu_id", config.gpu_id]
    parts += ["-s", profile.tpr_file]
    if workload is not None:
        parts += ["-nsteps", str(workload.benchmark_steps),
                  "-resetstep", str(workload.reset_steps)]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Plan serialization
# ---------------------------------------------------------------------------


def plan_to_json(configs: Iterable[LaunchConfig]) -> str:
    return dumps(list(configs))


def load_plan(path) -> list[LaunchConfig]:
    """The configs of a plan file, validated against ``schema.json#/$defs/plan``."""
    doc = read(path)
    validate(doc, "plan")
    return [from_doc(LaunchConfig, entry, str(i)) for i, entry in enumerate(doc)]


def plan_to_script(configs: Iterable[LaunchConfig], profile: EngineProfile = EngineProfile(),
                   workload: Optional[Workload] = None) -> str:
    """One command per line, ready to paste into a shell session."""
    return "\n".join(render_command(c, profile, workload) for c in configs) + "\n"
