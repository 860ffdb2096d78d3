"""CPU-GPU static load balancing math and a synthetic performance model.

The balancing half is exact arithmetic: shifting a factor k of short-range
work onto the GPU means growing the cutoff by k^(1/3) and coarsening the
long-range mesh by the same linear factor, with grid dimensions quantized
to FFT-friendly sizes.

Because of that quantization the mesh cost is piecewise constant in k: as
k grows the grid steps down a discrete ladder of FFT-friendly sizes, as the
engine's PP-PME tuner does. ``grid_ladder`` enumerates that ladder with each
piece's grid once per (spacing, box, k range) and caches it, as
``unshifted_state`` caches the k = 1 state, so a run builds no cutoff state
of its own. The balance search keeps its 48 bisection steps, so its results
stay the same to the last bit. GPU time grows with k and the mesh cost only
shrinks, so a step's test (is the GPU still faster at k?) holds below one k
and fails from there on: the search finds the ladder piece that k lies in
once, and each step tests its midpoint against that piece alone.

The synthetic half is a small analytic node model used as a stand-in
executor: it maps a launch configuration to a deterministic ns/day figure
with the right qualitative shape (rank/thread tradeoff, GPU offload,
neighbor-search frequency, multi-node efficiency). It makes no attempt to
predict absolute performance of real hardware; it exists so the sweep
orchestrator can be tested end to end without an MD engine installed.
``predict_run`` evaluates a config in one pass: the thread split, the work
split and the k = 1 times once each, then, with GPUs, the balance search.
Dynamic load balancing only scales the step time after that: nothing before
it reads ``config.dlb``. A plan lists each GPU layout once per DLB setting,
so ``predict_run`` keeps what it computes before the DLB factor in a
caller's memo and does one balance search per such pair.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple, Optional

from .errors import InvalidConfigError, MdtuneError
from .hardware import NodeSpec
from .launch import LaunchConfig, Workload, validate_config
from .wire import checked, from_doc, read, validate

# Mesh grid dimensions must factor into these primes for fast transforms.
FFT_GRID_FACTORS = (2, 3, 5, 7)


def is_fft_friendly(n: int) -> bool:
    if n < 1:
        return False
    for p in FFT_GRID_FACTORS:
        while n % p == 0:
            n //= p
    return n == 1


def fft_friendly_size(target: float) -> int:
    """Smallest FFT-friendly integer >= target (e.g. 143.8 -> 144)."""
    return _fft_friendly_from(max(1, math.ceil(target - 1e-9)))


@functools.lru_cache(maxsize=4096)
def _fft_friendly_from(n: int) -> int:
    while not is_fft_friendly(n):
        n += 1
    return n


class BalanceState(NamedTuple):
    """Cutoff/grid state after shifting short-range work by a factor.

    pp_cost_ratio is the short-range work relative to the unshifted state
    (the cube of the cutoff ratio); pme_cost_ratio is the mesh work
    relative to the unshifted state (ratio of grid volumes).
    """

    rcoulomb: float
    grid_spacing: float
    grid_dims: tuple[int, int, int]
    pp_cost_ratio: float
    pme_cost_ratio: float


def grid_for_spacing(box: tuple[float, float, float], spacing: float) -> tuple[int, int, int]:
    """Smallest FFT-friendly grid that resolves ``spacing`` in every dimension."""
    if not spacing > 0:  # so that NaN fails too
        raise MdtuneError("grid spacing must be positive")
    return tuple(fft_friendly_size(length / spacing) for length in box)


def balance_cutoff(
    rc0: float,
    spacing0: float,
    box: tuple[float, float, float],
    k: float,
) -> BalanceState:
    """Scale cutoff and mesh spacing so short-range work grows by factor k.

    k = 1 is the identity; k < 1 is rejected because the balancer only
    shifts work toward the short-range side. The returned grid_spacing is
    the realized spacing max(L/n) after grid quantization, which is what
    engine logs report.
    """
    if not (rc0 > 0 and spacing0 > 0):
        raise MdtuneError("rc0 and spacing0 must be positive")
    if not k >= 1:
        raise MdtuneError(f"balance factor k={k} < 1: work only shifts off the CPU")
    return _state(rc0, box, k, _mesh_at(spacing0, box, k, grid_for_spacing(box, spacing0)))


def _state(rc0: float, box: tuple[float, float, float], k: float,
           mesh: tuple[tuple[int, int, int], float]) -> BalanceState:
    """The state at shift factor k, given ``_mesh_at``'s (grid, volume ratio) there."""
    grid, volume_ratio = mesh
    return BalanceState(
        rcoulomb=rc0 * k ** (1.0 / 3.0),
        grid_spacing=max(float(length) / n for length, n in zip(box, grid)),
        grid_dims=grid,
        pp_cost_ratio=k,
        pme_cost_ratio=volume_ratio,
    )


def _mesh_at(spacing0: float, box: tuple[float, float, float], k: float,
             grid0: tuple[int, int, int]) -> tuple[tuple[int, int, int], float]:
    """The grid at shift factor k, and its volume relative to the unshifted ``grid0``."""
    grid = grid_for_spacing(box, spacing0 * k ** (1.0 / 3.0))
    volume_ratio = 1.0
    for a, b in zip(grid, grid0):
        volume_ratio *= a / b
    return grid, volume_ratio


@functools.lru_cache(maxsize=32)
def unshifted_state(
    rc0: float, spacing0: float, box: tuple[float, float, float]
) -> BalanceState:
    """``balance_cutoff(rc0, spacing0, box, 1.0)``, computed once per workload."""
    return balance_cutoff(rc0, spacing0, box, 1.0)


@functools.lru_cache(maxsize=32)
def grid_ladder(
    spacing0: float, box: tuple[float, float, float], k_max: float
) -> tuple[tuple[float, ...], tuple[tuple[tuple[int, int, int], float], ...]]:
    """The grids ``balance_cutoff`` visits for k in [1, k_max], as (breaks, meshes).

    ``breaks[i]`` is the smallest float k at which piece i's grid starts and
    ``meshes[i]`` the (grid, volume ratio) that ``_mesh_at`` gives in it, so
    ``_state(rc0, box, k, meshes[bisect.bisect_right(breaks, k) - 1])`` is
    ``balance_cutoff(rc0, spacing0, box, k)`` for every float k in [1, k_max].
    Breaks are bisected down to adjacent floats, so the lookup is exact while
    the grid never grows with k; the volume ratios then fall piece by piece.
    """
    if k_max < 1:
        raise MdtuneError(f"balance factor k={k_max} < 1: work only shifts off the CPU")
    box = tuple(float(b) for b in box)
    grid0 = grid_for_spacing(box, spacing0)
    breaks, meshes = [], []
    lo = 1.0
    while True:
        mesh = _mesh_at(spacing0, box, lo, grid0)
        breaks.append(lo)
        meshes.append(mesh)
        if _mesh_at(spacing0, box, k_max, grid0) == mesh:
            return tuple(breaks), tuple(meshes)
        hi = k_max  # the mesh at lo is mesh, the one at hi is not
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if _mesh_at(spacing0, box, mid, grid0) == mesh:
                lo = mid
            else:
                hi = mid
        lo = hi


# ---------------------------------------------------------------------------
# Synthetic node model
# ---------------------------------------------------------------------------


@checked
class SyntheticNodeProfile(NamedTuple):
    """Analytic cost model of one node type.

    Rates are in abstract work-units per second; only ratios matter. The
    defaults are calibrated so that the classic shapes emerge: pure-rank
    parallelism wins on CPU-only nodes, hybrid runs with a handful of
    threads per rank win on multi-GPU nodes, and the neighbor-search
    interval has a broad optimum well above the CPU-default value.
    """

    cpu_rate: float = 2e6  # work-units/s per physical core
    gpu_rate: float = 6e7  # work-units/s per GPU at base clock
    offload_fraction_base: float = 0.60  # short-range share of per-step work
    pme_fraction_base: float = 0.25  # mesh share of per-step work
    rank_overhead: float = 1.5e-5  # seconds per rank per step (comm/launch)
    thread_efficiency_decay: float = 0.05  # OpenMP scaling loss per extra thread
    gpu_share_overhead: float = 0.02  # GPU time penalty per extra rank sharing it
    nstlist_penalty: float = 1.2  # list-build work relative to one step's work
    buffer_growth: float = 0.0035  # extra short-range work per search-interval step
    ht_speedup: float = 1.08  # throughput factor from using both hw threads
    comm_per_node: float = 1.5e-4  # seconds per step per extra node
    max_balance: float = 8.0  # largest short-range shift factor the model tries
    dlb_penalty: float = 0.02  # cost of the "wrong" DLB setting for the node kind
    app_clock_mhz: Optional[float] = None  # override of the GPUs' base clock

    def thread_efficiency(self, n_th: int) -> float:
        """Per-thread efficiency of an n_th-wide rank; equals 1 at n_th = 1."""
        return 1.0 / (1.0 + self.thread_efficiency_decay * (n_th - 1))

    def _check(self):
        for name in ("cpu_rate", "gpu_rate"):
            if not getattr(self, name) > 0:  # so that NaN fails too
                raise MdtuneError(f"{name} must be positive")
        if not self.max_balance >= 1:
            raise MdtuneError("max_balance must be >= 1")
        for name, value in zip(self._fields, self):
            if value is not None and not math.isfinite(value):
                raise MdtuneError(f"{name} must be finite, not {value!r}")
        return self


class PredictedRun(NamedTuple):
    """predict_performance plus the internals a log renderer needs."""

    ns_per_day: float
    balance: BalanceState
    gpu_time_s: float
    cpu_overlap_time_s: float
    pme_mesh_force_load: Optional[float]
    step_time_s: float


def _cpu_capacity(profile: SyntheticNodeProfile, node: NodeSpec, threads_used: int,
                  n_th: int, use_ht: bool) -> float:
    """Work-units/s delivered by ``threads_used`` hardware threads."""
    cores_used = min(threads_used, node.cpu.total_cores)
    ht_factor = profile.ht_speedup if (use_ht and threads_used > cores_used) else 1.0
    return cores_used * profile.cpu_rate * profile.thread_efficiency(max(1, n_th)) * ht_factor


def _cpu_times(mesh: float, w_sr_cpu: float, w_bonded: float, cpu_cap: float,
               pme_share: float, n_gpus: int) -> tuple[float, Optional[float]]:
    """(overlapped CPU time, PME mesh/force load or None) at ``mesh`` work-units."""
    if not pme_share:
        return (w_sr_cpu + mesh + w_bonded) / cpu_cap, None
    # dedicated mesh ranks: each side only has its own cores
    t_mesh = mesh / (cpu_cap * pme_share)
    t_pp = (w_sr_cpu + w_bonded) / (cpu_cap * (1.0 - pme_share))
    if n_gpus:
        return max(t_mesh, t_pp), None
    if not t_pp > 0:  # the mesh/force load would divide by it
        raise InvalidConfigError(f"the synthetic PP ranks have no work to do: {t_pp!r} s")
    load = t_mesh / t_pp
    if not math.isfinite(load):  # a subnormal t_pp overflows it
        raise InvalidConfigError(f"the synthetic PME mesh/force load is not finite: {load!r}")
    return max(t_mesh, t_pp), load


def dlb_pair_key(config: LaunchConfig, workload: Workload) -> tuple:
    """The memo key of a GPU config's work before the DLB factor: the config
    without its ``dlb``, and the workload, so both configs of a DLB pair
    share it."""
    return config[:4] + config[5:], workload  # _replace would run _check


def predict_run(
    profile: SyntheticNodeProfile,
    node: NodeSpec,
    config: LaunchConfig,
    workload: Workload,
    memo: Optional[dict] = None,
) -> PredictedRun:
    """Deterministic per-step cost model, one pass per config; see predict_performance.

    Without GPUs the CPU keeps all short-range work and the shift factor stays 1.
    A CPU or GPU capacity that is not positive (a huge ``thread_efficiency_decay``
    or ``gpu_share_overhead`` underflows it to 0.0) or not finite (a huge rate
    overflows it), separate PME ranks on a CPU-only node whose PP ranks have
    no work or so little that the mesh/force load is not finite, and a step
    time that is not finite (a huge ``rank_overhead`` overflows it) raise
    InvalidConfigError.
    ``memo`` is one caller's dict for one profile and node. A config with
    GPUs keeps in it what it computes before the DLB factor (see the module
    docstring), keyed by ``dlb_pair_key``, so a config that differs from an
    earlier one only in ``dlb`` skips the balance search. A config without
    GPUs neither reads nor fills it.
    """
    n_gpus = len(set(config.gpu_id))
    key = shared = None
    if n_gpus and memo is not None:
        key = dlb_pair_key(config, workload)
        shared = memo.get(key)
    if shared is None:
        budget, n_th, pme_th = validate_config(config, node)
        nstlist = config.nstlist if config.nstlist is not None else 10

        # Per-step work split (work-units); buffer grows with the search interval.
        work = float(workload.atoms)
        w_sr = work * profile.offload_fraction_base * (1.0 + profile.buffer_growth * nstlist)
        w_pme = work * profile.pme_fraction_base
        w_rest = work * max(0.0, 1.0 - profile.offload_fraction_base - profile.pme_fraction_base)
        w_nonoverlap = 0.5 * w_rest + work * profile.nstlist_penalty / max(1, nstlist)
        w_bonded = 0.5 * w_rest
        w_sr_cpu = 0.0 if n_gpus else w_sr

        pp_ranks = config.n_pp
        threads_total = pp_ranks * n_th + config.n_pme * pme_th
        cpu_cap = _cpu_capacity(profile, node, min(threads_total // config.nodes, budget),
                                n_th, config.use_ht) * config.nodes
        if not 0 < cpu_cap < math.inf:
            raise InvalidConfigError(f"the synthetic CPU capacity is not "
                                     f"{'finite' if cpu_cap > 0 else 'positive'}: {cpu_cap!r}")
        pme_share = config.n_pme * pme_th / threads_total if config.n_pme else 0.0

        state = unshifted_state(workload.rc0, workload.spacing0, workload.box)
        t_cpu_overlap, pme_load = _cpu_times(w_pme * state.pme_cost_ratio, w_sr_cpu, w_bonded,
                                             cpu_cap, pme_share, n_gpus)
        t_gpu = 0.0
        if n_gpus:
            clock_factor = 1.0
            if profile.app_clock_mhz and node.gpus:
                clock_factor = profile.app_clock_mhz / node.gpus[0].base_clock_mhz
            ranks_per_gpu = max(1, pp_ranks // max(1, n_gpus * config.nodes))
            share_penalty = 1.0 + profile.gpu_share_overhead * (ranks_per_gpu - 1)
            gpu_cap = n_gpus * config.nodes * profile.gpu_rate * clock_factor / share_penalty
            if not 0 < gpu_cap < math.inf:
                raise InvalidConfigError(f"the synthetic GPU capacity is not "
                                         f"{'finite' if gpu_cap > 0 else 'positive'}: {gpu_cap!r}")
            t_gpu = w_sr * state.pp_cost_ratio / gpu_cap

        # Find the work shift that balances GPU against overlapped CPU time.
        if n_gpus and t_gpu < t_cpu_overlap:  # GPU has headroom: shift work toward it
            # Work shifts below one k (see the module docstring), in the last piece i
            # that shifts at its first k: every k before i shifts, none after it does.
            k_lo, k_hi = 1.0, profile.max_balance
            breaks, meshes = grid_ladder(workload.spacing0, workload.box, k_hi)
            cpu = w_sr_cpu, w_bonded, cpu_cap, pme_share, n_gpus
            i = bisect.bisect_left(range(len(breaks)), True, 1, key=lambda j: (
                w_sr * breaks[j] / gpu_cap >= _cpu_times(w_pme * meshes[j][1], *cpu)[0])) - 1
            t_c = _cpu_times(w_pme * meshes[i][1], *cpu)[0]
            start, end = breaks[i], breaks[i + 1] if i + 1 < len(breaks) else math.inf
            for _ in range(48):
                k_mid = 0.5 * (k_lo + k_hi)
                if k_mid < start or k_mid < end and w_sr * k_mid / gpu_cap < t_c:
                    k_lo = k_mid
                else:
                    k_hi = k_mid
            mesh = meshes[bisect.bisect_right(breaks, k_lo) - 1]
            state = _state(workload.rc0, workload.box, k_lo, mesh)
            t_gpu, t_cpu_overlap = w_sr * k_lo / gpu_cap, _cpu_times(w_pme * mesh[1], *cpu)[0]
        step = max(t_gpu, t_cpu_overlap) + w_nonoverlap / cpu_cap
        if key is not None:
            memo[key] = state, t_gpu, t_cpu_overlap, pme_load, step
    else:
        state, t_gpu, t_cpu_overlap, pme_load, step = shared
    # CPU nodes want dynamic balancing; with GPUs, DD resizing caps the cutoff shift
    if config.dlb == ("on" if n_gpus else "off"):
        step *= 1.0 + profile.dlb_penalty

    step += profile.rank_overhead * config.n_rank / config.nodes
    if config.nodes > 1:
        step += profile.comm_per_node * (config.nodes - 1) / config.nodes
    if not math.isfinite(step):  # its rate would read 0.0 ns/day
        raise InvalidConfigError(f"the synthetic step time is not finite: {step!r} s")

    return PredictedRun(workload.timestep_fs * 1e-6 * 86400.0 / step, state, t_gpu,
                        t_cpu_overlap, pme_load, step)


def predict_performance(
    profile: SyntheticNodeProfile,
    node: NodeSpec,
    config: LaunchConfig,
    workload: Workload,
) -> float:
    """Predicted trajectory rate in ns/day for a config on a node.

    Deterministic: identical inputs give bit-identical outputs. Raises
    InvalidConfigError for configs the node cannot run, mirroring how a
    real sweep records a failed run.
    """
    return predict_run(profile, node, config, workload).ns_per_day


def load_profile(path) -> SyntheticNodeProfile:
    """A profile file, validated against ``schema.json#/$defs/profile``."""
    doc = read(path)
    validate(doc, "profile")
    return from_doc(SyntheticNodeProfile, doc)
