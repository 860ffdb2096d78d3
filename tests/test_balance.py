import bisect
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import mdtune.balance
import mdtune.sweep
from mdtune.balance import (
    PredictedRun,
    SyntheticNodeProfile,
    Workload,
    _cpu_capacity,
    balance_cutoff,
    fft_friendly_size,
    grid_ladder,
    is_fft_friendly,
    load_profile,
    predict_performance,
    predict_run,
    unshifted_state,
)
from mdtune.errors import InvalidConfigError, MdtuneError
from mdtune.launch import (
    DLB_VALUES,
    LaunchConfig,
    SweepOptions,
    enumerate_plan,
    gpu_id_string,
    rank_threads,
    validate_config,
)
from mdtune.sweep import SyntheticExecutor, run_sweep
from mdtune.wire import from_doc, to_doc

from conftest import make_node, profiles

RIB_BOX = (31.2, 31.2, 31.2)
RIB_SPACING = 0.135  # mesh spacing of the 2M-atom benchmark input


def brute_force_friendly(target):
    n = max(1, math.ceil(target))
    while True:
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class TestFftFriendly:
    def test_just_below_144(self):
        assert fft_friendly_size(143.8) == 144

    def test_exact_value_kept(self):
        assert fft_friendly_size(240) == 240

    def test_prime_target_bumped(self):
        assert fft_friendly_size(149.35) == 150

    def test_against_brute_force(self):
        for target in range(1, 400):
            assert fft_friendly_size(target) == brute_force_friendly(target)

    def test_neighbors(self):
        assert [n for n in range(140, 151) if is_fft_friendly(n)] == [140, 144, 147, 150]


class TestBalanceCutoff:
    def test_reference_four_gpu_state(self):
        # shifting 4.15x of short-range work: cutoff 1.0 -> 1.607 nm and
        # the mesh drops from 240^3 to 144^3, a 0.216 volume ratio
        state = balance_cutoff(1.0, RIB_SPACING, RIB_BOX, 4.15)
        assert state.rcoulomb == pytest.approx(1.607, rel=0.001)
        assert state.grid_dims == (144, 144, 144)
        assert state.grid_spacing == pytest.approx(0.217, abs=0.0005)
        assert state.pme_cost_ratio == pytest.approx(0.216, rel=1e-6)
        assert state.pp_cost_ratio == 4.15

    def test_initial_grid_from_input_spacing(self):
        state = balance_cutoff(1.0, RIB_SPACING, RIB_BOX, 1.0)
        assert state.grid_dims == (240, 240, 240)
        assert state.grid_spacing == pytest.approx(0.130, abs=0.0005)

    def test_identity(self):
        state = balance_cutoff(1.0, 0.12, (10.8, 10.2, 9.6), 1.0)
        assert state.rcoulomb == 1.0
        assert state.pp_cost_ratio == 1.0
        assert state.pme_cost_ratio == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "k,cutoff", [(1.54, 1.157), (2.59, 1.378), (2.99, 1.447), (4.1, 1.607)]
    )
    def test_published_cutoff_ladder(self, k, cutoff):
        state = balance_cutoff(1.0, RIB_SPACING, RIB_BOX, k)
        assert state.rcoulomb == pytest.approx(cutoff, rel=0.01)

    def test_k_below_one_rejected(self):
        with pytest.raises(MdtuneError):
            balance_cutoff(1.0, 0.13, RIB_BOX, 0.9)

    def test_bad_inputs_rejected(self):
        with pytest.raises(MdtuneError):
            balance_cutoff(0.0, 0.13, RIB_BOX, 2.0)
        with pytest.raises(MdtuneError):
            balance_cutoff(1.0, -0.1, RIB_BOX, 2.0)

    @pytest.mark.parametrize("rc0, spacing0, k", [
        (math.nan, 0.13, 2.0), (1.0, math.nan, 2.0), (1.0, 0.13, math.nan)])
    def test_nan_rejected(self, rc0, spacing0, k):
        # NaN passed every comparison: a NaN rc0 gave a NaN cutoff, and a NaN
        # spacing0 or k raised "cannot convert float NaN to integer"
        with pytest.raises(MdtuneError, match="must be positive|< 1"):
            balance_cutoff(rc0, spacing0, RIB_BOX, k)

    @settings(max_examples=120, deadline=None)
    @given(
        k=st.floats(min_value=1.0, max_value=8.0),
        spacing=st.floats(min_value=0.08, max_value=0.2),
        length=st.floats(min_value=5.0, max_value=40.0),
    )
    def test_scaling_invariants(self, k, spacing, length):
        state = balance_cutoff(1.0, spacing, (length,) * 3, k)
        # cutoff scaling is exact
        assert state.rcoulomb ** 3 == pytest.approx(k, rel=1e-12)
        assert state.pp_cost_ratio == k
        # grid volume tracks the ideal spacing cubed within quantization
        # slack: one FFT-friendly step in each dimension
        n_ideal = length / (spacing * k ** (1 / 3))
        n = state.grid_dims[0]
        assert n >= n_ideal - 1e-9
        assert next(m for m in range(n - 1, 0, -1) if is_fft_friendly(m)) < n_ideal + 1e-9
        # the mesh cost ratio is exactly the grid volume ratio
        n0 = balance_cutoff(1.0, spacing, (length,) * 3, 1.0).grid_dims[0]
        assert state.pme_cost_ratio == pytest.approx((n / n0) ** 3, rel=1e-12)


class TestSyntheticProfile:
    def test_thread_efficiency_unity_at_one(self):
        assert SyntheticNodeProfile().thread_efficiency(1) == 1.0

    def test_thread_efficiency_decreasing(self):
        p = SyntheticNodeProfile()
        effs = [p.thread_efficiency(t) for t in range(1, 41)]
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_json_round_trip(self):
        p = SyntheticNodeProfile(gpu_rate=1.0e7, nstlist_penalty=2.0, app_clock_mhz=1300.0)
        assert from_doc(SyntheticNodeProfile, json.loads(json.dumps(to_doc(p)))) == p

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"cpu_rat": 1e6}))
        with pytest.raises(MdtuneError, match="cpu_rat"):
            load_profile(path)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(MdtuneError):
            SyntheticNodeProfile(cpu_rate=0)

    @pytest.mark.parametrize("field, message", [
        ("cpu_rate", "cpu_rate must be positive"), ("gpu_rate", "gpu_rate must be positive"),
        ("max_balance", "max_balance must be >= 1"),
    ])
    def test_nan_rejected(self, field, message):
        # NaN passed every comparison, and max_balance = NaN aborted a
        # synthetic sweep: "cannot convert float NaN to integer"
        with pytest.raises(MdtuneError, match=message):
            SyntheticNodeProfile(**{field: math.nan})

    def test_max_balance_below_one_rejected(self):
        with pytest.raises(MdtuneError, match="max_balance must be >= 1"):
            SyntheticNodeProfile(max_balance=0.5)

    # NaN and -inf fail the bound of cpu_rate, gpu_rate and max_balance first
    @pytest.mark.parametrize("field, value", [
        (name, value) for name in SyntheticNodeProfile._fields
        for value in (math.inf, -math.inf, math.nan)
        if value == math.inf or name not in ("cpu_rate", "gpu_rate", "max_balance")])
    def test_value_that_is_not_finite_rejected(self, field, value):
        # thread_efficiency_decay = inf aborted a synthetic sweep with
        # ZeroDivisionError; buffer_growth = inf recorded every run as
        # "non-positive performance 0.0", and offload_fraction_base = NaN
        # as "the synthetic prediction is not finite"
        with pytest.raises(MdtuneError, match=f"^{field} must be finite, not {value!r}$"):
            SyntheticNodeProfile(**{field: value})

    def test_unset_application_clock_accepted(self):
        assert SyntheticNodeProfile(app_clock_mhz=None).app_clock_mhz is None


class TestPredictPerformance:
    def test_deterministic_bit_identical(self, gpu_node):
        profile = SyntheticNodeProfile()
        config = LaunchConfig(n_rank=8, n_th=5, gpu_id=gpu_id_string(2, 8),
                              use_ht=True, nstlist=40)
        wl = Workload()
        values = {predict_performance(profile, gpu_node, config, wl) for _ in range(5)}
        assert len(values) == 1

    def test_rank_parallel_beats_thread_parallel_on_cpu(self, cpu_node):
        profile = SyntheticNodeProfile()
        wl = Workload()
        ranky = predict_performance(
            profile, cpu_node, LaunchConfig(n_rank=20, n_th=1, dlb="on"), wl)
        thready = predict_performance(
            profile, cpu_node, LaunchConfig(n_rank=1, n_th=20, dlb="on"), wl)
        assert ranky > thready

    def test_gpu_rate_scaling_when_gpu_bound(self, gpu_node):
        # strongly GPU-bound profile: doubling GPU speed must strictly help
        slow = SyntheticNodeProfile(gpu_rate=5e6)
        fast = SyntheticNodeProfile(gpu_rate=1e7)
        config = LaunchConfig(n_rank=2, n_th=20, gpu_id="01", use_ht=True, nstlist=40)
        wl = Workload()
        p_slow = predict_performance(slow, gpu_node, config, wl)
        p_fast = predict_performance(fast, gpu_node, config, wl)
        assert p_fast > p_slow * 1.5

    def test_nstlist_optimum_in_published_window(self, gpu_node):
        # brute force over the search-interval grid; the cost model is
        # convex in the interval, with the optimum between 20 and 70
        profile = SyntheticNodeProfile()
        wl = Workload()
        best_nst, best_p = None, -1.0
        for nst in range(10, 101, 2):
            config = LaunchConfig(n_rank=8, n_th=5, gpu_id=gpu_id_string(2, 8),
                                  use_ht=True, nstlist=nst, dlb="off")
            p = predict_performance(profile, gpu_node, config, wl)
            if p > best_p:
                best_nst, best_p = nst, p
        assert 20 <= best_nst <= 70

    def test_infeasible_config_raises(self, gpu_node):
        config = LaunchConfig(n_rank=64, n_th=4, use_ht=True)
        with pytest.raises(InvalidConfigError):
            predict_performance(SyntheticNodeProfile(), gpu_node, config, Workload())

    def test_parallel_efficiency_never_exceeds_one(self, cpu_node, gpu_node):
        profile = SyntheticNodeProfile()
        wl = Workload(atoms=2_000_000, timestep_fs=4.0)
        for node, n_th, gid in ((cpu_node, 1, ""), (gpu_node, 5, gpu_id_string(2, 8))):
            ranks_per_node = 20 if node is cpu_node else 8
            p1 = predict_performance(
                profile, node,
                LaunchConfig(n_rank=ranks_per_node, n_th=n_th, gpu_id=gid,
                             use_ht=node is gpu_node),
                wl)
            for m in (2, 4, 8, 16, 32, 64, 128):
                pm = predict_performance(
                    profile, node,
                    LaunchConfig(n_rank=ranks_per_node * m, n_th=n_th, nodes=m,
                                 gpu_id=gid, use_ht=node is gpu_node),
                    wl)
                assert pm / (m * p1) <= 1.0 + 1e-9

    @pytest.mark.parametrize("field, n_gpus, failing, kind, running", [
        # 1 + 1e308 * 3 overflows, so the per-thread efficiency of a 4-thread rank is 0.0
        ("thread_efficiency_decay", 0, LaunchConfig(n_rank=5, n_th=4), "CPU",
         LaunchConfig(n_rank=20, n_th=1)),
        ("thread_efficiency_decay", 2, LaunchConfig(n_rank=2, n_th=10, gpu_id="01"), "CPU",
         LaunchConfig(n_rank=20, n_th=1, gpu_id=gpu_id_string(2, 20))),
        # likewise the share penalty of four ranks on one GPU
        ("gpu_share_overhead", 2, LaunchConfig(n_rank=8, n_th=5, gpu_id="00001111",
                                               use_ht=True), "GPU",
         LaunchConfig(n_rank=2, n_th=10, gpu_id="01")),
    ])
    def test_capacity_that_is_not_positive_fails_the_config(self, field, n_gpus, failing,
                                                            kind, running):
        # each raised ZeroDivisionError, which aborted a synthetic sweep
        node, profile = make_node(n_gpus=n_gpus), SyntheticNodeProfile(**{field: 1e308})
        with pytest.raises(InvalidConfigError,
                           match=f"^the synthetic {kind} capacity is not positive: 0.0$"):
            predict_run(profile, node, failing, Workload())
        assert predict_run(profile, node, running, Workload()).ns_per_day > 0

    @pytest.mark.parametrize("fields, n_gpus, failing, message, running", [
        # 20 cores x 1e308 overflow; one core's capacity is still finite
        ({"cpu_rate": 1e308}, 0, LaunchConfig(n_rank=20, n_th=1, n_pme=4),
         "the synthetic CPU capacity is not finite: inf", LaunchConfig(n_rank=1, n_th=1)),
        ({"gpu_rate": 1e308}, 2, LaunchConfig(n_rank=2, n_th=10, gpu_id="01"),
         "the synthetic GPU capacity is not finite: inf", LaunchConfig(n_rank=2, n_th=10)),
        # every PP work-unit moves to the mesh; without PME ranks the CPU does it all
        ({"offload_fraction_base": 0, "pme_fraction_base": 1}, 0,
         LaunchConfig(n_rank=20, n_th=1, n_pme=4),
         "the synthetic PP ranks have no work to do: 0.0 s", LaunchConfig(n_rank=20, n_th=1)),
        ({"offload_fraction_base": 1e-310, "pme_fraction_base": 1}, 0,
         LaunchConfig(n_rank=20, n_th=1, n_pme=4),
         "the synthetic PME mesh/force load is not finite: inf", LaunchConfig(n_rank=20, n_th=1)),
    ], ids=["cpu_rate", "gpu_rate", "no_pp_work", "subnormal_pp_work"])
    def test_capacity_that_is_not_finite_or_pp_work_of_zero_fails_the_config(
            self, fields, n_gpus, failing, message, running):
        # two raised ZeroDivisionError at the mesh/force load, which aborted a
        # synthetic sweep; an infinite GPU capacity gave a run in no GPU time;
        # a subnormal PP time overflowed the load to inf, which the log carried
        # and the parser rejected as "malformed PME mesh/force load: 'inf'"
        node, profile = make_node(n_gpus=n_gpus), SyntheticNodeProfile(**fields)
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            predict_run(profile, node, failing, Workload())
        assert predict_run(profile, node, running, Workload()).ns_per_day > 0

    @pytest.mark.parametrize("field, config", [
        ("rank_overhead", LaunchConfig(n_rank=20, n_th=1)),
        ("nstlist_penalty", LaunchConfig(n_rank=20, n_th=1)),
        ("nstlist_penalty", LaunchConfig(n_rank=2, n_th=10, gpu_id="01")),
        # 1e308 x 2 extra nodes overflows before the division by 3 nodes
        ("comm_per_node", LaunchConfig(n_rank=60, n_th=1, nodes=3)),
    ], ids=["rank_overhead", "nstlist_penalty", "nstlist_penalty_gpu", "comm_per_node"])
    def test_step_time_that_is_not_finite_fails_the_config(self, gpu_node, field, config):
        # the rate read 0.0 ns/day, which passed the executor's finiteness
        # check and was recorded from the log as "non-positive performance 0.0"
        profile = SyntheticNodeProfile(**{field: 1e308})
        with pytest.raises(InvalidConfigError,
                           match=r"^the synthetic step time is not finite: inf s$"):
            predict_run(profile, gpu_node, config, Workload())
        result = run_sweep([config], SyntheticExecutor(gpu_node, profile), Workload())
        assert result.rows == [] and {f.error for f in result.failures} == {
            "the synthetic step time is not finite: inf s"}

    def test_sweep_records_a_capacity_that_is_not_positive(self, gpu_node):
        profile = SyntheticNodeProfile(gpu_share_overhead=1e308)
        configs = enumerate_plan(gpu_node)
        result = run_sweep(configs, SyntheticExecutor(gpu_node, profile), Workload())
        assert result.rows and len(result.rows) + len(result.failures) == len(configs)
        assert {f.error for f in result.failures} == {
            "the synthetic GPU capacity is not positive: 0.0"}

    def test_balanced_state_exposed(self, gpu_node):
        wl = Workload(atoms=2_000_000, rc0=1.0, spacing0=RIB_SPACING, box=RIB_BOX)
        config = LaunchConfig(n_rank=8, n_th=5, gpu_id=gpu_id_string(2, 8),
                              use_ht=True, nstlist=40)
        run = predict_run(SyntheticNodeProfile(), gpu_node, config, wl)
        assert run.balance.pp_cost_ratio >= 1.0
        assert run.balance.rcoulomb >= 1.0
        assert run.step_time_s > 0


# Exact predict_run fields on configs the golden outputs do not cover:
# (ns/day, step time, GPU time, overlapped CPU time, PME mesh/force load,
# balanced cutoff, balanced grid).
PINNED_RUNS = {
    "cpu_pme_2_nodes": (
        make_node(), LaunchConfig(n_rank=40, n_th=2, n_pme=8, use_ht=True, nodes=2),
        (97.08622707764339, 0.001779861111111111, 0.0, 0.0012152777777777778,
         1.4367816091954027, 1.0, (90, 90, 80))),
    "cpu_pme_4_nodes": (
        make_node(),
        LaunchConfig(n_rank=80, n_th=1, n_pme=16, dlb="off", nstlist=20, nodes=4),
        (154.44429548196808, 0.00111885, 0.0, 0.000625,
         1.394700139470014, 1.0, (90, 90, 80))),
    "cpu_pme_n_th_pme": (
        make_node(), LaunchConfig(n_rank=10, n_th=3, n_pme=2, n_th_pme=5, use_ht=True),
        (67.61249184841678, 0.0025557407407407404, 0.0, 0.0020085185185185184,
         0.8620689655172414, 1.0, (90, 90, 80))),
    "cpu_pme_filled_n_th_pme": (
        make_node(), LaunchConfig(n_rank=8, n_pme=2, n_th_pme=4, use_ht=True, dlb="off"),
        (53.10931257043335, 0.0032536666666666664, 0.0, 0.0026388888888888885,
         1.3469827586206897, 1.0, (90, 90, 80))),
    "gpu_interleaved_2_nodes": (
        make_node(n_gpus=2),
        LaunchConfig(n_rank=8, n_th=4, n_pme=4, n_th_pme=6, gpu_id="01", use_ht=True,
                     nstlist=40, nodes=2),
        (289.6943543254529, 0.0005964907407407406, 0.0003319004444311661,
         0.0003407407407407407, None, 1.1333333333182196, (80, 80, 72))),
    "gpu_interleaved_4_nodes": (
        make_node(n_gpus=2),
        LaunchConfig(n_rank=16, n_th=3, n_pme=8, n_th_pme=2, dlb="on", gpu_id="01", nodes=4),
        (255.00500823638131, 0.0006776337500000001, 0.0002807291666666659,
         0.0002807291666666667, None, 1.3945980776612374, (70, 63, 60))),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_predict_run_pinned(name):
    node, config, expected = PINNED_RUNS[name]
    run = predict_run(SyntheticNodeProfile(), node, config, Workload())
    assert (run.ns_per_day, run.step_time_s, run.gpu_time_s, run.cpu_overlap_time_s,
            run.pme_mesh_force_load, run.balance.rcoulomb, run.balance.grid_dims) == expected


class TestGridLadder:
    @settings(max_examples=60, deadline=None)
    @given(
        box=st.tuples(*[st.floats(min_value=3.0, max_value=30.0)] * 3),
        spacing0=st.floats(min_value=0.08, max_value=0.2),
        k_max=st.floats(min_value=1.0, max_value=16.0),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_piece_matches_balance_cutoff(self, box, spacing0, k_max, fraction):
        breaks, meshes = grid_ladder(spacing0, box, k_max)
        assert breaks[0] == 1.0
        grids = [balance_cutoff(1.0, spacing0, box, k).grid_dims for k in breaks]
        assert all(a != b for a, b in zip(grids, grids[1:]))
        # the mesh cost only shrinks with k, which the balance threshold relies on
        assert all(a[1] > b[1] for a, b in zip(meshes, meshes[1:]))
        # a drawn k, both ends of the range, and both sides of every break
        ks = [min(k_max, 1.0 + fraction * (k_max - 1.0)), 1.0, k_max]
        for k in breaks[1:]:
            ks += [k, math.nextafter(k, 0.0)]
        for k in ks:
            piece = bisect.bisect_right(breaks, k) - 1
            state = balance_cutoff(1.0, spacing0, box, k)
            assert grids[piece] == state.grid_dims
            assert meshes[piece] == (state.grid_dims, state.pme_cost_ratio)

    def test_k_max_below_one_rejected(self):
        with pytest.raises(MdtuneError):
            grid_ladder(0.12, (10.8, 10.2, 9.6), 0.9)


def bisection_oracle(profile, node, config, workload):
    """predict_run as it was before the grid ladder: 48 full balance_cutoff
    calls in the bisection. Kept as the reference the ladder must match."""
    n_gpus = len(set(config.gpu_id))
    validate_config(config, node)

    budget, n_th, pme_th = rank_threads(config, node)
    nstlist = config.nstlist if config.nstlist is not None else 10
    atoms = workload.atoms

    work = float(atoms)
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
    pme_share = config.n_pme * pme_th / threads_total if config.n_pme else 0.0

    gpu_cap = 0.0
    if n_gpus:
        clock_factor = 1.0
        if profile.app_clock_mhz and node.gpus:
            clock_factor = profile.app_clock_mhz / node.gpus[0].base_clock_mhz
        ranks_per_gpu = max(1, pp_ranks // max(1, n_gpus * config.nodes))
        share_penalty = 1.0 + profile.gpu_share_overhead * (ranks_per_gpu - 1)
        gpu_cap = n_gpus * config.nodes * profile.gpu_rate * clock_factor / share_penalty

    def times(k):
        state = balance_cutoff(workload.rc0, workload.spacing0, workload.box, k)
        t_gpu = w_sr * k / gpu_cap if n_gpus else 0.0
        mesh = w_pme * state.pme_cost_ratio
        if not pme_share:
            return state, t_gpu, (w_sr_cpu + mesh + w_bonded) / cpu_cap, None
        t_mesh = mesh / (cpu_cap * pme_share)
        t_pp = (w_sr_cpu + w_bonded) / (cpu_cap * (1.0 - pme_share))
        return state, t_gpu, max(t_mesh, t_pp), None if n_gpus else t_mesh / t_pp

    k_lo, k_hi = 1.0, profile.max_balance
    state, t_gpu, t_cpu_overlap, pme_load = times(k_lo)
    if n_gpus and t_gpu < t_cpu_overlap:
        for _ in range(48):
            k_mid = 0.5 * (k_lo + k_hi)
            _, t_g, t_c, _ = times(k_mid)
            if t_g < t_c:
                k_lo = k_mid
            else:
                k_hi = k_mid
        state, t_gpu, t_cpu_overlap, _ = times(k_lo)
    step = max(t_gpu, t_cpu_overlap) + w_nonoverlap / cpu_cap
    if config.dlb == ("on" if n_gpus else "off"):
        step *= 1.0 + profile.dlb_penalty

    step += profile.rank_overhead * config.n_rank / config.nodes
    if config.nodes > 1:
        step += profile.comm_per_node * (config.nodes - 1) / config.nodes

    ns_per_day = workload.timestep_fs * 1e-6 * 86400.0 / step
    return PredictedRun(
        ns_per_day=ns_per_day,
        balance=state,
        gpu_time_s=t_gpu,
        cpu_overlap_time_s=t_cpu_overlap,
        pme_mesh_force_load=pme_load,
        step_time_s=step,
    )


# Every planned config of 1- to 4-GPU nodes, with and without separate PME ranks.
GPU_CONFIGS = [(node, config) for node in (make_node(n_gpus=g) for g in (1, 2, 3, 4))
               for config in enumerate_plan(node)]
# Every planned config of two CPU-only nodes over an nstlist scan: the
# dual 10-core test node, and a 4-socket 16-core node whose plan has
# separate-PME variants.
CPU_CONFIGS = [(node, config) for node in (make_node(), make_node(cores_per_socket=16, sockets=4))
               for config in enumerate_plan(node, SweepOptions(nstlist=(10, 20, 40, 80)))]
WORKLOADS = (
    Workload(),
    Workload(atoms=2_000_000, spacing0=RIB_SPACING, box=RIB_BOX),
    Workload(atoms=300_000, spacing0=0.1, box=(17.3, 12.1, 22.9)),
)


# A GPU plan whose layouts come with each dlb value, on one node and across
# two, then a layout the node cannot run, with each dlb value too.
SHARED_NODE = make_node(n_gpus=4)
UNRUNNABLE = LaunchConfig(n_rank=4, n_th=20, gpu_id="0123")  # 80 threads on 40
SHARED_PLAN = [
    *enumerate_plan(SHARED_NODE, SweepOptions(dlb=DLB_VALUES, nstlist=(10, 40)), nodes=2),
    *(UNRUNNABLE._replace(dlb=dlb) for dlb in DLB_VALUES),
]


class TestOneBalanceSearchPerDlbPair:
    """``predict_run`` through one memo gives what fresh calls give, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(profile=profiles)
    def test_memo_equals_fresh_calls_in_either_order(self, profile):
        cases = [(config, workload) for workload in WORKLOADS[:2] for config in SHARED_PLAN]
        for order in (cases, cases[::-1]):
            memo = {}
            for config, workload in order:
                try:
                    fresh = predict_run(profile, SHARED_NODE, config, workload)
                except InvalidConfigError:
                    with pytest.raises(InvalidConfigError):
                        predict_run(profile, SHARED_NODE, config, workload, memo)
                    continue
                shared = predict_run(profile, SHARED_NODE, config, workload, memo)
                for field, got, expected in zip(PredictedRun._fields, shared, fresh):
                    assert got == expected, (field, config, workload)
            layouts = {(config._replace(dlb="auto"), workload) for config, workload in cases
                       if config._replace(dlb="auto") != UNRUNNABLE}
            assert len(memo) == len(layouts) < len(cases)

    def test_configs_without_gpus_leave_the_memo_alone(self, cpu_node):
        memo = {}
        for config in enumerate_plan(cpu_node, SweepOptions(dlb=DLB_VALUES)):
            run = predict_run(SyntheticNodeProfile(), cpu_node, config, Workload(), memo)
            assert run == predict_run(SyntheticNodeProfile(), cpu_node, config, Workload())
        assert memo == {}


class TestBisectionOnTheLadder:
    def test_configs_cover_separate_pme(self):
        assert {config.n_pme > 0 for _, config in GPU_CONFIGS} == {False, True}
        assert {config.n_pme > 0 for _, config in CPU_CONFIGS} == {False, True}

    @settings(max_examples=150, deadline=None)
    @given(profile=profiles, case=st.sampled_from(GPU_CONFIGS),
           workload=st.sampled_from(WORKLOADS))
    def test_identical_to_full_bisection(self, profile, case, workload):
        node, config = case
        assert repr(predict_run(profile, node, config, workload)) == repr(
            bisection_oracle(profile, node, config, workload))

    @pytest.mark.parametrize("profile", [
        SyntheticNodeProfile(),
        SyntheticNodeProfile(max_balance=1.0),  # a one-piece ladder
        SyntheticNodeProfile(gpu_rate=3e8, max_balance=16.0),
        # no short-range work: GPU time is 0 at every k, so every step shifts
        SyntheticNodeProfile(offload_fraction_base=0.0),
        # k_max two floats above 1, so a midpoint lands on k_max itself
        SyntheticNodeProfile(max_balance=1.0 + 2.0 * 2.0 ** -52),
    ], ids=["default", "one_piece", "fast_gpu", "no_short_range", "k_max_at_adjacent_floats"])
    def test_every_config_matches_full_bisection(self, profile):
        for node, config in GPU_CONFIGS + CPU_CONFIGS:
            for workload in WORKLOADS:
                assert repr(predict_run(profile, node, config, workload)) == repr(
                    bisection_oracle(profile, node, config, workload)), (config, workload)

    @pytest.mark.parametrize("gpu_rate", [45640504.494575426, 418740457.98909605])
    def test_shift_that_stops_just_short_of_a_break(self, gpu_rate):
        # The GPU catches up with the CPU one ulp above a ladder break, closer
        # than the 48 steps resolve: the bisection ends just below the break,
        # in the piece before the one it searched, and takes that piece's mesh.
        node = make_node(n_gpus=2)
        config = LaunchConfig(n_rank=8, n_th=5, gpu_id="00001111", use_ht=True)
        profile, workload = SyntheticNodeProfile(gpu_rate=gpu_rate), Workload()
        run = predict_run(profile, node, config, workload)
        breaks, _ = grid_ladder(workload.spacing0, workload.box, profile.max_balance)
        k = run.balance.pp_cost_ratio
        assert 0 < breaks[bisect.bisect_right(breaks, k)] - k < 1e-13
        assert repr(run) == repr(bisection_oracle(profile, node, config, workload))

    def test_balance_cutoff_not_called_once_the_workload_is_cached(self, monkeypatch,
                                                                   gpu_node):
        calls = []

        def counted(*args):
            calls.append(args)
            return balance_cutoff(*args)

        workload = Workload()
        unshifted_state(workload.rc0, workload.spacing0, workload.box)
        monkeypatch.setattr(mdtune.balance, "balance_cutoff", counted)
        monkeypatch.setattr(mdtune.sweep, "balance_cutoff", counted)
        config = LaunchConfig(n_rank=8, n_th=5, gpu_id=gpu_id_string(2, 8),
                              use_ht=True, nstlist=40)
        run = predict_run(SyntheticNodeProfile(), gpu_node, config, workload)
        assert run.balance.pp_cost_ratio > 1.0  # the bisection ran
        assert "final" in SyntheticExecutor(gpu_node).run(config, workload)
        assert calls == []
