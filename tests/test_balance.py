import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mdtune.balance import (
    SyntheticNodeProfile,
    Workload,
    balance_cutoff,
    fft_friendly_size,
    is_fft_friendly,
    load_profile,
    next_fft_friendly_below,
    predict_performance,
    predict_run,
)
from mdtune.errors import InvalidConfigError, MdtuneError
from mdtune.launch import LaunchConfig, gpu_id_string, interleaved_pme_layout
from mdtune.wire import from_doc, to_doc

from conftest import make_node

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
        assert next_fft_friendly_below(150) == 147
        assert next_fft_friendly_below(147) == 144
        assert not is_fft_friendly(149)


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
        assert next_fft_friendly_below(n) < n_ideal + 1e-9
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
        replace(interleaved_pme_layout(2, 4, 2, n_th=4, n_th_pme=6, use_ht=True), nstlist=40),
        (289.6943543254529, 0.0005964907407407406, 0.0003319004444311661,
         0.0003407407407407407, None, 1.1333333333182196, (80, 80, 72))),
    "gpu_interleaved_4_nodes": (
        make_node(n_gpus=2),
        replace(interleaved_pme_layout(4, 4, 2, n_th=3, n_th_pme=2), dlb="on"),
        (255.00500823638131, 0.0006776337500000001, 0.0002807291666666659,
         0.0002807291666666667, None, 1.3945980776612374, (70, 63, 60))),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_predict_run_pinned(name):
    node, config, expected = PINNED_RUNS[name]
    run = predict_run(SyntheticNodeProfile(), node, config, Workload())
    assert (run.ns_per_day, run.step_time_s, run.gpu_time_s, run.cpu_overlap_time_s,
            run.pme_mesh_force_load, run.balance.rcoulomb, run.balance.grid_dims) == expected
