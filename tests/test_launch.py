import math

import pytest
from hypothesis import given, settings, strategies as st

from mdtune.errors import InvalidConfigError
from mdtune.hardware import CpuSpec, GpuSpec, NodeSpec, total_hw_threads
from mdtune.launch import (
    EngineProfile,
    LaunchConfig,
    SweepOptions,
    Workload,
    enumerate_plan,
    gpu_id_string,
    load_plan,
    plan_multi_sim,
    plan_to_json,
    plan_to_script,
    render_command,
    validate_config,
)

from conftest import make_node


def brute_force_even_split(n_gpus: int, n_pp_ranks: int) -> list[list[int]]:
    """Oracle: contiguous partitions of ranks into GPU groups, sizes within 1.

    Enumerates every order-preserving assignment and keeps the balanced
    ones; any valid mapping string must equal one of these.
    """
    small, rem = divmod(n_pp_ranks, n_gpus)
    results = []

    def build(prefix, gpu, remaining):
        if gpu == n_gpus:
            if remaining == 0:
                results.append(prefix)
            return
        for size in (small, small + 1):
            if size <= remaining:
                build(prefix + [gpu] * size, gpu + 1, remaining - size)

    build([], 0, n_pp_ranks)
    _ = rem
    return results


class TestLaunchConfig:
    @pytest.mark.parametrize("field, value", [("n_th", -1), ("n_th_pme", 0), ("nstlist", 0),
                                              ("nstlist", -10)])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            LaunchConfig(n_rank=4, n_pme=2, **{field: value})

    @pytest.mark.parametrize("nstlist", [pytest.param(2**31, id="2**31"),
                                         pytest.param(10**400, id="10**400")])
    def test_nstlist_beyond_a_c_int_rejected(self, nstlist):
        # the engine reads -nstlist as a C int, and 10**400 aborted a synthetic
        # sweep with OverflowError in predict_run
        with pytest.raises(InvalidConfigError, match=r"nstlist must be in \[1, 2147483647\]"):
            LaunchConfig(n_rank=4, n_th=2, nstlist=nstlist)
        with pytest.raises(InvalidConfigError, match="nstlist"):
            LaunchConfig(n_rank=4, n_th=2)._replace(nstlist=nstlist)
        with pytest.raises(InvalidConfigError, match="nstlist"):
            enumerate_plan(make_node(), SweepOptions(nstlist=(nstlist,)))

    def test_largest_c_int_nstlist_accepted(self):
        config = LaunchConfig(n_rank=4, n_th=2, nstlist=2**31 - 1)
        assert " -nstlist 2147483647 " in render_command(config)

    @pytest.mark.parametrize("field, value", [
        ("n_rank", 4.0), ("n_rank", True), ("n_th", 2.0), ("n_pme", False), ("nodes", 1.0),
        ("n_th_pme", 2.0), ("nstlist", True), ("dd_grid", (2.0, 2, 1)), ("dd_grid", (1, True, 4)),
    ])
    def test_non_integer_count_rejected(self, field, value):
        # a float or a bool would reach the command line as written: "-ntmpi 4.0"
        with pytest.raises(InvalidConfigError, match=f"{field} must be (an )?integer"):
            LaunchConfig(**{"n_rank": 4, field: value})

    @pytest.mark.parametrize("use_ht", [1, 0, "no", None, 1.0])
    def test_use_ht_other_than_a_bool_rejected(self, use_ht):
        # "no" counted as hyper-threading on, and 1 hashes equal to True
        with pytest.raises(InvalidConfigError, match=f"use_ht must be True or False, not "
                                                     f"{use_ht!r}"):
            LaunchConfig(n_rank=2, use_ht=use_ht)

    @pytest.mark.parametrize("ht", [(1,), (0,), (False, 1)])
    def test_enumerate_plan_rejects_ht_other_than_bools(self, ht):
        # the plan it returned before failed load_plan: "0.use_ht: 1 is not of type 'boolean'"
        with pytest.raises(InvalidConfigError, match="use_ht must be True or False"):
            enumerate_plan(make_node(), SweepOptions(ht=ht))

    @pytest.mark.parametrize("dd_grid", [(2, 2), (1, 1, 1, 4), (-1, -2, 2), (4, 0, 1)])
    def test_malformed_dd_grid_rejected(self, dd_grid):
        with pytest.raises(InvalidConfigError, match="dd_grid must be three counts >= 1"):
            LaunchConfig(n_rank=4, dd_grid=dd_grid)

    def test_more_ranks_than_threads_to_fill_rejected(self):
        # n_th = 0 fills the thread budget; 64 ranks on 40 threads leave none
        with pytest.raises(InvalidConfigError, match="64 ranks exceed 40 threads"):
            validate_config(LaunchConfig(n_rank=64, use_ht=True), make_node())
        with pytest.raises(InvalidConfigError, match="ranks exceed"):
            validate_config(LaunchConfig(n_rank=64, n_pme=8, n_th_pme=2, use_ht=True),
                            make_node())

    @pytest.mark.parametrize("gpu_id", ["0", "1", "11"])
    def test_gpu_subset_accepted(self, gpu_id):
        config = LaunchConfig(n_rank=len(gpu_id), n_th=4, gpu_id=gpu_id)
        validate_config(config, make_node(n_gpus=2))  # must not raise

    @pytest.mark.parametrize("n_gpus, gpu_id", [(2, "2"), (2, "012"), (1, "01"), (0, "0")])
    def test_gpu_beyond_node_rejected(self, n_gpus, gpu_id):
        config = LaunchConfig(n_rank=len(gpu_id), n_th=4, gpu_id=gpu_id)
        with pytest.raises(InvalidConfigError, match=f"node has {n_gpus} GPU"):
            validate_config(config, make_node(n_gpus=n_gpus))

    @pytest.mark.parametrize("gpu_id", ["²", "٠", "0١", "0x", " 0"])
    def test_gpu_id_of_other_than_ascii_digits_rejected(self, gpu_id):
        # "²".isdigit() and "٠".isdigit() hold: int("²") raised a bare
        # ValueError out of a library sweep, and "٠" reached the command line
        with pytest.raises(InvalidConfigError, match="gpu_id must be a string of the digits 0-9"):
            LaunchConfig(n_rank=len(gpu_id), gpu_id=gpu_id)


class TestWorkload:
    @pytest.mark.parametrize("field, value", [
        ("benchmark_steps", 5000.0), ("benchmark_steps", True), ("reset_steps", 1000.0),
        ("reset_steps", True), ("reset_steps", False),
    ])
    def test_non_integer_step_count_rejected(self, field, value):
        # a float or a bool would reach the command line as written: "-nsteps 5000.0"
        with pytest.raises(InvalidConfigError, match=f"{field} must be an integer, not {value!r}"):
            Workload(**{field: value})

    def test_negative_reset_steps_rejected(self):
        with pytest.raises(InvalidConfigError, match="reset_steps must be >= 0"):
            Workload(reset_steps=-5)

    @pytest.mark.parametrize("box, spacing0", [
        ((10.8, 10.2, 9.6), 1e-300), ((10.8, 10.2, 9.6), 0.0), ((1200.1, 10.0, 10.0), 0.12),
    ])
    def test_mesh_beyond_the_limit_rejected(self, box, spacing0):
        with pytest.raises(InvalidConfigError, match="exceeds 10000 mesh points"):
            Workload(box=box, spacing0=spacing0)

    @pytest.mark.parametrize("field, wire, value", [
        ("rc0", "rc0_nm", math.nan), ("spacing0", "spacing0_nm", math.nan),
        ("box", "box_nm", (math.nan, 10.0, 10.0)), ("box", "box_nm", (10.8, 10.2, math.nan)),
        ("rc0", "rc0_nm", 0.0), ("rc0", "rc0_nm", -1.0), ("box", "box_nm", (10.8, -1.0, 9.6)),
    ])
    def test_length_that_is_not_positive_rejected(self, field, wire, value):
        # NaN passed every comparison: spacing0 and box aborted a synthetic sweep
        # ("cannot convert float NaN to integer"), and rc0 failed each GPU run
        # as a log with no 'initial' load-balancing row
        with pytest.raises(InvalidConfigError, match=f"{wire} must be positive, not "):
            Workload(**{field: value})

    @pytest.mark.parametrize("field, wire", [
        ("rc0", "rc0_nm"), ("spacing0", "spacing0_nm"), ("timestep_fs", "timestep_fs"),
    ])
    def test_value_that_is_not_finite_rejected(self, field, wire):
        # spacing0 = inf swept to rows, and rc0 = inf failed each GPU run as a
        # log with no 'initial' load-balancing row
        with pytest.raises(InvalidConfigError, match=f"^{wire} must be finite, not inf$"):
            Workload(**{field: math.inf})

    @pytest.mark.parametrize("value", [-2.0, 0.0, -math.inf, math.nan])
    def test_timestep_that_is_not_positive_rejected(self, value):
        # -2.0 failed each run as "malformed performance: '-151.15...'"
        with pytest.raises(InvalidConfigError, match="^timestep_fs must be positive, not "):
            Workload(timestep_fs=value)

    def test_zero_reset_steps_accepted(self):
        command = render_command(LaunchConfig(n_rank=1), EngineProfile(), Workload(reset_steps=0))
        assert command.endswith("-nsteps 5000 -resetstep 0")


class TestGpuIdString:
    def test_two_gpus_six_ranks(self):
        assert gpu_id_string(2, 6) == "000111"

    def test_four_gpus_ten_ranks(self):
        assert gpu_id_string(4, 10) == "0001122233"

    def test_single(self):
        assert gpu_id_string(1, 1) == "0"

    def test_three_gpus_seven_ranks(self):
        assert gpu_id_string(3, 7) == "0001122"

    def test_fewer_ranks_than_gpus_rejected(self):
        with pytest.raises(InvalidConfigError):
            gpu_id_string(4, 3)

    def test_property_suite_against_oracle(self):
        # balanced, ordered, covering, for every G <= 8, N <= 64
        for n_gpus in range(1, 9):
            for n_ranks in range(n_gpus, 65):
                s = gpu_id_string(n_gpus, n_ranks)
                ids = [int(c) for c in s]
                assert len(ids) == n_ranks
                assert ids == sorted(ids), (n_gpus, n_ranks)
                assert set(ids) == set(range(n_gpus)), (n_gpus, n_ranks)
                sizes = [ids.count(g) for g in range(n_gpus)]
                assert max(sizes) - min(sizes) <= 1, (n_gpus, n_ranks)
                assert ids in brute_force_even_split(n_gpus, n_ranks)


def interleaved_layouts(configs):
    """The interleaved-PME layouts of a plan, its only GPU configs with mesh ranks."""
    return [c for c in configs if c.gpu_id and c.n_pme]


def single_node_scan(configs):
    """The rank/thread scan of a plan: all but its interleaved-PME layouts."""
    return [c for c in configs if not (c.gpu_id and c.n_pme)]


class TestEnumerateSingleNode:
    """The single-node rank/thread scan that opens every plan."""

    def test_ranklist_matches_classic_scan(self):
        # 40 hardware threads with 2 GPUs: the rank candidates are exactly
        # the divisors of 40 that keep one rank per GPU
        node = make_node(n_gpus=2)
        configs = single_node_scan(enumerate_plan(node, SweepOptions(ht=[True])))
        ranks = sorted({c.n_rank for c in configs}, reverse=True)
        assert ranks == [40, 20, 10, 8, 5, 4, 2]

    def test_quad_core_no_gpu(self):
        node = make_node(cores_per_socket=4, sockets=1, ht=True)
        configs = enumerate_plan(node, SweepOptions(ht=[False]))
        assert {(c.n_rank, c.n_th) for c in configs} == {(4, 1), (2, 2), (1, 4)}
        with_ht = enumerate_plan(node)
        assert {(c.n_rank, c.n_th) for c in with_ht if c.use_ht} == {
            (8, 1), (4, 2), (2, 4), (1, 8),
        }

    def test_one_rank_per_gpu_enforced(self):
        node = make_node(ht=False, n_gpus=2)  # 20 cores
        configs = enumerate_plan(node, SweepOptions(gpus_active=2))
        assert all(c.n_rank >= 2 for c in configs)
        # four active GPUs on the 20-core budget: n_rank=2 must disappear
        node4 = make_node(ht=False, n_gpus=4)
        configs4 = enumerate_plan(node4)
        assert all(c.n_rank >= 4 for c in configs4)
        assert not any(c.n_rank == 2 for c in configs4)

    @pytest.mark.parametrize("gpus_active", [3, -1])
    def test_active_gpus_beyond_the_node_rejected(self, gpus_active):
        with pytest.raises(InvalidConfigError,
                           match=f"requested {gpus_active} active GPUs but node has 2"):
            enumerate_plan(make_node(n_gpus=2), SweepOptions(gpus_active=gpus_active))

    @pytest.mark.parametrize("gpus_active", [1.0, True])
    def test_active_gpus_not_an_int_rejected(self, gpus_active):
        # 1.0 reached gpu_id_string and was reported as a bad gpu_id
        with pytest.raises(InvalidConfigError,
                           match=f"gpus_active must be an integer, not {gpus_active!r}"):
            enumerate_plan(make_node(n_gpus=2), SweepOptions(gpus_active=gpus_active))

    @pytest.mark.parametrize("nodes", [2.0, True, 0])
    def test_nodes_not_a_count_rejected(self, nodes):
        with pytest.raises(InvalidConfigError, match="nodes must be"):
            enumerate_plan(make_node(n_gpus=2), nodes=nodes)

    def test_gpu_configs_carry_both_dlb_settings(self):
        node = make_node(n_gpus=2)
        configs = single_node_scan(enumerate_plan(node, SweepOptions(ht=[True])))
        by_rank = {c.n_rank for c in configs if c.dlb == "on"}
        assert by_rank == {c.n_rank for c in configs if c.dlb == "off"}

    def test_cpu_pme_variants_on_big_nodes(self):
        node = make_node(ht=False)  # 20 cores, no GPUs
        configs = enumerate_plan(node, SweepOptions())
        pme_counts = {c.n_pme for c in configs if c.n_rank == 20}
        # fractions 1/8..1/2 of 20 ranks, rounded (half-to-even) and deduplicated
        assert pme_counts == {0, 2, 3, 5, 7, 10}

    def test_no_pme_variants_on_small_nodes(self):
        node = make_node(cores_per_socket=4, sockets=1)
        configs = enumerate_plan(node)
        assert all(c.n_pme == 0 for c in configs)

    def test_all_emitted_configs_valid(self):
        for n_gpus in (0, 1, 2, 4):
            node = make_node(n_gpus=n_gpus)
            for nodes in (1, 3):
                for config in enumerate_plan(node, nodes=nodes):
                    validate_config(config, node)  # must not raise

    @settings(max_examples=60, deadline=None)
    @given(
        sockets=st.integers(1, 2),
        cores=st.integers(1, 16),
        smt=st.sampled_from([1, 2]),
        n_gpus=st.integers(0, 4),
        nodes=st.integers(1, 4),
    )
    def test_enumeration_property(self, sockets, cores, smt, n_gpus, nodes):
        node = NodeSpec(
            cpu=CpuSpec("c", sockets=sockets, cores_per_socket=cores,
                        hardware_threads_per_core=smt),
            gpus=(GpuSpec("g", cuda_cores=1024, base_clock_mhz=1000),) * n_gpus,
        )
        if n_gpus > sockets * cores:
            return  # budget cannot host one rank per GPU without HT
        configs = enumerate_plan(node, nodes=nodes)
        assert configs
        for config in configs:
            validate_config(config, node)
        scan, tail = single_node_scan(configs), interleaved_layouts(configs)
        assert configs == scan + tail
        for config in scan:
            assert config.nodes == 1
            assert config.n_rank * config.n_th == total_hw_threads(node, config.use_ht)
        # the interleaved layouts: one PP and one PME rank per GPU on each
        # node, wherever the budget gives each rank a thread
        budgets = [total_hw_threads(node, ht) for ht in ((False, True) if smt > 1 else (False,))]
        assert bool(tail) == (n_gpus > 0 and max(budgets) >= 2 * n_gpus)
        for config in tail:
            budget = total_hw_threads(node, config.use_ht)
            assert (config.nodes, config.n_rank, config.n_pme) == (nodes, 2 * n_gpus * nodes,
                                                                   n_gpus * nodes)
            assert config.gpu_id == "0123"[:n_gpus]
            assert config.n_th + config.n_th_pme == 2 * (budget // (2 * n_gpus))


class TestInterleavedPme:
    """The interleaved-PME layouts that close a GPU node's plan."""

    def test_published_32_node_layout(self):
        configs = interleaved_layouts(enumerate_plan(make_node(n_gpus=2), nodes=32))
        assert {(c.n_rank, c.n_pme, c.gpu_id) for c in configs} == {(128, 64, "01")}

    def test_single_node_single_gpu(self):
        configs = interleaved_layouts(enumerate_plan(make_node(n_gpus=1)))
        assert {(c.n_rank, c.n_pme, c.gpu_id) for c in configs} == {(2, 1, "0")}

    def test_uneven_thread_split_fits_budget(self):
        # 2 PP ranks x 4 threads + 2 PME ranks x 6 threads = 20 cores
        node = make_node(ht=False, n_gpus=2)
        configs = interleaved_layouts(enumerate_plan(node, nodes=64))
        assert [(c.n_th, c.n_th_pme) for c in configs] == [(5, 5), (4, 6)]
        config = configs[1]
        validate_config(config, node)
        assert 2 * config.n_th + 2 * config.n_th_pme == 20

    def test_none_without_mesh_variants(self):
        options = SweepOptions(pme_variants=False)
        assert interleaved_layouts(enumerate_plan(make_node(n_gpus=2), options)) == []


class TestMultiSim:
    def test_five_replicas_on_forty_threads(self):
        plan = plan_multi_sim(make_node(n_gpus=1), replicas=5)
        assert plan.threads_per_replica == 8
        assert plan.leftover_threads == 0

    def test_leftover_threads_reported(self):
        plan = plan_multi_sim(make_node(), replicas=3)
        assert plan.threads_per_replica == 13
        assert plan.leftover_threads == 1

    def test_replica_gpu_map(self):
        plan = plan_multi_sim(make_node(n_gpus=2), replicas=4)
        assert plan.per_replica_gpu_id == "0011"

    def test_degenerate_single_replica(self):
        plan = plan_multi_sim(make_node(), replicas=1)
        assert plan.replicas == 1
        assert plan.threads_per_replica == 40
        assert plan.replicas * plan.ranks_per_replica == 1

    def test_too_many_replicas_rejected(self):
        with pytest.raises(InvalidConfigError):
            plan_multi_sim(make_node(), replicas=41)

    def test_interleaved_across_nodes(self):
        plan = plan_multi_sim(make_node(n_gpus=2), replicas=4, nodes=16,
                              placement="interleaved")
        assert plan.ranks_per_replica == 16
        assert plan.nodes == 16

    def test_fewer_replicas_than_gpus_across_nodes(self):
        # the spare GPU stays idle, on one node as across nodes
        for nodes in (1, 2):
            plan = plan_multi_sim(make_node(n_gpus=2), replicas=1, nodes=nodes)
            assert plan.per_replica_gpu_id == "0"

    def test_dense_requires_divisible_nodes(self):
        with pytest.raises(InvalidConfigError):
            plan_multi_sim(make_node(), replicas=3, nodes=16, placement="dense")

    @pytest.mark.parametrize("nodes, placement", [(0, "interleaved"), (-2, "dense")])
    def test_nodes_below_one_rejected(self, nodes, placement):
        with pytest.raises(InvalidConfigError, match="nodes must be >= 1"):
            plan_multi_sim(make_node(n_gpus=2), replicas=4, nodes=nodes, placement=placement)

    # A float count planned 20.0 threads per replica on a CPU-only node, or 2.0
    # ranks per replica over 2.0 nodes, and raised a bare TypeError with GPUs;
    # True planned one replica.
    @pytest.mark.parametrize("n_gpus", [0, 2])
    @pytest.mark.parametrize("count", [2.0, True])
    @pytest.mark.parametrize("name", ["replicas", "nodes"])
    def test_counts_not_ints_rejected(self, n_gpus, count, name):
        counts = {"replicas": 2, "nodes": 2, name: count}
        with pytest.raises(InvalidConfigError,
                           match=f"{name} must be an integer, not {count!r}"):
            plan_multi_sim(make_node(n_gpus=n_gpus), **counts)


class TestRenderCommand:
    def test_thread_mpi_gpu(self):
        config = LaunchConfig(n_rank=6, gpu_id="000111")
        assert render_command(config) == "mdrun -ntmpi 6 -gpu_id 000111 -s in.tpr"

    def test_external_mpi_interleaved(self):
        config = LaunchConfig(n_rank=128, n_pme=64, gpu_id="01", nodes=32)
        profile = EngineProfile(mdrun="mdrun_mpi", thread_mpi=False)
        command = render_command(config, profile)
        assert command.startswith("mpirun -np 128 mdrun_mpi")
        assert "-npme 64" in command
        assert "-gpu_id 01" in command

    def test_no_gpu_flag_without_gpus(self):
        config = LaunchConfig(n_rank=1, n_th=4)
        command = render_command(config)
        assert "-gpu_id" not in command
        assert command == "mdrun -ntmpi 1 -ntomp 4 -s in.tpr"

    def test_steps_flags_from_workload(self):
        workload = Workload(benchmark_steps=5000, reset_steps=1000)
        command = render_command(LaunchConfig(n_rank=4), EngineProfile(), workload)
        assert command.endswith("-s in.tpr -nsteps 5000 -resetstep 1000")


class TestPlanSerialization:
    def test_json_round_trip(self, tmp_path):
        node = make_node(n_gpus=2)
        configs = enumerate_plan(node, nodes=2)
        path = tmp_path / "plan.json"
        path.write_text(plan_to_json(configs))
        assert load_plan(path) == configs

    def test_script_one_command_per_line(self):
        node = make_node(n_gpus=1)
        configs = enumerate_plan(node, SweepOptions(ht=[False]))
        script = plan_to_script(configs)
        lines = script.strip().splitlines()
        assert len(lines) == len(configs)
        assert all(line.startswith("mdrun ") for line in lines)
