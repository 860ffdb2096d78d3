import json

import pytest
from hypothesis import given, strategies as st

from benchdata import GPU_BOARDS
from mdtune.errors import MdtuneError
from mdtune.hardware import (
    CpuSpec,
    GpuSpec,
    NodeSpec,
    sp_throughput,
    total_hw_threads,
)
from mdtune.wire import from_doc, to_doc as node_to_json, validate

from conftest import make_node


def gpu(cores, clock):
    return GpuSpec(model_name="g", cuda_cores=cores, base_clock_mhz=clock)


class TestSpThroughput:
    def test_k20x(self):
        # 2688 cores at 732 MHz; the vendor datasheet quotes 3950 from a
        # slightly different reference clock, the product form gives 3935.2
        assert sp_throughput(gpu(2688, 732)) == pytest.approx(3935.2, abs=0.05)

    def test_gtx680(self):
        assert sp_throughput(gpu(1536, 1058)) == pytest.approx(3250.2, abs=0.05)

    def test_unit_scale(self):
        # one core at 500 MHz and two flops per cycle is 1 Gflop/s
        assert sp_throughput(gpu(1, 500)) == pytest.approx(1.0)

    @pytest.mark.parametrize("model,cores,clock,datasheet", GPU_BOARDS)
    def test_within_datasheet_ballpark(self, model, cores, clock, datasheet):
        # datasheet figures use each board's reference clock, which can sit
        # well below the sustained benchmark clock (factory-OC boards)
        assert sp_throughput(gpu(cores, clock)) == pytest.approx(datasheet, rel=0.12)

    @given(
        cores=st.integers(min_value=1, max_value=10000),
        clock=st.floats(min_value=1, max_value=3000),
    )
    def test_linear_in_cores_and_clock(self, cores, clock):
        base = sp_throughput(gpu(cores, clock))
        assert sp_throughput(gpu(2 * cores, clock)) == pytest.approx(2 * base)
        assert sp_throughput(gpu(cores, 2 * clock)) == pytest.approx(2 * base)


class TestTotalHwThreads:
    def test_dual_ten_core_ht(self):
        assert total_hw_threads(make_node(), use_ht=True) == 40

    def test_dual_ten_core_no_ht(self):
        assert total_hw_threads(make_node(), use_ht=False) == 20

    def test_quad_core_ht(self):
        node = make_node(cores_per_socket=4, sockets=1, ht=True)
        assert total_hw_threads(node, use_ht=True) == 8

    @given(
        sockets=st.integers(1, 4),
        cores=st.integers(1, 32),
        smt=st.sampled_from([1, 2]),
    )
    def test_ht_multiplies(self, sockets, cores, smt):
        node = NodeSpec(
            cpu=CpuSpec("c", sockets=sockets, cores_per_socket=cores,
                        hardware_threads_per_core=smt)
        )
        assert total_hw_threads(node, True) == smt * total_hw_threads(node, False)


class TestInvariants:
    def test_zero_cores_rejected(self):
        with pytest.raises(MdtuneError):
            GpuSpec(model_name="g", cuda_cores=0, base_clock_mhz=700)

    def test_app_clock_below_base_rejected(self):
        with pytest.raises(MdtuneError):
            GpuSpec(model_name="g", cuda_cores=1, base_clock_mhz=700,
                    max_app_clock_mhz=600)

    @pytest.mark.parametrize("field, value", [
        ("sockets", 2.0), ("sockets", True), ("cores_per_socket", 4.0),
        ("hardware_threads_per_core", True), ("hardware_threads_per_core", 2.0),
    ])
    def test_cpu_count_that_is_no_int_rejected(self, field, value):
        # sockets=2.0 made enumerate_plan raise a bare TypeError; True passed as 1
        with pytest.raises(MdtuneError, match=f"c: {field} must be an integer, not {value!r}"):
            CpuSpec("c", **{"sockets": 1, "cores_per_socket": 4, field: value})

    @pytest.mark.parametrize("value", [1.5, 2048.0, True])
    def test_cuda_cores_that_is_no_int_rejected(self, value):
        with pytest.raises(MdtuneError, match=f"g: cuda_cores must be an integer, not {value!r}"):
            gpu(value, 700)

    def test_smt_of_three_rejected(self):
        with pytest.raises(MdtuneError):
            CpuSpec("c", sockets=1, cores_per_socket=4, hardware_threads_per_core=3)

    def test_negative_price_rejected(self):
        with pytest.raises(MdtuneError):
            NodeSpec(cpu=CpuSpec("c", 1, 4), node_price_eur=-1)


def node_from_json(doc):
    """A node document as a manifest reads it: checked, then built."""
    validate(doc, "node")
    return from_doc(NodeSpec, doc)


class TestCatalog:
    def test_round_trip(self, gpu_node):
        doc = node_to_json(gpu_node)
        again = node_from_json(json.loads(json.dumps(doc)))
        assert again == gpu_node

    def test_unknown_field_rejected(self):
        doc = node_to_json(make_node())
        doc["gpu_count"] = 2
        with pytest.raises(MdtuneError, match="gpu_count"):
            node_from_json(doc)

    def test_unknown_cpu_field_rejected(self):
        doc = node_to_json(make_node())
        doc["cpu"]["frequency"] = 3.5
        with pytest.raises(MdtuneError, match="frequency"):
            node_from_json(doc)

    def test_missing_cpu_rejected(self):
        with pytest.raises(MdtuneError, match="cpu"):
            node_from_json({"node_price": 100})

    def test_unknown_interconnect_rejected(self):
        doc = node_to_json(make_node())
        doc["interconnect"] = "edr"
        with pytest.raises(MdtuneError, match="interconnect"):
            node_from_json(doc)

    def test_gpuless_catalog(self):
        node = node_from_json(
            {
                "cpu": {"model_name": "i7", "sockets": 1, "cores_per_socket": 4},
                "node_price": 800,
                "interconnect": "none",
            }
        )
        assert node.n_gpus == 0
        assert node.interconnect == "none"
        assert node.rack_units == "desktop"
