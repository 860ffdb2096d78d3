import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # for benchdata

from mdtune.balance import SyntheticNodeProfile
from mdtune.hardware import CpuSpec, GpuSpec, NodeSpec

DATA = Path(__file__).parent / "data"


def read_log(name: str) -> str:
    return (DATA / name).read_text()


@pytest.fixture
def si_pme_imbalance():
    return read_log("si_pme_imbalance.log")


@pytest.fixture
def si_pme_balanced():
    return read_log("si_pme_balanced.log")


@pytest.fixture
def si_gpu_force():
    return read_log("si_gpu_force.log")


@pytest.fixture
def si_load_balance():
    return read_log("si_load_balance.log")


def make_node(cores_per_socket=10, sockets=2, ht=True, n_gpus=0, price=4400.0):
    """A dual-socket ten-core node, optionally with consumer GPUs."""
    gpu = GpuSpec(
        model_name="GTX 980",
        cuda_cores=2048,
        base_clock_mhz=1126,
        memory_gb=4,
        price_eur=450,
        idle_power_w=24,
    )
    return NodeSpec(
        cpu=CpuSpec(
            model_name="E5-2680v2",
            sockets=sockets,
            cores_per_socket=cores_per_socket,
            hardware_threads_per_core=2 if ht else 1,
            base_clock_mhz=2800,
        ),
        gpus=(gpu,) * n_gpus,
        node_price_eur=price,
        rack_units=2,
    )


@pytest.fixture
def cpu_node():
    return make_node(n_gpus=0)


@pytest.fixture
def gpu_node():
    return make_node(n_gpus=2)


@pytest.fixture
def quad_core_node():
    return make_node(cores_per_socket=4, sockets=1, ht=False, price=800.0)


def _between(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


# Synthetic node profiles with every field drawn over a plausible range.
profiles = st.builds(
    SyntheticNodeProfile,
    cpu_rate=_between(2e5, 2e7),
    gpu_rate=_between(5e6, 3e8),
    offload_fraction_base=_between(0.2, 0.8),
    pme_fraction_base=_between(0.05, 0.5),
    rank_overhead=_between(0.0, 5e-5),
    thread_efficiency_decay=_between(0.0, 0.2),
    gpu_share_overhead=_between(0.0, 0.1),
    nstlist_penalty=_between(0.0, 3.0),
    buffer_growth=_between(0.0, 0.01),
    ht_speedup=_between(0.9, 1.3),
    comm_per_node=_between(0.0, 5e-4),
    max_balance=_between(1.0, 16.0),
    dlb_penalty=_between(0.0, 0.1),
    app_clock_mhz=st.none() | _between(500.0, 2000.0),
)
