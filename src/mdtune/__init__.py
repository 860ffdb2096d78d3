"""mdtune: benchmark auto-tuning and cost-efficiency analysis for
offload-style molecular dynamics engines.

The pieces, bottom to top: hardware types and cost inputs (``hardware``),
launch configurations and the workload that sizes their runs (``launch``),
engine log parsing (``logparse``), load-balance math and a synthetic
performance model (``balance``), sweep orchestration (``sweep``), economics
(``econ``), report rendering (``report``), and the ``mdtune`` CLI (``cli``).

Import names from their modules (``from mdtune.sweep import run_sweep``).
This package imports none of them, so that each ``mdtune`` command loads
only the layers it runs; ``mdtune.cli`` resolves its own names through the
module on first use, where a benchmark's tracer can replace them.
"""

__version__ = "0.1.0"
