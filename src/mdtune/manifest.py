"""Run manifests: one JSON document that describes a whole tuning session.

A manifest bundles the workload (system size, time step, step counts), the
node it runs on, sweep options, engine command template, and economics
parameters. It is validated against ``schema.json#/$defs/manifest``; the
cross-field rules the schema language cannot express are the records' own,
and ``from_doc`` names the path of the record that breaks one.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import ManifestError
from .hardware import EconParams, NodeSpec
from .launch import EngineProfile, SweepOptions, Workload
from .wire import checked, from_doc, read, validate


class Cluster(NamedTuple):
    """The nodes a plan spans."""

    node_count: int = 1


@checked
class RunManifest(NamedTuple):
    workload: Workload
    node: NodeSpec
    sweep: SweepOptions = SweepOptions()
    econ: EconParams = EconParams()
    engine: EngineProfile = EngineProfile()
    cluster: Cluster = Cluster()

    @property
    def node_count(self) -> int:
        return self.cluster.node_count

    @property
    def repeats(self) -> int:
        return self.sweep.repeats

    def _check(self):
        if (self.sweep.gpus_active or 0) > self.node.n_gpus:
            raise ManifestError(f"gpus_active ({self.sweep.gpus_active}) exceeds the node's "
                                f"{self.node.n_gpus} GPU(s)", path="sweep.gpus_active")
        return self


def manifest_from_json(doc: dict) -> RunManifest:
    """Validate a manifest document and build the typed pieces."""
    validate(doc, "manifest")
    return from_doc(RunManifest, doc)


def load_manifest(path: Path | str) -> RunManifest:
    return manifest_from_json(read(path))
