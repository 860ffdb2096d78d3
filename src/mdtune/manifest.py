"""Run manifests: one JSON document that describes a whole tuning session.

A manifest bundles the workload (system size, time step, step counts), the
node it runs on, sweep options, engine command template, and economics
parameters. It is validated against ``schema.json#/$defs/manifest`` plus a
few cross-field rules the schema language cannot express; validation errors
name the offending field path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .balance import Workload
from .econ import EconParams
from .errors import ManifestError, MdtuneError
from .hardware import NodeSpec
from .launch import EngineProfile, SweepOptions
from .wire import from_doc, read, validate


@dataclass(frozen=True)
class RunManifest:
    workload: Workload
    node: NodeSpec
    sweep: SweepOptions = SweepOptions()
    econ: EconParams = EconParams()
    engine: EngineProfile = EngineProfile()
    node_count: int = 1
    repeats: int = 2

    WIRE = {"node_count": "cluster.node_count", "repeats": "sweep.repeats"}


def manifest_from_json(doc: dict) -> RunManifest:
    """Validate a manifest document and build the typed pieces."""
    validate(doc, "manifest")
    w = doc["workload"]
    if w["benchmark_steps"] <= w["reset_steps"]:
        raise ManifestError(
            f"benchmark_steps ({w['benchmark_steps']}) must exceed "
            f"reset_steps ({w['reset_steps']})",
            path="workload.benchmark_steps",
        )
    try:
        manifest = from_doc(RunManifest, doc)
    except MdtuneError as exc:
        # past the schema, only the node's cross-field checks can fail
        raise ManifestError(str(exc), path="node") from exc
    if manifest.sweep.gpus_active is not None and manifest.sweep.gpus_active > manifest.node.n_gpus:
        raise ManifestError(
            f"gpus_active ({manifest.sweep.gpus_active}) exceeds the node's "
            f"{manifest.node.n_gpus} GPU(s)",
            path="sweep.gpus_active",
        )
    return manifest


def load_manifest(path: Path | str) -> RunManifest:
    return manifest_from_json(read(path))
