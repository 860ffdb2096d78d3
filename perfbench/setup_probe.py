"""Time a fresh interpreter's set-up: import, manifest validation, plan.

Usage: python3 setup_probe.py MANIFEST

Prints one JSON object with the seconds each step took and the plan size.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import mdtune.cli as cli

    imported = time.perf_counter()
    manifest = cli.load_manifest(sys.argv[1])
    loaded = time.perf_counter()
    configs = cli.enumerate_plan(manifest.node, manifest.sweep, nodes=manifest.node_count)
    done = time.perf_counter()
    import json

    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                      "enumerate_s": done - loaded, "configs": len(configs)}))


if __name__ == "__main__":
    main()
