"""Record the output digest of every workload for seeds 0 to N-1.

Usage: python3 perfbench/record_digests.py [N]

Run from the root of a checkout, on the commit whose outputs are the
reference. A benchmark run on a recorded seed is incorrect when its
outputs differ from the digest written to digests.json.
"""

import json
import sys

import run


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    if not run.use_sources():
        return 2
    import sessions

    env = sessions.mdtune_env(run.ROOT)
    work = run.ROOT / ".perfbench" / "work" / "record"
    digests = {}
    for workload in run.WORKLOADS:
        for seed in range(count):
            runner, _ = run.prepare(workload, seed, work, env)
            _, out = runner.session()
            runner.check(out)
            digests.setdefault(workload, {})[str(seed)] = out.digest
        print(f"{workload}: {count} seeds", flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
