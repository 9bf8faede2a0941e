"""Record the outputs that bench/run.py checks into bench/reference.json.

Usage, from the repository root: python3 bench/make_reference.py

Runs every workload once per position, full and smoke variants, and
stores the checked outputs (verdict or status line, the E column of
energy.csv, rho per level). Rerun only when a change of the program's
numbers is intended, and say so in CHANGES.md.
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    reference = {}
    for workload in wl.WORKLOADS.values():
        reference[workload.name] = {}
        for mode, smoke in (("full", False), ("smoke", True)):
            entries = []
            for seed, x in enumerate(workload.variant(smoke).positions):
                sample = run.repeat(workload, seed, smoke, False, None, 0)
                if sample.failures:
                    print("\n".join(sample.failures), file=sys.stderr)
                    return 1
                entries.append({workload.position_key: x, **sample.observed})
                print(f"{workload.name} {mode} {x}: {sample.wall_s:.2f} s", flush=True)
            reference[workload.name][mode] = entries
    with open(wl.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
