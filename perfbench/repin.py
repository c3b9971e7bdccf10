"""Re-pin the behaviour fingerprints in ``pins.json`` at the default seed.

    python3 perfbench/repin.py                 # every workload
    python3 perfbench/repin.py churn_recovery  # only the named ones

Run this only after a deliberate behaviour change that the change's
description states; a fingerprint that moves for any other reason is a
bug the benchmark is there to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pins_for(name: str):
    """The fingerprint (or, for the grid, one per spec) at the default seed."""
    import repro

    import checks
    import workloads

    seed = workloads.DEFAULT_SEED
    if name == "paper_grid":
        result_set = workloads.build_study(seed).run(jobs=workloads.GRID_JOBS)
        return {
            workloads.Grid.key(record): checks.fingerprint(record)
            for record in result_set
        }
    return checks.fingerprint(repro.run_simulation(workloads.build_config(name, seed)))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    names = argv[1:] or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    pins = checks.load_pins() if checks.PINS_PATH.exists() else {}
    pins["seed"] = workloads.DEFAULT_SEED
    for name in names:
        pins[name] = pins_for(name)
        print(f"pinned {name}")
    checks.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
