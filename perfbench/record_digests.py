"""Record the expected output digest of every workload, size and seed.

    python3 perfbench/record_digests.py [--seeds 0-63]

writes ``perfbench/digests.json``, which ``run.py`` checks every repetition
against.  Run it again, and commit the file, only for a change that is meant
to alter the simulated outputs; a change that is not must leave the file as
it is.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import perfbench_workloads

    table = {name: {size: {} for size in perfbench_workloads.SIZES}
             for name in perfbench_workloads.NAMES}
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for seed in args.seeds:
            for name in perfbench_workloads.NAMES:
                for size in perfbench_workloads.SIZES:
                    workload = perfbench_workloads.make(name, seed, size, 2, scratch)
                    state = workload.setup()
                    try:
                        timed = workload.timed(state)
                    finally:
                        workload.teardown(state)
                    if timed.problems:
                        raise RuntimeError(f"{name} {size} seed {seed}: {timed.problems}")
                    table[name][size][str(seed)] = perfbench_workloads.digest(timed.outputs)
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
