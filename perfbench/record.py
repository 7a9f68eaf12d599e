"""Record the reference output of every workload for seeds 0..N-1.

Usage, from the root of a checkout whose outputs are known good::

    python3 perfbench/record.py --seeds 32 [--workload NAME ...]

For each seed and workload this runs one set-up and one round with the
program in ``src/``, requires the output to agree with the independent
oracle, and stores the sha256 of the output bytes in ``references.json``:
the hard-label bytes for ``lowshot_d16``, the report JSON for
``variable_d128`` and the grid CSV for ``ablate_grid_pool2``. ``run.py``
compares against these digests and falls back to the oracle for seeds
with none. ``--workload`` re-records only the named workloads and keeps
the other entries. Re-record only when a change alters outputs on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    run._import_program()
    from workloads import WORKLOADS

    path = os.path.join(run.HERE, "references.json")
    with open(path) as fh:
        references = json.load(fh)
    for name in args.workload or WORKLOADS:
        cls = WORKLOADS[name]
        references[name] = {}
        work_dir = os.path.join(run.WORK, f"record-{name}")
        os.makedirs(work_dir, exist_ok=True)
        for seed in range(args.seeds):
            wl = cls(work_dir, seed)
            wl.setup()
            output = wl.round().output
            if not wl.matches_oracle(output):
                print(f"{name} seed {seed}: output disagrees with the oracle", file=sys.stderr)
                return 1
            references[name][str(seed)] = hashlib.sha256(output).hexdigest()
            print(f"{name} seed {seed}: {references[name][str(seed)]}", flush=True)

    with open(path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
