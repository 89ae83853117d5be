"""Write perfbench/expected/<workload>.json: every op's output at the default seed.

Regenerate only when a change is meant to alter an exact output; the file
is what every later run is compared against. Refuses to write if any op
fails its invariant checks.

Usage: python3 perfbench/make_expected.py [workload ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker

worker.import_program()
import workloads  # noqa: E402  (needs the program on the path first)


def main(names: list[str]) -> int:
    for name in names or list(workloads.WORKLOADS):
        workdir = os.path.join(worker.OUT, "work", f"expected-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            ops = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, False, workdir)
            outputs = {}
            for op in ops:
                out = op.output(op.run())
                error = op.check(out)
                if error is not None:
                    print(f"{op.op_id}: {error}", file=sys.stderr)
                    return 1
                outputs[op.op_id] = out
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = os.path.join(worker.HERE, "expected", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"seed": workloads.DEFAULT_SEED, "outputs": outputs}, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"{name}: {len(outputs)} ops -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
