#!/usr/bin/env python3
"""Record the default-seed values that later runs must reproduce.

    python3 perfbench/record_golden.py

Runs every input of every workload once at the default seed and full size
and writes the values each output check pins (k*, t_bar, u, rejection
counts, simulation means) to golden.json.  Run it only on a commit whose
results are the reference: later runs at the default seed fail when they
differ by more than 1e-12 relative.
"""

import json
import shutil
import sys

import run


def main():
    run.locate_package()
    sys.path.insert(0, str(run.HERE))
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        workdir = run.WORK / f"golden-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            runner = run.Runner(workloads.build(name, run.DEFAULT_SEED, "full", workdir / "in"),
                                workdir, None)
            for i in range(len(runner.workload.ops)):
                runner.run(i)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failed:
            sys.exit("\n".join(runner.problems))
        golden[name] = [[runner.pinned[i][j] for j in sorted(runner.pinned[i])]
                        for i in range(len(runner.workload.ops))]
        print(f"{name}: {len(golden[name])} inputs", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
