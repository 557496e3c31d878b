#!/usr/bin/env python3
"""adapterlab pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark imports adapterlab from that
checkout's ``src/``, drives ``adapterlab.cli.dispatch`` in this process, and
prints one JSON object as the last line of standard output: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``. Progress
and failed checks go to standard error. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1     # at most nproc (2 on the reference machine); see README
WORKLOADS = ("pretrain_nl", "lang_adapter_cloze", "clone_detection")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "adapterlab" / "__init__.py").is_file():
        print(f"perfbench: no adapterlab sources under {ROOT / 'src'}; "
              "run it from the root of a checkout", file=sys.stderr)
        return 2
    # BLAS reads these when numpy loads, so they are set before any import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    import workloads

    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), ROOT / ".perfbench")
    except workloads.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
