"""Write ``perfbench/reference.json``, the optima the gate checks against.

    python3 perfbench/make_reference.py

For every case of ``exact-small`` and ``coalition-sweep`` it records what
``cases.optima`` returns: the proven optimum of each criterion-2 case, and
the cost of every coalition in every cell of each sweep.  These are optima,
so any correct solver reproduces them, on every workload seed.  The gate
fails a run whose optima differ from this file.  Write it again only when a
workload's case list changes, and check the new optima by other means
(``solve_enumerate``) before committing them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"     # one thread, as in run.py
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import cases
    out = {}
    for workload in ("exact-small", "coalition-sweep"):
        out[workload] = []
        for case in cases.build_inputs(workload, 0):
            cases.run_case(workload, case)
            out[workload].append(cases.optima(workload, case))
    cases.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
