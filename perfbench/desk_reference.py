"""Write ``desk_reference.json``: the per-seed NDCG@10 that acceptance
criterion 5 computes for seeds 0-4 and its four variants.

The values come from the acceptance suite's own desk functions
(``tests/test_acceptance.py``), run at the benchmark's pinned thread count.
The ``desk`` workload rebuilds the same experiment from public calls and
checks each of its values against this file, so a change that moves desk
quality shows up as a failed check.  Regenerate after such a change:

    python3 perfbench/desk_reference.py
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, THREADS, THREAD_VARS  # noqa: E402

for var in THREAD_VARS:
    os.environ[var] = str(THREADS)  # before numpy loads its BLAS
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import json  # noqa: E402

import test_acceptance as acceptance  # noqa: E402


def main() -> int:
    out = {}
    for seed in acceptance.DESK_SEEDS:
        _, ds, adj, s1, truth = acceptance._desk_prepare(seed)
        out[str(seed)] = {}
        for variant, lam1, lam2 in (("cross", 0.5, 0.5), ("none", 0.0, 0.0),
                                    ("concat", 0.0, 0.0), ("plain-sum", 0.0, 0.0)):
            ndcg, _ = acceptance._desk_variant(ds, adj, s1, truth, seed, variant, lam1, lam2)
            out[str(seed)][variant] = ndcg
        print(seed, out[str(seed)])
    (HERE / "desk_reference.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
