"""The training digest script prints one training digest, with its BLAS
thread count, and one gradient-check digest per input: two runs at one seed
and one epoch agree."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_repeats_across_processes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "2"  # the script pins one thread before numpy loads
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "tests/digest_training.py", "--seeds", "0",
                               "--epochs", "1"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    assert re.fullmatch(r"training [0-9a-f]{64} blas_threads=1\ngradcheck [0-9a-f]{64}\n",
                        outputs[0])
    assert outputs[0] == outputs[1]
