"""The training digest script prints one digest per input: two runs at one
seed and one epoch agree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_repeats_across_processes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    digests = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "tests/digest_training.py", "--seeds", "0",
                               "--epochs", "1"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
