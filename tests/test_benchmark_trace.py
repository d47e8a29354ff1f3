"""The benchmark's traced pass over lazily placed leaves stays self-consistent.

A traced run reads ``correct: false`` when a traced answer differs from the
reference, when the ``expand_min`` spans do not sum to
``stats().values_generated``, or when the query's self times miss its wall
time; ``failed`` counts queries that raised. The run exits 0 either way, so
only its last line tells.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tall_run_is_correct(tmp_path):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tall",
           "--seconds", "1", "--trace", "1"]
    (tmp_path / "src").symlink_to(ROOT / "src")
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
