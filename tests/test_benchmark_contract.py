"""The benchmark's contract with the package, checked with the tests.

perfbench/selftest.py takes about 40 s in full; two of its parts run in
about a second and catch the API breaks the benchmark would hit, such as
a changed call signature or a lost module binding:

- check_corruption_counts runs one pass of every workload at the tiny
  scale through the calls perfbench makes, and requires its output checks
  to pass the clean output and to count each corrupted one as failed;
- check_tracer requires every module binding of to_spherical to be
  wrapped by the span tracer and restored afterwards.

They run in a subprocess with perfbench/ on sys.path, writing only to a
temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import selftest

selftest.check_corruption_counts(Path(sys.argv[2]))
selftest.check_tracer()
"""


def test_benchmark_contract(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok  tracer wraps every binding and restores them" in proc.stdout
