"""The benchmark's own self-test, run as part of the test suite.

`perfbench/selftest.py` runs every workload at n = 8, untraced and
traced, and checks the counting identities between the traced layers
(for example that every inner preconditioner apply belongs to an inner
operator apply or starts an inner solve).  An operator handle cached
where the tracer cannot see it breaks those identities without failing
any other test.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: ok" in proc.stdout
