"""The benchmark's self-test as part of the test suite: a library change that drops a name the benchmark
calls, or breaks one of its checks, fails here and not only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_reports_no_failure():
    # it writes only under the gitignored .bench_work/
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and "\n0 failure(s)\n" in proc.stdout, proc.stdout[-3000:] + proc.stderr[-3000:]
