"""``tools/bench_census.py`` launches its process rows through the
benchmark's launcher in ``perfbench/run.py``, pinned or not."""
import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNT = ["count", "--t", "2", "--n", "1", "--composition", "0,0"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_process_rows_launch_through_the_benchmark_launcher():
    spec = importlib.util.spec_from_file_location(
        "bench_census", ROOT / "tools" / "bench_census.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    want = bench.digest(bench.cli_text(COUNT))
    for pinned in (None, cpu):
        [run] = bench.launched(["-m", "arbor.cli", *COUNT], env, 1, pinned)
        assert (run.exit_code, run.sha) == (0, want)
        assert run.rss_kb > 0
        assert os.sched_getaffinity(0) == allowed
    # a pinned command runs on that one CPU
    [run] = bench.launched(["-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
                           env, 1, cpu)
    assert run.tail == f"[{cpu}]\n".encode()
    assert os.sched_getaffinity(0) == allowed
