"""Shared fixtures: the compiled census kernel, built from the shipped C."""
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from arbor import treebank

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """``arbor._speedups`` built by the repository's setup.py into a temp dir.

    Skips only when no C compiler is on PATH; with one present, a failed
    build fails the test that asked for the kernel.  The build turns every
    compiler warning into an error, so the kernel's C stays warning-free.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) on PATH")
    out = tmp_path_factory.mktemp("speedups")
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, CFLAGS="-Wall -Werror"),
    )
    built = out / "lib" / "arbor" / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    if done.returncode != 0 or not built.is_file():
        pytest.fail(f"building arbor._speedups failed:\n{done.stdout}{done.stderr}")
    spec = importlib.util.spec_from_file_location("arbor._speedups", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_kernel(speedups, monkeypatch):
    """Route the "compiled" and "auto" engines to the fixture-built kernel."""
    monkeypatch.setattr(treebank, "_segment_census_compiled", speedups.segment_census)
    return speedups.segment_census


@pytest.fixture
def kernel_child(speedups):
    """Run Python code in a child process whose compiled engine is the
    fixture-built kernel, so a crash in the kernel fails one test, not the
    session.  Returns the finished process, output captured as text."""
    prelude = (
        "import importlib.util\n"
        "from arbor import treebank\n"
        f"spec = importlib.util.spec_from_file_location('arbor._speedups', {speedups.__file__!r})\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "treebank._segment_census_compiled = kernel.segment_census\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def run(code):
        return subprocess.run([sys.executable, "-c", prelude + code], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
