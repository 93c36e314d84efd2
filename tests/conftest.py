"""Shared test environment: no caller's ``ARBOR_BUDGET``, child Python
processes that import this checkout, and the compiled census kernel built
from the shipped C, plain or under AddressSanitizer and UBSan."""
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from arbor import errors, treebank

ROOT = Path(__file__).resolve().parent.parent
SANITIZE = ("-O1 -g -fno-omit-frame-pointer -fsanitize=address,undefined "
            "-fno-sanitize-recover=undefined -Wall -Werror")


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Each test starts at the default budget, whatever the shell exported;
    a test that sets ``ARBOR_BUDGET`` sets it itself."""
    monkeypatch.delenv(errors.BUDGET_ENV_VAR, raising=False)


def child_env(**extra):
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, plus ``extra``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])), **extra)


def run_python(*args, timeout=60, env=None):
    """``python <args>`` run to its end in ``env`` (by default
    :func:`child_env`), output captured as text."""
    return subprocess.run([sys.executable, *args], env=env or child_env(),
                          capture_output=True, text=True, timeout=timeout)


def compiler():
    """The C compiler command setup.py builds with; skips the test when it
    is not on PATH."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) on PATH")
    return cc


def build_speedups(out, flags):
    """The path of ``arbor._speedups`` built by the repository's setup.py
    into ``out`` with ``flags`` for compile and link; a failed build fails
    the test that asked for it."""
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, CFLAGS=flags, LDFLAGS=flags),
    )
    built = out / "lib" / "arbor" / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    if done.returncode != 0 or not built.is_file():
        pytest.fail(f"building arbor._speedups failed:\n{done.stdout}{done.stderr}")
    return built


def kernel_prelude(path):
    """Python source that makes the module at ``path`` the compiled engine."""
    return (
        "import importlib.util\n"
        "from arbor import treebank\n"
        f"spec = importlib.util.spec_from_file_location('arbor._speedups', {str(path)!r})\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "treebank._segment_census_compiled = kernel.segment_census\n"
    )


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """``arbor._speedups`` built into a temp dir, every compiler warning an
    error, so the kernel's C stays warning-free.  Skips only when no C
    compiler is on PATH."""
    compiler()
    built = build_speedups(tmp_path_factory.mktemp("speedups"), "-Wall -Werror")
    spec = importlib.util.spec_from_file_location("arbor._speedups", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sanitized_speedups(tmp_path_factory):
    """(module path, runtimes to preload) of ``arbor._speedups`` built under
    AddressSanitizer and UBSan.  Skips only when the compiler has no
    sanitizer runtime."""
    cc = compiler()
    runtimes = []
    for lib in ("libasan.so", "libubsan.so"):
        found = subprocess.run([*cc, f"-print-file-name={lib}"],
                               capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(found) or not os.path.isfile(found):
            pytest.skip(f"{cc[0]} has no {lib}")
        runtimes.append(found)
    return build_speedups(tmp_path_factory.mktemp("sanitized"), SANITIZE), runtimes


@pytest.fixture
def compiled_kernel(speedups, monkeypatch):
    """Route the "compiled" and "auto" engines to the fixture-built kernel."""
    monkeypatch.setattr(treebank, "_segment_census_compiled", speedups.segment_census)
    return speedups.segment_census


@pytest.fixture(params=["pure", "compiled"])
def engine(request, monkeypatch):
    """Each census kernel in turn, by its ``engine`` name, with "auto" routed
    to the same one: the pure kernel with no compiled one to prefer, or the
    fixture-built kernel of :func:`compiled_kernel`."""
    if request.param == "compiled":
        request.getfixturevalue("compiled_kernel")
    else:
        monkeypatch.setattr(treebank, "_segment_census_compiled", None)
    return request.param


@pytest.fixture
def kernel_calls(compiled_kernel, monkeypatch):
    """The job list of each call to the fixture-built kernel, in call order."""
    calls = []

    def kernel(t, jobs, classes=False):
        calls.append(list(jobs))
        return compiled_kernel(t, jobs, classes=classes)

    monkeypatch.setattr(treebank, "_segment_census_compiled", kernel)
    return calls


@pytest.fixture
def kernel_child(speedups):
    """Run Python code in a child process whose compiled engine is the
    fixture-built kernel, so a crash in the kernel fails one test, not the
    session.  Returns the finished process, output captured as text."""
    def run(code):
        return run_python("-c", kernel_prelude(speedups.__file__) + code, timeout=120)
    return run
