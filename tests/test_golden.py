"""What the benchmark relies on: every benchmark command against its golden
digest, and every program name its tracer wraps or reads.

``perfbench/golden.json`` holds the exit code and stdout SHA-256 of each
command the benchmark runs.  These tests run them in-process through
``arbor.cli.main``, as the traced benchmark does, and as fresh
``python -m arbor.cli`` processes, as the timed benchmark does, and only
read the file.  ``perfbench/spans.py`` is read as source, not imported.
"""
import ast
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from arbor import cli
from conftest import child_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = PERFBENCH / "golden.json"
COMMANDS = json.loads(GOLDEN.read_text())["commands"]


def outcome(code, out):
    return {"exit": code, "bytes": len(out), "sha256": hashlib.sha256(out).hexdigest()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_digest(command, capsys):
    code = cli.main(command.split())
    assert outcome(code, capsys.readouterr().out.encode()) == COMMANDS[command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_digest_in_a_fresh_process(command):
    # the process path the benchmark times, through cli.run and its frozen heap
    done = subprocess.run([sys.executable, "-m", "arbor.cli", *command.split()],
                          env=child_env(), capture_output=True, timeout=60)
    assert outcome(done.returncode, done.stdout) == COMMANDS[command]
    assert done.stderr == b""


def test_benchmark_names_exist():
    # the functions spans.WRAPPED replaces, and the names spans reads off the
    # arbor modules it is handed (``counting.total_trees``, ...): a program
    # change that drops one breaks --smoke and every traced run
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    values = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and node.targets[0].id in ("WRAPPED", "MODULES")}
    modules = values["MODULES"] + ["cli"]
    wrapped = {(mod, fn) for mod, fn, _ in values["WRAPPED"]}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert wrapped and read - wrapped
    missing = [f"{mod}.{name}" for mod, name in sorted(wrapped | read)
               if not hasattr(importlib.import_module(f"arbor.{mod}"), name)]
    assert missing == []
