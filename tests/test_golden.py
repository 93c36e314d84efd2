"""What the benchmark relies on: every benchmark command against its golden
digest, and every program name its tracer wraps or reads.

``perfbench/golden.json`` holds the exit code and stdout SHA-256 of each
command the benchmark runs.  This test runs them in-process through
``arbor.cli.main`` and only reads the file.  ``perfbench/spans.py`` is read
as source, not imported.
"""
import ast
import hashlib
import importlib
import json
from pathlib import Path

import pytest

from arbor import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = PERFBENCH / "golden.json"
COMMANDS = json.loads(GOLDEN.read_text())["commands"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_digest(command, capsys):
    want = COMMANDS[command]
    code = cli.main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == want["exit"]
    assert len(out) == want["bytes"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]


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
