"""CLI output pinned byte for byte: every benchmark command against its golden digest.

``perfbench/golden.json`` holds the exit code and stdout SHA-256 of each
command the benchmark runs.  This test runs them in-process through
``arbor.cli.main`` and only reads the file.
"""
import hashlib
import json
from pathlib import Path

import pytest

from arbor import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
COMMANDS = json.loads(GOLDEN.read_text())["commands"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_digest(command, capsys):
    want = COMMANDS[command]
    code = cli.main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == want["exit"]
    assert len(out) == want["bytes"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]
