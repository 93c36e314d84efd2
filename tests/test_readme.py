"""README's examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs_as_documented():
    # each line of the "Library use" block runs in order, and a line whose
    # comment starts with an integer evaluates to it, so the README cannot
    # show a removed name or a stale value
    text = README.read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        want = re.match(r"\s*(\d+)\b", comment)
        if want:
            assert eval(code, namespace) == int(want.group(1)), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 5
