"""``tools/parity.py``: its tiny grid reads equal against a copy of this
tree and reports a one-byte difference planted in the copy."""
import importlib.util
import shutil
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ["table", "--t", "3", "--n", "3", "--format", "csv"]


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_grid_equal_on_a_copy_and_a_planted_byte_reported(tmp_path):
    parity = load_parity()
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cases = list(parity.argvs(parity.GRIDS["tiny"], ROOT))
    # the paths family's edge at ARBOR_BUDGET=20: (2, 3) lists its 5 trees,
    # (2, 4) would write 69 64-bit words of text
    assert cases[-2:] == [(["paths", "--t", "2", "--n", "3"], 20),
                          (["paths", "--t", "2", "--n", "4"], 20)]
    assert (TABLE, None) in cases and len(cases) == 8
    codes = Counter({0: 4, 1: 1, 2: 3})
    assert parity.compare(cases, copy, ROOT) == (codes, 0, None)

    cli = copy / "src" / "arbor" / "cli.py"
    cli.write_text(cli.read_text().replace('",count"', '",Count"', 1))
    got = parity.compare(cases, copy, ROOT)
    assert got[:2] == (codes, 1)
    argv, budget, old, new = got[2]
    assert (argv, budget, old[0], new[0], old[3], new[3]) == (TABLE, None, 0, 0, b"", b"")
    # as many bytes, not the same
    assert old[1] == new[1] and old[2] != new[2]
    lines = parity.report("tiny", *got)
    assert lines[:2] == ["tiny: 8 argvs, exit codes 0: 4, 1: 1, 2: 3; 1 differ",
                         "first difference: ARBOR_BUDGET=None arbor " + " ".join(TABLE)]
    assert [line.split(",")[0] for line in lines[2:]] == ["  parent: exit 0", "  change: exit 0"]
