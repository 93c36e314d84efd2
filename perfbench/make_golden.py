#!/usr/bin/env python3
"""Write golden.json: exit code and stdout SHA-256 of every benchmark command.

Run from the repository root, only at a commit whose outputs are trusted:

    python3 perfbench/make_golden.py

Commands run as fresh ``python -m arbor.cli`` processes on the package
built by run.py.  The benchmark fails any later command whose exit code or
stdout differs from what is recorded here.
"""
import json
import sys

import run
import workloads


def main():
    lib, _ = run.build()
    env = run.child_env(lib)
    commands = [workloads.SETUP]
    for table in (workloads.FULL, workloads.SMOKE):
        for argvs in table.values():
            commands += argvs
    golden = {}
    for argv in commands:
        done = run.launch(run.arbor(argv), env)
        golden[workloads.key(argv)] = {"exit": done.exit_code, "sha256": done.sha,
                                       "bytes": done.nbytes}
        print(f"{done.exit_code} {done.sha[:12]} {done.nbytes:>9} {workloads.key(argv)}")
    (run.HERE / "golden.json").write_text(
        json.dumps({"commands": golden}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
