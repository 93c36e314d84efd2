#!/usr/bin/env python3
"""Benchmark of the arbor CLI: end-to-end timings and traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Preparation builds the package with the repository's own build script
(``setup.py build``) into ``.bench_build/arbor/lib`` and byte-compiles it,
as an install would.  Every run imports arbor from there and nowhere else.
The build is reused while ``setup.py``, ``pyproject.toml`` and ``src/`` are
unchanged.

``--trace 0`` runs every command of the workload as a fresh
``python -m arbor.cli`` process, the way users run it, in passes that fill
``--seconds`` (a pass starts only if it is expected to end in time).  It
reports the end-to-end metrics:

* ``wall_s``: sum over the commands of each command's median wall time
  across passes, calibrated for host speed (see ``REFERENCE``);
* ``setup_s``: median wall time of a no-work ``arbor count`` call in a fresh
  interpreter, the start-up users pay on every call, sampled before the
  first pass and once in every pass, calibrated likewise;
* ``peak_rss_mb``: largest peak RSS of any workload process;
* ``ok_share``: share of attempted commands that succeeded.

The raw seconds and the calibration factor are printed on a ``raw:`` line
and kept, with every sample, in the run details.

``--trace 1`` runs the same commands in-process through ``arbor.cli.main``
with the layer wrappers of ``spans.py`` and reports the per-layer metrics.

The seed only permutes the order of the commands; the work is fixed.  Every
command's exit code and stdout SHA-256 are checked against ``golden.json``,
and a ``verify`` command must end with an all-pass summary.  A mismatch is
printed and counted as a failed command.  The last line of stdout is the
JSON result; run details and spans go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "arbor"
OUT = ROOT / ".bench_out"
SETUP_CALLS = 5

# A child's ru_maxrss includes the peak RSS of the process it was spawned
# from, because spawning (vfork or fork) then exec records the parent's
# memory high-water mark in the child.  Each command is therefore started
# from this minimal interpreter (``python -S``, a few MB), which forks, execs
# the command, reaps it and reports exit code, wall time and peak RSS.
LAUNCHER = r"""
import os, sys, time
fd = int(sys.argv[1])
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.close(fd)
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(fd, b"%d %r %d" % (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss))
"""


# Host speed drifts in phases of a minute or more, by up to 1.5x between
# runs of the same code on a shared 2-vCPU VM.  The drift moves process
# start-up and the commands alike.  Every command launch is therefore
# preceded by a fixed reference launch that does not involve arbor: a fresh
# interpreter importing the standard-library modules arbor imports.  Times
# are reported calibrated to a nominal host, where the median reference
# launch takes REFERENCE_NOMINAL_S (its typical time on the machine the
# benchmark was defined on); the raw times are kept in the run details.
REFERENCE = [sys.executable, "-c", "import argparse, collections, "
             "concurrent.futures, dataclasses, itertools, math, typing"]
REFERENCE_NOMINAL_S = 0.08


class Launched(NamedTuple):
    exit_code: int
    wall: float
    rss_kb: int
    sha: str
    nbytes: int
    tail: bytes


class Failure(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def source_digest():
    sha = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(
        p for p in (ROOT / "src").rglob("*")
        if p.is_file()
        and p.suffix not in (".pyc", ".so")
        and not any(part.endswith(".egg-info") or part == "__pycache__"
                    for part in p.relative_to(ROOT).parts)
    )
    for path in files:
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def build():
    """Build with the repository's build script; return (lib dir, build info)."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "arbor").is_dir():
        raise Failure(f"no arbor sources (setup.py, src/arbor) under {ROOT}")
    digest = source_digest()
    lib = BUILD / "lib"
    info_file = BUILD / "build.json"
    if info_file.is_file() and lib.is_dir():
        info = json.loads(info_file.read_text())
        if info["source"] == digest:
            return lib, dict(info, reused=True)
    shutil.rmtree(BUILD, ignore_errors=True)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    steps = [
        [sys.executable, "setup.py", "build", "--build-base", str(BUILD / "tmp"),
         "--build-lib", str(lib)],
        [sys.executable, "-m", "compileall", "-q", str(lib)],
    ]
    t0 = time.perf_counter()
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise Failure(f"build step {step[1:3]} failed:\n{done.stdout}{done.stderr}")
    info = {"source": digest, "build_s": time.perf_counter() - t0}
    info_file.write_text(json.dumps(info))
    return lib, dict(info, reused=False)


def child_env(lib):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(lib)
    env.pop("ARBOR_BUDGET", None)
    return env


def stamp(lib, env, seed, build_info):
    """Machine, interpreter, engine and source identity of this run."""
    code = ("import json, arbor; print(json.dumps({'file': arbor.__file__, "
            "'have_speedups': arbor.HAVE_SPEEDUPS}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise Failure(f"cannot import the built package:\n{done.stderr}")
    found = json.loads(done.stdout)
    if not Path(found["file"]).resolve().is_relative_to(lib.resolve()):
        raise Failure(f"arbor imported from {found['file']}, not from {lib}")
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "have_speedups": found["have_speedups"],
        "git_sha": git_sha,
        "source_sha256": build_info["source"],
        "seed": seed,
        "build_s": build_info["build_s"],
        "build_reused": build_info["reused"],
    }


def arbor(argv):
    """The command line of one arbor CLI call, as users run it."""
    return [sys.executable, "-m", "arbor.cli", *argv]


def launch(command, env):
    """Run ``command`` through the launcher; return its outcome and output digest."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER, str(write_fd), *command],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, pass_fds=(write_fd,),
        )
        os.close(write_fd)
        write_fd = None
        sha = hashlib.sha256()
        nbytes = 0
        tail = b""
        while chunk := proc.stdout.read(1 << 16):
            sha.update(chunk)
            nbytes += len(chunk)
            tail = tail[-4096:] + chunk
        proc.stdout.close()
        if proc.wait() != 0:
            raise Failure(f"launcher failed for {' '.join(command)}")
        report = os.read(read_fd, 256).split()
    finally:
        os.close(read_fd)
        if write_fd is not None:
            os.close(write_fd)
    return Launched(int(report[0]), float(report[1]), int(report[2]),
                    sha.hexdigest(), nbytes, tail[-4096:])


def load_golden():
    return json.loads((HERE / "golden.json").read_text())["commands"]


def make_check(golden):
    """Return check(argv, exit, sha, bytes, tail) -> [] or [one FAIL line]."""
    summary = re.compile(rb"summary: (\d+)/(\d+) checks passed")

    def check(argv, exit_code, sha, nbytes, tail):
        name = workloads.key(argv)
        want = golden.get(name)
        if want is None:
            return [f"FAIL {name}: no golden digest"]
        problems = []
        if exit_code != want["exit"]:
            problems.append(f"exit {exit_code}, expected {want['exit']}")
        if sha != want["sha256"]:
            problems.append(f"stdout sha256 {sha[:12]}.. ({nbytes} bytes), expected "
                            f"{want['sha256'][:12]}.. ({want['bytes']} bytes)")
        if argv[0] == "verify":
            last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            found = summary.fullmatch(last)
            if not found or found[1] != found[2]:
                problems.append(f"summary is not all-PASS: {last!r}")
        return [f"FAIL {name}: " + "; ".join(problems)] if problems else []

    return check


def untraced_run(commands, env, seconds, check):
    problems = []
    attempted = 0
    refs = []
    setup = []
    passes = []
    peak_kb = 0

    def call(argv):
        nonlocal attempted
        ref = launch(REFERENCE, env)
        if ref.exit_code != 0:
            raise Failure(f"reference launch exited {ref.exit_code}")
        refs.append(ref.wall)
        run = launch(arbor(argv), env)
        problems.extend(check(argv, run.exit_code, run.sha, run.nbytes, run.tail))
        attempted += 1
        return run

    call(workloads.SETUP)  # warm-up: the first start after a build is cold
    setup += [call(workloads.SETUP).wall for _ in range(SETUP_CALLS - 1)]
    start = time.perf_counter()
    last = 0.0
    # Start another pass only if it is expected to end within ``seconds``;
    # each pass also samples start-up once, so setup_s spans the whole run.
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        setup.append(call(workloads.SETUP).wall)
        walls = {}
        for argv in commands:
            run = call(argv)
            walls[workloads.key(argv)] = run.wall
            peak_kb = max(peak_kb, run.rss_kb)
        passes.append(walls)
        last = time.perf_counter() - t0
    raw_wall = sum(statistics.median(p[workloads.key(argv)] for p in passes)
                   for argv in commands)
    raw_setup = statistics.median(setup)
    calibration = REFERENCE_NOMINAL_S / statistics.median(refs)
    metrics = {
        "wall_s": raw_wall * calibration,
        "setup_s": raw_setup * calibration,
        "peak_rss_mb": peak_kb / 1024,
        "ok_share": (attempted - len(problems)) / attempted,
    }
    details = {"raw_wall_s": raw_wall, "raw_setup_s": raw_setup,
               "calibration": calibration, "reference_s": refs, "setup_s": setup,
               "passes": passes, "peak_rss_kb": peak_kb}
    return metrics, attempted, problems, details


def import_built(lib):
    sys.path.insert(0, str(lib))
    os.environ.pop("ARBOR_BUDGET", None)
    from arbor import cli, counting, paths, series, treebank

    if not Path(cli.__file__).resolve().is_relative_to(lib.resolve()):
        raise Failure(f"arbor imported from {cli.__file__}, not from {lib}")
    return {"cli": cli, "counting": counting, "paths": paths,
            "series": series, "treebank": treebank}


def declared():
    """Metric names and units of BENCHMARK.json: {trace flag: {name: unit}}."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise Failure(f"cannot read BENCHMARK.json: {exc}") from None
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_names(trace, metrics):
    """Raise unless ``metrics`` has exactly the names BENCHMARK.json declares."""
    units = declared()[trace]
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise Failure(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                      f"undeclared {sorted(extra)}")
    return units


def result_line(trace, metrics, attempted, problems):
    units = check_names(trace, metrics)
    return json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def run(args):
    if args.workload not in workloads.FULL:
        raise Failure(f"unknown workload {args.workload!r}; "
                      f"choose from {sorted(workloads.FULL)}")
    declared()  # fail early when BENCHMARK.json is absent
    lib, build_info = build()
    env = child_env(lib)
    info = stamp(lib, env, args.seed, build_info)
    print("stamp: " + json.dumps(info))
    commands = random.Random(args.seed).sample(workloads.FULL[args.workload],
                                               len(workloads.FULL[args.workload]))
    check = make_check(load_golden())
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        modules = import_built(lib)
        probe = workloads.PROBE_SIZE if args.workload == "enumerate" else None
        metrics, attempted, problems, details = spans.traced_run(
            modules, spans.install(modules), commands, args.seconds, check, probe,
            OUT / f"{args.workload}.spans.csv")
        print("self_share: " + json.dumps(details["self_share"]))
    else:
        metrics, attempted, problems, details = untraced_run(
            commands, env, args.seconds, check)
        print("raw: " + json.dumps({k: details[k] for k in
                                    ("raw_wall_s", "raw_setup_s", "calibration")}))
    for line in problems:
        print(line)
    stem.with_suffix(".json").write_text(json.dumps(
        {"stamp": info, "workload": args.workload, "commands": commands,
         "metrics": metrics, "problems": problems, "details": details}, indent=1))
    print(result_line(args.trace, metrics, attempted, problems))
    return 0


def smoke():
    """Every workload at tiny size: one subprocess pass and one traced pass,
    digest checks, and the metric names against BENCHMARK.json."""
    lib, build_info = build()
    env = child_env(lib)
    print("stamp: " + json.dumps(stamp(lib, env, 0, build_info)))
    check = make_check(load_golden())
    modules = import_built(lib)
    tracer = spans.install(modules)
    OUT.mkdir(exist_ok=True)
    failed = 0
    for name, commands in workloads.SMOKE.items():
        e2e, _, problems, _ = untraced_run(commands, env, 0, check)
        probe = workloads.SMOKE_PROBE_SIZE if name == "enumerate" else None
        layers, _, bad, details = spans.traced_run(
            modules, tracer, commands, 0, check, probe,
            OUT / f"smoke-{name}.spans.csv")
        problems += bad
        check_names(0, e2e)
        check_names(1, layers)
        for line in problems:
            print(line)
        failed += len(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'} "
              f"(wall_s {e2e['wall_s']:.3f}, {details['spans']} spans, "
              f"self_share {json.dumps(details['self_share'])})")
    print("smoke: " + ("ok" if not failed else f"{failed} failures"))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the harness")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required (or --smoke)")
        return run(args)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
