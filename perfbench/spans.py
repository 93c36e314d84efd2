"""In-process traced run: span recorder, layer wrappers and the census probe.

The wrappers replace public functions of ``arbor.counting``, ``treebank``,
``series`` and ``paths`` at module level.  The CLI and ``paths`` call them
through the module (``treebank.census(...)``) and ``treebank`` reaches
``enumerate_trees`` through its own module globals, so every call a command
makes goes through a wrapper; no program file changes.

Each wrapped call records one span (name, start, end, parent).  A generator
records one span per generator object, timed per item consumed: its busy
time is the sum of the time spent inside its ``next`` calls.  The root span
of every command is the ``arbor.cli.main`` call.  A layer's self time is its
busy time minus the busy time of its child spans.  Spans are recorded only
on the thread that started the trace: census worker threads run unwrapped,
so their work stays in the self time of the ``census`` call that waits for
them.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import gc
import hashlib
import io
import statistics
import threading
import time
from array import array
from pathlib import Path

#: (module, function, kind): kind "calls" for functions, "items" for
#: generator functions.  Every entry yields ``<module>.<function>.<kind>``
#: and ``<module>.<function>.self_s``.
WRAPPED = [
    ("counting", "compositions", "items"),
    ("counting", "count_trees", "calls"),
    ("counting", "count_forests", "calls"),
    ("counting", "marginal_count", "calls"),
    ("treebank", "census", "calls"),
    ("treebank", "forest_census", "calls"),
    ("treebank", "enumerate_trees", "items"),
    ("treebank", "serialize_tree", "calls"),
    ("series", "solve_G", "calls"),
    ("series", "lagrange_extract", "calls"),
    ("series", "lagrange_extract_forest", "calls"),
    ("paths", "residue_distribution_probe", "calls"),
    ("paths", "tree_to_path", "calls"),
    ("paths", "residue_stats", "calls"),
    ("paths", "format_path", "calls"),
]
MODULES = ["counting", "treebank", "series", "paths"]
ROOT = "cli"
PROBE_METRICS = [
    "treebank.census.pure.objects_per_s",
    "treebank.census.compiled.objects_per_s",
    "treebank.census.workers2.speedup",
]


class Tracer:
    """In-memory span store; one instance traces one thread at a time."""

    def __init__(self, names):
        self.names = list(names)
        self.active = False
        self.thread = None
        self.reset()

    def reset(self):
        size = len(self.names)
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.span_items = array("q")
        self.self_s = [0.0] * size
        self.total_s = [0.0] * size
        self.count = [0] * size
        self.stack = []
        self.census_sizes = []
        self.series_results = []

    def start(self):
        self.reset()
        self.thread = threading.get_ident()
        self.active = True
        self.origin = time.perf_counter()

    def stop(self):
        self.active = False
        if self.stack:
            raise RuntimeError("trace stopped with open spans")

    def on(self):
        return self.active and threading.get_ident() == self.thread

    def enter(self, nid, sid=None):
        """Open a busy interval; ``sid`` resumes an existing generator span."""
        stack = self.stack
        t0 = time.perf_counter()
        if sid is None:
            sid = len(self.span_start)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_name.append(nid)
            self.span_start.append(t0)
            self.span_end.append(t0)
            self.span_busy.append(0.0)
            self.span_items.append(0)
        frame = [sid, nid, t0, 0.0]
        stack.append(frame)
        return frame

    def leave(self, frame):
        t1 = time.perf_counter()
        stack = self.stack
        stack.pop()
        sid, nid, t0, child = frame
        busy = t1 - t0
        self.span_end[sid] = t1
        self.span_busy[sid] += busy
        self.self_s[nid] += busy - child
        self.total_s[nid] += busy
        if stack:
            stack[-1][3] += busy

    def write(self, path: Path):
        """Write every span as CSV, times relative to the trace start."""
        o = self.origin
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s,busy_s,items\n")
            for sid in range(len(self.span_start)):
                f.write(
                    f"{sid},{self.span_parent[sid]},{self.names[self.span_name[sid]]},"
                    f"{self.span_start[sid] - o:.9f},{self.span_end[sid] - o:.9f},"
                    f"{self.span_busy[sid]:.9f},{self.span_items[sid]}\n"
                )


def _wrap_call(tracer, nid, fn, record=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on():
            return fn(*args, **kwargs)
        frame = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
            tracer.count[nid] += 1
        if record is not None:
            record(args, result)
        return result

    return wrapper


def _traced_items(tracer, nid, it):
    sid = None
    while True:
        frame = tracer.enter(nid, sid)
        sid = frame[0]
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.leave(frame)
        tracer.span_items[sid] += 1
        tracer.count[nid] += 1
        yield item


def _wrap_gen(tracer, nid, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        if not tracer.on():
            return it
        return _traced_items(tracer, nid, it)

    return wrapper


def install(arbor_modules):
    """Wrap the public layer functions; return the tracer that records them."""
    names = [ROOT] + [f"{mod}.{fn}" for mod, fn, _ in WRAPPED]
    tracer = Tracer(names)
    # Closed-form sizes and solved series are recorded during the call and
    # measured after the trace, so their cost lands in no layer's self time.
    records = {
        "census": lambda args, _: tracer.census_sizes.append(("tree", args[:2])),
        "forest_census": lambda args, _: tracer.census_sizes.append(("forest", args[:3])),
        "solve_G": lambda _, result: tracer.series_results.append(result),
    }
    for mod, fn, kind in WRAPPED:
        module = arbor_modules[mod]
        nid = names.index(f"{mod}.{fn}")
        original = getattr(module, fn)
        if kind == "items":
            wrapped = _wrap_gen(tracer, nid, original)
        else:
            wrapped = _wrap_call(tracer, nid, original, records.get(fn))
        setattr(module, fn, wrapped)
    return tracer


class OutputDigest(io.TextIOBase):
    """Text sink that keeps only a SHA-256, a byte count and the last writes."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.recent = collections.deque(maxlen=64)

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        self.recent.append(data)
        return len(text)

    def tail(self):
        return b"".join(self.recent)


def _run_commands(cli, commands, tracer, check):
    """Run every command in-process; return (wall seconds, problems, bytes)."""
    problems = []
    out_bytes = 0
    root = tracer.names.index(ROOT) if tracer else None
    gc.collect()
    t0 = time.perf_counter()
    for argv in commands:
        sink = OutputDigest()
        with contextlib.redirect_stdout(sink):
            if tracer:
                frame = tracer.enter(root)
                try:
                    rc = cli.main(list(argv))
                finally:
                    tracer.leave(frame)
            else:
                rc = cli.main(list(argv))
        out_bytes += sink.bytes
        problems += check(argv, rc, sink.sha.hexdigest(), sink.bytes, sink.tail())
    return time.perf_counter() - t0, problems, out_bytes


def _layer_metrics(tracer, counting, out_bytes):
    m = {}
    names = tracer.names
    for mod, fn, kind in WRAPPED:
        nid = names.index(f"{mod}.{fn}")
        m[f"{mod}.{fn}.{kind}"] = tracer.count[nid]
        m[f"{mod}.{fn}.self_s"] = tracer.self_s[nid]
    for name, total in (("census", counting.total_trees),
                        ("forest_census", counting.total_forests)):
        kind = "tree" if name == "census" else "forest"
        objects = sum(total(*args) for k, args in tracer.census_sizes if k == kind)
        busy = tracer.total_s[names.index(f"treebank.{name}")]
        m[f"treebank.{name}.objects"] = objects
        m[f"treebank.{name}.objects_per_s"] = objects / busy if busy else 0.0
    m["series.solve_G.terms"] = sum(
        sum(1 for _ in g.terms()) for g in tracer.series_results
    )
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(
            tracer.self_s[names.index(f"{mo}.{fn}")]
            for mo, fn, _ in WRAPPED if mo == mod
        )
    m["cli.self_s"] = tracer.self_s[names.index(ROOT)]
    m["cli.output_bytes"] = out_bytes
    return m


def census_probe(treebank, counting, size, repeat=3):
    """Time census once per available engine and with 1 and 2 workers.

    Each setting is timed as the best of ``repeat`` calls.  Returns
    (metrics, problems); a problem is reported when two tables differ.
    """
    t, n = size
    objects = counting.total_trees(t, n)

    def best(**kwargs):
        times, tables = [], []
        for _ in range(repeat):
            t0 = time.perf_counter()
            tables.append(treebank.census(t, n, **kwargs))
            times.append(time.perf_counter() - t0)
        return min(times), tables

    pure_s, tables = best(engine="pure")
    compiled_rate = 0.0
    if treebank.HAVE_SPEEDUPS:
        compiled_s, more = best(engine="compiled")
        tables += more
        compiled_rate = objects / compiled_s
    one_s, more = best(engine="auto", workers=1)
    tables += more
    two_s, more = best(engine="auto", workers=2)
    tables += more
    problems = []
    if any(table != tables[0] for table in tables):
        problems.append(f"FAIL census probe t={t} n={n}: tables differ across "
                        "engines or worker counts")
    values = (objects / pure_s, compiled_rate, one_s / two_s)
    return dict(zip(PROBE_METRICS, values)), problems


def traced_run(arbor_modules, tracer, commands, seconds, check, probe_size,
               spans_path):
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns (metrics, attempted, problems, details).  Each metric is the
    median over passes; ``trace.overhead_s`` is traced minus untraced wall
    time.  The census probe runs once, after the passes, when ``probe_size``
    is given; otherwise its metrics read 0, as does every metric of a layer
    the workload does not reach.  The spans of the last traced pass are
    written to ``spans_path``.
    """
    cli = arbor_modules["cli"]
    samples = collections.defaultdict(list)
    attempted = 0
    problems = []
    walls = []
    start = time.perf_counter()
    # Start another pair only if it is expected to end within ``seconds``.
    while not walls or time.perf_counter() - start + sum(walls[-1]) < seconds:
        plain_s, bad, _ = _run_commands(cli, commands, None, check)
        problems += bad
        tracer.start()
        try:
            traced_s, bad, out_bytes = _run_commands(cli, commands, tracer, check)
        finally:
            tracer.stop()
        problems += bad
        attempted += 2 * len(commands)
        walls.append((plain_s, traced_s))
        layer = _layer_metrics(tracer, arbor_modules["counting"], out_bytes)
        layer["trace.overhead_s"] = traced_s - plain_s
        for k, v in layer.items():
            samples[k].append(v)
    tracer.write(spans_path)
    metrics = {
        k: statistics.median_low(v) if isinstance(v[0], int) else statistics.median(v)
        for k, v in samples.items()
    }
    if probe_size is None:
        metrics.update(dict.fromkeys(PROBE_METRICS, 0.0))
    else:
        probe, bad = census_probe(arbor_modules["treebank"],
                                  arbor_modules["counting"], probe_size)
        metrics.update(probe)
        problems += bad
        attempted += 1
    layers = {mod: metrics[f"{mod}.self_s"] for mod in MODULES + [ROOT]}
    covered = sum(layers.values())
    details = {
        "passes": [{"untraced_s": p, "traced_s": q} for p, q in walls],
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path),
        "self_share": {mod: s / covered for mod, s in layers.items()},
    }
    return metrics, attempted, problems, details
