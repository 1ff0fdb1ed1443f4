"""Run one `ulam` command with a span around every call into a layer.

Usage: python3 perfbench/traced.py SPANS_OUT SPAWN_TIME -- ULAM_ARGS...

SPAWN_TIME is the parent's `time.perf_counter()` just before it spawned
this process (a system-wide monotonic clock on Linux), so the time from
process start to `ulamkit.cli` being imported can be measured. The public
functions of each `ulamkit` module are wrapped at every module binding
that refers to them, found by identity, so calls through another module's
`from ... import` binding are caught too. Spans are kept in memory and
written to SPANS_OUT as JSON when the command ends, together with the
command's argv, which identifies every span in the file. Standard
output is the command's own, unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

LAYERS = ("cli", "engine", "cache", "fsutil", "regularity", "progressions",
          "rigidity", "patterns", "mining")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


# Counts taken at the boundary of selected functions:
# f(args, kwargs, result) -> {counter: value}.
COUNTERS = {
    "engine.generate_to_horizon": lambda a, k, r: {
        "terms": len(r) - 2, "decided": r.horizon},
    "engine.extend": lambda a, k, r: {
        "terms": len(r) - len(_arg(a, k, 0, "prefix")),
        "decided": r.horizon - _arg(a, k, 0, "prefix").horizon},
    "cache.decode_prefix": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "data"))},
    "fsutil.atomic_write_bytes": lambda a, k, r: {
        "bytes": len(_arg(a, k, 1, "data"))},
    "regularity.detect_period": lambda a, k, r: {
        "gaps": _len(_arg(a, k, 0, "gap_list")), "found": int(r is not None)},
    "rigidity.verify_segment": lambda a, k, r: {
        "positions": max(0, r.M - r.N + 1)},
    "patterns.component_points": lambda a, k, r: {"points": len(r)},
    "rigidity.family_sweep": lambda a, k, r: {
        "n": len(r), "threads": max(1, k.get("threads") or 1)},
    "mining.mine": lambda a, k, r: {
        "samples": _len(_arg(a, k, 2, "n_samples"))},
}


class Tracer:
    """Spans in memory: [name, start, end, parent, thread, error, counts]."""

    def __init__(self):
        self.spans: list = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.sweep: int | None = None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        main_thread = threading.main_thread()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.local.__dict__.setdefault("stack", [])
            thread = threading.current_thread()
            # A span opened on a sweep worker thread belongs to the sweep.
            parent = stack[-1] if stack else (
                None if thread is main_thread else self.sweep)
            with self.lock:
                sid = len(self.spans)
                self.spans.append(None)
            if name == "rigidity.family_sweep":
                self.sweep = sid
            stack.append(sid)
            error, counts = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "rigidity.family_sweep":
                    self.sweep = None
                self.spans[sid] = [name, start, end, parent, thread.ident, error,
                                   counts]
        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "ulamkit" or n.startswith("ulamkit.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"ulamkit.{layer}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        prefix_cls = modules["ulamkit.engine"].UlamPrefix
        prefix_cls.restrict = self.wrap("engine.restrict", prefix_cls.restrict)


def main() -> int:
    out_path, spawned = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    import ulamkit.cli
    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    code = 2
    try:
        code = ulamkit.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": argv, "import_s": imported - spawned,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
