"""Per-layer metrics from the spans of one traced pass over a workload.

Times are sums over the pass's commands. A span's self time is its
duration minus the part of it that its child spans cover; spans opened on
sweep worker threads are children of the enclosing `family_sweep` span.
`self.<layer>` is a layer's share of the traced time, that is of import
time plus the self time of every span. Time on sweep worker threads adds
up across threads, so those shares are shares of busy time, not of wall.
"""

from __future__ import annotations

from collections import defaultdict

from traced import LAYERS

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "engine.generate_s": "s", "engine.generate_calls": "count",
    "engine.extend_s": "s", "engine.extend_calls": "count",
    "engine.terms_admitted": "count", "engine.decided": "count",
    "engine.decided_per_s": "1/s",
    "cache.read_s": "s", "cache.decode_s": "s", "cache.read_bytes": "bytes",
    "cache.encode_s": "s", "cache.write_s": "s", "cache.write_bytes": "bytes",
    "cache.miss": "count", "cache.hit": "count", "cache.restrict": "count",
    "cache.extend": "count", "cache.corrupt": "count",
    "cache.reuse_ratio": "ratio", "cache.dir_bytes": "bytes",
    "fsutil.write_s": "s", "fsutil.write_bytes": "bytes",
    "regularity.detect_s": "s", "regularity.detect_calls": "count",
    "regularity.detect_gaps": "count", "regularity.detect_found": "count",
    "regularity.scan_s": "s", "progressions.export_s": "s",
    "rigidity.verify_s": "s", "rigidity.verify_calls": "count",
    "rigidity.positions": "count", "patterns.points_s": "s",
    "patterns.points": "count", "rigidity.sweep_s": "s", "rigidity.sweep_n": "count",
    "rigidity.sweep_busy_s": "s", "rigidity.sweep_par_eff": "ratio",
    "mining.mine_s": "s", "mining.samples": "count",
    **{f"self.{layer}": "ratio" for layer in ("import",) + LAYERS},
    "trace.overhead_frac": "ratio",
}

OUTCOMES = ("miss", "hit", "restrict", "extend", "corrupt")


class Command:
    """The spans of one traced command, with self times and ancestry."""

    def __init__(self, trace: dict):
        self.import_s = trace["import_s"]
        self.spans = [s for s in trace["spans"] if s is not None]
        children = defaultdict(list)
        for sid, span in enumerate(trace["spans"]):
            if span is not None and span[3] is not None:
                children[span[3]].append(span)
        self.self_s = []
        self.by_id = {}
        for sid, span in enumerate(trace["spans"]):
            if span is None:
                continue
            self.by_id[sid] = span
            self.self_s.append(_duration(span) - _covered(span, children[sid]))

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def under(self, span, name: str) -> bool:
        """Whether some ancestor of `span` is a span of `name`."""
        parent = span[3]
        while parent is not None:
            up = self.by_id.get(parent)
            if up is None:
                return False
            if up[0] == name:
                return True
            parent = up[3]
        return False

    def outcome(self) -> str:
        """Cache path the command took: which cache spans it opened."""
        reads = [s for s in self.spans if s[0] == "cache.cache_read"]
        if any(s[5] for s in reads):
            return "corrupt"
        if not reads:
            return "miss"
        names = self.names()
        if "engine.extend" in names:
            return "extend"
        return "restrict" if "engine.restrict" in names else "hit"


def _duration(span) -> float:
    return span[2] - span[1]


def _covered(span, children) -> float:
    """Length of [start, end] covered by the union of the children."""
    start, end = span[1], span[2]
    total, reach = 0.0, start
    for c in sorted(children, key=lambda c: c[1]):
        lo, hi = max(c[1], reach), min(c[2], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_by_group(commands: list[Command], group) -> dict[str, float]:
    """Self time summed by `group(command, span)`; import time as "import"."""
    out: dict[str, float] = defaultdict(float)
    for cmd in commands:
        out["import"] += cmd.import_s
        for span, self_s in zip(cmd.spans, cmd.self_s):
            out[group(cmd, span)] += self_s
    return dict(out)


def layer_of(cmd: Command, span) -> str:
    return span[0].split(".", 1)[0]


def pass_metrics(commands: list[Command], out_bytes: int, cached: list[bool],
                 dir_bytes: int) -> dict[str, float]:
    """Every per-layer metric but the tracing overhead, for one traced pass."""
    m: dict[str, float] = defaultdict(float)
    for cmd, uses_cache in zip(commands, cached):
        m["cli.import_s"] += cmd.import_s
        if uses_cache:
            m[f"cache.{cmd.outcome()}"] += 1
        for span in cmd.spans:
            name, dur, counts = span[0], _duration(span), span[6] or {}
            if name == "engine.generate_to_horizon":
                m["engine.generate_s"] += dur
                m["engine.generate_calls"] += 1
            elif name == "engine.extend":
                m["engine.extend_s"] += dur
                m["engine.extend_calls"] += 1
            if name in ("engine.generate_to_horizon", "engine.extend"):
                m["engine.terms_admitted"] += counts.get("terms", 0)
                m["engine.decided"] += counts.get("decided", 0)
            elif name == "cache.cache_read":
                m["cache.read_s"] += dur
            elif name == "cache.decode_prefix":
                m["cache.decode_s"] += dur
                m["cache.read_s"] -= dur
                m["cache.read_bytes"] += counts.get("bytes", 0)
            elif name == "cache.encode_prefix":
                m["cache.encode_s"] += dur
            elif name == "fsutil.atomic_write_bytes":
                key = "cache.write" if cmd.under(span, "cache.cache_write") else "fsutil.write"
                m[f"{key}_s"] += dur
                m[f"{key}_bytes"] += counts.get("bytes", 0)
            elif name == "regularity.detect_period":
                m["regularity.detect_s"] += dur
                m["regularity.detect_calls"] += 1
                m["regularity.detect_gaps"] += counts.get("gaps", 0)
                m["regularity.detect_found"] += counts.get("found", 0)
            elif name in ("regularity.density_inequality_check",
                          "regularity.residue_census", "regularity.gaps"):
                m["regularity.scan_s"] += dur
            elif name == "rigidity.verify_segment":
                m["rigidity.verify_s"] += dur
                m["rigidity.verify_calls"] += 1
                m["rigidity.positions"] += counts.get("positions", 0)
            elif name == "patterns.component_points":
                m["patterns.points_s"] += dur
                m["patterns.points"] += counts.get("points", 0)
            elif name == "rigidity.family_sweep":
                m["rigidity.sweep_s"] += dur
                m["rigidity.sweep_n"] += counts.get("n", 0)
                m["_sweep_capacity_s"] += dur * counts.get("threads", 1)
            elif name == "mining.mine":
                m["mining.mine_s"] += dur
                m["mining.samples"] += counts.get("samples", 0)
            parent = cmd.by_id.get(span[3]) if span[3] is not None else None
            if parent is not None and parent[0] == "rigidity.family_sweep":
                m["rigidity.sweep_busy_s"] += dur
            if name.startswith("progressions.") and (
                    parent is None or not parent[0].startswith("progressions.")):
                m["progressions.export_s"] += dur
    used = sum(m[f"cache.{o}"] for o in OUTCOMES)
    m["cache.reuse_ratio"] = (used - m["cache.miss"] - m["cache.corrupt"]) / used if used else 0.0
    m["cache.dir_bytes"] = dir_bytes
    compute = m["engine.generate_s"] + m["engine.extend_s"]
    m["engine.decided_per_s"] = m["engine.decided"] / compute if compute else 0.0
    # Busy time includes waits for the interpreter lock, so this reads near 1
    # even when the sweep's threads take turns.
    capacity = m.pop("_sweep_capacity_s", 0.0)
    m["rigidity.sweep_par_eff"] = m["rigidity.sweep_busy_s"] / capacity if capacity else 0.0
    m["cli.out_bytes"] = out_bytes
    shares = self_by_group(commands, layer_of)
    total = sum(shares.values())
    for layer, self_s in shares.items():
        m[f"self.{layer}"] = self_s / total
    m["cli.self_s"] = shares.get("cli", 0.0)
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER
            if name != "trace.overhead_frac"}


# Why each workload exists, as a check on the traced pass: (claim, check).

def _largest(groups: dict[str, float], target: str) -> bool:
    """`target` has the largest self time of all groups but import."""
    rivals = [v for k, v in groups.items() if k not in (target, "import")]
    return groups.get(target, 0.0) >= max(rivals, default=0.0)


def _write_path(cmd: Command, span) -> str:
    if span[0] in ("engine.extend", "cache.encode_prefix", "cache.cache_write") \
            or cmd.under(span, "cache.cache_write"):
        return "extend+write"
    return layer_of(cmd, span)


def _detect(cmd: Command, span) -> str:
    return "detect-period" if span[0] == "regularity.detect_period" else layer_of(cmd, span)


def claims(workload: str, commands: list[Command],
           wall: float) -> list[tuple[str, bool]]:
    """Check the reason each workload exists on one traced pass of `wall` s."""
    if workload == "warm-analysis":
        sieve = any(n in c.names() for c in commands
                    for n in ("engine.generate_to_horizon", "engine.extend"))
        detect = sum(_duration(s) for c in commands for s in c.spans
                     if s[0] == "regularity.detect_period")
        return [("no generate or extend span in the timed part", not sieve),
                ("detect-period spans take at least a third of the pass",
                 detect >= wall / 3),
                ("detect-period has the largest non-import self-time share",
                 _largest(self_by_group(commands, _detect), "detect-period"))]
    if workload == "cache-growth":
        return [("extend plus cache encode and write have the largest "
                 "non-import self-time share",
                 _largest(self_by_group(commands, _write_path), "extend+write"))]
    if workload == "family-sweep":
        return [("engine has the largest non-import self-time share",
                 _largest(self_by_group(commands, layer_of), "engine"))]
    return []
