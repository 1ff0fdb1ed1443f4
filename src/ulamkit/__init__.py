"""Ulam sequence toolkit: sieve engine, pattern codes, segment verification,
gap-regularity analysis, arithmetic-progression export, mining, and a CLI
with a binary prefix cache.

Each layer below is registered in `sys.modules` as a lazy module, whose body
runs on its first attribute access, so a command loads only the layers it
uses. The headline names resolve through `__getattr__` and load their home
module on first use. `ulamkit.cli` is not registered: `python -m` would warn.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Home module -> the public names it exports at package level.
_EXPORTS = {
    "cache": ("PrefixStore", "cache_read", "cache_write", "count_upto",
              "decode_prefix", "encode_prefix", "generate_count", "is_member",
              "nth_term"),
    "engine": ("MAX_HORIZON_DEFAULT", "UlamParams", "UlamPrefix", "extend",
               "generate_to_horizon", "rep_count_exact", "validate_params"),
    "mining": ("mine",),
    "patterns": ("Applicability", "PatternCode", "PatternComponent", "code_id",
                 "decode", "encode", "in_pattern", "pattern_set"),
    "progressions": ("ap_decomposition", "to_presburger_text"),
    "regularity": ("PeriodicityCandidate", "density_inequality_check",
                   "detect_period", "empirical_density", "evens_census", "gaps",
                   "hierarchy_report", "residue_census"),
    "rigidity": ("SegmentReport", "family_sweep", "search_threshold",
                 "verify_segment"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("errors", "fsutil", "engine", "cache", "patterns", "rigidity",
               "regularity", "progressions", "mining"):
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
