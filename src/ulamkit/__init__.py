"""Ulam sequence toolkit: sieve engine, pattern codes, segment verification,
gap-regularity analysis, arithmetic-progression export, mining, and a CLI
with a binary prefix cache."""

from .cache import (PrefixStore, cache_read, cache_write, decode_prefix,
                    encode_prefix)
from .engine import (
    MAX_HORIZON_DEFAULT,
    UlamParams,
    UlamPrefix,
    count_upto,
    extend,
    generate_count,
    generate_to_horizon,
    is_member,
    nth_term,
    rep_count_exact,
    validate_params,
)
from .mining import mine
from .patterns import (
    Applicability,
    PatternCode,
    PatternComponent,
    code_id,
    decode,
    encode,
    in_pattern,
    pattern_set,
)
from .progressions import (
    APDecomposition,
    ap_decomposition,
    ap_member,
    ap_to_pattern_code,
    to_presburger_text,
)
from .regularity import (
    PeriodicityCandidate,
    density_inequality_check,
    detect_period,
    empirical_density,
    evens_census,
    gaps,
    hierarchy_report,
    residue_census,
)
from .rigidity import SegmentReport, family_sweep, search_threshold, verify_segment

__all__ = [
    "MAX_HORIZON_DEFAULT",
    "APDecomposition",
    "Applicability",
    "PatternCode",
    "PatternComponent",
    "PeriodicityCandidate",
    "PrefixStore",
    "SegmentReport",
    "UlamParams",
    "UlamPrefix",
    "ap_decomposition",
    "ap_member",
    "ap_to_pattern_code",
    "cache_read",
    "cache_write",
    "code_id",
    "count_upto",
    "decode",
    "decode_prefix",
    "density_inequality_check",
    "detect_period",
    "empirical_density",
    "encode",
    "encode_prefix",
    "evens_census",
    "extend",
    "family_sweep",
    "gaps",
    "generate_count",
    "generate_to_horizon",
    "hierarchy_report",
    "in_pattern",
    "is_member",
    "mine",
    "nth_term",
    "pattern_set",
    "rep_count_exact",
    "residue_census",
    "search_threshold",
    "to_presburger_text",
    "validate_params",
    "verify_segment",
]

__version__ = "0.1.0"
