"""Masked-interval pattern codes with endpoints linear in the seed pair.

A component denotes, at parameters (a, b), the set
    { m in [A, B] : (m - A) mod L in S }
with A = A1*a + A2*b + p and B = B1*a + B2*b + q. The trivial mask
(L=1, S={0}) keeps the whole interval. A component may instead be
unbounded above (no B), which is how eventually periodic tails are
expressed; bounded components are the default.

Serialization is canonical UTF-8 JSON: fixed key order, no whitespace,
S ascending, components in list order. Files carry an optional
applicability stanza {modulus, residue} restricting the claimed b values
to one congruence class.
"""

from __future__ import annotations

import json
from itertools import compress

from .engine import _class_fault, _Record
from .errors import PatternParseError, PatternSemanticError, UnboundedPattern

_COMPONENT_KEYS = ("A1", "A2", "B1", "B2", "p", "q", "L", "S", "unbounded")


class PatternComponent(_Record):
    """Integer endpoint coefficients, the mask period L and its set S, and
    whether the component is unbounded above."""

    __slots__ = _COMPONENT_KEYS
    _defaults = (0, 0, 0, 0, 0, 0, 1, frozenset({0}), False)

    def __post_init__(self):
        S = frozenset(int(s) for s in self.S)
        object.__setattr__(self, "S", S)
        if self.L < 1:
            raise PatternSemanticError(f"mask period must be >= 1, got {self.L}")
        bad = [s for s in S if not 0 <= s < self.L]
        if bad:
            raise PatternSemanticError(
                f"mask elements {sorted(bad)} outside [0, {self.L - 1}]"
            )
        if self.unbounded:
            # upper endpoint is meaningless; normalize for canonical encoding
            object.__setattr__(self, "B1", 0)
            object.__setattr__(self, "B2", 0)
            object.__setattr__(self, "q", 0)


class Applicability(_Record):
    __slots__ = ("modulus", "residue")

    def __post_init__(self):
        fault = _class_fault(self.modulus, self.residue)
        if fault is not None:
            raise PatternSemanticError(fault)

    def admits(self, b: int) -> bool:
        return b % self.modulus == self.residue


class PatternCode(_Record):
    """A tuple of components, and an Applicability or None."""

    __slots__ = ("components", "applicability")
    _defaults = ((), None)

    def __post_init__(self):
        comps = tuple(self.components)
        if not all(isinstance(c, PatternComponent) for c in comps):
            raise PatternSemanticError("components must be PatternComponent values")
        object.__setattr__(self, "components", comps)

    @property
    def has_unbounded(self) -> bool:
        return any(c.unbounded for c in self.components)


def eval_endpoints(comp: PatternComponent, a: int, b: int) -> tuple[int, int | None]:
    """(A, B) at the given parameters; B is None for unbounded components."""
    A = comp.A1 * a + comp.A2 * b + comp.p
    if comp.unbounded:
        return A, None
    return A, comp.B1 * a + comp.B2 * b + comp.q


def _component_contains(comp: PatternComponent, a: int, b: int, m: int) -> bool:
    A, B = eval_endpoints(comp, a, b)
    if m < A:
        return False
    if B is not None and m > B:
        return False
    return (m - A) % comp.L in comp.S


def in_pattern(code: PatternCode, a: int, b: int, m: int) -> bool:
    """Whether m lies in the set the code denotes at (a, b)."""
    return any(_component_contains(c, a, b, m) for c in code.components)


def _blocks(code: PatternCode, a: int, b: int, lo: int, hi: int):
    """(first, last, L) for each (component, s) with a point in [lo, hi] at
    (a, b): its least and greatest point there and its step. Unbounded
    components are clipped at hi."""
    for comp in code.components:
        A, B = eval_endpoints(comp, a, b)
        B = hi if B is None else min(B, hi)
        L = comp.L
        for s in comp.S:
            first = A + s + max(0, lo - A - s + L - 1) // L * L
            if first <= B:
                yield first, B - (B - first) % L, L


def pattern_mask(code: PatternCode, a: int, b: int, lo: int,
                 hi: int) -> bytearray:
    """The code's points in [lo, hi] at (a, b) as a byte per integer: byte
    m - lo is 1 for each point m, else 0. Each block is one strided write,
    and its run of ones the only copy beside the mask."""
    mask = bytearray(max(hi - lo + 1, 0))
    for first, last, L in _blocks(code, a, b, lo, hi):
        mask[first - lo:last - lo + 1:L] = b"\x01" * ((last - first) // L + 1)
    return mask


def pattern_set(code: PatternCode, a: int, b: int) -> list[int]:
    """Sorted list of all points of a fully bounded code at (a, b). Costs a
    byte per integer from the least A to b_max."""
    if code.has_unbounded:
        raise UnboundedPattern("pattern_set requires every component bounded")
    hi = b_max(code, a, b)
    if hi is None:
        return []
    lo = min(A for A, B in (eval_endpoints(c, a, b) for c in code.components)
             if A <= B)
    return list(compress(range(lo, hi + 1), pattern_mask(code, a, b, lo, hi)))


def b_max(code: PatternCode, a: int, b: int) -> int | None:
    """Largest upper endpoint over the non-empty components (A <= B).

    None when no component is non-empty or any is unbounded; in the latter
    case code.has_unbounded is the distinguishing flag.
    """
    if code.has_unbounded:
        return None
    ends = (eval_endpoints(c, a, b) for c in code.components)
    return max((B for A, B in ends if A <= B), default=None)


def _component_to_obj(comp: PatternComponent) -> dict:
    return {
        "A1": comp.A1, "A2": comp.A2, "B1": comp.B1, "B2": comp.B2,
        "p": comp.p, "q": comp.q, "L": comp.L, "S": sorted(comp.S),
        "unbounded": comp.unbounded,
    }


def encode(code: PatternCode) -> str:
    """Canonical text form: fixed key order, no whitespace, S ascending."""
    obj = {"components": [_component_to_obj(c) for c in code.components]}
    if code.applicability is not None:
        obj["applicability"] = {
            "modulus": code.applicability.modulus,
            "residue": code.applicability.residue,
        }
    return json.dumps(obj, separators=(",", ":"))


def code_id(code: PatternCode) -> str:
    """Short stable identifier derived from the canonical encoding."""
    import hashlib

    return hashlib.sha256(encode(code).encode("utf-8")).hexdigest()[:12]


def _require(cond: bool, message: str):
    if not cond:
        raise PatternSemanticError(message)


def _as_int(value, label: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{label} must be an integer, got {value!r}")
    return value


def decode(text: str) -> PatternCode:
    """Parse pattern-code text; inverse of encode on well-formed codes."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise PatternParseError(f"invalid JSON: {e.msg}", offset=e.pos) from e
    except RecursionError as e:
        raise PatternParseError("invalid JSON: nested too deeply") from e
    _require(isinstance(obj, dict), "top level must be an object")
    unknown = set(obj) - {"components", "applicability"}
    _require(not unknown, f"unknown top-level keys {sorted(unknown)}")
    _require("components" in obj, "missing components")
    raw = obj["components"]
    _require(isinstance(raw, list), "components must be a list")
    comps = []
    for i, item in enumerate(raw):
        _require(isinstance(item, dict), f"component {i} must be an object")
        unknown = set(item) - set(_COMPONENT_KEYS)
        _require(not unknown, f"component {i}: unknown keys {sorted(unknown)}")
        missing = set(_COMPONENT_KEYS) - set(item)
        _require(not missing, f"component {i}: missing keys {sorted(missing)}")
        S = item["S"]
        _require(isinstance(S, list), f"component {i}: S must be a list")
        _require(all(isinstance(s, int) and not isinstance(s, bool) for s in S),
                 f"component {i}: S elements must be integers")
        _require(len(set(S)) == len(S), f"component {i}: S has duplicates")
        _require(isinstance(item["unbounded"], bool),
                 f"component {i}: unbounded must be a boolean")
        fields = {k: _as_int(item[k], f"component {i}: {k}")
                  for k in ("A1", "A2", "B1", "B2", "p", "q", "L")}
        comps.append(PatternComponent(
            **fields, S=frozenset(S), unbounded=item["unbounded"]))
    applicability = None
    if "applicability" in obj and obj["applicability"] is not None:
        app = obj["applicability"]
        _require(isinstance(app, dict), "applicability must be an object")
        unknown = set(app) - {"modulus", "residue"}
        _require(not unknown, f"applicability: unknown keys {sorted(unknown)}")
        _require({"modulus", "residue"} <= set(app),
                 "applicability needs modulus and residue")
        applicability = Applicability(
            _as_int(app["modulus"], "modulus"), _as_int(app["residue"], "residue"))
    return PatternCode(tuple(comps), applicability)
