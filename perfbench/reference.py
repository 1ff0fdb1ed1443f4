"""Reference data the benchmark judges the program against.

Term lists and sweep verdicts were recorded once by `record_reference.py`
and checked there against the brute-force oracle in `tests/oracles.py`.
Loading verifies each list against the SHA-256 digest in the manifest, so
a damaged data file fails loudly instead of moving the goalposts.
"""

from __future__ import annotations

import bisect
import gzip
import hashlib
import json
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"
MANIFEST = REF_DIR / "manifest.json"


def terms_digest(terms) -> str:
    return hashlib.sha256(",".join(map(str, terms)).encode()).hexdigest()


def gaps_file(a: int, b: int) -> str:
    return f"u{a}_{b}.gaps.gz"


class Reference:
    """Recorded prefixes of U(a, b), the mined family code and its sweep."""

    def __init__(self, ref_dir: Path = REF_DIR):
        self.dir = ref_dir
        self.manifest = json.loads((ref_dir / "manifest.json").read_text())
        self._pairs = {(p["a"], p["b"]): p for p in self.manifest["pairs"]}
        self._terms: dict[tuple[int, int], list[int]] = {}
        self.mined_code = self.manifest["mined_code"]
        self.sweep = {row[0]: row for row in self.manifest["sweep"]["rows"]}

    def horizon(self, a: int, b: int) -> int:
        return self._pairs[(a, b)]["horizon"]

    def terms(self, a: int, b: int) -> list[int]:
        if (a, b) not in self._terms:
            entry = self._pairs[(a, b)]
            raw = gzip.decompress((self.dir / gaps_file(a, b)).read_bytes())
            terms, value = [], 0
            for gap in raw.split():
                value += int(gap)
                terms.append(value)
            if terms_digest(terms) != entry["sha256"]:
                raise ValueError(f"reference U({a},{b}) fails its digest")
            self._terms[(a, b)] = terms
        return self._terms[(a, b)]

    def _need(self, a: int, b: int, horizon: int) -> list[int]:
        if horizon > self.horizon(a, b):
            raise ValueError(f"U({a},{b}) reference stops at "
                             f"{self.horizon(a, b)}, {horizon} asked")
        return self.terms(a, b)

    def upto(self, a: int, b: int, horizon: int) -> list[int]:
        terms = self._need(a, b, horizon)
        return terms[:bisect.bisect_right(terms, horizon)]

    def count(self, a: int, b: int, n: int) -> int:
        return bisect.bisect_right(self._need(a, b, n), n)

    def member(self, a: int, b: int, m: int) -> bool:
        terms = self._need(a, b, m)
        i = bisect.bisect_left(terms, m)
        return i < len(terms) and terms[i] == m

    def nth(self, a: int, b: int, k: int) -> int:
        terms = self.terms(a, b)
        if k > len(terms):
            raise ValueError(f"U({a},{b}) reference holds {len(terms)} terms")
        return terms[k - 1]
