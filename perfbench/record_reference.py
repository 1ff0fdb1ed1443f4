"""Record the benchmark's reference data from the library in `src/`.

Run from the repository root:  python3 perfbench/record_reference.py

Every term list is cross-checked on a prefix against the brute-force
`naive_ulam` oracle in `tests/oracles.py`, and the mined family code is
cross-checked the same way on small n, before anything is written. The
benchmark never regenerates this data while it runs: it judges each run
against what was recorded here.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ulamkit import (encode, family_sweep, generate_to_horizon,  # noqa: E402
                     mine, pattern_set, validate_params)
from tests.oracles import naive_ulam  # noqa: E402

from reference import REF_DIR, gaps_file, terms_digest  # noqa: E402
from workloads import (JITTER, MINE_SAMPLES, REFERENCE_HORIZONS,  # noqa: E402
                       SEG_RULE, SWEEP_RANGE, VERIFY_N)

ORACLE_HORIZON = 3000


def oracle_check(terms: list[int], a: int, b: int) -> None:
    naive = naive_ulam(a, b, ORACLE_HORIZON)
    if terms[:len(naive)] != naive or terms[len(naive)] <= ORACLE_HORIZON:
        raise SystemExit(f"U({a},{b}) disagrees with naive_ulam "
                         f"below {ORACLE_HORIZON}")


def main() -> None:
    pairs = []
    for (a, b), horizon in sorted(REFERENCE_HORIZONS.items()):
        terms = generate_to_horizon(validate_params(a, b), horizon).term_list()
        oracle_check(terms, a, b)
        gap_text = "\n".join(str(y - x) for x, y in zip([0] + terms, terms))
        (REF_DIR / gaps_file(a, b)).write_bytes(
            gzip.compress(gap_text.encode() + b"\n", mtime=0))
        pairs.append({"a": a, "b": b, "horizon": horizon,
                      "term_count": len(terms), "sha256": terms_digest(terms)})
        print(f"U({a},{b}) to {horizon}: {len(terms)} terms", file=sys.stderr)

    code, _ = mine(1, 0, list(MINE_SAMPLES), SEG_RULE)
    c_seg, d_seg = SEG_RULE
    for n in range(MINE_SAMPLES[0], MINE_SAMPLES[-1] + 5):
        hi = c_seg * n + d_seg
        points = [m for m in pattern_set(code, 1, n) if m <= hi]
        if points != naive_ulam(1, n, hi):
            raise SystemExit(f"mined code disagrees with naive_ulam at n={n}")
    lo, hi = SWEEP_RANGE
    spread = VERIFY_N // JITTER
    ns = [*range(lo, hi + 1), *range(VERIFY_N - spread, VERIFY_N + spread + 1)]
    rows = []
    for e in family_sweep(code, 1, 0, ns, SEG_RULE):
        r = e.report
        rows.append([e.n, r.agrees, r.N, r.M, r.matched_count,
                     None if r.first_mismatch is None else list(r.first_mismatch)])
    manifest = {"pairs": pairs, "mined_code": encode(code),
                "sweep": {"seg_rule": list(SEG_RULE), "rows": rows}}
    # One line per flat list, so each sweep row is one line.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
                  json.dumps(manifest, indent=1))
    (REF_DIR / "manifest.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
