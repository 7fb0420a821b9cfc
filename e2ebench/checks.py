"""Output checks that do not rely on the program's own answers.

* :func:`affine_global` — a plain Gotoh DP (BLOSUM62, gap ``11 + k``):
  a reported alignment's raw score can be no higher than the optimal
  end-to-end score of its reported ranges.
* :func:`karlin_alt` — bit score and E-value from NCBI's published
  BLOSUM62 11/1 constants and BLAST's edge-corrected search space.
* :func:`window_score` — the paper's step-2 window score: a running
  ``max(0, s + cost)`` over the seed plus ``N`` residues each side.
* :func:`planted_recall` — every planted genome member is covered by an
  alignment of its family ancestor on the right strand.

Each check appends human-readable failures to a list; a run with any
failure reports ``"correct": false``.
"""

from __future__ import annotations

import math

import numpy as np

_BLOSUM62 = """
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V  *
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -4
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -4
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3 -4
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3 -4
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -4
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2 -4
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2 -4
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -4
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3 -4
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -4
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2 -4
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -4
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -4
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -4
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2 -4
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -4
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -4
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -4
* -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
"""


def _parse_blosum() -> dict[tuple[str, str], int]:
    rows = _BLOSUM62.strip().splitlines()
    cols = rows[0].split()
    return {
        (parts[0], c): int(v)
        for parts in (r.split() for r in rows[1:])
        for c, v in zip(cols, parts[1:], strict=True)
    }


BLOSUM62 = _parse_blosum()
LETTERS = "ARNDCQEGHILKMFPSTWYV*"
_LUT = np.full(256, len(LETTERS), dtype=np.int64)
_LUT[np.frombuffer(LETTERS.encode(), dtype=np.uint8)] = np.arange(len(LETTERS))
_MATRIX = np.full((len(LETTERS) + 1, len(LETTERS) + 1), -4, dtype=np.int64)
for (_a, _b), _v in BLOSUM62.items():
    _MATRIX[LETTERS.index(_a), LETTERS.index(_b)] = _v

GAP_OPEN, GAP_EXTEND = 11, 1
#: NCBI's gapped Karlin-Altschul parameters for BLOSUM62, gaps 11/1.
KA_LAMBDA, KA_K, KA_H = 0.267, 0.041, 0.14


def affine_global(a: str, b: str) -> int:
    """Best end-to-end score of *a* against *b*; a gap of length k costs 11 + k.

    Row-by-row Gotoh recurrence.  The horizontal-gap state is a running
    maximum: ``E[j] = max_k<j (H0[k] + k*e) - o - j*e``.
    """
    o, e = GAP_OPEN, GAP_EXTEND
    neg = -(10**9)
    ca = _LUT[np.frombuffer(a.encode(), dtype=np.uint8)]
    cb = _LUT[np.frombuffer(b.encode(), dtype=np.uint8)]
    n = len(b)
    j = np.arange(n + 1, dtype=np.int64)
    h = -(o + e * j)
    h[0] = 0
    f = np.full(n + 1, neg, dtype=np.int64)
    for i in range(1, len(a) + 1):
        f = np.maximum(h - o - e, f - e)
        h0 = np.empty(n + 1, dtype=np.int64)
        h0[0] = -(o + e * i)
        h0[1:] = np.maximum(h[:-1] + _MATRIX[ca[i - 1], cb], f[1:])
        run = np.maximum.accumulate(h0 + e * j)
        gap = np.full(n + 1, neg, dtype=np.int64)
        gap[1:] = run[:-1] - o - e * j[1:]
        h = np.maximum(h0, gap)
    return int(h[n])


def karlin_alt(raw: int, m: int, n: int) -> tuple[float, float]:
    """(bit score, E-value) of *raw* for a length-*m* query in an *n*-residue database."""
    bits = (KA_LAMBDA * raw - math.log(KA_K)) / math.log(2.0)
    ell = math.log(max(KA_K * m * n, math.e)) / KA_H
    space = max(1.0, m - ell) * max(1.0, n - ell)
    return bits, KA_K * space * math.exp(-KA_LAMBDA * raw)


def check_alignments(
    rows: list[dict],
    queries: dict[str, str],
    subjects: dict[str, str],
    failures: list[str],
) -> None:
    """DP score bound + Karlin-Altschul recomputation for every alignment.

    *rows* carry ``query subject query_range subject_range raw_score
    bit_score evalue``; *queries*/*subjects* map names to residues.
    """
    db_len = sum(len(s) for s in subjects.values())
    for r in rows:
        q, s = queries[r["query"]], subjects[r["subject"]]
        (s0, e0), (s1, e1) = r["query_range"], r["subject_range"]
        best = affine_global(q[s0:e0], s[s1:e1])
        tag = f"{r['query']} vs {r['subject']} [{s0}:{e0}]x[{s1}:{e1}]"
        if r["raw_score"] > best:
            failures.append(f"{tag}: raw score {r['raw_score']} > optimal DP {best}")
        bits, evalue = karlin_alt(r["raw_score"], len(q), db_len)
        if abs(bits - r["bit_score"]) > 1e-6 * max(1.0, abs(bits)):
            failures.append(f"{tag}: bit score {r['bit_score']} != {bits}")
        if not math.isclose(evalue, r["evalue"], rel_tol=1e-9, abs_tol=1e-300):
            failures.append(f"{tag}: E-value {r['evalue']} != {evalue}")


def window_score(text0: str, o0: int, text1: str, o1: int, flank: int, width: int) -> int:
    """Step-2 score of the window starting *flank* residues left of the seeds.

    ``text0``/``text1`` are the bank buffers decoded to letters; any
    letter outside BLOSUM62 (the inter-sequence padding) scores -16.
    """
    score = best = 0
    for t in range(width):
        cost = BLOSUM62.get((text0[o0 - flank + t], text1[o1 - flank + t]), -16)
        score = max(0, score + cost)
        best = max(best, score)
    return best


def planted_recall(
    rows: list[dict], truth: list[dict], genome_len: int, failures: list[str]
) -> None:
    """Each planted member must be half-covered by its ancestor's alignment
    on the member's strand, with E-value <= 1e-3."""
    for t in truth:
        want = t["end"] - t["start"]
        covered = False
        for r in rows:
            frame = int(r["subject"].rsplit("frame", 1)[1])
            if r["query"] != t["family"] or (frame > 0) != (t["strand"] > 0):
                continue
            if r["evalue"] > 1e-3:
                continue
            lo = abs(frame) - 1 + 3 * r["subject_range"][0]
            hi = abs(frame) - 1 + 3 * r["subject_range"][1]
            if frame < 0:
                lo, hi = genome_len - hi, genome_len - lo
            if min(hi, t["end"]) - max(lo, t["start"]) >= want / 2:
                covered = True
                break
        if not covered:
            failures.append(
                f"planted {t['family']} member {t['member']} "
                f"[{t['start']}:{t['end']}] strand {t['strand']:+d} not recovered"
            )


def report_rows(report) -> list[dict]:
    """The program's ``ComparisonReport`` as plain rows (same shape as /search)."""
    return [
        {
            "query": a.seq0_name,
            "subject": a.seq1_name,
            "query_range": [a.start0, a.end0],
            "subject_range": [a.start1, a.end1],
            "raw_score": a.raw_score,
            "ungapped_score": a.ungapped_score,
            "bit_score": a.bit_score,
            "evalue": a.evalue,
        }
        for a in report.alignments
    ]
