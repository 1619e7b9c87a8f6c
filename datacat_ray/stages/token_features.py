"""Per-token feature vectors for the body model (SURVEY.md M7 + M14).

Re-creates the reference's 24-column token featurization over the ``<body>``
zone slice (``DatacatBodySegmentationParser.java:123-526``; serialization
``FeaturesVectorDatacatEntries.java:51-157``): token with prefixes/suffixes
1-4, block/line status with look-ahead, alignment status, font transitions,
bold/italic, caps/digit classes, punctuation class, binned positions, bitmap
adjacency. Whitespace tokens are skipped for the CRF (the TEI assembler
re-inserts them from the original tokenization — the J2 resync join), so each
feature position records the absolute token index it came from.

Canonical 24-field order:

    token lowercase prefix1-4 suffix1-4 block_status line_status
    alignment_status font_status font_size_status bold italic capitalisation
    digit single_char punct_type rel_doc_position rel_page_position
    bitmap_around

Alignment is constant ``ALIGNEDLEFT`` in the HTML graft (no x-geometry; the
reference derives it from line-start indentation,
``DatacatBodySegmentationParser.java:279-295``).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import not_

import pyarrow as pa

from datacat_ray.functions.textkit import (
    capitalisation_class,
    digit_class,
    linear_scaling,
    position_bins,
    prefix,
    punct_type,
    suffix,
)
from datacat_ray.stages.line_features import (
    NBBINS_POSITION,
    feature_rows,
    font_size_status,
    font_status,
    page_positions,
)
from datacat_ray.stages.tokenizer import Lines

TOKEN_FEATURE_STRUCT = pa.struct(
    [
        ("token", pa.string()),
        ("lowercase", pa.string()),
        ("prefix1", pa.string()),
        ("prefix2", pa.string()),
        ("prefix3", pa.string()),
        ("prefix4", pa.string()),
        ("suffix1", pa.string()),
        ("suffix2", pa.string()),
        ("suffix3", pa.string()),
        ("suffix4", pa.string()),
        ("block_status", pa.string()),
        ("line_status", pa.string()),
        ("alignment_status", pa.string()),
        ("font_status", pa.string()),
        ("font_size_status", pa.string()),
        ("bold", pa.int8()),
        ("italic", pa.int8()),
        ("capitalisation", pa.string()),
        ("digit", pa.string()),
        ("single_char", pa.int8()),
        ("punct_type", pa.string()),
        ("rel_doc_position", pa.int8()),
        ("rel_page_position", pa.int8()),
        ("bitmap_around", pa.int8()),
    ]
)

_TOKEN_FIELD_NAMES = [f.name for f in TOKEN_FEATURE_STRUCT]


# the fields that depend ONLY on the token string
_STATIC_COLUMNS = {
    "token": lambda t: t,
    "lowercase": str.lower,
    "prefix1": lambda t: prefix(t, 1),
    "prefix2": lambda t: prefix(t, 2),
    "prefix3": lambda t: prefix(t, 3),
    "prefix4": lambda t: prefix(t, 4),
    "suffix1": lambda t: suffix(t, 1),
    "suffix2": lambda t: suffix(t, 2),
    "suffix3": lambda t: suffix(t, 3),
    "suffix4": lambda t: suffix(t, 4),
    "capitalisation": capitalisation_class,
    "digit": digit_class,
    "single_char": lambda t: int(len(t) == 1),
    "punct_type": punct_type,
}

_STATIC_CACHE_MAX = 200_000
# projection (tuple of static field names) → token → that projection's
# values, memoized per worker process: natural-language token
# distributions are Zipfian, so hit rates are high. A process sees a
# handful of projections (every field, each decoder's); the total entry
# count stays under _STATIC_CACHE_MAX
_static_cache: dict[tuple[str, ...], dict[str, tuple]] = {}


def _static_columns(toks: list[str], names: tuple[str, ...]) -> list[list]:
    """One value list per static field in ``names``, parallel to ``toks``."""
    if not names:
        return []
    cache = _static_cache.setdefault(names, {})
    rows = list(map(cache.get, toks))
    if None in rows:
        fns = [_STATIC_COLUMNS[name] for name in names]
        for i, r in enumerate(rows):
            if r is None:
                tok = toks[i]
                r = cache.get(tok)
                if r is None:
                    size = sum(map(len, _static_cache.values()))
                    if size >= _STATIC_CACHE_MAX:
                        for c in _static_cache.values():
                            c.clear()
                    r = cache[tok] = tuple([f(tok) for f in fns])
                rows[i] = r
    if not rows:
        return [[] for _ in names]
    return [list(c) for c in zip(*rows)]


class _Body:
    """One document's non-space ``<body>`` tokens, their lines, and the
    document's non-space tokens (computed on first use) that the columns
    share."""

    def __init__(self, tokens, token_line, lines, body_ranges) -> None:
        self.token_line, self.lines = token_line, lines
        # the C-level scans below (compress/map) are the hot path: a
        # document has thousands of tokens
        self.keep = list(map(not_, map(str.isspace, tokens)))
        self.idx = [t for start, end in body_ranges
                    for t in compress(range(start, end), self.keep[start:end])]
        self.n = len(self.idx)
        self.toks = list(map(tokens.__getitem__, self.idx))
        self.li = list(map(token_line.__getitem__, self.idx))

    def per_line(self, values) -> list:
        """A per-line value sequence spread over the tokens."""
        return list(map(values.__getitem__, self.li))

    @cached_property
    def nonspace(self) -> tuple[list[int], list[int]]:
        """(index, line id) of every non-space token of the document."""
        ts = list(compress(range(len(self.keep)), self.keep))
        return ts, list(map(self.token_line.__getitem__, ts))

    def status(self, unit_of_line, start: str, end: str,
               inside: str) -> list[str]:
        """``start`` / ``end`` for the first / last non-space token of its
        unit in the document (its line or block: ``unit_of_line`` maps a
        line id to it, None for the line itself), else ``inside``."""
        ts, lis = self.nonspace
        mine = self.li
        if unit_of_line is not None:
            lis = list(map(unit_of_line.__getitem__, lis))
            mine = self.per_line(unit_of_line)
        last = dict(zip(lis, ts))
        first = dict(zip(reversed(lis), reversed(ts)))
        return [start if t == f else end if t == lt else inside
                for t, f, lt in zip(self.idx, map(first.__getitem__, mine),
                                    map(last.__getitem__, mine))]


# the fields that depend on the token's position and line
_BODY_COLUMNS = {
    "block_status": lambda b: b.status(
        b.lines.block_id, "BLOCKSTART", "BLOCKEND", "BLOCKIN"),
    "line_status": lambda b: b.status(None, "LINESTART", "LINEEND",
                                      "LINEIN"),
    "alignment_status": lambda b: ["ALIGNEDLEFT"] * b.n,
    "font_status": lambda b: font_status(
        b.per_line(list(zip(b.lines.bold, b.lines.italic)))),
    "font_size_status": lambda b: font_size_status(
        b.per_line(b.lines.font_size)),
    "bold": lambda b: b.per_line(list(map(int, b.lines.bold))),
    "italic": lambda b: b.per_line(list(map(int, b.lines.italic))),
    "rel_doc_position": lambda b: b.per_line(
        position_bins(len(b.lines), NBBINS_POSITION)),
    "rel_page_position": lambda b: b.per_line(
        [linear_scaling(i, c, NBBINS_POSITION)
         for i, c in zip(*page_positions(b.lines))]),
    "bitmap_around": lambda b: [0] * b.n,
}


def body_token_columns(
    tokens: list[str],
    token_line: list[int],
    lines: Lines,
    body_ranges: list[tuple[int, int]],
    fields,
) -> tuple[dict[str, list], list[int]]:
    """Pure per-document kernel, column-major: the ``<body>``-sliced token
    stream → (one value list per requested feature field, absolute token
    indices). Whitespace tokens are skipped; only the requested fields are
    computed."""
    b = _Body(tokens, token_line, lines, body_ranges)
    static = tuple(name for name in fields if name in _STATIC_COLUMNS)
    cols = dict(zip(static, _static_columns(b.toks, static)))
    return {name: cols[name] if name in cols else _BODY_COLUMNS[name](b)
            for name in fields}, b.idx


def featurize_body_tokens(
    tokens: list[str],
    token_line: list[int],
    lines: Lines,
    body_ranges: list[tuple[int, int]],
) -> tuple[list[dict], list[int]]:
    """(the 24-field feature dict of every non-space ``<body>`` token,
    absolute token indices) — ``body_token_columns`` of every field."""
    cols, idx = body_token_columns(tokens, token_line, lines, body_ranges,
                                   _TOKEN_FIELD_NAMES)
    return feature_rows(cols), idx


def serialize_token_features(feat: dict) -> str:
    """Canonical whitespace serialization (golden raw-corpus line format)."""
    return " ".join(str(feat[name]) for name in _TOKEN_FIELD_NAMES)
