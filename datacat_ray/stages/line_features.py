"""Per-line feature vectors for the segmenter model (SURVEY.md M5+M6+M8).

Re-creates the semantics of the reference's 33-column line featurization
(``DatacatSegmenterParser.java:307-626`` feature computation;
``FeaturesVectorDatacatSegmenter.java:56-225`` serialization; bin constants
``NBBINS_POSITION=12``, ``LINESCALE=10`` at ``DatacatSegmenterParser.java:68-77``)
including the repetitive header/footer pattern miner
(``DatacatSegmenterParser.java:268-305``: digit-normalized line skeletons,
patterns longer than 8 chars occurring more than once mark their lines
``repetitive_pattern``; the first sighting additionally marks
``first_repetitive_pattern``).

Canonical field order (33 columns — this repo's frozen layout; the golden
``serialized`` form space-joins them with booleans as 0/1):

    token second_token lowercase prefix1 prefix2 prefix3 prefix4
    block_status page_status font_status font_size_status bold italic
    capitalisation digit single_char proper_name common_name year month
    email http punct_type rel_doc_position rel_page_position
    punctuation_profile punct_count line_length bitmap_around vector_around
    repetitive_pattern first_repetitive_pattern in_main_area

Cross-line state (font transitions, page extents) is document-local, so
featurization is a per-document function. It is column-major
(``line_columns``): a CRF model reads only the fields its templates name,
so the cascade computes just those columns (``CRFDecoder.fields``);
``featurize_lines`` is the every-field case as one dict per line.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property

import pyarrow as pa

from datacat_ray.functions.textkit import (
    capitalisation_class,
    digit_class,
    linear_scaling,
    position_bins,
    prefix,
    punct_count,
    punct_type,
    punctuation_profile,
    tokenize_whitespace,
)
from datacat_ray.stages.tokenizer import Lines
from datacat_ray.state.lexicon import (
    EMAIL_RE,
    YEAR_RE,
    has_link,
    has_month,
    is_common_word,
    is_proper_name,
)

NBBINS_POSITION = 12
LINESCALE = 10

LINE_FEATURE_STRUCT = pa.struct(
    [
        ("token", pa.string()),
        ("second_token", pa.string()),
        ("lowercase", pa.string()),
        ("prefix1", pa.string()),
        ("prefix2", pa.string()),
        ("prefix3", pa.string()),
        ("prefix4", pa.string()),
        ("block_status", pa.string()),
        ("page_status", pa.string()),
        ("font_status", pa.string()),
        ("font_size_status", pa.string()),
        ("bold", pa.int8()),
        ("italic", pa.int8()),
        ("capitalisation", pa.string()),
        ("digit", pa.string()),
        ("single_char", pa.int8()),
        ("proper_name", pa.int8()),
        ("common_name", pa.int8()),
        ("year", pa.int8()),
        ("month", pa.int8()),
        ("email", pa.int8()),
        ("http", pa.int8()),
        ("punct_type", pa.string()),
        ("rel_doc_position", pa.int8()),
        ("rel_page_position", pa.int8()),
        ("punctuation_profile", pa.string()),
        ("punct_count", pa.int16()),
        ("line_length", pa.int8()),
        ("bitmap_around", pa.int8()),
        ("vector_around", pa.int8()),
        ("repetitive_pattern", pa.int8()),
        ("first_repetitive_pattern", pa.int8()),
        ("in_main_area", pa.int8()),
    ]
)

_FIELD_NAMES = [f.name for f in LINE_FEATURE_STRUCT]

_DIGITS_RE = re.compile(r"\d+")
MIN_PATTERN_LEN = 8


def line_pattern(text: str) -> str:
    """Digit-normalized skeleton of a line (reference
    ``featureFactory.getPattern``): digits collapse to ``@``, whitespace
    removed — repeated headers/footers differ only in page numbers."""
    return _DIGITS_RE.sub("@", "".join(text.split()))


def mine_repetitive_patterns(line_texts: list[str]) -> tuple[list[bool], list[bool]]:
    """Per-document repetitive-pattern flags (M5). Returns
    ``(repetitive, first_repetitive)`` parallel to ``line_texts``."""
    patterns = list(map(line_pattern, line_texts))
    counts = Counter(p for p in patterns if len(p) > MIN_PATTERN_LEN)
    repetitive = [counts.get(p, 0) > 1 for p in patterns]
    first = []
    seen: set[str] = set()
    for p, rep in zip(patterns, repetitive):
        first.append(rep and p not in seen)
        if rep:
            seen.add(p)
    return repetitive, first


def page_positions(lines: Lines) -> tuple[list[int], list[int]]:
    """Per line: (its index within its page, its page's line count)."""
    first: dict[int, int] = {}
    count: dict[int, int] = {}
    pages = lines.page
    for i, pg in enumerate(pages):
        first.setdefault(pg, i)
        count[pg] = count.get(pg, 0) + 1
    return ([i - first[pg] for i, pg in enumerate(pages)],
            [count[pg] for pg in pages])


def font_status(fonts: list) -> list[str]:
    """Font transitions along a sequence (lines or tokens): each (bold,
    italic) pair against the one before it."""
    return ["SAMEFONT" if f == p else "NEWFONT"
            for f, p in zip(fonts, [None] + fonts)]


def font_size_status(sizes: list) -> list[str]:
    """Font-size transitions along a sequence (lines or tokens)."""
    return ["SAMEFONTSIZE" if p is None or s == p
            else "HIGHERFONT" if s > p else "LOWERFONT"
            for s, p in zip(sizes, [None] + sizes)]


class _Lines:
    """One document's lines and the per-line values several columns share,
    each computed on first use."""

    def __init__(self, lines: Lines) -> None:
        self.lines = lines
        self.n = len(lines)
        self.texts = lines.text

    @cached_property
    def ws(self) -> list[list[str]]:
        return list(map(tokenize_whitespace, self.texts))

    @cached_property
    def tok(self) -> list[str]:
        """Each line's first whitespace token ("" for a blank line)."""
        return [w[0] if w else "" for w in self.ws]

    @cached_property
    def page_pos(self) -> tuple[list[int], list[int]]:
        return page_positions(self.lines)

    @cached_property
    def repetitive(self) -> tuple[list[bool], list[bool]]:
        return mine_repetitive_patterns(self.texts)


def _block_status(d: _Lines) -> list[str]:
    return ["BLOCKSTART" if j == 0 else "BLOCKEND" if j == n - 1
            else "BLOCKIN"
            for j, n in zip(d.lines.line_in_block, d.lines.block_n_lines)]


def _page_status(d: _Lines) -> list[str]:
    return ["PAGESTART" if i == 0 else "PAGEEND" if i == c - 1 else "PAGEIN"
            for i, c in zip(*d.page_pos)]


def _line_length(d: _Lines) -> list[int]:
    # each line's length binned against the longest line of its block
    lens = list(map(len, d.texts))
    block_maxlen: dict[int, int] = {}
    for b, n in zip(d.lines.block_id, lens):
        block_maxlen[b] = max(block_maxlen.get(b, 0), n)
    return [linear_scaling(n, block_maxlen[b], LINESCALE)
            for b, n in zip(d.lines.block_id, lens)]


def _prefix(k: int):
    return lambda d: [prefix(t, k) for t in d.tok]


# one builder per field: the single definition of each feature value
_LINE_COLUMNS = {
    "token": lambda d: d.tok,
    "second_token": lambda d: [w[1] if len(w) > 1 else "" for w in d.ws],
    "lowercase": lambda d: list(map(str.lower, d.tok)),
    "prefix1": _prefix(1),
    "prefix2": _prefix(2),
    "prefix3": _prefix(3),
    "prefix4": _prefix(4),
    "block_status": _block_status,
    "page_status": _page_status,
    "font_status": lambda d: font_status(
        list(zip(d.lines.bold, d.lines.italic))),
    "font_size_status": lambda d: font_size_status(d.lines.font_size),
    "bold": lambda d: list(map(int, d.lines.bold)),
    "italic": lambda d: list(map(int, d.lines.italic)),
    "capitalisation": lambda d: list(map(capitalisation_class, d.tok)),
    "digit": lambda d: list(map(digit_class, d.tok)),
    "single_char": lambda d: [int(len(t) == 1) for t in d.tok],
    "proper_name": lambda d: [int(is_proper_name(t)) for t in d.tok],
    "common_name": lambda d: [int(is_common_word(t)) for t in d.tok],
    "year": lambda d: [int(bool(YEAR_RE.search(t))) for t in d.texts],
    "month": lambda d: [int(has_month(ws)) for ws in d.ws],
    "email": lambda d: [int(any(EMAIL_RE.match(w) for w in ws))
                        for ws in d.ws],
    "http": lambda d: [int(has_link(t)) for t in d.texts],
    "punct_type": lambda d: list(map(punct_type, d.tok)),
    "rel_doc_position": lambda d: position_bins(d.n, NBBINS_POSITION),
    "rel_page_position": lambda d: [linear_scaling(i, c, NBBINS_POSITION)
                                    for i, c in zip(*d.page_pos)],
    "punctuation_profile": lambda d: list(map(punctuation_profile, d.texts)),
    "punct_count": lambda d: list(map(punct_count, d.texts)),
    "line_length": _line_length,
    "bitmap_around": lambda d: [0] * d.n,
    "vector_around": lambda d: [0] * d.n,
    "repetitive_pattern": lambda d: [int(r) for r in d.repetitive[0]],
    "first_repetitive_pattern": lambda d: [int(r) for r in d.repetitive[1]],
    "in_main_area": lambda d: [1] * d.n,
}


def line_columns(lines: Lines, fields) -> dict[str, list]:
    """Pure per-document kernel, column-major: a document's ``Lines`` → one
    value list per requested feature field, each parallel to the lines.
    Only the requested fields are computed."""
    d = _Lines(lines)
    return {name: _LINE_COLUMNS[name](d) for name in fields}


def feature_rows(cols: dict[str, list]) -> list[dict]:
    """Feature columns → one feature dict per position (keys in column
    order)."""
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


def serialize_columns(cols: dict[str, list]) -> list[str]:
    """Feature columns → the whitespace serialization of every position
    (values in column order; ``serialize_features`` of each row when the
    columns are every field in canonical order)."""
    return [" ".join(map(str, row)) for row in zip(*cols.values())]


def featurize_lines(lines: Lines) -> list[dict]:
    """The 33-field feature dict of every line (``line_columns`` of every
    field, one dict per line)."""
    return feature_rows(line_columns(lines, _FIELD_NAMES))


def serialize_features(feat: dict) -> str:
    """Canonical whitespace serialization of one feature vector (the golden
    raw-corpus line format, S10 debug sink)."""
    return " ".join(str(feat[name]) for name in _FIELD_NAMES)
