"""The per-line oracle of the segmenter's line features: each of the 33
fields stated line by line over one document's ``tokenizer.Lines``. The
batch encoder ``line_features.line_codes``, decoded to values, must equal
``oracle_columns`` for every field.

- ``mine_repetitive_patterns``: the per-document header/footer miner
  (``DatacatSegmenterParser.java:268-305``).
- ``font_status`` / ``font_size_status`` / ``page_positions``: the
  per-document transitions and page extents, shared with
  ``frontend_oracle.line_struct_columns``.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property

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
from datacat_ray.stages.line_features import LINESCALE, MIN_PATTERN_LEN
from datacat_ray.stages.token_features import NBBINS_POSITION
from datacat_ray.stages.tokenizer import Lines
from datacat_ray.state.lexicon import (
    EMAIL_RE,
    YEAR_RE,
    has_link,
    has_month,
    is_common_word,
    is_proper_name,
)

_DIGITS_RE = re.compile(r"\d+")


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


def page_positions(pages: list) -> tuple[list[int], list[int]]:
    """Per line: (its index from its page's first line, its page's line
    count)."""
    first: dict[int, int] = {}
    count: dict[int, int] = {}
    for i, pg in enumerate(pages):
        first.setdefault(pg, i)
        count[pg] = count.get(pg, 0) + 1
    return ([i - first[pg] for i, pg in enumerate(pages)],
            [count[pg] for pg in pages])


def font_status(fonts: list) -> list[str]:
    """Font transitions along a sequence: each (bold, italic) pair against
    the one before it."""
    return ["SAMEFONT" if f == p else "NEWFONT"
            for f, p in zip(fonts, [None] + fonts)]


def font_size_status(sizes: list) -> list[str]:
    """Font-size transitions along a sequence."""
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
        return page_positions(self.lines.page)

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


# one builder per field, line by line
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


def oracle_columns(lines: Lines, fields) -> dict[str, list]:
    """One value list per requested field, each parallel to the lines."""
    d = _Lines(lines)
    return {name: _LINE_COLUMNS[name](d) for name in fields}


def oracle_rows(lines: Lines) -> list[dict]:
    """The 33-field feature dict of every line."""
    cols = oracle_columns(lines, _LINE_COLUMNS)
    return [dict(zip(cols, row)) for row in zip(*cols.values())]
