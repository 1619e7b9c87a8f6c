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

Cross-line state (font transitions) is document-local, so featurization
is a per-document function with a row-scoped loop — exactly the "resist
vectorizing the stateful inner loop" note of SURVEY.md §7.4.
"""

from __future__ import annotations

import re

import pyarrow as pa

from datacat_ray.functions.textkit import (
    capitalisation_class,
    digit_class,
    linear_scaling,
    prefix,
    punct_count,
    punct_type,
    punctuation_profile,
    tokenize_whitespace,
)
from datacat_ray.state.lexicon import (
    EMAIL_RE,
    HTTP_RE,
    YEAR_RE,
    is_common_word,
    is_month,
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
    patterns = [line_pattern(t) for t in line_texts]
    counts: dict[str, int] = {}
    for p in patterns:
        if len(p) > MIN_PATTERN_LEN:
            counts[p] = counts.get(p, 0) + 1
    repetitive = []
    first = []
    seen: set[str] = set()
    for p in patterns:
        rep = len(p) > MIN_PATTERN_LEN and counts.get(p, 0) > 1
        repetitive.append(rep)
        first.append(rep and p not in seen)
        if rep:
            seen.add(p)
    return repetitive, first


def featurize_lines(lines: list[dict]) -> list[dict]:
    """Pure per-document kernel: lines (tokenizer stage structs) → 33-field
    feature dicts, one per line."""
    n = len(lines)
    if n == 0:
        return []
    texts = [ln["text"] for ln in lines]
    repetitive, first_rep = mine_repetitive_patterns(texts)

    # page extents for rel_page_position
    page_first: dict[int, int] = {}
    page_count: dict[int, int] = {}
    for i, ln in enumerate(lines):
        pg = ln["page"]
        page_first.setdefault(pg, i)
        page_count[pg] = page_count.get(pg, 0) + 1

    # per-block max line length for the LINESCALE bin
    block_maxlen: dict[int, int] = {}
    for ln in lines:
        b = ln["block_id"]
        block_maxlen[b] = max(block_maxlen.get(b, 0), len(ln["text"]))

    feats: list[dict] = []
    prev_font: tuple | None = None
    prev_size: float | None = None
    for i, ln in enumerate(lines):
        text = ln["text"]
        ws = tokenize_whitespace(text)
        tok = ws[0] if ws else ""
        tok2 = ws[1] if len(ws) > 1 else ""
        low = tok.lower()

        # block / page status
        if ln["line_in_block"] == 0:
            block_status = "BLOCKSTART"
        elif ln["line_in_block"] == ln["block_n_lines"] - 1:
            block_status = "BLOCKEND"
        else:
            block_status = "BLOCKIN"
        pg = ln["page"]
        idx_in_page = i - page_first[pg]
        if idx_in_page == 0:
            page_status = "PAGESTART"
        elif idx_in_page == page_count[pg] - 1:
            page_status = "PAGEEND"
        else:
            page_status = "PAGEIN"

        # font transitions (document-local mutable state — row-scoped loop)
        font = (ln["bold"], ln["italic"])
        font_status = "SAMEFONT" if font == prev_font else "NEWFONT"
        size = ln["font_size"]
        if prev_size is None or size == prev_size:
            font_size_status = "SAMEFONTSIZE"
        elif size > prev_size:
            font_size_status = "HIGHERFONT"
        else:
            font_size_status = "LOWERFONT"
        prev_font, prev_size = font, size

        feats.append(
            {
                "token": tok,
                "second_token": tok2,
                "lowercase": low,
                "prefix1": prefix(tok, 1),
                "prefix2": prefix(tok, 2),
                "prefix3": prefix(tok, 3),
                "prefix4": prefix(tok, 4),
                "block_status": block_status,
                "page_status": page_status,
                "font_status": font_status,
                "font_size_status": font_size_status,
                "bold": int(bool(ln["bold"])),
                "italic": int(bool(ln["italic"])),
                "capitalisation": capitalisation_class(tok),
                "digit": digit_class(tok),
                "single_char": int(len(tok) == 1),
                "proper_name": int(is_proper_name(tok)),
                "common_name": int(is_common_word(tok)),
                "year": int(bool(YEAR_RE.search(text))),
                "month": int(any(is_month(w) for w in ws)),
                "email": int(any(EMAIL_RE.match(w) for w in ws)),
                "http": int(any(HTTP_RE.match(w) for w in ws)),
                "punct_type": punct_type(tok),
                "rel_doc_position": linear_scaling(i, n, NBBINS_POSITION),
                "rel_page_position": linear_scaling(
                    idx_in_page, page_count[pg], NBBINS_POSITION
                ),
                "punctuation_profile": punctuation_profile(text),
                "punct_count": punct_count(text),
                "line_length": linear_scaling(
                    len(text), block_maxlen[ln["block_id"]], LINESCALE
                ),
                "bitmap_around": 0,
                "vector_around": 0,
                "repetitive_pattern": int(repetitive[i]),
                "first_repetitive_pattern": int(first_rep[i]),
                "in_main_area": 1,
            }
        )
    return feats


def serialize_features(feat: dict) -> str:
    """Canonical whitespace serialization of one feature vector (the golden
    raw-corpus line format, S10 debug sink)."""
    return " ".join(str(feat[name]) for name in _FIELD_NAMES)
