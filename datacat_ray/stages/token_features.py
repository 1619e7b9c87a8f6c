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

Coded and batch-wide: ``body_codes`` featurizes the body tokens of a whole
batch of documents laid end to end, and every field comes out as integer
codes of ``crf.VOCAB`` (one dictionary per field, keyed by the value's
feature string), ready for ``CRFDecoder.coded_emissions``. Token-static
fields are looked up through a per-process token vocabulary (token → id,
and per field an array of the code of every known token's value, computed
once per distinct token); context fields are numpy gathers over the
batch's line arrays (``LineSet``, which the segmenter's line encoder
``line_features.line_codes`` shares). Each field has one definition (``_STATIC_COLUMNS``,
``_BODY_COLUMNS``); the value columns and the dict featurizer of
perfbench's traced walk (``body_token_columns``,
``featurize_body_tokens``) are the codes of one document decoded back to
values. The token vocabulary is bounded by ``_STATIC_CACHE_MAX`` tokens:
it is watched by ``VOCAB``, so ``VOCAB.bound`` (between batches only)
resets both together.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np
import pyarrow as pa

from datacat_ray.functions.textkit import (
    capitalisation_class,
    digit_class,
    prefix,
    punct_type,
    suffix,
)
from datacat_ray.stages.crf import VOCAB
from datacat_ray.stages.tokenizer import Lines

# position bins of a line in its document and its page (reference
# ``NBBINS_POSITION``, ``DatacatSegmenterParser.java:68-77``)
NBBINS_POSITION = 12

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


class _TokenVocab:
    """The per-process token vocabulary: token → token id, and per static
    field the ``VOCAB`` code of every known token's value (an array over
    token ids, computed once per distinct token and field: natural-language
    token distributions are Zipfian, so hit rates are high). It empties
    itself once ``VOCAB`` has been reset, because its codes are void."""

    def __init__(self) -> None:
        self.gen = -1
        self.index: dict[str, int] = {}
        self.strs: list[str] = []
        self.cols: dict[str, tuple[np.ndarray, int]] = {}

    def ids(self, toks: list[str]) -> np.ndarray:
        """The id of every token."""
        if self.gen != VOCAB.gen:
            self.index, self.strs, self.cols = {}, [], {}
            self.gen = VOCAB.gen
        index = self.index
        try:
            return np.fromiter(map(index.__getitem__, toks), np.intp,
                               len(toks))
        except KeyError:
            for t in dict.fromkeys(toks):
                if t not in index:
                    index[t] = len(self.strs)
                    self.strs.append(t)
            return np.fromiter(map(index.__getitem__, toks), np.intp,
                               len(toks))

    def full(self) -> bool:
        return len(self.strs) >= _STATIC_CACHE_MAX

    def column(self, name: str, fn, ids: np.ndarray) -> np.ndarray:
        """``fn(token)`` (an int) of the tokens ``ids``, memoized per token
        id under ``name``."""
        col, have = self.cols.get(name, (None, 0))
        n = len(self.strs)
        if have < n:
            if col is None or len(col) < n:
                grown = np.empty(max(n, 2 * have, 1024), dtype=np.intp)
                if have:
                    grown[:have] = col[:have]
                col = grown
            col[have:n] = np.fromiter(map(fn, self.strs[have:n]), np.intp,
                                      n - have)
            self.cols[name] = (col, n)
        return col[ids]


TOKENS = _TokenVocab()
VOCAB.watch(TOKENS.full)


def static_codes(name: str, ids: np.ndarray, fn=None) -> np.ndarray:
    """The ``VOCAB`` codes of a token-static field (``fn`` of the token,
    by default its ``_STATIC_COLUMNS`` definition) for the tokens
    ``ids``."""
    fn = fn or _STATIC_COLUMNS[name]
    return TOKENS.column(name, lambda t: VOCAB.code(name, fn(t)), ids)


def space_mask(ids: np.ndarray) -> np.ndarray:
    """Whether each token is whitespace."""
    return TOKENS.column(" ", str.isspace, ids).astype(bool)


def feature_rows(cols: dict[str, list]) -> list[dict]:
    """Feature columns → one feature dict per position (keys in column
    order)."""
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


def position_bins(at: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``textkit.linear_scaling(at, n, NBBINS_POSITION)`` of every
    position ``at`` (>= 0) in a run of ``n`` (> 0) lines."""
    return np.minimum((NBBINS_POSITION * (at / n)).astype(np.intp),
                      NBBINS_POSITION)


def page_positions(doc: np.ndarray, page: np.ndarray):
    """Per line of a batch (``doc`` its document, ``page`` its page id):
    (its index counted from its page's first line in its document, its
    page's line count in its document)."""
    if not len(doc):
        return doc, doc
    lo = int(page.min())
    key = doc.astype(np.int64) * (int(page.max()) - lo + 1) + (page - lo)
    _, first, inv, count = np.unique(key, return_index=True,
                                     return_inverse=True, return_counts=True)
    return np.arange(len(doc)) - first[inv], count[inv]


def offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each of several runs laid end to
    end starts, plus the total."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def changed(v: np.ndarray, first) -> np.ndarray:
    """Whether each position's value differs from the position before it
    (True at the positions ``first``, where documents start)."""
    new = np.ones(len(v), dtype=bool)
    new[1:] = v[1:] != v[:-1]
    new[first] = True
    return new


def size_status(s: np.ndarray, first) -> np.ndarray:
    """Per position: 0 same font size as the position before (or at the
    positions ``first``, where documents start), 1 higher, 2 lower."""
    prev = np.empty_like(s)
    prev[1:] = s[:-1]
    cls = np.where(s > prev, 1, 2)
    cls[s == prev] = 0
    cls[first] = 0
    return cls


class LineSet:
    """The lines of a batch of documents laid end to end: ``line_off``
    where each document's lines start (plus the total), ``line_doc`` each
    line's document, ``line_at`` its index in it; the per-line values of
    both levels' context fields, each computed on first use."""

    def __init__(self, lines: list[Lines]) -> None:
        self.lines = lines
        nl = list(map(len, lines))
        self.line_off = offsets(nl)
        self.line_doc = np.repeat(np.arange(len(lines)), nl)
        self.line_at = (np.arange(len(self.line_doc))
                        - self.line_off[self.line_doc])

    def line_values(self, name: str, dtype=np.intp) -> np.ndarray:
        """A ``Lines`` column of every line of the batch."""
        return np.fromiter(chain.from_iterable(
            getattr(ls, name) for ls in self.lines), dtype,
            int(self.line_off[-1]))

    def fonts(self) -> np.ndarray:
        """Each line's (bold, italic) pair as one int."""
        return 2 * self.line_values("bold") + self.line_values("italic")

    def rel_doc_position(self) -> np.ndarray:
        """Each line's position bin in its document."""
        return position_bins(self.line_at,
                             np.diff(self.line_off)[self.line_doc])

    @cached_property
    def page_pos(self) -> tuple[np.ndarray, np.ndarray]:
        return page_positions(self.line_doc, self.line_values("page"))

    def rel_page_position(self) -> np.ndarray:
        """Each line's position bin in its page."""
        return position_bins(*self.page_pos)

    def blocks(self) -> np.ndarray:
        """Each line's block, numbered across the batch."""
        bid = self.line_values("block_id")
        nb = [max(ls.block_id) + 1 if len(ls) else 0 for ls in self.lines]
        return bid + offsets(nb)[self.line_doc]


class _Body(LineSet):
    """The non-space ``<body>`` tokens of a batch of documents laid end to
    end, their lines, and what the context columns share (each computed on
    first use). ``pos`` is each body position's index into the batch's
    flat token array, ``doc`` its document, ``counts`` the positions per
    document."""

    def __init__(self, tokens, token_line, lines, body_ranges) -> None:
        super().__init__(lines)
        ntok = list(map(len, tokens))
        self.off = off = offsets(ntok)
        N = int(off[-1])
        self.ids = TOKENS.ids(list(chain.from_iterable(tokens)))
        self.keep = ~space_mask(self.ids)
        D = len(tokens)
        self.tdoc = np.repeat(np.arange(D), ntok)
        # every token's line, numbered across the batch
        self.tline = np.fromiter(chain.from_iterable(token_line), np.intp,
                                 N) + self.line_off[self.tdoc]
        starts, ends = [], []
        for o, rs in zip(off.tolist(), body_ranges):
            for a, b in rs:
                starts.append(o + a)
                ends.append(o + b)
        inside = np.cumsum(
            np.bincount(np.array(starts, dtype=np.intp), minlength=N + 1)
            - np.bincount(np.array(ends, dtype=np.intp), minlength=N + 1)
        )[:N] > 0
        self.pos = np.flatnonzero(inside & self.keep)
        self.doc = self.tdoc[self.pos]
        self.line = self.tline[self.pos]
        self.counts = np.bincount(self.doc, minlength=D)
        self.n = len(self.pos)

    @cached_property
    def doc_first(self) -> np.ndarray:
        """The first position of each document that has any."""
        return offsets(self.counts)[:-1][self.counts > 0]

    def status(self, unit_of_line: np.ndarray | None) -> np.ndarray:
        """0 / 1 for the first / last non-space token of its unit in the
        document (its line or block: ``unit_of_line`` maps a batch line to
        a batch-wide unit id, None for the line itself), else 2."""
        ns = np.flatnonzero(self.keep)
        u = self.tline[ns]
        if unit_of_line is not None:
            u = unit_of_line[u]
        m = len(u)
        first = np.zeros(m, dtype=bool)
        first[np.unique(u, return_index=True)[1]] = True
        last = np.zeros(m, dtype=bool)
        last[m - 1 - np.unique(u[::-1], return_index=True)[1]] = True
        r = np.cumsum(self.keep)[self.pos] - 1
        return np.where(first[r], 0, np.where(last[r], 1, 2))


# the fields that depend on the token's position and line: each maps a
# ``_Body`` to the codes of its positions
_BODY_COLUMNS = {
    "block_status": lambda b: VOCAB.lut(
        "block_status", ("BLOCKSTART", "BLOCKEND", "BLOCKIN"))[
        b.status(b.blocks())],
    "line_status": lambda b: VOCAB.lut(
        "line_status", ("LINESTART", "LINEEND", "LINEIN"))[b.status(None)],
    "alignment_status": lambda b: VOCAB.lut(
        "alignment_status", ("ALIGNEDLEFT",))[np.zeros(b.n, dtype=np.intp)],
    "font_status": lambda b: VOCAB.lut(
        "font_status", ("SAMEFONT", "NEWFONT"))[changed(
            b.fonts()[b.line], b.doc_first).astype(np.intp)],
    "font_size_status": lambda b: VOCAB.lut(
        "font_size_status", ("SAMEFONTSIZE", "HIGHERFONT", "LOWERFONT"))[
        size_status(b.line_values("font_size", np.float64)[b.line],
                    b.doc_first)],
    "bold": lambda b: VOCAB.ints("bold", b.line_values("bold")[b.line]),
    "italic": lambda b: VOCAB.ints("italic",
                                   b.line_values("italic")[b.line]),
    "rel_doc_position": lambda b: VOCAB.ints(
        "rel_doc_position", b.rel_doc_position()[b.line]),
    "rel_page_position": lambda b: VOCAB.ints(
        "rel_page_position", b.rel_page_position()[b.line]),
    "bitmap_around": lambda b: VOCAB.ints(
        "bitmap_around", np.zeros(b.n, dtype=np.intp)),
}


def body_codes(
    tokens: list[list[str]],
    token_line: list[list[int]],
    lines: list[Lines],
    body_ranges: list[list[tuple[int, int]]],
    fields,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """The batch kernel: the ``<body>``-sliced token streams of several
    documents → (the ``VOCAB`` codes of every requested field over all
    their non-space body tokens laid end to end, each position's absolute
    token index in its document, the position count per document).
    Only the requested fields are computed."""
    b = _Body(tokens, token_line, lines, body_ranges)
    ids = b.ids[b.pos]
    codes = {name: static_codes(name, ids) if name in _STATIC_COLUMNS
             else _BODY_COLUMNS[name](b) for name in fields}
    return codes, b.pos - b.off[b.doc], b.counts


def body_token_columns(
    tokens: list[str],
    token_line: list[int],
    lines: Lines,
    body_ranges: list[tuple[int, int]],
    fields,
) -> tuple[dict[str, list], list[int]]:
    """One document's ``body_codes`` as values, column-major: (one value
    list per requested feature field, absolute token indices).
    Whitespace tokens are skipped."""
    VOCAB.bound()
    codes, idx, _ = body_codes([tokens], [token_line], [lines],
                               [body_ranges], fields)
    return ({name: VOCAB.decode(name, codes[name]) for name in fields},
            idx.tolist())


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
