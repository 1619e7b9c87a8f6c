"""Line feature vectors for the segmenter model (SURVEY.md M5+M6+M8).

Re-creates the semantics of the reference's 33-column line featurization
(``DatacatSegmenterParser.java:307-626`` feature computation;
``FeaturesVectorDatacatSegmenter.java:56-225`` serialization; bin constants
``NBBINS_POSITION=12``, ``LINESCALE=10`` at ``DatacatSegmenterParser.java:68-77``)
including the repetitive header/footer pattern miner
(``DatacatSegmenterParser.java:268-305``: digit-normalized line skeletons,
patterns longer than 8 chars occurring more than once in a document mark
their lines ``repetitive_pattern``; the first sighting additionally marks
``first_repetitive_pattern``).

Canonical field order (33 columns — this repo's frozen layout; the golden
``serialized`` form space-joins them with booleans as 0/1):

    token second_token lowercase prefix1 prefix2 prefix3 prefix4
    block_status page_status font_status font_size_status bold italic
    capitalisation digit single_char proper_name common_name year month
    email http punct_type rel_doc_position rel_page_position
    punctuation_profile punct_count line_length bitmap_around vector_around
    repetitive_pattern first_repetitive_pattern in_main_area

Coded and batch-wide, like the body level (``token_features.body_codes``):
``line_codes`` encodes the lines of a whole batch of documents laid end to
end, and every field comes out as integer codes of ``crf.VOCAB``. A CRF
model reads only the fields its templates name, so the cascade asks for
just those (``CRFDecoder.coded_fields``). Each field has one definition
(``_LINE_CODES``), built over the batch at once:

- the text fields are C-level string operations over the batch's lines
  joined by ``"\\n"`` (a line never holds one: block text is
  whitespace-normalized and plain text is split on it), with regex matches
  mapped back to their lines by their offsets;
- the first-word fields are the token-static codes of the body level
  (``token_features.static_codes``: one vocabulary, one entry per distinct
  word);
- the structural fields (block, page, font, positions) are numpy over the
  batch's line columns, grouped by document.

``serialize_lines`` writes the raw-feature lines of a batch straight from
the codes (the training export and the features-debug sink).
``line_columns`` and ``featurize_lines`` are the value view (one
document's codes decoded back to values, as ``body_token_columns`` is for
the body level); perfbench's traced walk and the tests read it. The
per-line builders that state each field line by line are the test oracle
(``tests/line_oracle.py``).
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter

import numpy as np
import pyarrow as pa

from datacat_ray.functions.textkit import _PUNCT_CHARS
from datacat_ray.stages.crf import VOCAB
from datacat_ray.stages.token_features import (
    _STATIC_COLUMNS,
    TOKENS,
    LineSet,
    changed,
    feature_rows,
    offsets,
    size_status,
    static_codes,
)
from datacat_ray.stages.tokenizer import Lines
from datacat_ray.state.lexicon import (
    MONTH_NAMES,
    YEAR_RE,
    is_common_word,
    is_proper_name,
)

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

MIN_PATTERN_LEN = 8
_DIGITS_RE = re.compile(r"\d+")

# the words of a line are split on " \t\f\u00a0" (reference
# ``DatacatSegmenterParser.java:434``); in the joined column a line start
# follows a "\n", so "\n" bounds a word too
_TO_SPACE = str.maketrans("\t\f\u00a0", "   ")
_AFTER_SEP = "(?:^|(?<=[\n \t\f\u00a0]))"
# a word starting with http://, https:// or www., in any case
# (``lexicon.has_link``)
_LINK_RE = re.compile(_AFTER_SEP + r"(?:https?://|www\.)", re.IGNORECASE)
# a word that is an e-mail address (``lexicon.EMAIL_RE`` of a whole word)
_EMAIL_RE = re.compile(_AFTER_SEP + r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+"
                       "(?=[\n \t\f\u00a0]|\\Z)")
# everything but punctuation (``textkit.punctuation_profile``) and "\n"
_NON_PUNCT_RE = re.compile(
    "[^\n" + "".join(map(re.escape, sorted(_PUNCT_CHARS))) + "]+")


class _LineBatch(LineSet):
    """The lines of a batch of documents laid end to end, and the values
    several fields share, each computed on first use."""

    def __init__(self, lines: list[Lines]) -> None:
        super().__init__(lines)
        self.n = n = int(self.line_off[-1])
        self.texts = list(chain.from_iterable(ls.text for ls in lines))
        self.joined = "\n".join(self.texts)
        if n and self.joined.count("\n") != n - 1:
            raise ValueError("a line text holds a newline")

    def lines_with(self, matches) -> np.ndarray:
        """1 for each line holding one of ``matches`` (regex matches over
        ``joined``), else 0."""
        pos = np.fromiter((m.start() for m in matches), np.intp)
        hit = np.zeros(self.n, dtype=np.intp)
        hit[np.searchsorted(self.starts, pos, "right") - 1] = 1
        return hit

    @cached_property
    def starts(self) -> np.ndarray:
        """Where each line starts in ``joined``."""
        lens = np.fromiter(map(len, self.texts), np.intp, self.n)
        return offsets(lens + 1)[:-1]

    @cached_property
    def spaced(self) -> str:
        """``joined`` with every word separator a space."""
        j = self.joined
        if "\t" in j or "\f" in j or "\u00a0" in j:
            return j.translate(_TO_SPACE)
        return j

    @cached_property
    def words(self) -> list[tuple[str, str, str]]:
        """Per line, (first word, separator, the rest) ("" for a blank
        line)."""
        texts = self.spaced.split("\n")
        return list(map(str.partition, map(str.lstrip, texts, repeat(" ")),
                        repeat(" ")))

    @cached_property
    def first(self) -> np.ndarray:
        """The token id of each line's first word."""
        return TOKENS.ids(list(map(itemgetter(0), self.words)))

    def second(self) -> np.ndarray:
        """The token id of each line's second word."""
        rest = map(str.lstrip, map(itemgetter(2), self.words), repeat(" "))
        return TOKENS.ids([r.partition(" ")[0] for r in rest])

    def month(self) -> np.ndarray:
        """1 for each line with a word that is a month name in any case.
        No character lowercases to a separator, so the words of the
        lowercased line are the lowercased words."""
        words = map(str.split, self.spaced.lower().split("\n"), repeat(" "))
        return 1 - np.fromiter(map(MONTH_NAMES.isdisjoint, words), np.intp,
                               self.n)

    def email(self) -> np.ndarray:
        if "@" not in self.joined:
            return np.zeros(self.n, dtype=np.intp)
        return self.lines_with(_EMAIL_RE.finditer(self.joined))

    def http(self) -> np.ndarray:
        # no non-ASCII character case-folds to h, t, p, w or ".": a match
        # needs "http" or "www." in the lowercased text
        low = self.joined.lower()
        if "http" not in low and "www." not in low:
            return np.zeros(self.n, dtype=np.intp)
        return self.lines_with(_LINK_RE.finditer(self.joined))

    @cached_property
    def puncts(self) -> list[str]:
        """Each line's punctuation characters, in order."""
        return _NON_PUNCT_RE.sub("", self.joined).split("\n")

    def line_length(self) -> np.ndarray:
        """Each line's length binned against the longest line of its
        block (``textkit.linear_scaling`` by ``LINESCALE``)."""
        lens = np.fromiter(map(len, self.texts), np.intp, self.n)
        block = self.blocks()
        top = np.zeros(int(block.max()) + 1, dtype=np.intp)
        np.maximum.at(top, block, lens)
        top = top[block]
        q = np.divide(lens, top, out=np.zeros(self.n), where=top > 0)
        return np.minimum((LINESCALE * q).astype(np.intp), LINESCALE)

    @cached_property
    def repetitive(self) -> tuple[np.ndarray, np.ndarray]:
        """(repetitive, first repetitive) flags: a line's skeleton (no
        whitespace, digit runs as "@") longer than ``MIN_PATTERN_LEN``
        that occurs more than once in its document; the first of them."""
        # a skeleton holds no whitespace, so "\n" still separates them
        sk = "\n".join(map("".join, map(str.split, self.texts)))
        pats = _DIGITS_RE.sub("@", sk).split("\n")
        ids: dict[str, int] = {}
        pid = np.fromiter(map(ids.setdefault, pats, count()), np.int64,
                          self.n)
        _, first, inv, n = np.unique(self.line_doc * self.n + pid,
                                     return_index=True, return_inverse=True,
                                     return_counts=True)
        rep = (n[inv] > 1) & (np.fromiter(map(len, pats), np.intp, self.n)
                              > MIN_PATTERN_LEN)
        return (rep.astype(np.intp),
                (rep & (first[inv] == np.arange(self.n))).astype(np.intp))


def _lut(name: str, values):
    """The codes of ``values[c]`` for an index array ``c``."""
    return lambda c: VOCAB.lut(name, values)[c]


def _static(name: str, fn=None):
    """A first-word field (``fn`` of the word, by default the body
    level's definition of ``name``)."""
    return lambda b: static_codes(name, b.first, fn)


def _first_last(at: np.ndarray, n: np.ndarray) -> np.ndarray:
    """0 / 1 / 2: first / last / other of a run of ``n``."""
    return np.where(at == 0, 0, np.where(at == n - 1, 1, 2))


_BLOCK = _lut("block_status", ("BLOCKSTART", "BLOCKEND", "BLOCKIN"))
_PAGE = _lut("page_status", ("PAGESTART", "PAGEEND", "PAGEIN"))
_FONT = _lut("font_status", ("SAMEFONT", "NEWFONT"))
_FONT_SIZE = _lut("font_size_status",
                  ("SAMEFONTSIZE", "HIGHERFONT", "LOWERFONT"))

# the fields whose values are non-negative ints, as an int per line
_INT_FIELDS = {
    "bold": lambda b: b.line_values("bold"),
    "italic": lambda b: b.line_values("italic"),
    "year": lambda b: b.lines_with(YEAR_RE.finditer(b.joined)),
    "month": _LineBatch.month,
    "email": _LineBatch.email,
    "http": _LineBatch.http,
    "rel_doc_position": LineSet.rel_doc_position,
    "rel_page_position": LineSet.rel_page_position,
    "punct_count": lambda b: np.fromiter(map(len, b.puncts), np.intp, b.n),
    "line_length": _LineBatch.line_length,
    "bitmap_around": lambda b: np.zeros(b.n, dtype=np.intp),
    "vector_around": lambda b: np.zeros(b.n, dtype=np.intp),
    "repetitive_pattern": lambda b: b.repetitive[0],
    "first_repetitive_pattern": lambda b: b.repetitive[1],
    "in_main_area": lambda b: np.ones(b.n, dtype=np.intp),
}

# one builder per field: the single definition of each feature value, as
# the codes of every line of a ``_LineBatch``
_LINE_CODES = {
    **{name: _static(name) for name in (
        "token", "lowercase", "prefix1", "prefix2", "prefix3", "prefix4",
        "capitalisation", "digit", "single_char", "punct_type")},
    "second_token": lambda b: static_codes(
        "second_token", b.second(), _STATIC_COLUMNS["token"]),
    "proper_name": _static("proper_name", lambda t: int(is_proper_name(t))),
    "common_name": _static("common_name", lambda t: int(is_common_word(t))),
    "block_status": lambda b: _BLOCK(_first_last(
        b.line_values("line_in_block"), b.line_values("block_n_lines"))),
    "page_status": lambda b: _PAGE(_first_last(*b.page_pos)),
    "font_status": lambda b: _FONT(
        changed(b.fonts(), b.line_at == 0).astype(np.intp)),
    "font_size_status": lambda b: _FONT_SIZE(size_status(
        b.line_values("font_size", np.float64), b.line_at == 0)),
    "punctuation_profile": lambda b: VOCAB.codes(
        "punctuation_profile", [p[:10] or "no" for p in b.puncts]),
    **{name: (lambda b, name=name, fn=fn: VOCAB.ints(name, fn(b)))
       for name, fn in _INT_FIELDS.items()},
}


def line_codes(lines: list[Lines], fields) -> dict[str, np.ndarray]:
    """The batch kernel: the ``Lines`` of several documents → the
    ``VOCAB`` codes of every requested field over all their lines laid
    end to end. Only the requested fields are computed."""
    b = _LineBatch(lines)
    if not b.n:
        return {name: np.zeros(0, dtype=np.intp) for name in fields}
    return {name: _LINE_CODES[name](b) for name in fields}


def line_columns(lines: Lines, fields) -> dict[str, list]:
    """One document's ``line_codes`` as values, column-major: one value
    list per requested feature field, each parallel to the lines."""
    VOCAB.bound()
    codes = line_codes([lines], fields)
    return {name: VOCAB.decode(name, codes[name]) for name in fields}


def serialize_codes(codes: dict[str, np.ndarray]) -> list[str]:
    """The ``VOCAB`` codes of some fields over positions → the whitespace
    serialization of every position: its values' feature strings in field
    order (``serialize_features`` / ``serialize_token_features`` of each
    row when the fields are all of a level's, in canonical order)."""
    return list(map(" ".join, zip(*(
        list(map(VOCAB.strings(name).__getitem__, c.tolist()))
        for name, c in codes.items()))))


def serialize_lines(lines: list[Lines]) -> list[str]:
    """The raw-feature line of every line of several documents laid end
    to end: all 33 fields, serialized (the S10 sink and the segmenter's
    training raw files)."""
    return serialize_codes(line_codes(lines, _FIELD_NAMES))


def featurize_lines(lines: Lines) -> list[dict]:
    """The 33-field feature dict of every line (``line_columns`` of every
    field, one dict per line)."""
    return feature_rows(line_columns(lines, _FIELD_NAMES))


def serialize_features(feat: dict) -> str:
    """Canonical whitespace serialization of one feature vector (the golden
    raw-corpus line format, S10 debug sink)."""
    return " ".join(str(feat[name]) for name in _FIELD_NAMES)
