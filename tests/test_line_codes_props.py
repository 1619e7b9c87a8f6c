"""The batch line encoder against the per-line oracle: for random batches
of random-Unicode documents, ``line_codes`` decoded through ``VOCAB``
equals ``line_oracle.oracle_columns`` of each document, for the frozen
segmenter's fields and for every raw field a trained artifact can read."""

from __future__ import annotations

import sys

import numpy as np
from frontend_oracle import lines_of
from hypothesis import given, settings
from hypothesis import strategies as st
from line_oracle import oracle_columns

from datacat_ray.pipelines.extract import FusedExtractStage
from datacat_ray.stages.crf import VOCAB
from datacat_ray.stages.dom import blocks_from_plain_text
from datacat_ray.stages.line_features import _FIELD_NAMES, line_codes
from datacat_ray.stages.token_features import offsets
from datacat_ray.stages.tokenizer import tokenize_document

# every character ``str.split`` treats as whitespace ("\x1c"-"\x1f",
# "\x85", U+2028, U+3000, ...) but "\n", which never occurs in a line
_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                  if c.isspace() and c != "\n")

# hand-picked pieces: wide digits, "ſ" in a link, "İ", a final "Σ",
# month names in any case, e-mail addresses and punctuation
_CASES = st.sampled_from([
    " ", "  ", "٣", "١٨٦٠", "1860", "2024", "httpſ://", "HTTP://x",
    "https://a.b", "www.", "WWW.x.fr", "xhttp://", "İ", "İstanbul", "ΟΔΟΣ",
    "Σ", "mai", "MAI", "Mai", "août", "AOÛT", "december", "a@b.fr",
    "x.y+z@c-d.org", "@", "a@b", "Hoffmann", "PARIS", "vente", "12.", "AR.",
    "—", "«", "»", "(", ")", ",", ".", "é", "ſ", "a" * 12,
])


def _header(spaces, numbers):
    """Header/footer lines that differ only in their whitespace and
    digit runs."""
    return st.builds("{}{}{} — Catalogue Hoffmann {}".format,
                     st.sampled_from(["Page", "p.", "Vente"]), spaces,
                     numbers, st.sampled_from(["", "x"]))


_HEADER = _header(
    st.sampled_from([" ", "\t", "\x85", "\u2028", "\u3000"]),
    st.one_of(st.integers(0, 10 ** 6), st.sampled_from(["٣", "١٨٦٠", "３"])))
_PIECES = st.one_of(
    _CASES,
    st.sampled_from(list(_SPACES) + ["\t", "\f", "\u00a0", "\r", "\x00"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n"), max_size=8),
)


@st.composite
def _lines(draw):
    """One document's ``Lines``: free line structs (blank lines, any
    block / page / font layout) or the plain-text front half."""
    text = st.one_of(_HEADER, st.lists(_PIECES, max_size=8).map("".join))
    if draw(st.booleans()):
        doc = "\n".join(draw(st.lists(text, max_size=12)))
        return tokenize_document(blocks_from_plain_text(doc))[0]
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(n):
        block_n = draw(st.integers(1, 3))
        rows.append({
            "text": draw(text),
            "block_id": draw(st.integers(0, 3)),
            "page": draw(st.integers(0, 2)),
            "line_in_block": draw(st.integers(0, block_n - 1)),
            "block_n_lines": block_n,
            "font_size": draw(st.sampled_from([10.0, 12.0, 24.0])),
            "bold": draw(st.booleans()),
            "italic": draw(st.booleans()),
        })
    return lines_of(rows)


_FROZEN = FusedExtractStage()._seg.fields


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(_lines(), max_size=5),
       fields=st.sampled_from([_FROZEN, _FIELD_NAMES]))
def test_line_codes_equal_the_per_line_oracle(docs, fields):
    VOCAB.bound()
    codes = line_codes(docs, fields)
    bounds = offsets(list(map(len, docs))).tolist()
    for name in fields:
        assert isinstance(codes[name], np.ndarray)
        assert len(codes[name]) == bounds[-1]
    for k, lines in enumerate(docs):
        got = {name: VOCAB.decode(name, codes[name][bounds[k]:bounds[k + 1]])
               for name in fields}
        assert got == oracle_columns(lines, fields), k


def test_special_cases_hit_their_fields():
    """The hand-picked cases do reach the fields they target."""
    lines = lines_of([{"text": t} for t in (
        "voir httpſ://x", "٣ mars", "İ ΟΔΟΣ", "a@b.fr　x", "", " \x85 ",
        "Page 12 — Catalogue", "Page 3 — Catalogue")])
    names = ["http", "month", "lowercase", "email", "token",
             "repetitive_pattern", "first_repetitive_pattern"]
    VOCAB.bound()
    codes = line_codes([lines], names)
    got = {n: VOCAB.decode(n, codes[n]) for n in names}
    assert got == oracle_columns(lines, names)
    assert got["http"][0] == 1 and got["month"][1] == 1
    assert got["lowercase"][2] == "i̇"
    assert got["email"][3] == 0  # U+3000 does not end a word
    assert got["token"][4:6] == ["", "\x85"]
    assert got["repetitive_pattern"][6:] == [1, 1]
    assert got["first_repetitive_pattern"][6:] == [1, 0]


def test_a_line_holding_a_newline_is_refused():
    import pytest

    with pytest.raises(ValueError, match="newline"):
        line_codes([lines_of([{"text": "a\nb"}])], ["token"])
