"""Tokenizer kernels (M1) + guard rails (M3/M4)."""

import datetime

import pyarrow as pa
from frontend_oracle import (
    blocks_from_plain_text_rows,
    blocks_of,
    line_struct_columns,
    lines_of,
    rows,
    tokenize_document_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from datacat_ray.fixtures import PAGES_SCHEMA
from datacat_ray.functions.textkit import tokenize_layout
from datacat_ray.pipelines.extract import FusedExtractStage
from datacat_ray.stages.dom import blocks_from_plain_text
from datacat_ray.stages.line_features import _FIELD_NAMES, line_columns
from datacat_ray.stages.tokenizer import tokenize_document, wrap_text


def _blk(text, block_id=0, page=0):
    return {
        "text": text,
        "page": page,
        "font_size": 12.0,
        "bold": False,
        "italic": False,
    }


def test_wrap_text_deterministic():
    assert wrap_text("short line") == ["short line"]
    long = " ".join(["word"] * 40)  # 199 chars
    lines = wrap_text(long, width=80)
    assert all(len(l) <= 80 for l in lines)
    assert " ".join(lines) == long  # wrap only replaces spaces with breaks
    assert wrap_text("") == []
    assert wrap_text("x" * 100, width=80) == ["x" * 100]  # oversize word stands


def test_tokenize_document_invariant():
    lines, tokens, token_line = tokenize_document(blocks_of(
        [_blk("12. Monnaies ; 39 pièces."), _blk("TABLE DES MATIÈRES")]
    ))
    assert "".join(tokens) == "\n".join(lines.text)
    assert len(tokens) == len(token_line)
    # newline between lines attributed to the preceding line
    nl = tokens.index("\n")
    assert token_line[nl] == 0 and token_line[nl + 1] == 1


def test_block_line_numbering():
    long = " ".join(["word"] * 40)
    lines, _, _ = tokenize_document(blocks_of([_blk(long)]))
    assert len(lines) > 1
    assert lines.line_in_block[0] == 0
    assert lines.line_in_block[-1] == lines.block_n_lines[-1] - 1


def _batch(texts):
    """Pages whose plain ``text`` holds one block per line."""
    n = len(texts)
    return pa.Table.from_pydict(
        {
            "url": [f"u{i}" for i in range(n)],
            "warc_ts": [datetime.datetime(2024, 1, 1)] * n,
            "html": [None] * n,
            "text": texts,
            "lang": ["fr"] * n,
        },
        schema=PAGES_SCHEMA,
    )


def test_cap_guards_route_to_error_side_output():
    big = [f"line {i}" for i in range(50)]
    out = FusedExtractStage(max_tokens=10, max_blocks=40)(
        _batch(["\n".join(big), "fine line"]))
    errs = out["error"].to_pylist()
    assert errs[0] and errs[0].startswith("TOO_MANY_BLOCKS")
    assert errs[1] is None
    out2 = FusedExtractStage(max_tokens=10, max_blocks=100)(
        _batch(["\n".join(big[:30])]))
    assert out2["error"].to_pylist()[0].startswith("TOO_MANY_TOKENS")
    assert out2["extracted_text"].to_pylist()[0] == ""
    assert out2["n_tokens"].to_pylist()[0] == 0


def test_wrap_text_conservation_property():
    """Property: wrapping never loses or duplicates characters except the
    single inter-word space consumed at each wrap point."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from datacat_ray.stages.tokenizer import wrap_text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters=" \n\r\t"),
        min_size=1, max_size=30), min_size=0, max_size=30))
    def prop(words):
        text = " ".join(words)
        lines = wrap_text(text, width=20)
        assert " ".join(lines) == text  # join with the consumed spaces
        for ln in lines[:-1] if len(lines) > 1 else []:
            # no line exceeds width unless it is a single oversized word
            assert len(ln) <= 20 or " " not in ln

    prop()


def test_tokenize_layout_roundtrip_property():
    """Property: concatenating layout tokens reproduces the input exactly
    (the rawtxt byte-identity invariant, S9) for arbitrary unicode."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from datacat_ray.functions.textkit import tokenize_layout

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=300))
    def prop(text):
        assert "".join(tokenize_layout(text)) == text

    prop()


def _front_half(text: str):
    """The plain-text front half, column path and per-line oracle:
    ((line rows, tokens, token_line, 33 line columns), the oracle's)."""
    lines, tokens, token_line = tokenize_document(blocks_from_plain_text(text))
    got = (rows(lines), tokens, token_line, line_columns(lines, _FIELD_NAMES))
    assert rows(blocks_from_plain_text(text)) == blocks_from_plain_text_rows(
        text)
    o_lines, o_tokens, o_token_line = tokenize_document_rows(
        blocks_from_plain_text_rows(text))
    want = line_columns(lines_of(o_lines), _FIELD_NAMES)
    want.update(line_struct_columns(o_lines))
    return got, (o_lines, o_tokens, o_token_line, want)


def test_carriage_return_at_a_wrap_point_stays_its_own_token():
    """A line ending in "\r" at a wrap point: the "\r" and the line
    break are two tokens (a document-wide findall over the joined lines
    would merge them into one "\r\n" token: 23 tokens, not 24)."""
    got, want = _front_half("w" * 76 + " ab\r " + "def " * 10)
    assert len(got[1]) == 24
    assert got[1][3:5] == ["\r", "\n"]
    assert len(tokenize_layout("\n".join(r["text"] for r in got[0]))) == 23
    assert got == want


_PLAIN_WORDS = st.one_of(
    st.text(alphabet="ab.é'", min_size=1, max_size=12),
    st.text(alphabet="ab", min_size=81, max_size=95),
)
_PLAIN_SEPS = st.sampled_from(
    [" ", "  ", "\r", " \r ", "\r\n", "\n", "\xa0", "\x0b", "\x1c", "\t"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PLAIN_WORDS, _PLAIN_SEPS).map("".join),
                max_size=60).map("".join),
       st.sampled_from([0, 0, 45, 90]))
def test_front_half_columns_equal_the_per_line_path(text, n_short):
    """Plain text with "\r", "\xa0", "\x0b", "\x1c", double spaces and
    words over the wrap width, after ``n_short`` one-line blocks (more
    than a pseudo-page): lines, tokens, token_line and all 33 line
    feature columns equal the per-line oracle."""
    got, want = _front_half(
        "".join(f"line {i}\n" for i in range(n_short)) + text)
    assert got == want
