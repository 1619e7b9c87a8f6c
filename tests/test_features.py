"""Line/token featurizer conformance (M5-M8) — hand-computed vectors —
and the column-major cores: a projection computes exactly the columns of
the full dict featurizers, and the decoder's emission rows built from
columns match the row dicts."""

import functools
import random
import re

import numpy as np
from export_oracle import serialize_columns
from frontend_oracle import blocks_of, lines_of
from hypothesis import given, settings
from hypothesis import strategies as st
from level_emissions import level_emissions
from line_oracle import (
    line_pattern,
    mine_repetitive_patterns,
    oracle_columns,
    oracle_rows,
)

from datacat_ray.functions.textkit import tokenize_whitespace
from datacat_ray.stages.crf import VOCAB, CRFDecoder
from datacat_ray.stages.lexical_features import (
    ENTRY_FIELD_NAMES,
    entry_codes,
    featurize_entry_tokens,
)
from datacat_ray.stages.line_features import (
    _FIELD_NAMES,
    featurize_lines,
    line_columns,
    serialize_codes,
    serialize_features,
    serialize_lines,
)
from datacat_ray.stages.token_features import (
    _TOKEN_FIELD_NAMES,
    body_codes,
    body_token_columns,
    featurize_body_tokens,
    serialize_token_features,
)
from datacat_ray.stages.tokenizer import tokenize_document
from datacat_ray.stages.train import expand_sequence


def _line(text, block_id=0, page=0, j=0, n=1, size=12.0, bold=False, italic=False):
    return {
        "text": text,
        "block_id": block_id,
        "page": page,
        "line_in_block": j,
        "block_n_lines": n,
        "font_size": size,
        "bold": bold,
        "italic": italic,
    }


def test_line_features_hand_checked():
    lines = lines_of([
        _line("Vente du 13 mai 1860", block_id=0, size=24.0, bold=True),
        _line("12. Monnaies d'Italie: 39 pièces. AR.", block_id=1),
        _line("conditions de la vente", block_id=2),
    ])
    f = featurize_lines(lines)
    v = f[0]
    assert v["token"] == "Vente" and v["second_token"] == "du"
    assert v["lowercase"] == "vente"
    assert (v["prefix1"], v["prefix2"], v["prefix3"], v["prefix4"]) == (
        "V", "Ve", "Ven", "Vent",
    )
    assert v["block_status"] == "BLOCKSTART" and v["page_status"] == "PAGESTART"
    assert v["capitalisation"] == "INITCAP" and v["digit"] == "NODIGIT"
    assert v["month"] == 1 and v["year"] == 1
    assert v["bold"] == 1 and v["rel_doc_position"] == 0
    v1 = f[1]
    assert v1["token"] == "12." and v1["digit"] == "CONTAINSDIGITS"
    assert v1["font_size_status"] == "LOWERFONT"
    assert v1["rel_doc_position"] == 4  # floor(12*1/3)
    v2 = f[2]
    assert v2["common_name"] == 1 and v2["capitalisation"] == "NOCAPS"
    # serialization has exactly 33 space-separated fields for simple tokens
    assert len(serialize_features(v2).split(" ")) == 33


def test_repetitive_pattern_mining():
    texts = ["Page 1 — Catalogue Hoffmann", "Entry text here",
             "Page 2 — Catalogue Hoffmann", "Other body line",
             "Page 3 — Catalogue Hoffmann"]
    rep, first = mine_repetitive_patterns(texts)
    assert rep == [True, False, True, False, True]
    assert first == [True, False, False, False, False]
    assert line_pattern("Page 12 — x") == line_pattern("Page 3 — x")


def test_body_token_features_hand_checked():
    lines, tokens, token_line = tokenize_document(blocks_of(
        [
            {
                "text": "1. Monnaies rares",
                "page": 0,
                "font_size": 12.0,
                "bold": False,
                "italic": False,
            }
        ]
    ))
    feats, idx = featurize_body_tokens(tokens, token_line, lines, [(0, len(tokens))])
    # whitespace tokens skipped
    assert [f["token"] for f in feats] == ["1", ".", "Monnaies", "rares"]
    assert feats[0]["line_status"] == "LINESTART"
    assert feats[0]["digit"] == "ALLDIGIT"
    assert feats[1]["punct_type"] == "DOT"
    assert feats[3]["line_status"] == "LINEEND"
    assert feats[2]["suffix4"] == "aies"
    assert tokens[idx[2]] == "Monnaies"
    assert len(serialize_token_features(feats[0]).split(" ")) == 24


def test_empty_doc():
    assert featurize_lines(lines_of([])) == []
    feats, idx = featurize_body_tokens([], [], lines_of([]), [])
    assert feats == [] and idx == []


def test_serialized_arity_matches_reference_raw_format():
    """Our serialized feature lines have the same field arity as the
    reference's committed raw corpus files (33 segmenter / 24 body cols)."""
    import os

    import pytest

    from datacat_ray.stages.line_features import LINE_FEATURE_STRUCT
    from datacat_ray.stages.token_features import TOKEN_FEATURE_STRUCT

    assert len(LINE_FEATURE_STRUCT) == 33
    assert len(TOKEN_FEATURE_STRUCT) == 24

    seg_dir = "/root/reference/resources/dataset/datacat-segmenter/corpus/raw"
    if not os.path.isdir(seg_dir):
        pytest.skip("reference checkout not present")
    f = sorted(os.listdir(seg_dir))[0]
    with open(os.path.join(seg_dir, f), encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if line:
                # training raw lines are 33 feature cols (+1 label in some files)
                assert len(line.split(" ")) in (33, 34)
                break


# ---------------------------------------------------------------------------
# column-major cores
# ---------------------------------------------------------------------------


@functools.cache
def _fixture_docs():
    """(name, lines, tokens, token_line, body ranges, entry spans): an
    empty doc, a one-line doc, a catalogue page, an oversized page and a
    page without a ``<body>`` zone, zoned by the frozen cascade."""
    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.pipelines.extract import FusedExtractStage
    from datacat_ray.stages.dom import parse_main_blocks
    from datacat_ray.stages.zones import zone_token_indices

    stage = FusedExtractStage()
    rng = random.Random(5)
    docs = [("empty", lines_of([]), [], [], [], [])]
    one = [{"text": "12. Monnaies d'Italie: 39 pièces. AR.", "page": 0,
            "font_size": 12.0, "bold": False, "italic": False}]
    lines, tokens, token_line = tokenize_document(blocks_of(one))
    docs.append(("one-line", lines, tokens, token_line,
                 [(0, len(tokens))], [(0, len(tokens))]))
    for name, n in (("catalogue", 8), ("oversized", 250), ("no-body", 0)):
        html, _ = make_catalogue_html(rng, n_entries=n)
        lines, tokens, token_line = tokenize_document(parse_main_blocks(html))
        out = stage._one(name, "fr", html.encode(), None)
        assert out[-1] is None, out[-1]
        body = zone_token_indices(out[4], "<body>")
        spans = [(r["start"], r["end"]) for r in out[5]
                 if r["label"] == "<entry>"]
        assert (name == "no-body") == (not body)
        docs.append((name, lines, tokens, token_line, body, spans))
    return docs


def _projection(names):
    return st.lists(st.sampled_from(names), unique=True, max_size=len(names))


def _columns_of(rows, fields):
    return {f: [r[f] for r in rows] for f in fields}


def _runs_columns(tokens, runs, fields):
    """``entry_codes`` of one document's entry runs as values: (columns,
    absolute token indices, the position where each run's tokens
    start)."""
    codes, idx, lens = entry_codes([tokens], [runs], fields)
    starts = np.cumsum(lens) - lens
    return ({f: VOCAB.decode(f, codes[f]) for f in fields}, idx.tolist(),
            starts.tolist())


def _span_columns(tokens, start, end, fields):
    """``entry_codes`` of one entry span: (columns, indices)."""
    return _runs_columns(tokens, [(start, end)], fields)[:2]


@settings(max_examples=40, deadline=None)
@given(fields=_projection(_FIELD_NAMES))
def test_line_columns_project_the_dict_featurizer(fields):
    for name, lines, *_ in _fixture_docs():
        got = line_columns(lines, fields)
        assert list(got) == fields
        assert got == _columns_of(featurize_lines(lines), fields), name
        assert got == oracle_columns(lines, fields), name


@settings(max_examples=40, deadline=None)
@given(fields=_projection(_TOKEN_FIELD_NAMES))
def test_body_token_columns_project_the_dict_featurizer(fields):
    for name, lines, tokens, token_line, body, _ in _fixture_docs():
        got, idx = body_token_columns(tokens, token_line, lines, body, fields)
        rows, want_idx = featurize_body_tokens(tokens, token_line, lines, body)
        assert idx == want_idx and list(got) == fields
        assert got == _columns_of(rows, fields), name


@settings(max_examples=40, deadline=None)
@given(fields=_projection(ENTRY_FIELD_NAMES))
def test_entry_token_columns_project_the_dict_featurizer(fields):
    for name, _, tokens, _, _, spans in _fixture_docs():
        for start, end in spans + [(0, len(tokens))]:
            got, idx = _span_columns(tokens, start, end, fields)
            rows, want_idx = featurize_entry_tokens(tokens, start, end)
            assert idx == want_idx and list(got) == fields
            assert got == _columns_of(rows, fields), name


def test_column_serialization_and_decode_equal_the_row_paths():
    """The every-field columns, and the batch serializers over the codes
    (``serialize_lines``, ``serialize_codes``), serialize as the per-row
    dict paths do on every fixture doc."""
    for name, lines, tokens, token_line, body_ranges, _ in _fixture_docs():
        cols = line_columns(lines, _FIELD_NAMES)
        rows = featurize_lines(lines)
        assert rows == oracle_rows(lines), name
        want = list(map(serialize_features, rows))
        assert serialize_columns(cols) == want
        assert serialize_lines([lines]) == want, name
        bcols, idx = body_token_columns(tokens, token_line, lines,
                                        body_ranges, _TOKEN_FIELD_NAMES)
        brows, _ = featurize_body_tokens(tokens, token_line, lines,
                                         body_ranges)
        want = list(map(serialize_token_features, brows))
        assert serialize_columns(bcols) == want
        codes, _, _ = body_codes([tokens], [token_line], [lines],
                                 [body_ranges], _TOKEN_FIELD_NAMES)
        assert serialize_codes(codes) == want, name


def test_entry_token_columns_hand_checked():
    toks = ["12", ".", " ", "Monnaies", ":", "", "AR", "\n"]
    cols, idx = _span_columns(toks, 0, len(toks), ENTRY_FIELD_NAMES)
    assert idx == [0, 1, 3, 4, 5, 6]
    assert cols["prev_punct"] == ["_NONE_", "NOPUNCT", "DOT", "NOPUNCT",
                                  "PUNCT", "_NONE_"]
    assert cols["next_lower"] == [".", "monnaies", ":", "_NONE_", "ar",
                                  "_NONE_"]
    assert cols["seen_colon"] == [0, 0, 0, 0, 1, 1]
    assert cols["entry_position"] == [0, 0, 1, 2, 3, 4]
    assert cols["digit"][0] == "ALLDIGIT"
    assert cols["lowercase"][2] == "monnaies"
    assert _span_columns(toks, 2, 3, ENTRY_FIELD_NAMES) == (
        {f: [] for f in ENTRY_FIELD_NAMES}, [])


_TEXT = st.text(alphabet="aAhHtTpPsSwWmMiIyY:/.é \t\f\xa0ſ", max_size=30)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_TEXT, max_size=6))
def test_month_and_http_are_word_level_lexicon_tests(texts):
    """The line-level ``month`` / ``http`` scans equal the per-word
    lexicon tests over the line's whitespace words."""
    from datacat_ray.state.lexicon import is_month

    word_http = re.compile(r"^https?://|^www\.", re.IGNORECASE)
    lines = lines_of([{"text": t} for t in texts + [
        "Vente du 13 MAI 1860", "voir\xa0WWW.x.fr", "xhttp://"]])
    cols = line_columns(lines, ["month", "http"])
    words = [tokenize_whitespace(t) for t in lines.text]
    assert cols["month"] == [int(any(is_month(w) for w in ws))
                             for ws in words]
    assert cols["http"] == [int(any(word_http.match(w) for w in ws))
                            for ws in words]
    assert cols["month"][-3:] == [1, 0, 0] and cols["http"][-3:] == [0, 1, 0]


_TOKENS = st.sampled_from(["", " ", "\n", ":", ".", ",", "a", "Ab", "AB",
                           "12", "x1", "«", "-", "pièces"])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_token_cores_on_ragged_synthetic_docs(data):
    """Empty and whitespace tokens, lines without tokens, several pages
    and blocks, ranges that skip tokens: every projection of the body and
    entry cores equals the full dict featurizers."""
    tokens = data.draw(st.lists(_TOKENS, max_size=40))
    n_lines = data.draw(st.integers(1, 6))
    token_line = sorted(data.draw(st.lists(
        st.integers(0, n_lines - 1), min_size=len(tokens),
        max_size=len(tokens))))
    lines = lines_of([{"text": "", "page": data.draw(st.integers(0, 1)),
                       "block_id": data.draw(st.integers(0, 2)),
                       "font_size": data.draw(st.sampled_from([10.0, 12.0])),
                       "bold": data.draw(st.booleans()), "italic": False}
                      for _ in range(n_lines)])
    cuts = sorted(data.draw(st.lists(st.integers(0, len(tokens)),
                                     max_size=6)))
    ranges = list(zip(cuts[::2], cuts[1::2]))
    fields = data.draw(_projection(_TOKEN_FIELD_NAMES))
    got, idx = body_token_columns(tokens, token_line, lines, ranges, fields)
    rows, want_idx = featurize_body_tokens(tokens, token_line, lines, ranges)
    assert idx == want_idx and got == _columns_of(rows, fields)
    fields = data.draw(_projection(ENTRY_FIELD_NAMES))
    for start, end in ranges + [(0, len(tokens))]:
        got, idx = _span_columns(tokens, start, end, fields)
        rows, want_idx = featurize_entry_tokens(tokens, start, end)
        assert idx == want_idx and got == _columns_of(rows, fields)


def _reference_emissions(dec, rows):
    """Emission rows from the row dicts: each position's expanded feature
    strings (``expand_sequence``), weights summed in template order."""
    em = np.zeros((len(rows), dec.L))
    for t, feats in enumerate(expand_sequence(rows, dec.model.templates)):
        for f in feats:
            em[t] += dec.w.get(f, 0.0)
    return em


def test_emission_matrix_from_columns_equals_row_dicts(tmp_path):
    """For the frozen decoders, and a trained raw-field artifact fed
    through the stage's column rename, the emission matrix built from the
    projected columns equals the one built from the full row dicts."""
    import json

    from datacat_ray.pipelines.extract import _Level
    from datacat_ray.pipelines.trainer import load_model_json
    from datacat_ray.stages.models import (
        BODY_MODEL,
        LEXICAL_MODEL,
        SEG_LABELS,
        SEGMENTER_MODEL,
    )

    path = tmp_path / "seg.json"
    path.write_text(json.dumps({
        "format": "datacat-ray-crf-v1", "labels": list(SEG_LABELS),
        "n_fields": 33,
        "template": "U00:%x[0,23]\nU01:%x[-1,14]/%x[1,2]\nU02:%x[0,30]\n",
        "weights": {**{f"U00:{b}": {"<body>": 0.5 * b} for b in range(12)},
                    "U01:ALLDIGIT|vente": {"<front>": 2.0},
                    "U01:_B-1_|vente": {"<front>": 1.0},
                    "U02:1": {"<other>": 3.0}},
        "transitions": [],
    }))
    raw = load_model_json(str(path))
    seg, body, lex = (_Level(CRFDecoder(m)) for m in
                      (SEGMENTER_MODEL, BODY_MODEL, LEXICAL_MODEL))
    raw_seg = _Level(raw, _FIELD_NAMES)
    assert raw_seg.fields == ["digit", "lowercase", "rel_doc_position",
                              "repetitive_pattern"]
    checked = 0
    for name, lines, tokens, token_line, body_ranges, spans in _fixture_docs():
        n = len(lines)
        rows = featurize_lines(lines)
        assert np.array_equal(
            level_emissions(seg, line_columns(lines, seg.fields), n),
            _reference_emissions(seg.dec, rows)), name
        raw_rows = [dict(enumerate(serialize_features(r).split(" ")))
                    for r in rows]
        raw_rows = [{f"f{i}": v for i, v in r.items()} for r in raw_rows]
        assert np.array_equal(
            level_emissions(raw_seg, line_columns(lines, raw_seg.fields), n),
            _reference_emissions(raw, raw_rows)), name
        cols, idx = body_token_columns(tokens, token_line, lines,
                                       body_ranges, body.fields)
        assert np.array_equal(
            level_emissions(body, cols, len(idx)),
            _reference_emissions(body.dec, featurize_body_tokens(
                tokens, token_line, lines, body_ranges)[0])), name
        for start, end in spans:
            cols, idx = _span_columns(tokens, start, end, lex.fields)
            assert np.array_equal(
                level_emissions(lex, cols, len(idx)),
                _reference_emissions(lex.dec, featurize_entry_tokens(
                    tokens, start, end)[0])), name
            checked += 1
    assert checked > 30


def test_one_lexical_pass_per_document_equals_per_run_calls():
    """The stage's lexical pass — ``entry_codes`` over every entry
    run of a document, then ONE emission lookup — equals a
    ``featurize_entry_tokens`` call plus an emission lookup per run: on
    the fixture docs, a doc with no entry run, and runs that straddle a
    non-body zone. Exact because no lexical template reads a
    neighbour."""
    from datacat_ray.stages.models import LEXICAL_MODEL

    lex = CRFDecoder(LEXICAL_MODEL)
    assert {off for off, _ in lex._refs} == {0}
    straddled = 0
    for name, _, tokens, _, body, spans in _fixture_docs():
        in_body = {t for a, b in body for t in range(a, b)}
        whole = [(0, len(tokens))]
        for runs in (spans, [], spans[::2] + whole + spans[1::2]):
            cols, idx, starts = _runs_columns(tokens, runs, lex.fields)
            assert list(cols) == list(lex.fields) and len(starts) == len(runs)
            em = lex.emission_matrix(cols, len(idx))
            for (start, end), a, b in zip(runs, starts,
                                          starts[1:] + [len(idx)]):
                rows, run_idx = featurize_entry_tokens(tokens, start, end)
                assert idx[a:b] == run_idx, name
                want = _columns_of(rows, lex.fields)
                assert {f: c[a:b] for f, c in cols.items()} == want, name
                assert np.array_equal(em[a:b], lex.emission_matrix(
                    want, len(rows))), name
                straddled += any(t not in in_body for t in run_idx)
    assert straddled > 0


def test_vocab_bound_resets_with_the_token_vocabulary(monkeypatch):
    """``VOCAB.bound`` resets the value dictionaries once they or the
    watched token vocabulary are full, and only then; the token
    vocabulary empties itself at the next lookup after a reset."""
    from datacat_ray.stages import crf, token_features
    from datacat_ray.stages.token_features import TOKENS

    VOCAB.reset()
    TOKENS.ids(["a", "b"])
    monkeypatch.setattr(token_features, "_STATIC_CACHE_MAX", 3)
    monkeypatch.setattr(crf, "_VOCAB_MAX", 2)
    gen = VOCAB.gen
    VOCAB.code("f", "x")
    VOCAB.bound()
    assert VOCAB.gen == gen  # neither is full
    TOKENS.ids(["c"])
    VOCAB.bound()
    assert VOCAB.gen == gen + 1 and VOCAB.size == 0  # 3 tokens
    assert TOKENS.ids(["c"]).tolist() == [0] and TOKENS.strs == ["c"]
    VOCAB.code("f", "x")
    VOCAB.code("f", "y")
    VOCAB.bound()
    assert VOCAB.gen == gen + 2  # 2 codes
