"""Zone decode (M13) + TEI assembly state machines (M15/M16)."""

from frontend_oracle import blocks_of
from hypothesis import given, settings
from hypothesis import strategies as st

from datacat_ray.functions.textkit import html_encode
from datacat_ray.stages.tei import (
    _BODY_TAG_MAP,
    _coords_attr,
    assemble_body_tei,
    assemble_segmenter_tei,
    body_label_runs,
    extracted_text,
    split_sentence_spans,
)
from datacat_ray.stages.tokenizer import tokenize_document
from datacat_ray.stages.zones import decode_zones, line_runs, zone_token_indices


def _mk(texts):
    blocks = [
        {"text": t, "page": 0, "font_size": 12.0, "bold": False,
         "italic": False}
        for t in texts
    ]
    return tokenize_document(blocks_of(blocks))


def test_line_runs_strips_begin_prefix():
    assert line_runs(["I-<front>", "<front>", "I-<body>"]) == [
        ("<front>", 0, 1),
        ("<body>", 2, 2),
    ]


def test_decode_zones_partitions_token_stream():
    lines, tokens, token_line = _mk(["aa bb", "cc dd", "ee"])
    zones = decode_zones(
        ["I-<front>", "I-<body>", "<body>"], token_line, len(tokens)
    )
    assert zones[0] == {"label": "<front>", "start": 0, "end": 4}
    assert zones[-1]["end"] == len(tokens)
    # spans tile the stream exactly
    for a, b in zip(zones, zones[1:]):
        assert a["end"] == b["start"]
    assert zone_token_indices(zones, "<body>") == [(4, len(tokens))]


def test_extracted_text_byte_identity():
    lines, tokens, _ = _mk(["aa bb", "cc"])
    assert extracted_text(tokens) == "aa bb\ncc"


def test_segmenter_tei_exact_bytes():
    lines, tokens, token_line = _mk(["Front line", "Body <line>"])
    tei = assemble_segmenter_tei(
        "http://u", "fr", lines, ["I-<front>", "I-<body>"]
    )
    assert tei.startswith(
        '<?xml version="1.0" encoding="UTF-8"?>\n<tei xml:space="preserve">\n'
    )
    assert "\t\t\t<front>Front line<lb/>\n</front>\n" in tei
    assert "\t\t\t<body>Body &lt;line&gt;<lb/>\n</body>\n" in tei
    assert tei.endswith("\t</text>\n</tei>\n")
    # null lang falls back to "fr" (DatacatSegmenterParser.java:810-818)
    assert 'xml:lang="fr"' in assemble_segmenter_tei("u", None, lines, ["<other>", "<other>"])


def test_body_label_runs_and_tei():
    lines, tokens, token_line = _mk(["1. aa", "2. bb"])
    # feature positions skip whitespace: tokens are
    # ['1','.',' ','aa','\n','2','.',' ','bb'] → non-space at 0,1,3,5,6,8
    body_labels = ["I-<entry>", "<entry>", "<entry>", "I-<entry>", "<entry>", "<entry>"]
    idx = [0, 1, 3, 5, 6, 8]
    runs = body_label_runs(body_labels, idx)
    assert runs == [
        {"label": "<entry>", "start": 0, "end": 4},
        {"label": "<entry>", "start": 5, "end": 9},
    ]
    tei = assemble_body_tei("u", "fr", tokens, runs)
    assert "\t\t\t<entry>1. aa</entry>\n" in tei
    # newline tokens inside a run render as <lb/>
    runs_all = [{"label": "<other>", "start": 0, "end": len(tokens)}]
    tei2 = assemble_body_tei("u", "fr", tokens, runs_all)
    assert '<note type="other">1. aa<lb/>\n2. bb</note>' in tei2


def test_tei_coordinates_char_spans():
    """-teiCoordinates analogue: coords attributes are char spans into the
    extracted text, and each span slices back to exactly the tokens the
    element covers."""
    import re

    from datacat_ray.stages.tei import token_char_offsets

    lines, tokens, token_line = _mk(["Front line", "Body one", "Body two"])
    labels = ["I-<front>", "I-<body>", "<body>"]
    zones = decode_zones(labels, token_line, len(tokens))
    offs = token_char_offsets(tokens)
    text = extracted_text(tokens)
    assert offs[len(tokens)] == len(text)

    seg_coords = [(offs[z["start"]], offs[z["end"]]) for z in zones]
    tei = assemble_segmenter_tei("http://u", "fr", lines, labels, seg_coords)
    got = re.findall(r'<(\w+) coords="(\d+),(\d+)">', tei)
    assert [g[0] for g in got] == ["front", "body"]
    for (tag, s, e), z in zip(got, zones):
        assert text[int(s):int(e)] == "".join(tokens[z["start"]:z["end"]])

    runs = [{"label": "<entry>", "start": zones[1]["start"],
             "end": len(tokens)}]
    body_coords = [(offs[r["start"]], offs[r["end"]]) for r in runs]
    tei_b = assemble_body_tei("http://u", "fr", tokens, runs, body_coords)
    m = re.search(r'<entry coords="(\d+),(\d+)">', tei_b)
    assert m and text[int(m.group(1)):int(m.group(2))] == "".join(
        tokens[runs[0]["start"]:runs[0]["end"]]
    )
    # without coords the output is byte-identical to the frozen goldens
    assert 'coords' not in assemble_body_tei("http://u", "fr", tokens, runs)


def test_fused_stage_tei_coordinates_end_to_end():
    """Coordinates flow through the fused cascade: every zone/entry element
    in the TEI carries the char span its token span maps to."""
    import re

    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.pipelines.extract import FusedExtractStage
    from datacat_ray.stages.tei import token_char_offsets

    import random

    html, _ = make_catalogue_html(random.Random(5), n_entries=6)
    st = FusedExtractStage(tei_coordinates=True)
    (text, _main, tei, tei_body, zones, entries, _lex, _nl, _nt,
     err) = st._one("http://coords", "fr", html.encode(), None)
    assert err is None
    seg_spans = [tuple(map(int, m))
                 for m in re.findall(r' coords="(\d+),(\d+)"', tei)]
    assert len(seg_spans) == len(zones)
    body_spans = [tuple(map(int, m))
                  for m in re.findall(r' coords="(\d+),(\d+)"', tei_body)]
    assert len(body_spans) == len(entries)
    for (s, e), r in zip(body_spans, entries):
        assert 0 <= s <= e <= len(text)
    # zone spans tile the text end to end
    assert seg_spans[0][0] == 0 and seg_spans[-1][1] == len(text)
    for a, b in zip(seg_spans, seg_spans[1:]):
        assert a[1] == b[0]


def test_split_sentence_spans_rules():
    """The -segmentSentences rule splitter: terminal punct + next-token
    capitalization, single-uppercase-initial guard, closing-quote
    absorption, whitespace outside spans."""
    from datacat_ray.functions.textkit import tokenize_layout
    from datacat_ray.stages.tei import split_sentence_spans

    def sents(text):
        toks = tokenize_layout(text)
        return ["".join(toks[s:e])
                for s, e in split_sentence_spans(toks, 0, len(toks))]

    assert sents("Alpha beta. Gamma delta! Epsilon zeta?") == [
        "Alpha beta.", "Gamma delta!", "Epsilon zeta?"]
    # single-uppercase initial never closes a sentence
    assert sents("J. Doe came. Then left.") == ["J. Doe came.", "Then left."]
    # lowercase continuation never splits
    assert sents("see e.g. this one. Done.") == ["see e.g. this one.", "Done."]
    # closing quote is absorbed into the sentence
    assert sents('He said "Stop." Then left.') == [
        'He said "Stop."', "Then left."]
    # digits open a sentence
    assert sents("Prices rose. 2026 was worse.") == [
        "Prices rose.", "2026 was worse."]
    # …but never when the period is glued to the digits: decimals and
    # section numbers stay whole (whitespace-separation requirement)
    assert sents("The price is 3.14 dollars today. Next item.") == [
        "The price is 3.14 dollars today.", "Next item."]
    assert sents("See section 2.5 for details. Done.") == [
        "See section 2.5 for details.", "Done."]
    # no terminal punct: the whole run is one sentence, trailing ws trimmed
    assert sents("no punctuation here at all ") == [
        "no punctuation here at all"]
    assert sents("") == []


def test_body_tei_segment_sentences_golden():
    """<s>-tagged body TEI: exact bytes with the flag on, byte-identical
    to the unsegmented output with the tags stripped, and the default-off
    output unchanged."""
    lines, tokens, token_line = _mk(["One two. Three four! Five"])
    runs = [{"label": "<entry>", "start": 0, "end": len(tokens)}]
    plain = assemble_body_tei("u", "fr", tokens, runs)
    seg = assemble_body_tei("u", "fr", tokens, runs, None, True)
    assert ("\t\t\t<entry><s>One two.</s> <s>Three four!</s> <s>Five</s>"
            "</entry>\n") in seg
    assert seg.replace("<s>", "").replace("</s>", "") == plain
    # off by default — the golden surface is untouched
    assert "<s>" not in plain


def test_fused_stage_segment_sentences_end_to_end():
    """cfg.segment_sentences flows through the fused cascade: body TEI
    gains <s> elements; stripping them recovers the default run's body TEI
    byte-for-byte, and every other output column is identical."""
    import random

    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.pipelines.extract import FusedExtractStage

    html, _ = make_catalogue_html(random.Random(7), n_entries=6)
    base = FusedExtractStage()._one("http://s", "fr", html.encode(), None)
    seg = FusedExtractStage(segment_sentences=True)._one(
        "http://s", "fr", html.encode(), None)
    assert base[-1] is None and seg[-1] is None
    assert seg[3].count("<s>") >= 6  # every entry gains sentence level
    assert seg[3].replace("<s>", "").replace("</s>", "") == base[3]
    # text, main_text, segmenter tei, zones, entries all untouched
    assert seg[0] == base[0] and seg[1] == base[1] and seg[2] == base[2]
    assert seg[4] == base[4] and seg[5] == base[5]


def _per_token_body_content(tokens, entries, coords, segment_sentences):
    """The entry elements of ``assemble_body_tei`` rendered one token at a
    time (the rendering it replaced, kept as the reference): a newline
    token is ``<lb/>``, any other token is escaped on its own."""

    def render(t):
        tok = tokens[t]
        if tok in ("\n", "\r", "\r\n"):
            return "<lb/>\n"
        return html_encode(tok)

    parts = []
    for k, run in enumerate(entries):
        open_tag, close_tag = _BODY_TAG_MAP.get(
            run["label"], (run["label"], "</" + run["label"][1:]))
        if coords is not None:
            open_tag = open_tag[:-1] + _coords_attr(coords, k) + ">"
        buf = []
        if segment_sentences:
            pos = run["start"]
            for a, b in split_sentence_spans(tokens, run["start"], run["end"]):
                buf += [render(t) for t in range(pos, a)] + ["<s>"]
                buf += [render(t) for t in range(a, b)] + ["</s>"]
                pos = b
            buf += [render(t) for t in range(pos, run["end"])]
        else:
            buf += [render(t) for t in range(run["start"], run["end"])]
        parts.append(f"\t\t\t{open_tag}{''.join(buf)}{close_tag}\n")
    return "".join(parts)


# layout-token shapes: a newline is always a token of its own
_LAYOUT_TOKENS = st.sampled_from(
    ["\n", "\r", "\r\n", "&", "<", ">", '"', "'", " ", "  ", "\t", ".", "!",
     "a", "Ab", "12", "é", "&amp;", "x<y"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_per_run_body_tei_equals_per_token_rendering(data):
    """Each run renders as one escape of its joined text (``"\r"``-free
    runs) or token by token (runs with a ``"\r"``): the bytes equal the
    per-token rendering on random layout-token streams, with and without
    sentences and coordinates, a ``"\r"`` token followed by a ``"\n"``
    token included."""
    tokens = data.draw(st.lists(_LAYOUT_TOKENS, max_size=40))
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(tokens)))
        tokens[at:at] = ["\r", "\n"]
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(tokens)),
                                         max_size=8))) | {0, len(tokens)})
    labels = st.sampled_from(["<entry>", "<title>", "<titledesc>",
                              "<other>", "<misc>"])
    entries = [{"label": data.draw(labels), "start": a, "end": b}
               for a, b in zip(cuts, cuts[1:])
               if data.draw(st.booleans())]
    coords = ([(r["start"], r["end"]) for r in entries]
              if data.draw(st.booleans()) else None)
    sentences = data.draw(st.booleans())
    got = assemble_body_tei("u", "fr", tokens, entries, coords, sentences)
    head = assemble_body_tei("u", "fr", tokens, [])
    cut = head.index("\t</text>")
    want = head[:cut] + _per_token_body_content(
        tokens, entries, coords, sentences) + head[cut:]
    assert got == want
    crlf = assemble_body_tei("u", "fr", ["a", "\r", "\n", "\r\n", "b"],
                             [{"label": "<entry>", "start": 0, "end": 5}])
    assert "<entry>a<lb/>\n<lb/>\n<lb/>\nb</entry>" in crlf


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_array_zones_equal_the_per_line_oracle(data):
    """The stage's batch-wide zones (``FusedExtractStage._zones`` over int
    segmenter paths) equal the per-line oracle on random batches: the
    zones, the ``<body>`` token ranges and the segmenter TEI
    (``segmenter_tei`` of the zones' line runs), with lines that have no
    tokens anywhere in a document and documents without lines. The walk's
    string forms (``decode_zones``, ``assemble_segmenter_tei``) agree."""
    from types import SimpleNamespace

    import numpy as np
    import zone_oracle

    from datacat_ray.pipelines.extract import FusedExtractStage, _Doc
    from datacat_ray.stages.crf import with_begin_prefix
    from datacat_ray.stages.tei import segmenter_tei

    stage = FusedExtractStage()
    names = stage.seg.base_labels
    docs = []
    for k in range(data.draw(st.integers(1, 5))):
        counts = data.draw(st.lists(st.integers(0, 3), max_size=12))
        d = _Doc(f"http://u/{k}", "fr")
        n = len(counts)
        d.lines = SimpleNamespace(text=[f"l{i} <&>" for i in range(n)])
        d.token_line = [i for i, c in enumerate(counts) for _ in range(c)]
        d.tokens = ["t"] * len(d.token_line)
        d.path = np.array(data.draw(st.lists(
            st.integers(0, len(names) - 1), min_size=n, max_size=n)),
            dtype=np.intp)
        d.lens, d.idx = [n], np.arange(n)
        docs.append(d)
    stage._zones(docs)
    for d in docs:
        labels = with_begin_prefix([names[i] for i in d.path.tolist()])
        want = zone_oracle.decode_zones(labels, d.token_line, len(d.tokens))
        lab, start, end = d.zones
        assert [{"label": names[i], "start": a, "end": b} for i, a, b in zip(
            lab.tolist(), start.tolist(), end.tolist())] == want
        assert d.body == [(z["start"], z["end"]) for z in want
                          if z["label"] == "<body>"]
        tei = zone_oracle.segmenter_tei(d.url, d.lang, d.lines, labels)
        assert segmenter_tei(d.url, d.lang, d.lines, names,
                             d.zone_lines) == tei
        assert assemble_segmenter_tei(d.url, d.lang, d.lines, labels) == tei
        assert decode_zones(labels, d.token_line, len(d.tokens)) == want
