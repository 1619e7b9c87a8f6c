"""CRF decode machinery: template expansion, Viterbi, determinism."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from level_emissions import level_emissions
from zone_oracle import decode_zones

from datacat_ray.stages.crf import (
    CRFDecoder,
    CRFModel,
    strip_begin_prefix,
    with_begin_prefix,
)
from datacat_ray.stages.models import BODY_MODEL, SEGMENTER_MODEL
from datacat_ray.stages.tei import body_label_runs
from datacat_ray.stages.train import expand_sequence

TOY = CRFModel(
    labels=("A", "B"),
    templates=(("U", ((0, "x"),)), ("Ub", ((-1, "x"), (0, "x")))),
    weights={"U:a": {"A": 2.0}, "U:b": {"B": 2.0}},
    transitions={("A", "B"): 0.5},
    init={"A": 0.1},
    sticky=1.0,
)


def test_expand_templates_boundaries():
    feats = [{"x": "a"}, {"x": "b"}]
    rows = expand_sequence(feats, TOY.templates)
    assert rows[0] == ["U:a", "Ub:_B-1_|a"]
    assert rows[1] == ["U:b", "Ub:a|b"]


def test_viterbi_basic_and_sticky():
    dec = CRFDecoder(TOY)
    assert dec.decode([{"x": "a"}, {"x": "a"}, {"x": "b"}]) == ["A", "A", "B"]
    # one weak contrary observation is absorbed by stickiness
    assert dec.decode([{"x": "a"}, {"x": "?"}, {"x": "a"}]) == ["A", "A", "A"]
    assert dec.decode([]) == []


def test_decode_zero_ref_model():
    """A model whose templates expand to NO refs (comments-only template
    file) still decodes n positions from transitions alone — regression
    pin for the column-wise key construction (zip of zero columns)."""
    m = CRFModel(labels=("A", "B"), templates=(),
                 weights={}, transitions={("A", "A"): 1.0}, init={"A": 0.5})
    dec = CRFDecoder(m)
    assert dec.decode([{"x": "q"}, {"x": "r"}, {"x": "s"}]) == ["A", "A", "A"]
    assert dec.decode([]) == []


def test_decode_deterministic_tie_break():
    flat = CRFModel(labels=("A", "B"), templates=(("U", ((0, "x"),)),),
                    weights={}, transitions={})
    dec = CRFDecoder(flat)
    # all scores equal → stable argmax picks the first label, every time
    assert dec.decode([{"x": "q"}] * 5) == ["A"] * 5


def test_begin_prefix_roundtrip():
    labels = ["<front>", "<front>", "<body>", "<body>", "<front>"]
    pref = with_begin_prefix(labels)
    assert pref == ["I-<front>", "<front>", "I-<body>", "<body>", "I-<front>"]
    assert [strip_begin_prefix(x) for x in pref] == labels


def test_segmenter_model_recovers_fixture_zones():
    import random

    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.stages.dom import parse_main_blocks
    from datacat_ray.stages.line_features import featurize_lines
    from datacat_ray.stages.tokenizer import tokenize_document

    rng = random.Random(5)
    html, _ = make_catalogue_html(rng, n_entries=8)
    lines, _, _ = tokenize_document(parse_main_blocks(html))
    dec = CRFDecoder(SEGMENTER_MODEL)
    labels = dec.decode(featurize_lines(lines))
    # fixture docs: 8 front lines, 8 entries, 4 back lines
    assert labels[:8] == ["<front>"] * 8
    assert labels[8:16] == ["<body>"] * 8
    assert labels[16:] == ["<back>"] * 4


def test_body_model_starts_with_begin_state():
    dec = CRFDecoder(BODY_MODEL)
    feats = [
        {"lowercase": "x", "digit": "ALLDIGIT", "capitalisation": "NOCAPS",
         "line_status": "LINESTART", "punct_type": "NOPUNCT", "bold": 0,
         "rel_doc_position": 5},
        {"lowercase": "y", "digit": "NODIGIT", "capitalisation": "NOCAPS",
         "line_status": "LINEIN", "punct_type": "NOPUNCT", "bold": 0,
         "rel_doc_position": 5},
    ]
    labels = dec.decode(feats)
    assert labels[0].startswith("I-")
    assert labels[0] == "I-<entry>"


def test_parse_crfpp_template_inline():
    from datacat_ray.stages.crf import parse_crfpp_template

    text = """# Token (0)
U00:%x[-1,0]
U04:%x[0,0]

# conjunction
U0A:%x[-1,0]/%x[0,1]
B
"""
    fields = ["token", "lowercase"]
    t = parse_crfpp_template(text, fields)
    assert t == (
        ("U00", ((-1, "token"),)),
        ("U04", ((0, "token"),)),
        ("U0A", ((-1, "token"), (0, "lowercase"))),
    )


def test_parse_reference_template_files():
    """Parse the reference's real committed CRF++ templates (read-only)."""
    import os

    import pytest

    from datacat_ray.stages.crf import parse_crfpp_template

    base = "/root/reference/resources/dataset"
    seg = f"{base}/datacat-segmenter/crfpp-templates/datacat-segmenter.template"
    if not os.path.exists(seg):
        pytest.skip("reference checkout not present")
    fields = [f"f{i}" for i in range(40)]  # positional stand-in names
    t = parse_crfpp_template(open(seg).read(), fields)
    assert len(t) > 30
    cols = {name for _, refs in t for _, name in refs}
    assert "f0" in cols and "f32" in cols  # 33-column vector referenced


def test_format_eval_report_layout():
    import pyarrow as pa

    from datacat_ray.pipelines.training import format_eval_report

    m = pa.table({
        "label": ["<entry>", "__micro__"],
        "tp": [86, 86], "fp": [13, 13], "fn": [15, 15],
        "precision_micros": [868686, 868686],
        "recall_micros": [851485, 851485],
        "f1_micros": [860000, 860000],
    })
    rep = format_eval_report(m, accuracy_total=1000)
    assert "===== Field-level results =====" in rep
    assert "<entry>" in rep and "all (micro avg.)" in rep
    assert "86.87" in rep  # precision rendered at 2 decimals


# ---------------------------------------------------------------------------
# lockstep batch decode vs a per-sequence reference Viterbi
# ---------------------------------------------------------------------------

def _reference_decode(model: CRFModel, feats: list[dict]) -> list[str]:
    """Textbook one-sequence Viterbi straight from the model's dicts:
    emissions summed per expanded feature string in template order, ties
    to the lowest label index."""
    L = len(model.labels)
    idx = model.label_index()
    em = []
    for fs in expand_sequence(feats, model.templates):
        row = [0.0] * L
        for f in fs:
            for lb, w in model.weights.get(f, {}).items():
                row[idx[lb]] += w
        em.append(row)
    return [model.labels[i] for i in _reference_path(
        em, model.transition_matrix().tolist(), model.init_vector().tolist())]


def _reference_path(em: list[list[float]], trans: list[list[float]],
                    init: list[float]) -> list[int]:
    """Textbook one-sequence Viterbi over emission rows: the label index
    path, ties to the lowest label index."""
    if not em:
        return []
    L = len(init)
    delta = [em[0][j] + init[j] for j in range(L)]
    backs = []
    for t in range(1, len(em)):
        bk = [max(range(L), key=lambda i: (delta[i] + trans[i][j], -i))
              for j in range(L)]
        delta = [delta[bk[j]] + trans[bk[j]][j] + em[t][j] for j in range(L)]
        backs.append(bk)
    cur = max(range(L), key=lambda j: (delta[j], -j))
    path = [cur]
    for bk in reversed(backs):
        cur = bk[cur]
        path.append(cur)
    return path[::-1]


_VALS = ("a", "b", "c")


@st.composite
def _model_and_batch(draw):
    L = draw(st.integers(1, 8))
    labels = tuple(f"L{i}" for i in range(L))
    refs_pool = [(off, name) for off in (-2, -1, 0, 1, 2) for name in ("x", "y")]
    templates = tuple(
        (f"U{k}", tuple(draw(st.lists(st.sampled_from(refs_pool),
                                      min_size=1, max_size=2))))
        for k in range(draw(st.integers(0, 4)))
    )
    pos = st.fixed_dictionaries({"x": st.sampled_from(_VALS),
                                 "y": st.sampled_from(_VALS)})
    seqs = draw(st.lists(st.lists(pos, max_size=12), min_size=1, max_size=8))
    seqs += [[], [draw(pos)]]
    seqs = draw(st.permutations(seqs))
    # integer weights on features that really occur, so exact ties are common
    seen = sorted({f for s in seqs for row in expand_sequence(s, templates)
                   for f in row})
    small = st.integers(-2, 2).map(float)
    weights = {f: draw(st.dictionaries(st.sampled_from(labels), small,
                                       max_size=L))
               for f in draw(st.lists(st.sampled_from(seen), unique=True))
               } if seen else {}
    pairs = [(a, b) for a in labels for b in labels]
    model = CRFModel(
        labels=labels, templates=templates, weights=weights,
        transitions=draw(st.dictionaries(st.sampled_from(pairs), small)),
        init=draw(st.dictionaries(st.sampled_from(labels), small)),
        sticky=float(draw(st.integers(0, 1))),
    )
    return model, seqs


@settings(max_examples=150, deadline=None)
@given(_model_and_batch())
def test_decode_batch_matches_reference_viterbi(case):
    model, seqs = case
    dec = CRFDecoder(model)
    want = [_reference_decode(model, s) for s in seqs]
    assert dec.decode_batch(seqs) == want
    assert [dec.decode(s) for s in seqs] == want
    assert dec.decode_batch([]) == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decode_batch_trained_artifact(tmp_path_factory, data):
    """A trained artifact (CRF++ template over raw ``f0..fN`` fields,
    loaded through ``load_model_json``) decodes like the reference."""
    import json

    from datacat_ray.pipelines.trainer import load_model_json

    L = data.draw(st.integers(1, 6))
    labels = [f"<z{i}>" for i in range(L)]
    template = "U00:%x[0,0]\nU01:%x[-1,1]\nU02:%x[0,0]/%x[1,1]\nB\n"
    pos = st.fixed_dictionaries({"f0": st.sampled_from(_VALS),
                                 "f1": st.sampled_from(_VALS)})
    seqs = data.draw(st.lists(st.lists(pos, max_size=10), max_size=6))
    seqs += [[], [data.draw(pos)]]
    small = st.integers(-2, 2).map(float)
    feats = [f"U00:{v}" for v in _VALS] + [f"U01:{v}" for v in _VALS + ("_B-1_",)]
    art = {
        "format": "datacat-ray-crf-v1", "labels": labels, "n_fields": 2,
        "template": template,
        "weights": {f: data.draw(st.dictionaries(st.sampled_from(labels),
                                                 small)) for f in feats},
        "transitions": [[a, b, data.draw(small)]
                        for a in labels for b in labels],
    }
    path = tmp_path_factory.mktemp("art") / "m.json"
    path.write_text(json.dumps(art))
    dec = load_model_json(str(path))
    want = [_reference_decode(dec.model, s) for s in seqs]
    assert dec.decode_batch(seqs) == want


def _fixture_sequences():
    """Real segmenter / body / lexical feature sequences of fixture pages."""
    import random

    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.stages.dom import parse_main_blocks
    from datacat_ray.stages.lexical_features import featurize_entry_tokens
    from datacat_ray.stages.line_features import featurize_lines
    from datacat_ray.stages.tei import body_label_runs
    from datacat_ray.stages.token_features import featurize_body_tokens
    from datacat_ray.stages.tokenizer import tokenize_document
    from datacat_ray.stages.zones import zone_token_indices

    rng = random.Random(13)
    seg, body, lex = [], [], []
    for n in (1, 3, 6, 12, 25):
        html, _ = make_catalogue_html(rng, n_entries=n)
        lines, tokens, token_line = tokenize_document(parse_main_blocks(html))
        lf = featurize_lines(lines)
        seg.append(lf)
        zones = decode_zones(with_begin_prefix(_reference_decode(
            SEGMENTER_MODEL, lf)), token_line, len(tokens))
        bf, idx = featurize_body_tokens(tokens, token_line, lines,
                                        zone_token_indices(zones, "<body>"))
        body.append(bf)
        for run in body_label_runs(_reference_decode(BODY_MODEL, bf), idx):
            if run["label"] == "<entry>":
                lex.append(featurize_entry_tokens(tokens, run["start"],
                                                  run["end"])[0])
    return seg, body, lex


def test_decode_batch_frozen_models_match_reference():
    from datacat_ray.stages.models import LEXICAL_MODEL

    seg, body, lex = _fixture_sequences()
    for model, seqs in ((SEGMENTER_MODEL, seg), (BODY_MODEL, body),
                        (LEXICAL_MODEL, lex)):
        want = [_reference_decode(model, s) for s in seqs]
        dec = CRFDecoder(model)
        assert dec.decode_batch(seqs) == want
        assert dec.decode_batch(seqs[::-1]) == want[::-1]
        # one sequence at a time through a warm cache: same labels
        assert [dec.decode(s) for s in seqs] == want


def test_emission_cache_reset_mid_batch(monkeypatch):
    """The row cache resets at _EMISSION_CACHE_MAX keys. A reset while a
    batch is being assembled must not change the rows of sequences earlier
    in the batch: here the first sequence's keys all favour L0 and the
    second's (which overwrite the reset cache) all favour L1."""
    from datacat_ray.stages import crf

    monkeypatch.setattr(crf, "_EMISSION_CACHE_MAX", 4)
    model = CRFModel(
        labels=("L0", "L1"), templates=(("U", ((0, "x"),)),),
        weights={**{f"U:a{i}": {"L0": 3.0} for i in range(6)},
                 **{f"U:b{i}": {"L1": 3.0} for i in range(6)}},
        transitions={},
    )
    first = [{"x": f"a{i}"} for i in range(6)]
    second = [{"x": f"b{i}"} for i in range(6)]
    dec = CRFDecoder(model)
    batch = [first, second, first[:2], second[::-1]]
    want = [_reference_decode(model, s) for s in batch]
    assert want[0] == ["L0"] * 6 and want[1] == ["L1"] * 6
    assert dec.decode_batch(batch) == want
    # the cap bounds the cache to one sequence's keys past the limit
    assert len(dec._ecache) <= 4 + 6


# ---------------------------------------------------------------------------
# int label paths → spans
# ---------------------------------------------------------------------------

def _reference_label_runs(labels: list[str], idx: list[int]) -> list[dict]:
    """The per-token loop that coalesced label names into spans before
    ``span_starts`` (kept verbatim as the reference)."""
    runs: list[dict] = []
    for pos, raw in enumerate(labels):
        lb = strip_begin_prefix(raw)
        t = idx[pos]
        begins = raw.startswith("I-")
        if runs and not begins and runs[-1]["label"] == lb:
            runs[-1]["end"] = t + 1
        else:
            runs.append({"label": lb, "start": t, "end": t + 1})
    return runs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_label_spans_match_the_reference_loop(data):
    """The spans of an int path (``CRFDecoder.span_arrays``, the
    batch-wide span decode), and ``body_label_runs`` of its names,
    equal the reference loop — run once per sequence when several
    sequences lie end to end (``starts``): with and without ``I-`` labels,
    gapped offsets, empty and length-1 paths."""
    bases = ["<a>", "<b>", "<c>"][:data.draw(st.integers(1, 3))]
    labels = tuple(data.draw(st.permutations(
        bases + [f"I-{b}" for b in bases] if data.draw(st.booleans())
        else bases)))
    dec = CRFDecoder(CRFModel(labels=labels, templates=(), weights={},
                              transitions={}))
    path = data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=40))
    gaps = data.draw(st.lists(st.integers(1, 4), min_size=len(path),
                              max_size=len(path)))
    idx = list(itertools.accumulate(gaps, initial=data.draw(
        st.integers(0, 5))))[:len(path)]
    for p in (path, path[:1], []):
        n = len(p)
        starts = sorted(set(data.draw(st.lists(
            st.integers(0, n - 1), max_size=6)))) if n else []
        names = [labels[i] for i in p]
        cuts = sorted({0, *starts, n})
        want = [r for a, b in zip(cuts, cuts[1:])
                for r in _reference_label_runs(names[a:b], idx[a:b])]
        lab, start, end, _ = dec.span_arrays(
            np.array(p, dtype=np.intp), np.array(idx[:n], dtype=np.intp),
            np.diff(cuts))
        got = [{"label": dec.base_labels[i], "start": a, "end": b}
               for i, a, b in zip(lab.tolist(), start.tolist(), end.tolist())]
        assert got == want
        assert all(type(r["start"]) is int and type(r["end"]) is int
                   for r in got)
        assert body_label_runs(names, idx[:n]) == _reference_label_runs(
            names, idx[:n])


def test_paths_name_the_viterbi_labels():
    """``viterbi`` is ``paths`` named: ``paths`` takes the sequences laid
    end to end (their flat emission matrix and lengths) and returns their
    int paths laid out the same way, empty sequences included."""
    seg, body, lex = _fixture_sequences()
    dec = CRFDecoder(BODY_MODEL)
    ems = [dec.emission_matrix(
        {name: [f[name] for f in feats] for name in dec.fields}, len(feats))
        for feats in [[]] + body + [[]]]
    lens = [len(e) for e in ems]
    flat = dec.paths(np.concatenate(ems), lens)
    assert flat.dtype == np.intp and len(flat) == sum(lens)
    paths = np.split(flat, np.cumsum(lens)[:-1])
    assert [[dec.labels[i] for i in p] for p in paths] == dec.viterbi(ems)
    assert dec.viterbi(ems)[1:-1] == [_reference_decode(BODY_MODEL, s)
                                      for s in body]
    assert len(dec.paths(np.zeros((0, dec.L)), [])) == 0
    assert dec.viterbi([]) == []


_SHAPES = {
    # one long sequence among short ones: the steps past the short ones
    # run with one active sequence
    "tail": st.tuples(st.integers(20, 60), st.lists(
        st.integers(0, 4), min_size=1, max_size=12)).map(
            lambda t: [t[0], *t[1]]),
    "zero-length": st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
        lambda ls: [0, *ls, 0]),
    "single": st.integers(0, 30).map(lambda n: [n]),
    "ragged": st.lists(st.integers(0, 12), max_size=10),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_paths_match_the_reference_viterbi(data):
    """``CRFDecoder.paths`` equals the one-sequence reference on each
    sequence of a batch laid end to end: the tail shape, zero-length
    sequences, a single sequence and random ragged batches, all with
    integer emissions, transitions and initial scores, so exact ties are
    common."""
    L = data.draw(st.integers(1, 8), label="L")
    lens = data.draw(st.permutations(data.draw(
        st.sampled_from(sorted(_SHAPES)).flatmap(_SHAPES.get))), label="lens")
    small = st.integers(-2, 2).map(float)
    labels = tuple(f"L{i}" for i in range(L))
    pairs = [(a, b) for a in labels for b in labels]
    model = CRFModel(
        labels=labels, templates=(), weights={},
        transitions=data.draw(st.dictionaries(st.sampled_from(pairs), small)),
        init=data.draw(st.dictionaries(st.sampled_from(labels), small)),
        sticky=float(data.draw(st.integers(0, 1))))
    E = np.array(data.draw(st.lists(st.lists(small, min_size=L, max_size=L),
                                    min_size=sum(lens), max_size=sum(lens))),
                 dtype=np.float64).reshape(sum(lens), L)
    dec = CRFDecoder(model)
    got = dec.paths(E, lens)
    assert got.dtype == np.intp and len(got) == sum(lens)
    trans, init = dec.trans.tolist(), dec.init.tolist()
    for at, n in zip(np.cumsum(lens) - lens, lens):
        assert got[at:at + n].tolist() == _reference_path(
            E[at:at + n].tolist(), trans, init)


# ---------------------------------------------------------------------------
# coded emissions
# ---------------------------------------------------------------------------

def test_bool_and_int_values_keep_their_own_rows():
    """``True == 1`` and they hash alike, but they expand to ``U:True``
    and ``U:1``: a row cached for ``1`` must not serve ``True`` — on the
    string path and on the coded path, whatever was seen first."""
    from datacat_ray.stages.crf import VOCAB

    model = CRFModel(labels=("A", "B"), templates=(("U", ((0, "x"),)),),
                     weights={"U:1": {"B": 5.0}}, transitions={})
    assert CRFDecoder(model).emission_matrix(
        {"x": [True]}, 1).tolist() == [[0.0, 0.0]]
    dec = CRFDecoder(model)
    assert dec.emission_matrix({"x": [1]}, 1).tolist() == [[0.0, 5.0]]
    assert dec.emission_matrix({"x": [True]}, 1).tolist() == [[0.0, 0.0]]
    assert dec.coded_emissions(
        {"x": VOCAB.codes("x", [1, True, 1])}, [3]).tolist() == [
            [0.0, 5.0], [0.0, 0.0], [0.0, 5.0]]


_VALUES = st.sampled_from([0, 1, 2, True, False, "1", "x", "a|b", "a", "b|",
                           "", "_B-1_", "_B+2_", "é"])
_WEIGHTS = st.sampled_from([0.5, -1.25, 3.0, -0.0, 0.1, 0.7, 1e16, -1e16,
                            2.0 ** -30, 1.0 / 3.0])
_FIELDS = ("a", "b", "c")


@st.composite
def _coded_case(draw):
    """A random model (1-8 labels; templates with offsets -2..+2,
    conjunctions, a zero-ref template and duplicate tags), random weights
    over the feature strings its templates can expand to, and calls of
    random ragged batches (empty and length-1 sequences included)."""
    L = draw(st.integers(1, 8))
    labels = tuple(f"L{i}" for i in range(L))
    ref = st.tuples(st.integers(-2, 2), st.sampled_from(_FIELDS))
    templates = tuple(
        (draw(st.sampled_from(["U0", "U1", "U2", "U3"])),
         tuple(draw(st.lists(ref, max_size=3))))
        for _ in range(draw(st.integers(0, 5))))
    sentinel = st.sampled_from(["_B-1_", "_B-2_", "_B+1_", "_B+2_"])
    weights = {}
    for tag, refs in templates:
        for _ in range(draw(st.integers(0, 4))):
            vals = [str(draw(st.one_of(_VALUES, sentinel))) for _ in refs]
            weights[tag + ":" + "|".join(vals)] = {
                draw(st.sampled_from(labels)): draw(_WEIGHTS)
                for _ in range(draw(st.integers(1, 3)))}
    calls = draw(st.lists(st.lists(st.integers(0, 6), max_size=4),
                          min_size=1, max_size=3))
    return CRFModel(labels=labels, templates=templates, weights=weights,
                    transitions={}), calls


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=_coded_case(), data=st.data())
def test_coded_emissions_equal_emission_matrix_rows(case, data):
    """The coded path (``VOCAB`` codes → template-ordered row gathers)
    gives bit-identical rows to the string-keyed ``emission_matrix`` of
    each sequence: across calls that grow the vocabulary and the tables,
    across a vocabulary reset, and through a raw-field ``_Level``."""
    from datacat_ray.pipelines.extract import _Level
    from datacat_ray.stages.crf import VOCAB

    model, calls = case
    dec = CRFDecoder(model)
    for lens in calls:
        if data.draw(st.booleans()):
            VOCAB.reset()
        cols = [{f: data.draw(st.lists(_VALUES, min_size=n, max_size=n))
                 for f in _FIELDS} for n in lens]
        want = (np.concatenate([dec.emission_matrix(c, n)
                                for c, n in zip(cols, lens)])
                if lens else np.zeros((0, dec.L)))
        flat = {f: [v for c in cols for v in c[f]] for f in _FIELDS}
        got = dec.coded_emissions(
            {f: VOCAB.codes(f, flat[f]) for f in dec.coded_fields}, lens)
        _assert_bitwise_equal(got, want)

    # the same templates over raw columns f0..f2 renamed from named ones
    raw_names = ["n_a", "n_b", "n_c"][:data.draw(st.integers(1, 3))]
    raw_model = CRFModel(
        labels=model.labels,
        templates=tuple((tag, tuple((off, f"f{_FIELDS.index(f)}")
                                    for off, f in refs))
                        for tag, refs in model.templates),
        weights=model.weights, transitions={})
    level = _Level(CRFDecoder(raw_model), raw_names)
    for lens in calls:
        cols = [{f: data.draw(st.lists(_VALUES, min_size=n, max_size=n))
                 for f in raw_names} for n in lens]
        raw = [{f"f{i}": [str(v) for v in c[f]]
                for i, f in enumerate(raw_names)} for c in cols]
        flat = {f: [v for c in cols for v in c[f]] for f in raw_names}
        try:  # a template reading a column past raw_names fails the lookup
            level.dec.emission_matrix(
                {f"f{i}": [] for i in range(len(raw_names))}, 0)
        except KeyError as missing:
            try:
                level_emissions(level, flat, lens)
            except KeyError as exc:
                assert exc.args == missing.args
            else:
                raise AssertionError("missing raw column did not raise")
            continue
        want = (np.concatenate([level.dec.emission_matrix(c, n)
                                for c, n in zip(raw, lens)])
                if lens else np.zeros((0, level.dec.L)))
        _assert_bitwise_equal(level_emissions(level, flat, lens), want)
