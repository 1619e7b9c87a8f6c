"""Full model-improvement loop (the DatacatTrainerRunner analogue,
SURVEY §3.4): create-training export → train from the exported corpus →
save/load the JSON artifact → decode with the loaded model."""

from __future__ import annotations

import os

import pytest

from datacat_ray.fixtures import write_pages_parquet
from datacat_ray.pipelines.create_training import create_training_pairs
from datacat_ray.pipelines.trainer import (
    REF_TEMPLATES,
    load_corpus,
    load_model_json,
    save_model_json,
    train_model,
)

# the tests that train without ``template_path`` read the reference
# checkout's segmenter template (``DATACAT_REFERENCE_DIR``)
needs_ref_template = pytest.mark.skipif(
    not os.path.exists(REF_TEMPLATES["segmenter"]),
    reason="reference checkout absent")


@pytest.fixture(scope="module")
def exported_corpus(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trainer")
    pages_dir = write_pages_parquet(
        str(tmp / "pages"), n_urls=20, seed=9, rows_per_file=10
    )
    out_dir = str(tmp / "corpus")
    create_training_pairs(pages_dir, out_dir).take_all()
    return out_dir


def test_load_corpus_reads_exported_layout(exported_corpus):
    docs = load_corpus(exported_corpus, "segmenter")
    assert len(docs) >= 15
    name, feats, gold = docs[0]
    assert len(feats) == len(gold) > 0
    assert set(feats[0]) == {f"f{i}" for i in range(33)}
    assert all(lb.startswith("<") for lb in gold)


@needs_ref_template
def test_train_save_load_decode_roundtrip(exported_corpus, tmp_path):
    artifact, report = train_model(
        exported_corpus, model="segmenter", trainer="perceptron",
        train_pct=80, seed=1, epochs=2,
    )
    assert "micro" in report or "label" in report or report
    assert artifact["labels"] and artifact["weights"]
    path = save_model_json(str(tmp_path / "seg.json"), artifact)

    dec = load_model_json(path)
    docs = load_corpus(exported_corpus, "segmenter")
    _, feats, gold = docs[0]
    pred = dec.decode(feats)
    assert len(pred) == len(gold)
    assert set(pred) <= set(artifact["labels"])

    # determinism: same corpus + hyperparams → identical artifact
    artifact2, _ = train_model(
        exported_corpus, model="segmenter", trainer="perceptron",
        train_pct=80, seed=1, epochs=2,
    )
    assert artifact2["weights"] == artifact["weights"]
    assert artifact2["transitions"] == artifact["transitions"]


@pytest.fixture(scope="module")
def crf_artifact(exported_corpus, ray_session):
    artifact, report = train_model(
        exported_corpus, model="segmenter", trainer="crf",
        train_pct=100, max_iter=25, shards=4,
    )
    return artifact, report


@needs_ref_template
def test_train_crf_estimator_on_export(exported_corpus, crf_artifact):
    """The CRF estimator path over an exported corpus: short budget, must
    fit the (machine-labeled, hence consistent) corpus well."""
    artifact, report = crf_artifact
    micro = [ln for ln in report.splitlines() if "micro" in ln.lower()]
    assert artifact["trainer"] == "crf"
    # train_pct=100 evaluates on the training docs: a CRF must fit
    # machine-generated labels nearly perfectly
    from datacat_ray.pipelines.trainer import load_corpus as _lc
    from datacat_ray.stages.train import _viterbi, expand_sequence
    from datacat_ray.stages.crf import parse_crfpp_template

    fields = [f"f{i}" for i in range(33)]
    templates = parse_crfpp_template(artifact["template"], fields)
    w = artifact["weights"]
    trans = {(a, b): v for a, b, v in artifact["transitions"]}
    tp = tot = 0
    for _, feats, gold in _lc(exported_corpus, "segmenter")[:5]:
        pred = _viterbi(expand_sequence(feats, templates),
                        artifact["labels"], w, trans)
        tp += sum(1 for a, b in zip(gold, pred) if a == b)
        tot += len(gold)
    assert tot and tp / tot >= 0.9, f"{tp}/{tot} ({micro})"


def test_raw_field_conversion_matches_serialization():
    """The deploy-time feature conversion (a raw ``f{i}`` column reads the
    codes of the i-th named column, whose feature strings are the values'
    ``str``) must produce exactly the values training read back from the
    raw files — i.e. the canonical serialization split into columns — for
    the line and the body-token fields."""
    import random

    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.pipelines.extract import (
        _BODY_FIELD_NAMES,
        _LINE_FIELD_NAMES,
    )
    from datacat_ray.stages.crf import VOCAB
    from datacat_ray.stages.dom import parse_main_blocks
    from datacat_ray.stages.line_features import (
        featurize_lines,
        line_columns,
        serialize_features,
    )
    from datacat_ray.stages.token_features import (
        body_token_columns,
        featurize_body_tokens,
        serialize_token_features,
    )
    from datacat_ray.stages.tokenizer import tokenize_document

    html, _ = make_catalogue_html(random.Random(4), n_entries=4)
    lines, tokens, token_line = tokenize_document(parse_main_blocks(html))
    body = [(0, len(tokens))]
    for names, cols, feats, serialize in (
        (_LINE_FIELD_NAMES, line_columns(lines, _LINE_FIELD_NAMES),
         featurize_lines(lines), serialize_features),
        (_BODY_FIELD_NAMES,
         body_token_columns(tokens, token_line, lines, body,
                            _BODY_FIELD_NAMES)[0],
         featurize_body_tokens(tokens, token_line, lines, body)[0],
         serialize_token_features),
    ):
        raw = {f"f{i}": [VOCAB.strings(n)[c]
                         for c in VOCAB.codes(n, cols[n]).tolist()]
               for i, n in enumerate(names)}
        assert feats and len(raw) == len(names)
        for t, d in enumerate(feats):
            want = serialize(d).split(" ")
            assert [raw[f"f{i}"][t] for i in range(len(want))] == want


@needs_ref_template
def test_deploy_trained_model_in_cascade(exported_corpus, tmp_path,
                                         crf_artifact, ray_session):
    """Deploy leg: a trained artifact swaps into the fused cascade via
    model_paths and labels real pages end to end."""
    artifact, _ = crf_artifact
    _assert_deploys_like_frozen(artifact, tmp_path)


# a small CRF++ template over the 33 exported segmenter columns (the
# frozen segmenter's own feature set), so the deploy leg runs without the
# reference checkout's templates
SMALL_SEG_TEMPLATE = """\
# lowercase token, digit class, position, capitalisation, and flags
U00:%x[0,2]
U01:%x[-1,2]
U02:%x[0,14]
U03:%x[1,14]
U04:%x[0,23]
U05:%x[0,13]
U06:%x[0,19]
U07:%x[0,18]
U08:%x[0,21]
U09:%x[0,30]
U10:%x[0,11]
U11:%x[0,22]
U12:%x[0,14]/%x[0,23]
B
"""


def test_deploy_model_trained_on_fixture_template(exported_corpus, tmp_path,
                                                  ray_session):
    """The deploy leg trained on fixture pages through a template written
    here: export (fixture), ``train_model(template_path=...)``, then the
    artifact swaps into ``FusedExtractStage`` and zones like the frozen
    model."""
    template = tmp_path / "seg.template"
    template.write_text(SMALL_SEG_TEMPLATE)
    artifact, _ = train_model(
        exported_corpus, model="segmenter", trainer="crf",
        template_path=str(template), train_pct=100, max_iter=25, shards=4,
    )
    assert artifact["template"] == SMALL_SEG_TEMPLATE
    _assert_deploys_like_frozen(artifact, tmp_path)


def _assert_deploys_like_frozen(artifact, tmp_path):
    import random

    from datacat_ray.fixtures import make_catalogue_html
    from datacat_ray.pipelines.extract import FusedExtractStage

    path = save_model_json(str(tmp_path / "seg.json"), artifact)
    st = FusedExtractStage(model_paths={"segmenter": path})
    assert st._seg.raw is not None and st._body.raw is None
    html, _ = make_catalogue_html(random.Random(2), n_entries=5)
    (text, _main, tei, _tb, zones, _e, _lx, n_lines, _nt,
     err) = st._one("http://deploy", "fr", html.encode(), None)
    assert err is None and n_lines > 0
    assert zones and all(z["label"] in artifact["labels"] for z in zones)
    # the trained model was fit on machine labels from the frozen model,
    # so its zoning of a fixture page must agree substantially with it
    frozen = FusedExtractStage()
    zf = frozen._one("http://deploy", "fr", html.encode(), None)[4]
    # compare per-token zone labels
    def tok_labels(zs, n):
        out = [None] * n
        for z in zs:
            for t in range(z["start"], z["end"]):
                out[t] = z["label"]
        return out
    n = max(z["end"] for z in zones)
    a, b = tok_labels(zones, n), tok_labels(zf, n)
    agree = sum(1 for x, y in zip(a, b) if x == y) / n
    assert agree >= 0.7, f"trained-vs-frozen zone agreement {agree:.2f}"


@needs_ref_template
def test_cli_train_command(exported_corpus, tmp_path, ray_session, capsys):
    """The train subcommand end to end through argparse (catches missing
    argument wiring the direct train_model tests can't see)."""
    import os

    from datacat_ray.cli import main

    out = str(tmp_path / "m.json")
    rc = main(["train", exported_corpus, "--trainer", "perceptron",
               "--epochs", "2", "--train-pct", "100", "--out", out])
    assert rc == 0 and os.path.exists(out)
    captured = capsys.readouterr()
    assert "micro" in captured.out
    assert "TRAINING documents" in captured.out  # train_pct=100 disclosure
