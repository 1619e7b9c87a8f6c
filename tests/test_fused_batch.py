"""The phased ``FusedExtractStage``: a batch runs the cascade one phase at
a time, and a poison row still costs only itself."""

from __future__ import annotations

import datetime
import random

import pyarrow as pa

import datacat_ray.pipelines.extract as extract
from datacat_ray.fixtures import PAGES_SCHEMA, make_catalogue_html
from datacat_ray.pipelines.extract import RESULT_SCHEMA, FusedExtractStage
from datacat_ray.stages.dom import parse_main_blocks
from datacat_ray.stages.tokenizer import tokenize_document


def _poison_when(fn, marker: str, msg: str):
    """``fn`` (a batch kernel over per-document token lists) that raises
    RuntimeError(msg) on a batch with a document holding ``marker``."""
    def wrapped(tokens, *args):
        if any(marker in toks for toks in tokens):
            raise RuntimeError(msg)
        return fn(tokens, *args)
    return wrapped


def _poisoned_stage(monkeypatch):
    """A stage whose batch-level phases raise on marked documents: line
    encode (POISONLINES), body encode (POISONBODY), lexical encode
    (POISONLEX), the emission gather (a line starting with POISONGATHER),
    and a segmenter column missing from the line codes (POISONKEY)."""
    from datacat_ray.stages.crf import VOCAB

    monkeypatch.setattr(extract, "body_codes", _poison_when(
        extract.body_codes, "POISONBODY", "poisoned body"))
    monkeypatch.setattr(extract, "entry_codes", _poison_when(
        extract.entry_codes, "POISONLEX", "poisoned lexical"))
    line_codes = extract.line_codes

    def poisoned_lines(lines, fields):
        texts = [t for ls in lines for t in ls.text]
        if any("POISONLINES" in t for t in texts):
            raise RuntimeError("poisoned lines")
        codes = line_codes(lines, fields)
        if any("POISONKEY" in t for t in texts):
            # drops a column the segmenter templates read: the
            # emission-key lookup raises
            del codes["lowercase"]
        return codes

    monkeypatch.setattr(extract, "line_codes", poisoned_lines)
    gather = extract._Level.gather

    def poisoned_gather(self, codes, lens):
        marker = VOCAB.index.get("lowercase", {}).get("poisongather")
        if "lowercase" in codes and marker in codes["lowercase"]:
            raise RuntimeError("poisoned gather")
        return gather(self, codes, lens)

    monkeypatch.setattr(extract._Level, "gather", poisoned_gather)
    return FusedExtractStage(max_tokens=1000)


def _pages(rows) -> pa.Table:
    ts = datetime.datetime(2024, 1, 1)
    return pa.Table.from_pydict(
        {"url": [f"u{i}" for i in range(len(rows))],
         "warc_ts": [ts] * len(rows),
         "html": [h for h, _ in rows], "text": [t for _, t in rows],
         "lang": ["fr"] * len(rows)},
        schema=PAGES_SCHEMA,
    )


def test_poison_rows_cost_only_themselves(monkeypatch):
    rng = random.Random(11)

    def page(extra: str = "", n: int = 5) -> bytes:
        html, _ = make_catalogue_html(rng, n_entries=n)
        return html.replace("</body>", f"<p>{extra}</p></body>").encode()

    big = page(n=60)
    n_big = len(tokenize_document(parse_main_blocks(big.decode()))[1])
    _, plain = make_catalogue_html(rng, n_entries=4)
    rows = [
        (page(), None),
        (b"\xff\xfe<<<</p>>>\x00", None),  # garbage html
        (None, None),  # null html, no text fallback
        (big, None),  # over the token cap below
        (page("POISONBODY"), None),
        (None, plain),  # plain-text fallback
        (page("POISONLEX"), None),
        (page("POISONKEY"), None),
        (page(n=8), None),
        (page().replace(b"<body>", b"<body><p>POISONGATHER</p>"), None),
        (page("POISONLINES"), None),
    ]
    batch = _pages(rows)
    st = _poisoned_stage(monkeypatch)
    got = st(batch)
    assert got.schema == RESULT_SCHEMA
    errors = {i: r["error"] for i, r in enumerate(got.to_pylist())
              if r["error"]}
    assert errors == {
        3: f"TOO_MANY_TOKENS: {n_big}",
        4: "RuntimeError: poisoned body",
        6: "RuntimeError: poisoned lexical",
        7: "KeyError: 'lowercase'",
        9: "RuntimeError: poisoned gather",
        10: "RuntimeError: poisoned lines",
    }
    for i, row in enumerate(got.to_pylist()):
        alone = FusedExtractStage(max_tokens=1000)(batch.slice(i, 1))
        assert row == alone.to_pylist()[0], i
        if i in errors:
            assert row["tei"] == "" and row["zones"] == [] and row["n_tokens"] == 0
    assert got.to_pylist()[0]["lexical"], "healthy rows run the lexical level"

    empty = st(batch.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == RESULT_SCHEMA


def test_all_poison_batch_returns_one_error_row_per_input(monkeypatch):
    rng = random.Random(12)

    def page(extra: str) -> bytes:
        html, _ = make_catalogue_html(rng, n_entries=4)
        return html.replace("</body>", f"<p>{extra}</p></body>").encode()

    rows = [(page(m), None) for m in ("POISONBODY", "POISONLEX", "POISONKEY",
                                      "POISONBODY POISONLEX", "POISONLINES")]
    got = _poisoned_stage(monkeypatch)(_pages(rows)).to_pylist()
    assert [r["url"] for r in got] == [f"u{i}" for i in range(len(rows))]
    assert [r["error"] for r in got] == [
        "RuntimeError: poisoned body", "RuntimeError: poisoned lexical",
        "KeyError: 'lowercase'", "RuntimeError: poisoned body",
        "RuntimeError: poisoned lines"]
    assert all(r["tei"] == "" and r["lexical"] == [] for r in got)


def _artifacts(tmp_path) -> dict:
    """Raw-field segmenter and body artifacts (``model_paths``)."""
    import json

    from datacat_ray.stages.models import BODY_LABELS, SEG_LABELS

    def artifact(name, labels, n_fields, template, weights):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "format": "datacat-ray-crf-v1", "labels": list(labels),
            "n_fields": n_fields, "template": template, "weights": weights,
            "transitions": [[a, a, 1.0] for a in labels],
        }))
        return str(path)

    # f23 = rel_doc_position bin (line fields), f18 = digit (token fields)
    seg = artifact("seg", SEG_LABELS, 33, "U00:%x[0,23]\n", {
        f"U00:{b}": {("<front>", "<body>", "<back>")[b * 3 // 12]: 2.0}
        for b in range(12)})
    body = artifact("body", BODY_LABELS, 24, "U00:%x[0,18]\nU01:%x[-1,18]\n", {
        "U00:ALLDIGIT": {"I-<entry>": 3.0}, "U01:ALLDIGIT": {"<entry>": 1.0}})
    return {"segmenter": seg, "body": body}


def test_trained_artifacts_batch_equals_one_row_runs(tmp_path):
    """Trained artifacts (``model_paths``) decode raw ``f0..fN`` columns
    (renamed named columns) in the batch path as in a one-row run."""
    from datacat_ray.fixtures import make_pages_table

    st = FusedExtractStage(model_paths=_artifacts(tmp_path))
    assert st._seg.raw is not None and st._body.raw is not None
    batch = make_pages_table(12, 5)
    got = st(batch).to_pylist()
    assert any(r["entries"] for r in got) and any(r["lexical"] for r in got)
    for i, row in enumerate(got):
        assert row == st(batch.slice(i, 1)).to_pylist()[0], i


def test_output_does_not_depend_on_batch_composition(monkeypatch, tmp_path):
    """Shuffled fixture pages in random batch sizes (1..40), with the
    vocabulary caps, the table cap or both so small that they reset
    between batches: every row equals the one-document run of its page
    (computed before, under the default caps), on all 13 columns, with
    the frozen models and with trained raw-field artifacts."""
    from datacat_ray.fixtures import make_pages_table
    from datacat_ray.stages import crf, token_features

    pages = make_pages_table(60, 9)
    resets = []
    for model_paths in (None, _artifacts(tmp_path)):
        alone = [FusedExtractStage(model_paths=model_paths)(
            pages.slice(i, 1)).to_pylist()[0] for i in range(pages.num_rows)]
        assert any(r["lexical"] for r in alone)
        gen = crf.VOCAB.gen
        for seed, (vocab, tables) in enumerate(
                [(True, False), (False, True), (True, True)]):
            with monkeypatch.context() as m:
                if vocab:
                    m.setattr(crf, "_VOCAB_MAX", 40)
                    m.setattr(token_features, "_STATIC_CACHE_MAX", 30)
                if tables:
                    m.setattr(crf, "_EMISSION_CACHE_MAX", 20)
                rng = random.Random(seed)
                order = list(range(pages.num_rows))
                rng.shuffle(order)
                st = FusedExtractStage(model_paths=model_paths)
                at = 0
                while at < len(order):
                    rows = order[at:at + rng.randint(1, 40)]
                    at += len(rows)
                    got = st(pages.take(rows)).to_pylist()
                    for i, row in zip(rows, got):
                        assert row == alone[i], (seed, i)
        resets.append(crf.VOCAB.gen - gen)
    assert min(resets) >= 6, resets
