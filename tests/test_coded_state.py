"""Coded state belongs to its process: a ``FusedExtractStage`` that ran in
one process and is unpickled in another, whose ``VOCAB`` gave the same
values other codes, decodes exactly like a stage built there."""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys

import pyarrow.parquet as pq

from datacat_ray.fixtures import make_pages_table
from datacat_ray.pipelines.extract import RESULT_SCHEMA, FusedExtractStage
from datacat_ray.stages.line_features import _FIELD_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# In the other process: run a stage over other pages first, so the
# vocabulary codes their values, then the unpickled warm stage and a fresh
# one over the same pages; print the columns that differ.
_CHILD = """
import pickle, sys
import pyarrow.parquet as pq
from datacat_ray.pipelines.extract import FusedExtractStage
other, pages, blob, model_paths = sys.argv[1:]
mp = {"segmenter": model_paths} if model_paths else None
FusedExtractStage(model_paths=mp)(pq.read_table(other))
with open(blob, "rb") as fh:
    warm = pickle.load(fh)
pages = pq.read_table(pages)
got, want = warm(pages), FusedExtractStage(model_paths=mp)(pages)
print(",".join(c for c in want.column_names
               if got[c].to_pylist() != want[c].to_pylist()))
"""


def _artifact(path: str) -> str:
    """A trained-shape segmenter artifact (templates over the raw columns
    ``f{i}``) whose weights make the zoning turn on each line's first
    character and digit class."""
    rng = random.Random(3)
    labels = ["<front>", "<body>", "<back>", "<other>"]
    p1, digit = _FIELD_NAMES.index("prefix1"), _FIELD_NAMES.index("digit")
    weights = {f"U00:{c}": {lb: rng.uniform(-3, 3) for lb in labels}
               for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "0123456789.-(«"}
    weights.update({f"U01:{v}": {lb: rng.uniform(-1, 1) for lb in labels}
                    for v in ("ALLDIGIT", "NODIGIT", "CONTAINSDIGITS")})
    art = {"format": "datacat-ray-crf-v1", "labels": labels,
           "n_fields": len(_FIELD_NAMES),
           "template": f"U00:%x[0,{p1}]\nU01:%x[0,{digit}]\nB\n",
           "weights": weights,
           "transitions": [[a, b, 1.0 if a == b else 0.0]
                           for a in labels for b in labels]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(art, fh)
    return path


def test_a_warm_stage_in_another_process_decodes_like_a_fresh_one(tmp_path):
    """All 13 columns of a warm stage shipped to another process equal a
    fresh stage's there: for the frozen models and for a raw-field
    segmenter artifact."""
    table = make_pages_table(n_urls=60, seed=11)
    warm_on, pages, other = table.slice(0, 20), table.slice(20, 20), \
        table.slice(40)
    pq.write_table(pages, tmp_path / "pages.parquet")
    pq.write_table(other, tmp_path / "other.parquet")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for model_path in ("", _artifact(str(tmp_path / "seg.json"))):
        st = FusedExtractStage(
            model_paths={"segmenter": model_path} if model_path else None)
        st(warm_on)
        blob = tmp_path / "stage.pkl"
        blob.write_bytes(pickle.dumps(st))
        res = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path / "other.parquet"),
             str(tmp_path / "pages.parquet"), str(blob), model_path],
            capture_output=True, text=True, env=env, timeout=600)
        assert res.returncode == 0, res.stderr[-2000:]
        assert res.stdout.strip() == "", (
            f"columns differ ({model_path or 'frozen models'}): "
            f"{res.stdout.strip()}")
    assert len(RESULT_SCHEMA) == 13
