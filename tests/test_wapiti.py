"""Wapiti model reader + decoder (weight-level parity with the reference's
shipped body-segmentation model)."""

import os

import numpy as np
import pytest

from datacat_ray.pipelines.reference_eval import BODY_WAPITI_MODEL, REF_BODY
from datacat_ray.stages.wapiti import (
    iob_to_flat,
    load_wapiti_model,
    parse_wapiti_model,
    wapiti_viterbi,
)

REF_MODEL = (
    "/root/reference/resources/models/datacat-body-segmentation/model.wapiti"
)

TINY = """#mdl#2#3
#rdr#2/1/0
11:u00:%x[0,0],
1:b,
#qrk#2
1:A,
1:B,
#qrk#3
5:u00:x,
5:u00:y,
1:b,
0=0x1p+0
3=0x1p+0
5=0x1.4p+2
"""


def test_parse_tiny_model():
    m = parse_wapiti_model(TINY)
    assert m.mtype == 2 and m.labels == ["A", "B"]
    assert len(m.obs_ids) == 3 and len(m.theta) == 2 + 2 + 4
    assert m.theta[0] == 1.0 and m.theta[3] == 1.0 and m.theta[5] == 5.0


def test_tiny_viterbi_transition_dominates():
    m = parse_wapiti_model(TINY)
    # unigram alone says [A, A]; the A→B transition bonus (5.0) flips the
    # second label to B
    assert wapiti_viterbi(m, [["x"], ["x"]]) == ["A", "B"]
    assert wapiti_viterbi(m, [["y"]]) == ["B"]
    assert wapiti_viterbi(m, []) == []


@pytest.mark.skipif(not os.path.exists(REF_MODEL),
                    reason="reference checkout absent")
def test_parse_reference_model():
    m = load_wapiti_model(REF_MODEL)
    assert m.mtype == 2  # CRF
    assert m.n_labels == 8 and "<entry>" in m.labels
    assert len(m.patterns) == 79
    assert int((m.theta != 0).sum()) == 1039  # matches #mdl# active count
    assert iob_to_flat("I-<entry>") == "<entry>"
    assert iob_to_flat("<title>") == "<title>"


@pytest.mark.skipif(
    not (os.path.exists(BODY_WAPITI_MODEL) and os.path.isdir(REF_BODY)),
    reason="reference checkout absent")
def test_reference_weights_label_eval_corpus(ray_session):
    """The engine decodes the committed eval raw files with the
    reference's OWN trained weights — micro F1 ~0.98 (a broken feature
    index or expansion would collapse this to noise)."""
    from datacat_ray.pipelines.reference_eval import reference_body_wapiti_eval

    metrics, report = reference_body_wapiti_eval()
    micro = {r["label"]: r for r in metrics.to_pylist()}["__micro__"]
    assert micro["f1_micros"] >= 900_000
    assert "Field-level results" in report
