"""CRF label decode → zone spans, and zone slicing (SURVEY.md M13 + M14).

Reference semantics: ``BasicStructureBuilder.generalResultSegmentation``
(call site ``DatacatSegmenterParser.java:148-151``) walks the labeled line
sequence, strips ``I-`` prefixes and coalesces runs into position-ordered
``DocumentPiece`` spans; ``doc.getDocumentPart(BODY)``
(``DatacatBodySegmentationParser.java:97, 160-237``) then projects the token
stream onto the ``<body>`` spans.

Here spans are half-open ``(label, start, end)`` token-offset structs over
the document's layout token stream (FIXTURES.md §2 ``zones`` schema); all
row-local — no shuffle.
"""

from __future__ import annotations

from bisect import bisect_left

import pyarrow as pa

from datacat_ray.stages.crf import strip_begin_prefix

ZONE_STRUCT = pa.struct(
    [("label", pa.string()), ("start", pa.int64()), ("end", pa.int64())]
)


def line_runs(line_labels: list[str]) -> list[tuple[str, int, int]]:
    """Coalesce per-line labels into runs ``(label, first_line, last_line)``
    (inclusive); ``I-`` prefixes are stripped before comparison."""
    runs: list[tuple[str, int, int]] = []
    for i, raw in enumerate(line_labels):
        lb = strip_begin_prefix(raw)
        if runs and runs[-1][0] == lb:
            runs[-1] = (lb, runs[-1][1], i)
        else:
            runs.append((lb, i, i))
    return runs


def decode_zones(
    line_labels: list[str], token_line: list[int], n_tokens: int
) -> list[dict]:
    """Labels per line → zone spans in token offsets. Spans partition the
    token stream: each line's tokens (plus the newline token that follows
    it) belong to that line's zone: a run starts at the first token of
    its first line, or of a later line when that one has none
    (``bisect_left`` in the non-decreasing ``token_line``). The string
    form of the stage's batch-wide zones, for perfbench's traced walk."""
    runs = line_runs(line_labels)
    at = [bisect_left(token_line, a) for _, a, _ in runs] + [n_tokens]
    return [{"label": lb, "start": s, "end": e}
            for (lb, _, _), s, e in zip(runs, at, at[1:])]


def zone_token_indices(zones: list[dict], label: str) -> list[tuple[int, int]]:
    """Token (start, end) ranges of all zones with the given label, in
    document order."""
    return [(z["start"], z["end"]) for z in zones if z["label"] == label]
