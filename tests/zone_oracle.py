"""The per-line oracle of the segmenter's zone decode: label names per line
coalesced into runs, each line mapped to its first token by a loop over
the tokens, and the zone TEI rendered run by run. The stage decodes zones
batch-wide from int paths (``FusedExtractStage._zones``) and renders
them with ``tei.segmenter_tei``; both must equal these."""

from __future__ import annotations

from datacat_ray.stages.crf import strip_begin_prefix
from datacat_ray.stages.tei import _coords_attr, lines_tei, tei_document


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
    token stream: each line's tokens (plus the newline token that follows it)
    belong to that line's zone."""
    if not line_labels:
        return []
    # first token index of each line
    n_lines = len(line_labels)
    first_tok = [n_tokens] * (n_lines + 1)
    for t in range(n_tokens - 1, -1, -1):
        first_tok[token_line[t]] = t
    first_tok[n_lines] = n_tokens
    # lines with no tokens inherit the next line's start
    for i in range(n_lines - 1, -1, -1):
        if first_tok[i] == n_tokens and i + 1 <= n_lines:
            first_tok[i] = first_tok[i + 1]
    zones = []
    for lb, a, b in line_runs(line_labels):
        start = first_tok[a]
        end = first_tok[b + 1]
        zones.append({"label": lb, "start": start, "end": end})
    return zones


def segmenter_tei(url, lang, lines, line_labels: list[str],
                  coords=None) -> str:
    """Zone-tagged TEI over labeled lines, one ``line_runs`` run per
    zone element."""
    parts = []
    for k, (label, a, b) in enumerate(line_runs(line_labels)):
        tag = label[1:-1]  # "<front>" → "front"
        content = lines_tei(lines.text[a : b + 1])
        parts.append(
            f"\t\t\t<{tag}{_coords_attr(coords, k)}>{content}</{tag}>\n"
        )
    return tei_document(url, lang, "".join(parts))
