"""Linear-chain CRF decode: feature-template expansion → weight lookup →
Viterbi (SURVEY.md ST1/ST2).

Re-creates the *decode semantics* of the reference's Wapiti CRF taggers
(loaded once per parser singleton at ``DatacatSegmenterParser.java:83-85`` and
``DatacatBodySegmentationParser.java:63-67``, applied per document via
``label(features)``). The reference's segmenter weight file is a missing
git-LFS blob (``/root/reference/.MISSING_LARGE_BLOBS``), so exact weight reuse
is impossible; per SURVEY.md §7.0 this repo ships small frozen deterministic
models whose outputs define the golden byte-identity surface.

Feature templates follow the CRF++ template idea
(``resources/dataset/*/crfpp-templates/*.template``: ``U40:%x[-1,7]`` = value
of column 7 at relative row -1) but reference feature *names* instead of
positional columns: a template is ``(tag, [(row_offset, field), ...])`` and
expands at position t to the string ``"tag:v1|v2"``.

Decode (``CRFDecoder.paths``): one lockstep Viterbi over all sequences of a
batch. Its forward pass keeps only the running scores (one max over the
leading axis per step, no backpointers); its backtrack recomputes the
argmax of the one label each sequence follows. ``span_arrays`` then turns
the int paths into spans batch-wide. Viterbi tie-breaks are stable (lowest
label index wins — numpy ``argmax`` returns the first maximal index), so
outputs are identical across runs and parallelism levels (SURVEY.md §7.4
"CRF decode determinism").

Coded emissions (the cascade's path): every feature value is an integer
code in a per-process dictionary of its field (``VOCAB``), keyed by the
value's feature string ``str(v)`` — the string a template expands it to,
so ``True`` and ``1`` are different values. Boundary sentinels
(``_B-1_``, ``_B+1_``) are codes of the same dictionaries. Each template
folds the codes of its refs into one int code per position and keeps a
weight-row table over those codes (the row of ``tag:v1|v2``, zero when the
model has no such feature). The ``(Σn, L)`` emission matrix of a whole
batch is the sum of the templates' row gathers, added in template order
onto a +0.0 row — the same IEEE additions ``_emission_row`` makes, so the
rows are bit-identical to the string path (``emission_matrix``, kept as
the oracle and for perfbench's traced walk). Templates without any
weight add only zeros, so they are skipped, and their fields are never
computed. Memory is bounded: ``VOCAB.bound`` resets ``VOCAB`` past
``_VOCAB_MAX`` codes, or once a cache built on its codes (registered with
``VOCAB.watch``) is full; it is called only between batches, so codes
never change inside one. Every cache built on the codes empties itself
once ``VOCAB.gen`` moved, and a decoder's tables also reset past
``_EMISSION_CACHE_MAX`` entries. The generation starts from a random
per-process nonce, so a decoder that travelled from another process
rebuilds its tables on its first batch instead of gathering rows of the
other process's codes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CRFModel:
    """A frozen linear-chain CRF: label set, feature templates, sparse
    emission weights, dense transition matrix, initial-state scores."""

    labels: tuple[str, ...]
    templates: tuple[tuple[str, tuple[tuple[int, str], ...]], ...]
    weights: dict[str, dict[str, float]]
    transitions: dict[tuple[str, str], float]
    init: dict[str, float] = field(default_factory=dict)
    sticky: float = 0.0  # default self-transition bonus

    def label_index(self) -> dict[str, int]:
        return {lb: i for i, lb in enumerate(self.labels)}

    def transition_matrix(self) -> np.ndarray:
        L = len(self.labels)
        idx = self.label_index()
        T = np.zeros((L, L), dtype=np.float64)
        if self.sticky:
            T += np.eye(L) * self.sticky
        for (a, b), w in self.transitions.items():
            T[idx[a], idx[b]] += w
        return T

    def init_vector(self) -> np.ndarray:
        v = np.zeros(len(self.labels), dtype=np.float64)
        idx = self.label_index()
        for lb, w in self.init.items():
            v[idx[lb]] += w
        return v


_EMISSION_CACHE_MAX = 200_000
_VOCAB_MAX = 200_000
_HALF = 31  # bits of one folded code: codes stay below 2**31


class _Vocab:
    """Per-process value dictionaries, one per feature field: the feature
    string of a value → its code. ``values[field][code]`` is the value
    itself (the first one seen with that string) and ``strs`` its
    string."""

    def __init__(self) -> None:
        # bumped by every reset: codes of older generations are void. It
        # starts from a per-process nonce, so tables built on another
        # process's codes (a decoder pickled out of it) never match
        self.gen = int.from_bytes(os.urandom(8), "little")
        self.size = 0
        self.index: dict[str, dict[str, int]] = {}
        self.values: dict[str, list] = {}
        self.strs: dict[str, list[str]] = {}
        # whether each cache built on the codes is full (see ``watch``)
        self._full: list = []

    def watch(self, full) -> None:
        """Register a cache built on the codes: ``bound`` also resets when
        ``full()`` is true."""
        self._full.append(full)

    def bound(self) -> None:
        """Reset once the dictionaries hold ``_VOCAB_MAX`` codes or a
        watched cache is full; call it only between batches, so codes
        never change inside one."""
        if self.size >= _VOCAB_MAX or any(full() for full in self._full):
            self.reset()

    def reset(self) -> None:
        self.index.clear()
        self.values.clear()
        self.strs.clear()
        self.size = 0
        self.gen += 1

    def _field(self, name: str) -> dict[str, int]:
        d = self.index.get(name)
        if d is None:
            d = self.index[name] = {}
            self.values[name] = []
            self.strs[name] = []
        return d

    def _add(self, name: str, value, s: str) -> int:
        d = self.index[name]
        c = d[s] = len(d)
        self.values[name].append(value)
        self.strs[name].append(s)
        self.size += 1
        return c

    def code(self, name: str, value) -> int:
        s = str(value)
        c = self._field(name).get(s)
        return self._add(name, value, s) if c is None else c

    def codes(self, name: str, values: list) -> np.ndarray:
        """The codes of a value list."""
        d = self._field(name)
        keys = list(map(str, values))
        try:
            return np.fromiter(map(d.__getitem__, keys), np.intp, len(keys))
        except KeyError:
            for v, s in zip(values, keys):
                if s not in d:
                    self._add(name, v, s)
            return np.fromiter(map(d.__getitem__, keys), np.intp, len(keys))

    def lut(self, name: str, values) -> np.ndarray:
        """The codes of ``values`` as an array: ``lut(f, vs)[i]`` codes
        ``vs[i]``, so ``lut(f, vs)[a]`` codes an index array ``a``."""
        return np.array([self.code(name, v) for v in values], dtype=np.intp)

    def ints(self, name: str, values: np.ndarray) -> np.ndarray:
        """The codes of an array of non-negative ints."""
        if not len(values):
            return values.astype(np.intp)
        return self.lut(name, range(int(values.max()) + 1))[values]

    def strings(self, name: str) -> list[str]:
        self._field(name)
        return self.strs[name]

    def decode(self, name: str, codes: np.ndarray) -> list:
        """The values of a code array."""
        self._field(name)
        return list(map(self.values[name].__getitem__, codes.tolist()))


VOCAB = _Vocab()


class _Template:
    """One template's weight rows over its folded codes. A one-ref
    template's code is the field code itself; a conjunction folds its refs
    left to right, each step interning the pair (code so far, next code)
    as a dense id, with the joined feature string of every id."""

    def __init__(self, tag: str, refs, w: dict, L: int) -> None:
        self.head = tag + ":"
        self.refs = refs
        self.w, self.L = w, L
        self.clear()

    def clear(self) -> None:
        self.steps: list[dict[int, int]] = [{} for _ in self.refs[1:]]
        self.names: list[list[str]] = [[] for _ in self.refs[1:]]
        self.rows = np.zeros((0, self.L), dtype=np.float64)
        self.n = 0  # rows filled

    def size(self) -> int:
        return self.n + sum(map(len, self.steps))

    def fold(self, cols: list[np.ndarray], src: list[str], N: int):
        """(code per position, feature string per code)."""
        if not cols:
            return np.zeros(N, dtype=np.intp), [""]
        acc, strs = cols[0], VOCAB.strings(src[0])
        for step, names, c, f in zip(self.steps, self.names, cols[1:],
                                     src[1:]):
            u, inv = np.unique((acc << _HALF) | c, return_inverse=True)
            keys = u.tolist()
            ids = list(map(step.get, keys))
            if None in ids:
                fstrs = VOCAB.strings(f)
                mask = (1 << _HALF) - 1
                for i, k in enumerate(keys):
                    if ids[i] is None:
                        ids[i] = step[k] = len(names)
                        names.append(strs[k >> _HALF] + "|" + fstrs[k & mask])
            acc, strs = np.array(ids, dtype=np.intp)[inv], names
        return acc, strs

    def gather(self, code: np.ndarray, strs: list[str]) -> np.ndarray:
        """The weight rows of a code array."""
        need = int(code.max()) + 1 if len(code) else 0
        if need > self.n:
            if need > len(self.rows):
                rows = np.zeros((max(need, 2 * len(self.rows)), self.L))
                rows[:self.n] = self.rows[:self.n]
                self.rows = rows
            w, head, rows = self.w, self.head, self.rows
            for i in range(self.n, need):
                v = w.get(head + strs[i])
                if v is not None:
                    rows[i] = v
            self.n = need
        return self.rows[code]


class CRFDecoder:
    """Decode-ready compiled form of a CRFModel (build once per actor).

    ``coded_emissions`` scores every position of a batch at once from
    field codes; ``emission_matrix`` is its string-keyed oracle.
    ``paths`` runs one Viterbi over many sequences in lockstep, so the
    per-step numpy dispatch is paid once per batch step instead of once
    per document position; ``viterbi``, ``decode_batch`` and ``decode``
    name its labels (the string path: the tests' oracle and perfbench's
    traced walk)."""

    def __init__(self, model: CRFModel) -> None:
        self.model = model
        self.labels = list(model.labels)
        self.L = len(self.labels)
        self.idx = model.label_index()
        self.trans = model.transition_matrix()
        self.init = model.init_vector()
        # compile sparse weights to {feature_string: np.ndarray[L]}
        self.w: dict[str, np.ndarray] = {}
        for fstr, lw in model.weights.items():
            v = np.zeros(self.L, dtype=np.float64)
            for lb, wt in lw.items():
                v[self.idx[lb]] = wt
            self.w[fstr] = v
        # every (offset, field) any template references, in fixed order: the
        # emission row at position t is a pure function of these values, so
        # rows memoize on that value tuple (token patterns repeat heavily —
        # hit rates >90% on real corpora). ``_ecache`` maps a key to its row
        # index in the dense ``_rows`` matrix; both reset once the key count
        # reaches _EMISSION_CACHE_MAX
        self._refs = tuple(sorted(
            {(off, name) for _, refs in model.templates for off, name in refs}
        ))
        # the feature fields the templates read: the projection a caller
        # featurizes (``emission_matrix`` takes one value list per field)
        self.fields = tuple(sorted({name for _, name in self._refs}))
        # per template: its ``tag:`` prefix and the key positions it reads
        at = {ref: i for i, ref in enumerate(self._refs)}
        self._tmpl_at = [(tag + ":", [at[ref] for ref in refs])
                         for tag, refs in model.templates]
        # the coded path's templates: those with at least one weight (the
        # others add only zeros), in template order, and the fields they
        # read
        heads = set()
        for k in self.w:
            i = k.find(":")
            while i >= 0:
                heads.add(k[:i + 1])
                i = k.find(":", i + 1)
        self._coded = [_Template(tag, refs, self.w, self.L)
                       for tag, refs in model.templates if tag + ":" in heads]
        self.coded_fields = tuple(sorted(
            {name for t in self._coded for _, name in t.refs}))
        self._gen = VOCAB.gen
        self._src: dict[str, str] = {}
        self._ecache: dict[tuple, int] = {}
        self._rows = np.zeros((64, self.L), dtype=np.float64)
        self._label_arr = np.array(self.labels, dtype=object)
        # label index → its base label (``I-<x>`` → ``<x>``, an index into
        # ``base_labels``) and whether it begins a span: ``spans`` reads
        # label paths through these
        bases = [strip_begin_prefix(lb) for lb in self.labels]
        self.base_labels = list(dict.fromkeys(bases))
        self._base = np.array([self.base_labels.index(b) for b in bases],
                              dtype=np.intp)
        self._begins = np.array([lb.startswith("I-") for lb in self.labels],
                                dtype=bool)

    def _emission_row(self, key: tuple) -> np.ndarray:
        """The emission scores of one position from its key of feature
        strings: each template's feature string is its tag and the key
        strings it reads (boundary sentinels are already in the key)."""
        row = np.zeros(self.L, dtype=np.float64)
        lookup = self.w
        for tag, at in self._tmpl_at:
            v = lookup.get(tag + "|".join([key[i] for i in at]))
            if v is not None:
                row += v
        return row

    def emission_matrix(self, cols: dict[str, list], n: int) -> np.ndarray:
        """The ``(n, L)`` emission scores of one sequence of ``n``
        positions, given one value list per field in ``fields``, gathered
        (a copy) from the row cache — so a cache reset at a later call can
        never change rows already handed out. Keys are the values' feature
        strings (``True`` and ``1`` expand differently, so they must not
        share a row). The string-path oracle of ``coded_emissions``."""
        cache = self._ecache
        if len(cache) >= _EMISSION_CACHE_MAX:
            cache.clear()
        # one padded string list per (off, name) ref (a slice plus the
        # boundary sentinels), then ``zip`` builds all n key tuples in C
        keys_by_ref = []
        for off, name in self._refs:
            vals = list(map(str, cols[name]))
            if off < 0:
                keys_by_ref.append(
                    [f"_B{off}_"] * min(-off, n) + vals[: max(n + off, 0)]
                )
            elif off > 0:
                keys_by_ref.append(vals[off:] + [f"_B+{off}_"] * min(off, n))
            else:
                keys_by_ref.append(vals)
        # zero-ref models (e.g. a comments-only template file) produce no
        # columns; zip(*[]) would yield NOTHING, not n empty keys
        keys = list(zip(*keys_by_ref)) if keys_by_ref else [()] * n
        idx = list(map(cache.get, keys))
        if None in idx:
            for t, key in enumerate(keys):
                if idx[t] is None:
                    r = cache.get(key)
                    if r is None:
                        r = cache[key] = len(cache)
                        if r == len(self._rows):
                            self._rows = np.concatenate(
                                [self._rows, np.zeros_like(self._rows)])
                        self._rows[r] = self._emission_row(key)
                    idx[t] = r
        return self._rows[idx]

    def coded_emissions(self, codes: dict[str, np.ndarray], lens,
                        src: dict[str, str] | None = None) -> np.ndarray:
        """The ``(Σn, L)`` emission scores of sequences laid end to end
        (``lens`` their lengths), given the ``VOCAB`` codes of every field
        in ``coded_fields`` over all positions. ``src`` names the ``VOCAB``
        field each of those fields was coded in (default: its own name).
        Out-of-sequence refs read the boundary sentinel codes."""
        src = src or {}
        if (self._gen != VOCAB.gen or src != self._src
                or sum(t.size() for t in self._coded) >= _EMISSION_CACHE_MAX):
            for t in self._coded:
                t.clear()
            self._gen, self._src = VOCAB.gen, src
        lens = np.asarray(lens, dtype=np.intp)
        N = int(lens.sum())
        E = np.zeros((N, self.L), dtype=np.float64)
        at = n = None  # each position's index in its sequence, its length
        shifted: dict[tuple[int, str], np.ndarray] = {}
        for t in self._coded:
            cols = []
            for off, name in t.refs:
                c = codes[name]
                if off and N:
                    key = (off, name)
                    if key not in shifted:
                        if at is None:
                            n = np.repeat(lens, lens)
                            at = np.arange(N) - np.repeat(
                                np.cumsum(lens) - lens, lens)
                        inside = (at + off >= 0) & (at + off < n)
                        j = np.clip(np.arange(off, N + off), 0, N - 1)
                        s = VOCAB.code(src.get(name, name), f"_B{off}_"
                                       if off < 0 else f"_B+{off}_")
                        shifted[key] = np.where(inside, c[j], s)
                    c = shifted[key]
                cols.append(c)
            E += t.gather(*t.fold(cols, [src.get(name, name)
                                         for _, name in t.refs], N))
        return E

    def paths(self, E: np.ndarray, lens) -> np.ndarray:
        """Lockstep Viterbi over ragged sequences laid end to end: ``E``
        is their ``(Σn, L)`` emission matrix and ``lens`` their lengths;
        returns their int label paths laid out the same way.

        Sequences run longest first, so the sequences still active at step
        ``s`` are always a prefix ``[:k]``, and the slots are laid out
        step-major — step ``s`` owns one contiguous ``[k]`` slice of them
        (no padding to the longest sequence). The forward pass keeps no
        backpointers: ``D[j, slot]`` starts as the slot's emission and
        gains the best score of reaching label ``j`` there, one broadcast
        add and one max over the leading axis of ``(L, L, k)`` per step.
        The backtrack recomputes only the entries it follows: the label
        before label ``j`` of a slot is the first maximal ``i`` of
        ``D[i, prev] + trans[i, j]``, an argmax over ``(k, L)`` per step.
        Each forward step makes the same IEEE ``delta[i] + trans[i, j]``
        and ``+ E[j]`` adds as a per-sequence Viterbi, the backtrack the
        same ``delta[i] + trans[i, j]`` adds again, and numpy's first-max
        ``argmax`` is the stable tie rule (lowest label index wins), so
        paths are bit-identical to one-at-a-time decoding."""
        seq_lens = np.asarray(lens, dtype=np.intp)
        order = np.argsort(-seq_lens, kind="stable")
        lens = seq_lens[order]
        T = int(lens[0]) if len(lens) else 0
        if T == 0:
            return np.zeros(0, dtype=np.intp)
        # active[s] = number of sequences longer than s (a prefix of the
        # sorted order); step s owns slots start[s]:start[s + 1]
        active = np.searchsorted(-lens, -np.arange(T), side="left")
        start = np.zeros(T + 1, dtype=np.intp)
        np.cumsum(active, out=start[1:])
        k0 = int(active[0])
        lens = lens[:k0]
        # step-major slot of (sorted sequence b, step s) is start[s] + b;
        # its row in the input is src
        seq = np.repeat(np.arange(k0), lens)
        step = np.arange(len(seq)) - np.repeat(np.cumsum(lens) - lens, lens)
        slot = start[step] + seq
        src = np.repeat((np.cumsum(seq_lens) - seq_lens)[order[:k0]],
                        lens) + step
        D = np.empty((self.L, len(seq)), dtype=np.float64)
        D[:, slot] = E[src].T
        D[:, :k0] += self.init[:, None]
        trans = self.trans[:, :, None]  # trans[i, j, b]
        bounds = start.tolist()
        for s in range(1, T):
            lo, hi, p = bounds[s], bounds[s + 1], bounds[s - 1]
            d = D[:, lo:hi]
            d += np.maximum.reduce(D[:, None, p:p + hi - lo] + trans, axis=0)
        # backtrack in lockstep from each sequence's first maximal final
        # score: step s reads its labels from its own slots of ``path``
        # and writes the labels before them into step s - 1's. Slot-major
        # copies make each argmax run along rows; each row of ``D`` is
        # read once, so the adds go in place
        path = np.empty(len(seq), dtype=np.intp)
        last = start[lens - 1] + np.arange(k0)
        path[last] = D[:, last].argmax(0)
        D, trans = D.T.copy(), self.trans.T.copy()  # trans[j, i]
        for s in range(T - 1, 0, -1):
            lo, hi, p = bounds[s], bounds[s + 1], bounds[s - 1]
            d = D[p:p + hi - lo]
            d += trans[path[lo:hi]]
            d.argmax(1, out=path[p:p + hi - lo])
        # back to the input's layout
        out = np.empty(len(path), dtype=np.intp)
        out[src] = path[slot]
        return out

    def viterbi(self, ems: list[np.ndarray]) -> list[list[str]]:
        """The label names of the paths of sequences given one ``(n_b,
        L)`` emission matrix each, one list per sequence."""
        if not ems:
            return []
        lens = [len(e) for e in ems]
        names = self._label_arr[self.paths(np.concatenate(ems), lens)]
        return [p.tolist() for p in np.split(names, np.cumsum(lens)[:-1])]

    def span_arrays(self, path: np.ndarray, idx: np.ndarray, lens):
        """The spans of int label paths laid end to end (``lens`` their
        lengths; ``idx`` the absolute offset of every position), as
        arrays: (base label index into ``base_labels``, start, end, first
        position of the span), batch-wide (``span_starts``). Spans are
        half-open: ``end`` is one past the last position's offset."""
        base = self._base[path]
        lens = np.asarray(lens, dtype=np.intp)
        first = span_starts(base, self._begins[path],
                            (np.cumsum(lens) - lens)[lens > 0])
        last = np.append(first[1:], len(path))[:len(first)] - 1
        return base[first], idx[first], idx[last] + 1, first

    def decode_batch(self, seqs: list[list[dict]]) -> list[list[str]]:
        """One label list per sequence of feature dicts (no ``I-`` prefixes
        — run starts are derivable), decoded together in lockstep."""
        return self.viterbi([
            self.emission_matrix(
                {name: [f[name] for f in feats] for name in self.fields},
                len(feats))
            for feats in seqs
        ])

    def decode(self, feats: list[dict]) -> list[str]:
        """``decode_batch`` of one sequence."""
        return self.decode_batch([feats])[0]


def parse_crfpp_template(
    text: str, field_names: list[str]
) -> tuple[tuple[str, tuple[tuple[int, str], ...]], ...]:
    """CRF++ template-file parser (SURVEY.md §2.9 feature-template surface;
    grammar of ``resources/dataset/*/crfpp-templates/*.template``):

    - ``U00:%x[-4,0]`` — unigram feature: tag ``U00``, value of column 0 at
      relative row -4; ``field_names[col]`` maps positional columns to this
      engine's named feature fields.
    - ``U0A:%x[-1,0]/%x[0,0]`` — conjunction of several refs.
    - ``#`` comments and blank lines skipped; a bare ``B`` line (bigram /
      transition marker) is skipped — transitions are dense in ``CRFModel``.

    CRF++ semantics kept faithfully, including the duplicate-tag collision
    foot-gun (the reference template reuses ``U00`` for different columns;
    expanded features collide exactly as they would in CRF++, because the
    feature id is ``tag:joined-values``)."""
    import re

    ref_re = re.compile(r"%x\[(-?\d+),(\d+)\]")
    out: list[tuple[str, tuple[tuple[int, str], ...]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "B":
            continue
        tag, _, body = line.partition(":")
        refs = tuple(
            (int(m.group(1)), field_names[int(m.group(2))])
            for m in ref_re.finditer(body)
        )
        if refs:
            out.append((tag, refs))
    return tuple(out)


def with_begin_prefix(labels: list[str]) -> list[str]:
    """Add the reference's ``I-`` begin prefix at run starts (the labeled
    sequence format consumed at ``DatacatSegmenterParser.java:864-952``)."""
    out: list[str] = []
    prev: str | None = None
    for lb in labels:
        out.append(f"I-{lb}" if lb != prev else lb)
        prev = lb
    return out


def strip_begin_prefix(label: str) -> str:
    return label[2:] if label.startswith("I-") else label


def span_starts(base: np.ndarray, begins: np.ndarray, starts) -> np.ndarray:
    """The positions where a span of a labeled sequence starts: ``base[t]``
    is the base label index of position ``t`` and ``begins[t]`` marks an
    ``I-`` label. A span starts at position 0, at an ``I-`` label, at a
    change of base label, and at every position in ``starts`` (the first
    position of each of several sequences laid end to end)."""
    if len(base) == 0:
        return np.zeros(0, dtype=np.intp)
    brk = begins.copy()
    brk[0] = True
    brk[1:] |= base[1:] != base[:-1]
    brk[starts] = True
    return np.flatnonzero(brk)
