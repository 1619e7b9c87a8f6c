"""Host-speed probe: a fixed Ray Data job made of the benchmark's own code.

The host's CPUs are shared with other machines' work, and the speed one of
them delivers swings by 15-40% over minutes: slower and faster stretches
last longer than a run, so no amount of averaging inside a run removes
them. The probe measures that speed next to every timed job, on the same
CPU and through the same Ray Data machinery (a streaming read, a map over
four blocks of pure-Python text work), so ``docs_per_s_norm`` can report
the job's throughput at a fixed host speed.

Nothing here comes from the program: the probe runs under a default
``DataContext`` (not the one ``PipelineConfig.apply_data_context`` set up)
and its map function is shipped to the workers by value, so a change to
``datacat_ray/`` cannot make the probe faster or slower.
"""

from __future__ import annotations

import re
import sys
import time

# median probe seconds on the reference host (one pinned vCPU of a 4-vCPU
# VM); docs_per_s_norm is the throughput a host of that speed would show
REF_S = 0.445

_BLOCKS = 4
_TEXT = " ".join(
    f"Entry {i}: Lot {i * 7 % 113} - item w{i % 17} {i * 3.5:.2f} GBP "
    f"(c. {1800 + i % 200})"
    for i in range(70)
)
_WORD = re.compile(r"\w+|[^\w\s]")


def _text_work() -> float:
    """About 45 ms of tokenising, feature counting and a list-of-floats
    dynamic programme: the instruction mix of the extraction kernel."""
    toks = _WORD.findall(_TEXT)
    feats: dict = {}
    for i, t in enumerate(toks):
        k = (t.lower(), t[:2], t[-2:], t.isdigit(), i % 7)
        feats[k] = feats.get(k, 0) + 1
    n_labels = 12
    prev = [0.0] * n_labels
    for t in range(len(toks)):
        e = [((t * 31 + j * 17) % 97) / 97.0 for j in range(n_labels)]
        prev = [max(prev[i] + ((i * j) % 5) * 0.1 for i in range(n_labels)) + e[j]
                for j in range(n_labels)]
    return prev[0] + len(feats)


def _map(batch):
    _text_work()
    return batch


def probe_s() -> float:
    """Wall seconds of one probe job (Ray must be running)."""
    import ray.cloudpickle
    import ray.data
    from ray.data import DataContext

    ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])
    program_ctx = DataContext.get_current()
    ctx = DataContext()
    ctx.enable_progress_bars = False
    DataContext._set_current(ctx)
    try:
        t0 = time.perf_counter()
        ray.data.range(2 * _BLOCKS, override_num_blocks=_BLOCKS).map_batches(
            _map, batch_size=None).materialize()
        return time.perf_counter() - t0
    finally:
        DataContext._set_current(program_ctx)
