"""Pipeline configuration (SURVEY.md S4/S5 — YAML config → config object).

The reference loads ``resources/config/grobid-datacat.yaml`` into a
``DatacatConfiguration`` bean (``DatacatConfiguration.java:23-36``,
``GrobidDatacatMain.java:56-77``). Here a plain dataclass, loadable from a
JSON/YAML-subset dict, carries the Ray knobs of the one fused extraction
stage (batch size, CPUs per task) and the document guard rails. The stage
runs as plain Ray tasks with a per-worker-process decoder cache
(``pipelines/extract._fused_task``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Ray tasks outstanding in the per-file task loops (``run_extract_job``,
#: ``stages/dedup.keys_by_file``)
MAX_IN_FLIGHT = 64


@dataclass
class StageConfig:
    batch_size: int = 64
    num_cpus: float = 1.0


#: sequence-labeling engines this implementation provides. The reference's
#: YAML schema also admits ``engine: "delft"`` (DL via the DeLFT library,
#: ``DatacatConfiguration.java:38-55``, ``grobid-datacat.yaml:6-30``); that
#: is a declared non-goal here (SURVEY §7.4) — requesting it must fail
#: loudly at config load, never be silently decoded with a wapiti model.
SUPPORTED_ENGINES = ("wapiti",)


def validate_model_specs(specs: list) -> list:
    """Validate a reference-style ``models:`` list (``[{name, engine,
    wapiti: {...}}, ...]``). Returns the specs unchanged; raises
    ``ValueError`` on an unsupported engine."""
    for spec in specs:
        eng = (spec or {}).get("engine", "wapiti")
        if eng not in SUPPORTED_ENGINES:
            raise ValueError(
                f"model {spec.get('name', '?')!r}: engine {eng!r} is "
                "unsupported (wapiti-family only — this implementation "
                "covers the reference's CRF/wapiti engine; 'delft' deep "
                "learning is a declared non-goal, SURVEY §7.4)"
            )
    return specs


@dataclass
class PipelineConfig:
    # guard rails (reference token/block caps, SURVEY.md M3/M4)
    max_tokens: int = 30_000
    max_blocks: int = 3_000
    # page-range limit (SURVEY.md O4; reference: DocumentSource.fromPdf
    # start/end page args, DatacatBodySegmentationParser.java:71-73).
    # -1 = unbounded, matching the reference convention.
    start_page: int = -1
    end_page: int = -1
    # -teiCoordinates analogue (GrobidDatacatMainArgs.java; geometry fields
    # on EntryItem.java:20-31): the web input schema has no PDF geometry,
    # so zone/entry TEI elements carry char-span coords="start,end" into
    # the byte-identity extracted text instead
    tei_coordinates: bool = False
    # -segmentSentences analogue (GrobidDatacatMain.java:123,192-193 —
    # parsed upstream but consumed by no reference parser): optional <s>
    # sentence elements inside body entry TEI, off by default so golden
    # bytes are unchanged
    segment_sentences: bool = False
    # trained model artifacts (cli train JSON) replacing the frozen models:
    # {"segmenter": path, "body": path} — the deploy leg of the
    # model-improvement loop
    model_paths: dict = field(default_factory=dict)
    # reference-style ``models:`` spec list ({name, engine, wapiti:{...}});
    # engines outside SUPPORTED_ENGINES are rejected at load
    models: list = field(default_factory=list)
    # fused extraction stage knobs; batch_size is also the lockstep CRF
    # decode width
    segmenter: StageConfig = field(
        default_factory=lambda: StageConfig(batch_size=128)
    )
    # shared scratch root for the disk-spilling ops (MinHash sig cache, LP
    # edge spill, Jaccard candidate spill, winner parquet, IVF index).
    # Empty = resolve via DATACAT_SCRATCH then tempdir; on a >1-node
    # cluster the tempdir fallback raises (datacat_ray/scratch.py) because
    # node-local spill is unreadable from other nodes.
    scratch_root: str = ""
    # skew: Ray splits blocks larger than this, so a handful of oversized
    # html rows (the fixture's 100-1000x-median tail) isolate into their own
    # blocks/tasks instead of delaying co-batched documents. Applied by
    # session owners (bench/CLI) via apply_data_context — library code never
    # mutates the global DataContext.
    target_block_mb: int = 32

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        cfg = cls()
        for k, v in d.items():
            if not hasattr(cfg, k):
                raise KeyError(f"unknown config key: {k}")
            cur = getattr(cfg, k)
            if isinstance(cur, StageConfig):
                setattr(cfg, k, StageConfig(**v))
            elif k == "models":
                setattr(cfg, k, validate_model_specs(v))
            else:
                setattr(cfg, k, v)
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def apply_data_context(self) -> None:
        """Apply session-level Ray Data knobs. Call from code that OWNS the
        Ray session (bench.py, cli.py, user scripts) — never from library
        stages."""
        from ray.data import DataContext

        from datacat_ray.scratch import set_scratch_root

        ctx = DataContext.get_current()
        ctx.target_max_block_size = self.target_block_mb * 1024 * 1024
        set_scratch_root(self.scratch_root)
