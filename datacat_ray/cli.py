"""Command-line entry (SURVEY.md M17 / §3.1).

The reference dispatches CLI ``-exe`` names to engine methods via
reflection (``GrobidDatacatMain.java:196-207``,
``ProcessEngineDatacat.java:120-151``); here the same surface is an
explicit subcommand registry. Run with::

    python -m datacat_ray.cli <command> [...]
    # or on a cluster:  ray job submit -- python -m datacat_ray.cli extract ...

Commands own the Ray session (init guarded so an already-initialised
driver — e.g. ``ray job submit`` — is respected).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from datacat_ray.config import PipelineConfig

    PipelineConfig().apply_data_context()


def cmd_extract(args) -> int:
    """Checkpointed flagship extraction over a parquet directory
    (resumable: re-invoking skips completed partitions). With
    ``--format warc`` the input is WARC file(s)/directory (Common-Crawl
    container) and output streams to partitioned parquet."""
    _init_ray(args.num_cpus)

    if getattr(args, "output_format", "parquet") == "wet" and \
            getattr(args, "format", "parquet") != "warc":
        print("--output-format wet requires --format warc", file=sys.stderr)
        return 2

    if getattr(args, "format", "parquet") == "warc":
        import os

        from datacat_ray.sources.warc import extract_pages_warc

        if args.no_dedup or args.fragments_per_part != 1:
            print("note: --no-dedup/--fragments-per-part apply to the "
                  "parquet manifest path only; warc input always dedups",
                  file=sys.stderr)
        paths = args.input
        if os.path.isdir(paths):
            paths = sorted(
                os.path.join(paths, f) for f in os.listdir(paths)
                if f.lower().endswith((".warc", ".warc.gz"))
            )
            if not paths:
                print(f"no *.warc / *.warc.gz files found in {args.input}",
                      file=sys.stderr)
                return 2
        from datacat_ray.config import PipelineConfig

        warc_cfg = PipelineConfig()
        warc_cfg.tei_coordinates = args.tei_coordinates
        warc_cfg.segment_sentences = args.segment_sentences
        warc_cfg.model_paths = {
            k: v for k, v in (
                ("segmenter", args.segmenter_model), ("body", args.body_model)
            ) if v
        }
        ds = extract_pages_warc(paths, warc_cfg)
        if getattr(args, "output_format", "parquet") == "wet":
            from datacat_ray.sources.warc import write_wet

            shards = write_wet(
                ds.select_columns(["url", "warc_ts", "main_text"]), args.out
            )
            print(json.dumps({"out": args.out, "format": "warc",
                              "output": "wet", "shards": len(shards)}))
        else:
            ds.write_parquet(args.out)
            print(json.dumps({"out": args.out, "format": "warc"}))
        return 0

    from datacat_ray.state.manifest import run_extract_job

    summary = run_extract_job(
        args.input, args.out,
        fragments_per_part=args.fragments_per_part,
        dedup=not args.no_dedup,
        tei_coordinates=args.tei_coordinates,
        segment_sentences=args.segment_sentences,
        model_paths={
            k: v for k, v in (
                ("segmenter", args.segmenter_model), ("body", args.body_model)
            ) if v
        },
    )
    print(json.dumps(summary))
    return 0


def cmd_synth(args) -> int:
    """Write the deterministic synthetic sale-catalogue page table."""
    from datacat_ray.fixtures import write_pages_parquet

    path = write_pages_parquet(
        args.out, n_urls=args.n_urls, seed=args.seed,
        rows_per_file=args.rows_per_file,
    )
    print(json.dumps({"out": path, "n_urls": args.n_urls, "seed": args.seed}))
    return 0


def cmd_query(args) -> int:
    """Run registered pipeline queries (SURVEY.md §2 operator registry)."""
    _init_ray(args.num_cpus)
    from datacat_ray.pipelines.queries import build_queries

    qs = build_queries()
    names = args.names or sorted(qs)
    for name in names:
        if name not in qs:
            print(f"unknown query: {name} (see `commands`)", file=sys.stderr)
            return 2
        res = qs[name](args.sf_dir)
        n = res.count() if hasattr(res, "count") and not hasattr(res, "num_rows") \
            else getattr(res, "num_rows", None)
        print(json.dumps({"query": name, "rows": n}))
    return 0


def cmd_refeval(args) -> int:
    """Reproduce the reference's train/eval loop on its own committed
    corpus (same raw features + CRF++ template; perceptron estimator) and
    print the eval.txt-style report. ``--weights wapiti`` instead decodes
    the eval split with the reference's SHIPPED trained model (weight-level
    parity, body model only)."""
    _init_ray(args.num_cpus)
    from datacat_ray.pipelines.reference_eval import (
        reference_body_train_eval,
        reference_body_wapiti_eval,
        reference_train_eval,
    )

    if getattr(args, "weights", "train") == "wapiti":
        if args.model != "body":
            print("--weights wapiti requires --model body "
                  "(the segmenter blob is LFS-missing in the reference)")
            return 2
        _, report = reference_body_wapiti_eval()
    elif args.model == "body":
        _, report = reference_body_train_eval(
            epochs=args.epochs, trainer=args.trainer,
            max_iter=args.max_iter or 150,
        )
    else:
        _, report = reference_train_eval(
            train_docs=args.train_docs, epochs=args.epochs,
            shards=args.shards, trainer=args.trainer,
            max_iter=args.max_iter or 1000,
        )
    print(report)
    return 0


def cmd_train(args) -> int:
    """Train a model from a ``<dir>/{tei,raw}`` corpus (reference layout /
    ``create-training`` export) — the DatacatTrainerRunner workflow
    (SURVEY §3.4): seeded train/eval split, eval.txt report on stdout,
    optional self-contained JSON model artifact (``--out``) loadable via
    ``pipelines.trainer.load_model_json``."""
    _init_ray(args.num_cpus)
    from datacat_ray.pipelines.trainer import save_model_json, train_model

    artifact, report = train_model(
        args.corpus, model=args.model, trainer=args.trainer,
        template_path=args.template, train_pct=args.train_pct,
        seed=args.seed, epochs=args.epochs, max_iter=args.max_iter,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.out:
        save_model_json(args.out, artifact)
        print(f"model -> {args.out} ({len(artifact['weights'])} features, "
              f"{artifact['train_docs']} train docs)", file=sys.stderr)
    print(report)
    return 0


def cmd_create_training(args) -> int:
    """Export paired training-bootstrap files per input document — the
    reference's ``createTrainingDatacatSegmentation`` workflow
    (``EngineDatacat.java:166-330``): ``<stem>.training.datacat.tei.xml``
    (pre-labeled zone TEI for human correction) +
    ``<stem>.training.datacat`` (raw 33-field feature lines) under
    ``OUT/tei`` and ``OUT/raw``, the reference's committed corpus layout.
    One pair per url of the parquet pages ``INPUT``, from its latest
    capture (the flagship's keep-latest)."""
    _init_ray(args.num_cpus)
    from datacat_ray.pipelines.create_training import create_training_pairs

    manifest = create_training_pairs(
        args.input, args.out, model=args.model, blank=args.blank
    )
    rows = manifest.take_all()
    n_err = sum(1 for r in rows if r["error"])
    print(json.dumps({
        "out": args.out,
        "n_docs": len(rows),
        "n_errors": n_err,
        "n_lines": sum(r["n_lines"] for r in rows),
    }))
    return 0 if n_err == 0 else 1


def cmd_commands(args) -> int:
    """List available commands + registered queries (the reflective
    usable-method listing of the reference CLI)."""
    from datacat_ray.pipelines.queries import build_oracle_sql, build_queries

    print("commands: extract synth query create-training train refeval "
          "commands")
    oracles = build_oracle_sql()
    for name in sorted(build_queries()):
        tag = "sql-oracle" if name in oracles else "rows-only"
        print(f"query: {name} [{tag}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="datacat-ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract", help=cmd_extract.__doc__)
    p.add_argument("--format", choices=["parquet", "warc"], default="parquet")
    p.add_argument("--output-format", choices=["parquet", "wet"],
                   default="parquet")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--fragments-per-part", type=int, default=1)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--tei-coordinates", action="store_true",
                   help="annotate TEI zone/entry elements with char-span "
                        "coords into the extracted text (the web analogue "
                        "of the reference's -teiCoordinates)")
    p.add_argument("--segment-sentences", action="store_true",
                   help="wrap sentences inside body entry TEI in <s> "
                        "elements (deterministic rule splitter; the "
                        "analogue of the reference's -segmentSentences "
                        "flag, which its module parses but never consumes)")
    p.add_argument("--segmenter-model", default=None,
                   help="trained segmenter artifact JSON (from `train`) "
                        "to use instead of the frozen model")
    p.add_argument("--body-model", default=None,
                   help="trained body artifact JSON (from `train`)")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("synth", help=cmd_synth.__doc__)
    p.add_argument("out")
    p.add_argument("--n-urls", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rows-per-file", type=int, default=200)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("query", help=cmd_query.__doc__)
    p.add_argument("names", nargs="*")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("refeval", help=cmd_refeval.__doc__)
    p.add_argument("--model", choices=["segmenter", "body"], default="segmenter")
    p.add_argument("--weights", choices=["train", "wapiti"], default="train")
    p.add_argument("--train-docs", type=int, default=120)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--trainer", choices=["perceptron", "crf"],
                   default="perceptron",
                   help="crf = OWL-QN elastic-net CRF, the reference's "
                        "actual estimator family (stages/crf_train.py)")
    p.add_argument("--max-iter", type=int, default=None,
                   help="CRF trainer iteration cap (default: 1000 "
                        "segmenter / 150 body)")
    p.set_defaults(fn=cmd_refeval)

    p = sub.add_parser("train", help=cmd_train.__doc__)
    p.add_argument("corpus", help="directory containing tei/ and raw/")
    p.add_argument("--model", choices=["segmenter", "body"],
                   default="segmenter")
    p.add_argument("--trainer", choices=["crf", "perceptron"],
                   default="crf")
    p.add_argument("--template", default=None,
                   help="CRF++ template file (default: the reference's)")
    p.add_argument("--out", default=None, help="model artifact JSON path")
    p.add_argument("--train-pct", type=int, default=90)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--checkpoint-dir", default=None,
                   help="make long CRF runs resumable (atomic parameter "
                        "checkpoints every 10 accepted iterations)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("create-training", help=cmd_create_training.__doc__)
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--model", choices=["segmenter", "body"],
                   default="segmenter")
    p.add_argument("--blank", action="store_true",
                   help="text-only TEI without tags (createTrainingBlank*)")
    p.set_defaults(fn=cmd_create_training)

    p = sub.add_parser("commands", help=cmd_commands.__doc__)
    p.set_defaults(fn=cmd_commands)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
