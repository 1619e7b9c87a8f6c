"""datacat-ray: a Ray-Data-native main-content extraction engine.

Built from scratch (not a port) with the data-processing capabilities of the
reference DataCatalogue/grobid-datacat module: Parquet page tables of
Common-Crawl-style web pages are streamed as zero-copy Arrow batches through
``map_batches`` stages — per-url dedup (latest ``warc_ts``), DOM boilerplate
stripping (text-density / link-density), GROBID-style line/token featurization,
a two-stage CRF labeling cascade in warm actor pools, and TEI-XML + flat-text
emission per url.

Reference semantics citations use the convention ``<file>:<lines>`` relative to
``/root/reference/`` (e.g. ``DatacatSegmenterParser.java:794-835``).
"""

__version__ = "0.1.0"


_schema_hash_filter_installed = False


def quiet_schema_hash_warning() -> None:
    """Suppress one known-harmless upstream warning, once per process:
    Ray Data's schema de-dup fast path hashes block schemas, and a schema
    carrying dict metadata (any join output) raises ``unhashable type:
    'dict'``, which transform_pyarrow.py logs at WARNING before falling
    through to the correct slow path (seen in Ray 2.49). Called where the
    join pipelines are built, never at import. Message-targeted filter —
    everything else that logger says still gets through."""
    global _schema_hash_filter_installed
    if _schema_hash_filter_installed:
        return
    import logging

    class _F(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            return "Failed to hash the schemas" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_F())
    _schema_hash_filter_installed = True
