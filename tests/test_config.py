"""PipelineConfig loading — reference-style ``models:`` spec validation.

The reference's YAML admits ``engine: wapiti|delft`` per model
(``DatacatConfiguration.java:38-55``, ``grobid-datacat.yaml:6-30``); this
implementation covers the wapiti family only (SURVEY §7.4), so a config
requesting ``delft`` must fail loudly at load time.
"""

from __future__ import annotations

import pytest

from datacat_ray.config import PipelineConfig, validate_model_specs


def test_wapiti_model_spec_accepted():
    cfg = PipelineConfig.from_dict(
        {
            "models": [
                {
                    "name": "datacat-segmenter",
                    "engine": "wapiti",
                    "wapiti": {"epsilon": 1e-7, "window": 50},
                },
                # engine omitted defaults to wapiti (reference default)
                {"name": "datacat-body-segmentation"},
            ]
        }
    )
    assert len(cfg.models) == 2


def test_delft_engine_rejected():
    with pytest.raises(ValueError, match="unsupported .wapiti-family only"):
        PipelineConfig.from_dict(
            {"models": [{"name": "datacat-segmenter", "engine": "delft"}]}
        )


def test_validate_model_specs_names_offending_model():
    with pytest.raises(ValueError, match="datacat-body-segmentation"):
        validate_model_specs(
            [{"name": "datacat-body-segmentation", "engine": "delft"}]
        )


@pytest.mark.parametrize("d, exc", [
    ({"execution": "tasks"}, KeyError),
    ({"output_partitions": 0}, KeyError),
    ({"lang_fallback": "fr"}, KeyError),
    ({"segmenter": {"concurrency": [1, 2]}}, TypeError),
])
def test_removed_config_keys_are_unknown(d, exc):
    """Knobs nothing read are gone: a config that still sets one fails at
    load instead of being silently ignored."""
    with pytest.raises(exc):
        PipelineConfig.from_dict(d)


def test_package_import_installs_no_ray_log_filter():
    """``import datacat_ray`` alone leaves Ray's loggers alone; the
    schema-hash filter arrives once, when a join pipeline is built."""
    import subprocess
    import sys

    code = (
        "import logging\n"
        "lg = logging.getLogger("
        "'ray.data._internal.arrow_ops.transform_pyarrow')\n"
        "import datacat_ray\n"
        "assert lg.filters == [], lg.filters\n"
        "datacat_ray.quiet_schema_hash_warning()\n"
        "datacat_ray.quiet_schema_hash_warning()\n"
        "assert len(lg.filters) == 1, lg.filters\n"
        "rec = lambda msg: logging.LogRecord(lg.name, logging.WARNING, '', 0,"
        " msg, None, None)\n"
        "assert not lg.filter(rec('Failed to hash the schemas (x): y'))\n"
        "assert lg.filter(rec('something else'))\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
