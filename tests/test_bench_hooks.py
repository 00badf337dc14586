"""The program names that the benchmark's traced run wraps all exist.

`bench/layers.py` patches package attributes by name, so a deleted or
renamed one would otherwise fail only a traced benchmark run.
"""

import inspect
import sys
from pathlib import Path

import pytest

from pairtraj import cli, clustering, evaluation, procrustes

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans

    yield layers, spans
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


def test_every_traced_name_exists_and_the_patches_undo(bench):
    layers, spans = bench
    modules = (cli, clustering, evaluation, procrustes)
    before = [dict(vars(m)) for m in modules], dict(clustering.ROUTES)
    patches = spans.Patches()
    try:
        layers.instrument(spans.Recorder(), patches)
        assert cli.distance_matrix is not before[0][0]["distance_matrix"]
    finally:
        patches.undo()
    assert ([dict(vars(m)) for m in modules], dict(clustering.ROUTES)) == before


def test_worker_count_keyword_the_trace_times_is_kept():
    assert "workers" in inspect.signature(procrustes.distance_matrix).parameters
