"""The boundary the benchmark reads: ``perfbench/tracer.py`` patched into
a CLI run reports every per-layer metric, and its ``render.dot_bytes``
(counted from ``emit_dot``'s return value) is the DOT file's size, and
every distinct state's race check goes through ``engine.first_concurrent_pair``.

A renderer that streamed the DOT past ``emit_dot`` would leave the traced
metrics absent (``None``) and the benchmark's result malformed."""

import io
import sys

import pytest

from conftest import ROOT, SW_MODEL_PATH
from dynarace.cli import RunConfig, run

sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("mode", ["race", "full"])
def test_traced_run_reports_every_metric(mode, tmp_path, capsys):
    config = RunConfig(
        model_path=SW_MODEL_PATH,
        unfold_depth=4,
        graph_mode=mode,
        output_file=tmp_path / "report.txt",
    )
    sink = io.StringIO()
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.analysis(run, config, stdout=sink, stderr=sink)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert code == 1
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["clocks.race_check.calls"] == metrics["engine.distinct_states"]
    trace_lines = [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("trace:")
    ]
    assert trace_lines == []
    dot = tmp_path / (SW_MODEL_PATH.stem + ".dot")
    assert metrics["render.dot_bytes"] == dot.stat().st_size
