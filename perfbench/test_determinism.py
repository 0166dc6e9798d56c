"""Traced passes repeat: same seed, same work counts, reference outputs.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_determinism.py
"""

import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

COUNTS = (
    "engine.nodes_built",
    "engine.nodes_kept",
    "hnf.calls",
    "netkat.normal_form.calls",
    "races.witnesses",
)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat(workload, monkeypatch):
    root = BENCH.parent
    monkeypatch.chdir(root)
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        analyses, expected = run.prepare(workload, 7, work)
        passes = [run.run_pass(k, True, analyses, expected, work, deadline) for k in range(2)]
    assert [p["failed"] for p in passes] == [0, 0], "outputs differ from the references"
    first, second = (p["result"]["layers"] for p in passes)
    for name in COUNTS:
        assert first[name] is not None, f"{name} is absent"
        assert first[name] == second[name], name
