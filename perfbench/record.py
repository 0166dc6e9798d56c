"""Record ``perfbench/references.json``: the expected outputs of every analysis.

Run from the root of a checkout:

    python3 perfbench/record.py

For every generator seed of the single-model workloads and every corpus
model in its mode, runs ``dynarace.cli.run`` and records
``[exit code, report digest, DOT digest]`` (a digest is the first 24 hex
digits of the file's sha256; ``None`` for a file not written).  Before
writing anything it cross-checks each analysis's witness label sequences
against the independent ``tests/oracles.py::rd_oracle``, and that every
seed of a single-model family builds a tree of the same size, so seeds
differ in names only and not in work.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dynarace import cli  # noqa: E402
from dynarace.domains import DynaraceError  # noqa: E402
from dynarace.engine import build_tree, initial_state  # noqa: E402
from dynarace.model import infer_domains, load_model  # noqa: E402
from dynarace.races import extract_witnesses  # noqa: E402
from oracles import rd_oracle, witness_label_sequences  # noqa: E402

import models  # noqa: E402
from run import GENERATORS, REFERENCES, WORKLOADS, outputs  # noqa: E402


class OracleMismatch(Exception):
    pass


def analyse(model_path: Path, unfold: int, mode: str, out: Path) -> list:
    out.mkdir()
    analysis = {"model": str(model_path), "out": str(out)}
    config = cli.RunConfig(str(model_path), unfold, mode, output_file=str(out / "report.txt"))
    code = cli.run(config, stdout=io.StringIO(), stderr=io.StringIO())
    return [code] + outputs(analysis)


def oracle_check(model_path: Path, unfold: int, modes) -> tuple:
    """Witness label sets against ``rd_oracle``.

    Returns the tree size per mode and the number of witness sequences.
    """
    try:
        model = load_model(model_path)
        dom = infer_domains(model)
    except DynaraceError:
        return (), 0
    expected = rd_oracle(initial_state(model, unfold).components, unfold, model, dom)
    sizes = []
    for mode in modes:
        tree = build_tree(model, dom, unfold, mode)
        got = witness_label_sequences(extract_witnesses(tree), dom)
        if got != expected:
            raise OracleMismatch(f"{model_path.name} -u{unfold} -g{mode}: {len(got)} sequences, oracle {len(expected)}")
        sizes.append(len(tree.nodes))
    return tuple(sizes), len(expected)


def record(work: Path) -> dict:
    refs: dict = {}
    by_family: dict = {}
    for workload, (family, unfold, mode) in WORKLOADS.items():
        if mode is not None:
            by_family.setdefault((family, unfold), []).append((workload, mode))
    for (family, unfold), runs in by_family.items():
        sizes = set()
        for seed in range(models.REF_SEEDS):
            path = work / f"{family}-{seed}" / f"{family}.dnk"
            path.parent.mkdir()
            path.write_text(GENERATORS[family](seed), encoding="utf-8")
            tree_sizes, witnesses = oracle_check(path, unfold, [m for _, m in runs])
            sizes.add(tree_sizes)
            print(f"record: {family} seed {seed}: {witnesses} witness sequences match rd_oracle", file=sys.stderr)
            for workload, mode in runs:
                refs.setdefault(workload, {})[str(seed)] = analyse(path, unfold, mode, path.parent / mode)
        if len(sizes) != 1:
            raise OracleMismatch(f"{family}: tree sizes differ between seeds: {sorted(sizes)}")
    unfold = WORKLOADS["corpus"][1]
    refs["corpus"] = {}
    for seed in range(models.CORPUS_SIZE):
        mode = models.corpus_mode(seed)
        path = work / f"corpus-{seed}" / f"m{seed}.dnk"
        path.parent.mkdir()
        path.write_text(models.corpus_model(seed), encoding="utf-8")
        oracle_check(path, unfold, [mode])
        refs["corpus"][str(seed)] = analyse(path, unfold, mode, path.parent / mode)
    print(f"record: corpus: {models.CORPUS_SIZE} models match rd_oracle", file=sys.stderr)
    return refs


def dump(refs: dict) -> str:
    """One reference per line, so a diff shows which analyses changed."""
    blocks = []
    for key, table in refs.items():
        rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(v)}" for s, v in table.items())
        blocks.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        try:
            refs = record(Path(tmp))
        except OracleMismatch as exc:
            print(f"record: {exc}; references not written", file=sys.stderr)
            return 1
    REFERENCES.write_text(dump(refs), encoding="utf-8")
    print(f"record: wrote {REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
