"""dynarace benchmark: time to verdict on four seeded model families.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each analysis calls ``dynarace.cli.run`` in a child interpreter, with
``src`` on ``PYTHONPATH``; a single-model workload starts a fresh
interpreter per analysis (one CLI call each), ``corpus`` runs its 600
analyses in one interpreter per pass.  Passes repeat until ``S`` seconds
have gone.  Every analysis's exit code and the sha256 of its report and
DOT file are checked against ``perfbench/references.json``.  The last line
of stdout is one JSON object with the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics, taken from
traced passes alternating with untraced ones (``--trace 1``).

Every time reported is scaled to a fixed machine speed: a fixed pure-Python
loop (``calibrate``) is timed before each child starts and once after the
last, and a child's times are multiplied by ``NOMINAL_CALIBRATION_S`` over
the mean loop time just before and just after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import models

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"

#: workload -> (model family, unfold depth, mode); mode None alternates.
WORKLOADS = {
    "fanout-full": ("fanout", 6, "full"),
    "fanout-race": ("fanout", 6, "race"),
    "packet-space": ("packet-space", 1, "race"),
    "corpus": ("corpus", 3, None),
}
GENERATORS = {"fanout": models.fanout_model, "packet-space": models.packet_space_model}

SETUP_RUNS = 9
RUN_LIMIT_S = 170  # every child is killed before the run would pass this

#: The calibration loop's time at the reference speed; it sets the unit of
#: every reported time (about the loop's median on a 2.1 GHz Xeon VM).
NOMINAL_CALIBRATION_S = 0.15


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def __eq__(self, other):
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now.

    On a shared host the speed can drift by a quarter for minutes at a
    time, and the analyses slow down with it.  The loop does the kind of
    work they do (small objects hashed into dicts, frozensets, sorting,
    string formatting) and uses nothing from dynarace.  It runs in the
    benchmark's own process just before each child starts, so the program
    cannot change its cost.
    """
    start = time.perf_counter()
    seen = {}
    batch = []
    for i in range(60000):
        item = _Item(i % 503, "v%d" % (i % 97), (i % 7, i % 11))
        seen[item] = seen.get(item, 0) + 1
        batch.append(frozenset({item.c, (item.a,)}))
        if len(batch) > 1000:
            batch.sort(key=len)
            batch.clear()
    return time.perf_counter() - start


def digest(path: Path) -> str | None:
    """The reference form of an output file: a sha256 prefix, None if absent."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()[:24]
    except FileNotFoundError:
        return None


def outputs(analysis: dict) -> list:
    """The report and DOT digests of one analysis, in the references' order."""
    out = Path(analysis["out"])
    dot = out / (Path(analysis["model"]).stem + ".dot")
    return [digest(out / "report.txt"), digest(dot)]


def prepare(workload: str, seed: int, work: Path) -> tuple:
    """Write the models of one run; return the analyses of a pass and their references.

    Analysis ``out`` directories are relative to the pass directory.
    """
    family, unfold, mode = WORKLOADS[workload]
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    model_dir = work / "models"
    model_dir.mkdir()
    if family == "corpus":
        analyses, expected = [], []
        for k, (model_seed, m) in enumerate(models.corpus_entries(seed)):
            path = model_dir / f"m{model_seed}.dnk"
            path.write_text(models.corpus_model(model_seed), encoding="utf-8")
            analyses.append({"model": str(path), "unfold": unfold, "mode": m, "out": f"a{k}"})
            expected.append(refs["corpus"][str(model_seed)])
        return analyses, expected
    variant = seed % models.REF_SEEDS
    path = model_dir / f"{family}.dnk"
    path.write_text(GENERATORS[family](variant), encoding="utf-8")
    analysis = {"model": str(path), "unfold": unfold, "mode": mode, "out": "."}
    return [analysis], [refs[workload][str(variant)]]


def child_env() -> dict:
    src = str(Path.cwd() / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def run_child(job: dict, job_path: Path, deadline: float) -> tuple:
    """Calibrate, then run one child interpreter on ``job``.

    Returns the child's result (None if it failed), its wall time and the
    calibration loop's time.
    """
    job_path.write_text(json.dumps(job), encoding="utf-8")
    calibration_s = calibrate()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_path)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        print(f"bench: child timed out on {job_path.name}", file=sys.stderr)
        return None, time.perf_counter() - start, calibration_s
    wall = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: child exited {proc.returncode}", file=sys.stderr)
        return None, wall, calibration_s
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall, calibration_s


def measure_setup(work: Path, deadline: float) -> tuple | None:
    """``import dynarace.cli`` times of fresh interpreters, and the calibrations.

    None if a child cannot import the package.
    """
    job = {"trace": False, "analyses": []}
    samples, calibrations = [], []
    for k in range(SETUP_RUNS + 1):  # the first one may compile bytecode
        result, _, calibration_s = run_child(job, work / "setup.json", deadline)
        if result is None:
            return None
        calibrations.append(calibration_s)
        if k:
            samples.append(result["setup_s"])
    return samples, calibrations


def run_pass(index: int, trace: bool, analyses: list, expected: list, work: Path, deadline: float) -> dict:
    """One child interpreter over the analyses of a pass; outputs are checked."""
    pass_dir = work / f"p{index}"
    job_analyses = []
    for a in analyses:
        out = pass_dir / a["out"]
        out.mkdir(parents=True, exist_ok=True)
        job_analyses.append(dict(a, out=str(out)))
    result, wall, calibration_s = run_child(
        {"trace": trace, "analyses": job_analyses}, work / f"p{index}.json", deadline
    )
    failed = 0
    if result is None:
        failed = len(analyses)
    else:
        for a, want, code in zip(job_analyses, expected, result["exits"]):
            got = [code] + outputs(a)
            if got != want:
                failed += 1
                print(f"bench: {a['model']} ({a['mode']}): got {got}, want {want}", file=sys.stderr)
    shutil.rmtree(pass_dir)
    return {
        "trace": trace,
        "result": result,
        "wall_s": wall,
        "calibration_s": calibration_s,
        "attempted": len(analyses),
        "failed": failed,
    }


def end_to_end(passes: list, setup_s: float) -> dict:
    done = [p for p in passes if p["result"] is not None]
    samples = [t * p["scale"] for p in done for t in p["result"]["verdict_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out = {"setup_s": setup_s, "ok_frac": (attempted - failed) / attempted}
    if samples:
        out["verdict_s"] = statistics.median(samples)
        out["analyses_per_s"] = len(samples) / sum(p["wall_s"] * p["scale"] for p in done)
        out["peak_rss_mb"] = statistics.median(p["result"]["peak_rss_mb"] for p in done)
    return out


def per_layer(passes: list) -> tuple:
    """Per-layer metrics of the traced passes, and how many passes disagreed.

    Times (``*_s``) are medians over traced passes; counts and ratios must
    repeat exactly from pass to pass, and a pass whose counts differ from
    the first traced pass counts as failed.
    """
    traced = [p for p in passes if p["trace"] and p["result"] is not None]
    plain = [p for p in passes if not p["trace"] and p["result"] is not None]
    if not traced:
        return {}, 0
    first = traced[0]["result"]["layers"]
    out = {}
    for name, value in first.items():
        if name.endswith("_s") and value is not None:
            value = statistics.median(p["result"]["layers"][name] * p["scale"] for p in traced)
        out[name] = value
    unstable = 0
    for r in (p["result"] for p in traced[1:]):
        changed = [n for n, v in r["layers"].items() if not n.endswith("_s") and v != first[n]]
        if changed:
            unstable += 1
            print(f"bench: traced counts changed between passes: {changed}", file=sys.stderr)
    if plain:
        traced_s = statistics.median(t * p["scale"] for p in traced for t in p["result"]["verdict_s"])
        plain_s = statistics.median(t * p["scale"] for p in plain for t in p["result"]["verdict_s"])
        out["trace.overhead_frac"] = traced_s / plain_s - 1
    return out, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dynarace" / "cli.py").is_file():
        print("bench: run from a checkout of dynarace (src/dynarace is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        analyses, expected = prepare(args.workload, args.seed, work)
        setup = measure_setup(work, deadline)
        if setup is None:
            print("bench: a fresh interpreter cannot import dynarace.cli", file=sys.stderr)
            return 2
        setup_samples, calibrations = setup
        passes = []
        clock_start = time.perf_counter()
        # A traced run alternates untraced and traced passes and ends on a pair.
        step = 2 if args.trace else 1
        while True:
            trace = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(len(passes), trace, analyses, expected, work, deadline))
            now = time.perf_counter()
            if (now - clock_start >= args.seconds and len(passes) % step == 0) or now >= deadline:
                break

    # Each child's scale comes from the calibrations just before and after it.
    chain = calibrations + [p["calibration_s"] for p in passes] + [calibrate()]
    scales = [2 * NOMINAL_CALIBRATION_S / (a + b) for a, b in zip(chain, chain[1:])]
    setup_scales = scales[1 : len(calibrations)]  # the first setup child is not measured
    for p, scale in zip(passes, scales[len(calibrations) :]):
        p["scale"] = scale
    print(f"bench: calibration loop median {statistics.median(chain):.4f} s", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, unstable = per_layer(passes)
        failed += unstable
    else:
        setup_s = statistics.median(t * scale for t, scale in zip(setup_samples, setup_scales))
        values = end_to_end(passes, setup_s)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
