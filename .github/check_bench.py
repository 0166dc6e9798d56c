"""Check the result line of a benchmark run, read from stdin.

    python3 perfbench/run.py --workload W ... | tail -n 1 \
        | python3 .github/check_bench.py W [metric=value ...]

Exits non-zero unless the run is ``correct``, no metric is null, each
named metric has the given value and, on a traced run (one that reports
the per-layer metrics), the race check ran once per distinct state.
"""

import json
import sys


def main(argv) -> None:
    workload, *pairs = argv
    result = json.loads(sys.stdin.read())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    nulls = [name for name, value in metrics.items() if value is None]
    if result["correct"] is not True or nulls:
        sys.exit(f"malformed {workload} result, null metrics {nulls}: {json.dumps(result)}")
    expected = {name: json.loads(value) for name, value in (p.split("=", 1) for p in pairs)}
    moved = any(metrics.get(name) != value for name, value in expected.items())
    traced = "clocks.race_check.calls" in metrics
    if moved or traced and metrics["clocks.race_check.calls"] != metrics["engine.distinct_states"]:
        sys.exit(f"counts of {workload} moved: {json.dumps(metrics)}")


if __name__ == "__main__":
    main(sys.argv[1:])
