"""One analysing process: times ``import dynarace.cli``, then runs analyses.

Usage: ``python3 perfbench/child.py JOB.json`` with ``dynarace`` on
``PYTHONPATH``.  The job lists the analyses ``{"model", "unfold", "mode",
"out"}`` to run in this interpreter, in order, and whether to trace them;
an empty list only measures the import.  Each analysis calls ``cli.run``
with ``-f OUT/report.txt``, so its DOT file lands in its own ``OUT``.
Prints one JSON object: the import time, per-analysis exit codes and wall
times, the peak RSS and, when traced, the per-layer metrics.
"""

import sys
import time

_start = time.perf_counter()
import dynarace.cli as cli  # noqa: E402  (the import is what setup_s measures)

SETUP_S = time.perf_counter() - _start

import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """This interpreter's own peak RSS.

    ``getrusage`` would also count the RSS of the parent it was forked from,
    which Linux carries across ``exec``; ``VmHWM`` covers this image only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    exits, verdict_s = [], []
    try:
        for a in job["analyses"]:
            config = cli.RunConfig(
                model_path=a["model"],
                unfold_depth=a["unfold"],
                graph_mode=a["mode"],
                output_file=f"{a['out']}/report.txt",
            )
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.run(config, stdout=sink, stderr=sink)
                else:
                    code = tracer.analysis(cli.run, config, stdout=sink, stderr=sink)
            except Exception:
                traceback.print_exc()
                code = None
            verdict_s.append(time.perf_counter() - start)
            exits.append(code)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": SETUP_S,
        "exits": exits,
        "verdict_s": verdict_s,
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
