"""Command-line frontend: load a model, detect races, report witnesses.

Exit status: 0 when no races were found, 1 when races were found, 2 on
usage, model, I/O or internal errors.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from pathlib import Path

from .domains import DynaraceError
from .engine import build_tree
from .model import infer_domains, load_model
from .races import extract_witnesses
from .render import color_report, emit_dot, render_traces, tracing

EXIT_NO_RACE = 0
EXIT_RACE = 1
EXIT_ERROR = 2

WRITE_SLICE = 1 << 16  # characters encoded and written at a time


RunConfig = namedtuple(
    "RunConfig",
    "model_path unfold_depth graph_mode color show_steps output_file",
    defaults=(False, False, None),
)


def _positive_int(text: str) -> int:
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("unfold depth must be >= 1")
    return value


def build_arg_parser():
    """The ``argparse.ArgumentParser`` of ``main``.  ``argparse`` is imported
    here and in ``_positive_int``, which only ``main`` reaches: with the
    ``gettext`` it loads, it is a sizeable share of ``import dynarace.cli``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dynarace",
        description=(
            "Detect data races between the control and data planes of an "
            "SDN model and explain them with minimal packet sequences."
        ),
        epilog=(
            "Exit status: 0 no races found, 1 races found, 2 usage, "
            "model, I/O or internal error.  Flag values may be fused "
            "(-u3, -grace) or spaced (-u 3, -g race)."
        ),
    )
    parser.add_argument("model_path", metavar="model", help="path to the model file")
    parser.add_argument(
        "-u",
        dest="unfold_depth",
        type=_positive_int,
        default=3,
        metavar="INT",
        help="unfold depth (default 3)",
    )
    parser.add_argument(
        "-g",
        dest="graph_mode",
        choices=("race", "full"),
        default="race",
        help="types of trees and traces to generate (default race)",
    )
    parser.add_argument(
        "-c", dest="color", action="store_true", help="output text with color"
    )
    parser.add_argument(
        "-t", dest="show_steps", action="store_true", help="show tracing steps"
    )
    parser.add_argument(
        "-f",
        dest="output_file",
        metavar="NAME",
        help="name for text output file (copy of console output)",
    )
    return parser


def _write(fh, text: str, end: str) -> None:
    """Write ``text`` and then ``end`` to ``fh``.  Slices, so neither a join
    nor the encoder holds a second copy of a large report or DOT."""
    for start in range(0, len(text), WRITE_SLICE):
        fh.write(text[start : start + WRITE_SLICE])
    fh.write(end)


def _same_file(a: Path, b: Path) -> bool:
    """Whether the resolved paths ``a`` and ``b`` name one file: they are
    equal, or two existing hard links to it."""
    return a == b or (os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def run(config: RunConfig, stdout=None, stderr=None) -> int:
    """Execute one analysis run; returns the exit status.

    Any error ends the run with exit 2 and one line on ``stderr``: a
    ``DynaraceError`` as ``dynarace: <message>``, any other exception as
    ``dynarace: <Type>: <message>`` with its newlines replaced.  This is
    the package's one ``print``.  A failed write to stdout is such an
    error; a closed stdout is not, and a closed stderr loses the line but
    not the exit 2.
    """
    try:
        return _run(config, stdout if stdout is not None else sys.stdout)
    except DynaraceError as exc:
        message = str(exc)
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
    stderr = stderr if stderr is not None else sys.stderr
    if stderr is not None:  # None if the process started without one
        try:
            print(f"dynarace: {message}", file=stderr)
        except OSError:
            pass  # stderr is closed; the exit code still reports the error
    return EXIT_ERROR


def _run(config: RunConfig, stdout) -> int:
    model_path = Path(config.model_path)
    if not model_path.is_file():
        raise DynaraceError(f"model file not found: {model_path}")
    if config.output_file == "":
        raise DynaraceError("report file name is empty")
    report_path = Path(config.output_file) if config.output_file is not None else None
    # Beside the path as given: a symlinked model or report file keeps the
    # DOT in the link's directory, not its target's.
    dot_path = (report_path or model_path).parent.resolve() / (model_path.stem + ".dot")
    # No output may overwrite another output or the model.  Each path is
    # resolved once, for all the checks it takes part in.
    model_file, dot_file = model_path.resolve(), dot_path.resolve()
    if report_path is not None:
        report_file = report_path.resolve()
        if _same_file(report_file, dot_file):
            raise DynaraceError(f"report file {report_path} is the DOT file")
        if _same_file(report_file, model_file):
            raise DynaraceError(f"report file {report_path} is the model file")
    if _same_file(dot_file, model_file):
        raise DynaraceError(f"DOT file {model_path} is the model file")

    plain_lines = [] if report_path is not None else None  # the -f copy

    def emit(plain: str, colored: str | None = None, flush: bool = False) -> None:
        """Print a line and keep its copy for ``-f``; once stdout's reader is
        gone, only keep the copy.  ``flush`` pushes out what stdout buffers,
        so that a write error is raised here, not at exit; a stdout with only
        a ``write`` method buffers nothing."""
        nonlocal stdout
        if plain_lines is not None:
            plain_lines.append(plain)
        if stdout is not None:
            try:
                _write(stdout, colored or plain, "\n")
                if flush and hasattr(stdout, "flush"):
                    stdout.flush()
            except BrokenPipeError:
                stdout = None

    model = load_model(model_path)
    dom = infer_domains(model)
    trace = tracing(emit, model.init_names, dom) if config.show_steps else None
    tree = build_tree(model, dom, config.unfold_depth, config.graph_mode, trace=trace)
    witnesses = extract_witnesses(tree)

    traces = render_traces(witnesses, tree)
    emit(traces, color_report(traces) if config.color else None, flush=True)

    # Each file is written piece by piece, each piece followed by ``end``.
    writes = [("DOT file", dot_path, (emit_dot(tree),), "")]
    if report_path is not None:
        writes.append(("report file", report_path, plain_lines, "\n"))
    for what, path, pieces, end in writes:
        try:
            with path.open("w", encoding="utf-8") as fh:
                for text in pieces:
                    _write(fh, text, end)
        except OSError as exc:
            raise DynaraceError(f"cannot write {what} {path}: {exc.strerror}") from None
    return EXIT_RACE if witnesses else EXIT_NO_RACE


def main(argv=None) -> int:
    code = run(RunConfig(**vars(build_arg_parser().parse_args(argv))))
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # the process started without it
            continue
        try:
            stream.flush()
        except OSError:
            # ``run`` has dealt with the failed write, but its text is still
            # buffered and the interpreter flushes the stream again at exit;
            # let that write nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
