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


def run(config: RunConfig, stdout=None, stderr=None) -> int:
    """Execute one analysis run; returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    model_path = Path(config.model_path)
    if not model_path.is_file():
        print(f"dynarace: model file not found: {model_path}", file=stderr)
        return EXIT_ERROR
    report_path = Path(config.output_file) if config.output_file else None
    # Beside the path as given: a symlinked model or report file keeps the
    # DOT in the link's directory, not its target's.
    dot_path = (report_path or model_path).parent.resolve() / (model_path.stem + ".dot")
    # No output may overwrite another output or the model.
    model_file, dot_file = model_path.resolve(), dot_path.resolve()
    report_file = report_path.resolve() if report_path is not None else None
    clash = None
    if report_file == dot_file:
        clash = f"report file {report_path} is the DOT file"
    elif report_file == model_file:
        clash = f"report file {report_path} is the model file"
    elif dot_file == model_file:
        clash = f"DOT file {model_path} is the model file"
    if clash is not None:
        print(f"dynarace: {clash}", file=stderr)
        return EXIT_ERROR

    plain_lines = [] if report_path is not None else None  # the -f copy

    def emit(plain: str, colored: str | None = None) -> None:
        """Print a line and keep its copy for ``-f``; once stdout's reader is
        gone, only keep the copy."""
        nonlocal stdout
        if plain_lines is not None:
            plain_lines.append(plain)
        if stdout is not None:
            try:
                _write(stdout, colored or plain, "\n")
            except BrokenPipeError:
                stdout = None

    try:
        model = load_model(model_path)
        dom = infer_domains(model)
        trace = tracing(emit, model.init_names, dom) if config.show_steps else None
        tree = build_tree(
            model, dom, config.unfold_depth, config.graph_mode, trace=trace
        )
    except DynaraceError as exc:
        print(f"dynarace: {exc}", file=stderr)
        return EXIT_ERROR
    witnesses = extract_witnesses(tree)

    traces = render_traces(witnesses, tree)
    emit(traces, color_report(traces) if config.color else None)

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
            print(f"dynarace: cannot write {what} {path}: {exc.strerror}", file=stderr)
            return EXIT_ERROR
    return EXIT_RACE if witnesses else EXIT_NO_RACE


def main(argv=None) -> int:
    config = RunConfig(**vars(build_arg_parser().parse_args(argv)))
    try:
        code = run(config)
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"dynarace: {message}", file=sys.stderr)
        return EXIT_ERROR
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; let that write nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
