import errno
import io
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import dynarace
from dynarace import cli
from dynarace.cli import RunConfig, main, run
from dynarace.engine import build_tree
from dynarace.model import SeqPolicy, parse_model, render_term, subterms
from dynarace.netkat import MAX_NESTING

from conftest import SW_MODEL_PATH


@pytest.fixture
def model_copy(tmp_path):
    dst = tmp_path / "sw_controller.dnk"
    shutil.copy(SW_MODEL_PATH, dst)
    return dst


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_races_found_exit_one(model_copy, capsys):
    code, out, err = run_cli(capsys, str(model_copy), "-u3", "-grace")
    assert code == 1
    assert "RACE SHORT TRACES" in out
    assert "RACE LONG TRACES" in out
    assert "nid:3" in out
    assert (model_copy.parent / "sw_controller.dot").is_file()


def test_depth_two_exit_zero(model_copy, capsys):
    code, out, _ = run_cli(capsys, str(model_copy), "-u2")
    assert code == 0
    assert "Trace 0:" not in out


def test_spaced_flags_equal_fused(model_copy, capsys):
    code1, out1, _ = run_cli(capsys, str(model_copy), "-u3", "-grace")
    code2, out2, _ = run_cli(capsys, str(model_copy), "-u", "3", "-g", "race")
    assert (code1, out1) == (code2, out2)


def test_usage_text(capsys):
    from dynarace.cli import build_arg_parser

    assert build_arg_parser().format_usage() == (
        "usage: dynarace [-h] [-u INT] [-g {race,full}] [-c] [-t] [-f NAME] model\n"
    )
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "dynarace: error: the following arguments are required: model\n"
    )


def test_missing_model_names_path(capsys):
    code, _, err = run_cli(capsys, "/no/such/model.dnk")
    assert code == 2
    assert "/no/such/model.dnk" in err


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.dnk"
    bad.write_text("def A = ;\ninit A ;")
    code, _, err = run_cli(capsys, str(bad))
    assert code == 2
    assert "line" in err


def test_model_that_is_not_utf8_exits_two(tmp_path):
    model = tmp_path / "latin1.dnk"
    model.write_bytes(b'def A = "(pt <- 1)" ; A ;\n# caf\xe9\ninit A ;\n')
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(model), 3, "race"), stdout=out, stderr=err)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"dynarace: {model}: not UTF-8: byte 0xe9 at offset 31\n"
    assert list(tmp_path.iterdir()) == [model]


def test_model_with_byte_order_mark_runs_as_without(tmp_path, capsys):
    runs = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        model = tmp_path / name / "sw_controller.dnk"
        model.parent.mkdir()
        model.write_bytes(bom + SW_MODEL_PATH.read_bytes())
        code, out, err = run_cli(capsys, str(model), "-u3")
        runs.append((code, out, err, (model.parent / "sw_controller.dot").read_bytes()))
    assert runs[0] == runs[1]
    assert (runs[0][0], runs[0][2]) == (1, "")


def test_report_file_on_the_dot_path_exits_two(model_copy, capsys):
    # The report would overwrite the DOT; neither is written.
    dot = model_copy.parent / "sw_controller.dot"
    code, out, err = run_cli(capsys, str(model_copy), "-u3", "-t", "-f", str(dot))
    assert (code, out) == (2, "")
    assert err == f"dynarace: report file {dot} is the DOT file\n"
    assert list(model_copy.parent.iterdir()) == [model_copy]


def test_report_file_on_the_model_exits_two(model_copy, capsys):
    # The report would overwrite the model; nothing is written.
    before = model_copy.read_bytes()
    code, out, err = run_cli(capsys, str(model_copy), "-u3", "-f", str(model_copy))
    assert (code, out) == (2, "")
    assert err == f"dynarace: report file {model_copy} is the model file\n"
    assert model_copy.read_bytes() == before
    assert list(model_copy.parent.iterdir()) == [model_copy]


def test_model_on_the_dot_path_exits_two(tmp_path, capsys):
    # A model named like its own DOT would be overwritten by it.
    model = tmp_path / "sw_controller.dot"
    shutil.copy(SW_MODEL_PATH, model)
    before = model.read_bytes()
    code, out, err = run_cli(capsys, str(model), "-u3")
    assert (code, out) == (2, "")
    assert err == f"dynarace: DOT file {model} is the model file\n"
    assert model.read_bytes() == before
    assert list(tmp_path.iterdir()) == [model]


def hard_link(target, link):
    """Make ``link`` a hard link to ``target``, or skip where the filesystem
    refuses hard links."""
    try:
        os.link(target, link)
    except OSError as exc:
        pytest.skip(f"no hard links here: {exc.strerror}")


def test_report_file_linked_to_the_model_exits_two(model_copy, capsys):
    # Resolving the report path does not reach the model; its inode does.
    before = model_copy.read_bytes()
    report = model_copy.parent / "r.txt"
    hard_link(model_copy, report)
    code, out, err = run_cli(capsys, str(model_copy), "-u3", "-f", str(report))
    assert (code, out) == (2, "")
    assert err == f"dynarace: report file {report} is the model file\n"
    assert model_copy.read_bytes() == before
    assert sorted(model_copy.parent.iterdir()) == sorted([model_copy, report])


def test_dot_file_linked_to_the_model_exits_two(model_copy, capsys):
    before = model_copy.read_bytes()
    dot = model_copy.parent / "sw_controller.dot"
    hard_link(model_copy, dot)
    code, out, err = run_cli(capsys, str(model_copy), "-u3")
    assert (code, out) == (2, "")
    assert err == f"dynarace: DOT file {model_copy} is the model file\n"
    assert model_copy.read_bytes() == before
    assert dot.read_bytes() == before


def test_report_file_linked_to_the_dot_exits_two(model_copy, capsys):
    before = model_copy.read_bytes()
    dot = model_copy.parent / "sw_controller.dot"
    dot.write_text("digraph old {}\n")
    report = model_copy.parent / "r.txt"
    hard_link(dot, report)
    code, out, err = run_cli(capsys, str(model_copy), "-u3", "-f", str(report))
    assert (code, out) == (2, "")
    assert err == f"dynarace: report file {report} is the DOT file\n"
    assert model_copy.read_bytes() == before
    assert report.read_text() == dot.read_text() == "digraph old {}\n"


@pytest.mark.parametrize(
    "channels", ["channels Help ;\n", ""], ids=["misspelt", "undeclared"]
)
def test_undeclared_channel_exits_two(tmp_path, capsys, channels):
    # A send on a channel nobody declared would never handshake.
    model = tmp_path / "typo.dnk"
    model.write_text(
        channels + 'def A = "(pt <- 1)" ; Hlep ! one ; A ;\n'
        "def B = Help ? one ; B ;\ninit A || B ;\n"
    )
    code, out, err = run_cli(capsys, str(model), "-u3", "-t")
    assert (code, out) == (2, "")
    assert err == "dynarace: definition 'A' uses undeclared channel 'Hlep'\n"


def test_run_config_call_shapes(model_copy, tmp_path, capsys):
    # The positional and keyword forms the benchmark harness passes to ``run``.
    model, sink = str(model_copy), io.StringIO()
    dirs = [tmp_path / name for name in ("pos", "kw", "main")]
    pos, kw, cmd = reports = [d / "report.txt" for d in dirs]
    for d in dirs:
        d.mkdir()
    codes = [
        run(RunConfig(model, 3, "race", output_file=str(pos)), stdout=sink, stderr=sink),
        run(
            RunConfig(model_path=model, unfold_depth=3, graph_mode="race",
                      output_file=str(kw)),
            stdout=sink, stderr=sink,
        ),
        main([model, "-f", str(cmd)]),
    ]
    assert codes == [1, 1, 1]
    outputs = [(r.read_bytes(), (r.parent / "sw_controller.dot").read_bytes())
               for r in reports]
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_flag_exits_two(model_copy, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(model_copy), "-z"])
    assert exc.value.code == 2


def test_zero_depth_rejected(model_copy, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(model_copy), "-u0"])
    assert exc.value.code == 2


def test_non_integer_depth_rejected(model_copy, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(model_copy), "-u", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("argument -u: not an integer: 'x'\n")


def test_output_file_copies_console(model_copy, tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, str(model_copy), "-u3", f"-f{out_file}")
    assert code == 1
    assert out_file.read_text() == out


def test_stdout_is_written_in_slices(model_copy, monkeypatch):
    config = RunConfig(str(model_copy), 4, "race")
    whole = io.StringIO()
    assert run(config, stdout=whole, stderr=io.StringIO()) == 1
    monkeypatch.setattr(cli, "WRITE_SLICE", 64)
    writes = []
    assert run(config, stdout=SimpleNamespace(write=writes.append), stderr=io.StringIO()) == 1
    assert max(map(len, writes)) <= 64
    assert "".join(writes) == whole.getvalue()


def test_dot_beside_a_symlink_not_its_target(tmp_path, capsys):
    # The DOT goes to the directory of the path as given.
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    shutil.copy(SW_MODEL_PATH, there / "real.dnk")
    (here / "link.dnk").symlink_to("../there/real.dnk")
    assert run_cli(capsys, str(here / "link.dnk"), "-u3")[0] == 1
    assert (here / "link.dot").is_file()
    (here / "link.dot").unlink()
    (here / "report.txt").symlink_to("../there/report.txt")
    code, out, _ = run_cli(capsys, str(there / "real.dnk"), "-u3", f"-f{here / 'report.txt'}")
    assert code == 1
    assert (there / "report.txt").read_text() == out
    assert (here / "real.dot").is_file()
    assert sorted(p.name for p in there.iterdir()) == ["real.dnk", "report.txt"]


def test_color_only_on_console(model_copy, tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, str(model_copy), "-c", f"-f{out_file}")
    assert "\x1b[" in out
    copied = out_file.read_text()
    assert "\x1b[" not in copied
    # stripping the escapes from the console output recovers the file copy
    assert re.sub(r"\x1b\[[0-9;]*m", "", out) == copied


def test_tracing_steps(model_copy, capsys):
    code, out, _ = run_cli(capsys, str(model_copy), "-t", "-u2")
    assert "tracing: nid:0" in out
    assert "tracing: nid:0 -> nid:1" in out


def test_components_named_by_init_text_but_drawn_by_term(tmp_path, model_copy, capsys):
    # The ``-t`` lines and the report's long lines name a component by its
    # ``init`` text, the DOT by its current term, so the names part once a
    # component moves.  Which one is right is not decided; this pins both.
    moved = tmp_path / "moved.dnk"
    moved.write_text(
        'channels x ; def B = x ? "(pt <- 1)" ; B ; init x ! "(pt <- 1)" ; bot || B ;\n'
    )
    _, out, _ = run_cli(capsys, str(moved), "-u2", "-t", "-gfull")
    assert out.splitlines()[1] == (
        "tracing: nid:0 -> nid:1 rcfg('x', '\"(pt <- 1)\"') "
        '{x ! "(pt <- 1)" ; bot[1, 0] || B[1, 1]}'
    )
    assert '    n1 [label="1\\nbot[1, 0] || B[1, 1]"];' in (tmp_path / "moved.dot").read_text()
    _, out, _ = run_cli(capsys, str(model_copy), "-u3")
    assert "[SW -> C] rcfg('Help', '\"one\"') {C[1, 2] || SW[0, 2]} nid:3;" in out
    dot = (model_copy.parent / "sw_controller.dot").read_text()
    assert '    n3 [label="3\\nUp ! one ; C[1, 2] || SW[0, 2]"];' in dot


def test_short_and_long_traces_agree(model_copy, capsys):
    _, out, _ = run_cli(capsys, str(model_copy), "-u3")
    short, long_ = out.split("RACE LONG TRACES")
    # every quoted complete test of a short trace reappears in the long one
    for k in (0, 1):
        short_trace = short.split(f"Trace {k}:")[1].splitlines()[1]
        steps = [s.strip() for s in short_trace.split(";") if s.strip()]
        long_trace = long_.split(f"Trace {k}:")[1]
        for step in steps:
            assert step in long_trace


def test_dot_race_mode_structure(model_copy, capsys):
    run_cli(capsys, str(model_copy), "-u3", "-grace")
    dot = (model_copy.parent / "sw_controller.dot").read_text()
    node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 5
    assert len(edge_lines) == 4
    assert dot.count("fillcolor") == 2


def test_race_dot_draws_the_race_tree(model_copy, sw_model, sw_dom, capsys):
    run_cli(capsys, str(model_copy), "-u4", "-grace")
    dot = (model_copy.parent / "sw_controller.dot").read_text()
    drawn = [int(nid) for nid in re.findall(r"^    n(\d+) \[", dot, re.MULTILINE)]
    assert drawn == build_tree(sw_model, sw_dom, 4, "race").nodes


def test_dot_full_mode_has_regular_branch(model_copy, capsys):
    run_cli(capsys, str(model_copy), "-u3", "-gfull")
    dot = (model_copy.parent / "sw_controller.dot").read_text()
    assert "n0 -> n2" in dot
    assert "{flag=regular, pt=1},{flag=regular, pt=2}" in dot


def test_byte_determinism(model_copy, capsys):
    code1, out1, _ = run_cli(capsys, str(model_copy), "-u3")
    dot1 = (model_copy.parent / "sw_controller.dot").read_bytes()
    code2, out2, _ = run_cli(capsys, str(model_copy), "-u3")
    dot2 = (model_copy.parent / "sw_controller.dot").read_bytes()
    assert (code1, out1.encode()) == (code2, out2.encode())
    assert dot1 == dot2


def tracing_lines(out):
    return [l for l in out.splitlines() if l.startswith("tracing:")]


def test_tracing_same_in_both_modes(model_copy, capsys):
    # Race mode still numbers, and traces, the nodes below each race:
    # all 21 nodes of the full tree, though the race tree stores 10.
    _, race_out, _ = run_cli(capsys, str(model_copy), "-t", "-u4", "-grace")
    _, full_out, _ = run_cli(capsys, str(model_copy), "-t", "-u4", "-gfull")
    assert tracing_lines(race_out) == tracing_lines(full_out)
    assert len(tracing_lines(full_out)) == 21


def assert_refused_before_the_analysis(capsys, argv, message, leftover=()):
    """``argv`` exits 2 with the one stderr line ``message``, an empty
    stdout (``-t`` adds a line per node) and no DOT or report written:
    the directory of the model holds only it, and ``leftover``."""
    code, out, err = run_cli(capsys, *argv, "-u3", "-t")
    assert (code, out, err) == (2, "", f"dynarace: {message}\n")
    model = Path(argv[0])
    assert sorted(model.parent.iterdir()) == sorted([model, *leftover])


def test_unwritable_output_exits_two(model_copy, capsys):
    # The DOT goes next to the -f file, into the same missing directory,
    # and is checked first.
    missing = model_copy.parent / "missing" / "dir" / "out.txt"
    dot = missing.parent / "sw_controller.dot"
    assert_refused_before_the_analysis(
        capsys, [str(model_copy), f"-f{missing}"],
        f"cannot write DOT file {dot}: {os.strerror(errno.ENOENT)}",
    )


def test_dot_path_is_a_directory_exits_two(model_copy, capsys):
    dot = model_copy.parent / "sw_controller.dot"
    dot.mkdir()
    assert_refused_before_the_analysis(
        capsys, [str(model_copy)], f"cannot write DOT file {dot}: {os.strerror(errno.EISDIR)}", [dot]
    )
    assert list(dot.iterdir()) == []


def test_report_path_is_a_directory_exits_two(model_copy, capsys):
    # The report path is checked before the analysis, so nothing is printed
    # and the DOT, whose path is fine, is not written either.
    report = model_copy.parent / "report"
    report.mkdir()
    assert_refused_before_the_analysis(
        capsys, [str(model_copy), f"-f{report}"],
        f"cannot write report file {report}: {os.strerror(errno.EISDIR)}", [report],
    )
    assert list(report.iterdir()) == []


def test_report_path_below_a_file_exits_two(model_copy, capsys):
    # A report path whose directory is a file fails as its open would.
    report = model_copy / "report.txt"
    assert_refused_before_the_analysis(
        capsys, [str(model_copy), f"-f{report}"],
        f"cannot write DOT file {report.parent / 'sw_controller.dot'}: {os.strerror(errno.ENOTDIR)}",
    )


@pytest.mark.parametrize("output", ["directory", "dot-directory", "missing"])
def test_model_error_comes_before_the_output_path(tmp_path, capsys, output):
    # The output paths are checked once the model is loaded, so a model
    # error is still the one reported.
    model = tmp_path / "sw_controller.dnk"
    model.write_text("def A = ;\ninit A ;")
    argv = [str(model)]
    expected = run_cli(capsys, *argv, "-u3")
    if output == "directory":
        (tmp_path / "report").mkdir()
        argv.append(f"-f{tmp_path / 'report'}")
    elif output == "dot-directory":
        (tmp_path / "sw_controller.dot").mkdir()
    else:
        argv.append(f"-f{tmp_path / 'missing' / 'out.txt'}")
    assert run_cli(capsys, *argv, "-u3") == expected
    assert expected == (2, "", "dynarace: expected a process term, found ';' (line 1, column 9)\n")


def test_crash_exits_two_from_process(tmp_path):
    # The recursive expansion overflows the stack at this depth; whatever
    # escapes run() must not read as exit 1, "races found".
    model = tmp_path / "loop.dnk"
    model.write_text('def A = "(a <- 1)" ; A ; init A ;')
    src = str(Path(dynarace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "dynarace.cli", str(model), "-u1100"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("dynarace: RecursionError: ")
    assert proc.stderr.count("\n") == 1


def test_crash_exits_two_in_process(tmp_path):
    # ``run`` itself turns any exception into exit 2 and the line ``main``
    # would print; an in-process caller never sees the raise.
    model = tmp_path / "loop.dnk"
    model.write_text('def A = "(a <- 1)" ; A ; init A ;')
    stdout, stderr = io.StringIO(), io.StringIO()
    assert run(RunConfig(str(model), 1100, "race"), stdout=stdout, stderr=stderr) == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue().startswith("dynarace: RecursionError: ")
    assert stderr.getvalue().count("\n") == 1
    assert stderr.getvalue().endswith("\n")


def right_nested_table(k):
    """``e0 + (e1 + (... + e{k-1}))``: each entry nests one level deeper."""
    text = f"(pt = {k - 1}) . (pt <- {k})"
    for i in reversed(range(k - 1)):
        text = f"(pt = {i}) . (pt <- {i + 1}) + ({text})"
    return text


@pytest.mark.parametrize(
    "text",
    [
        'def A = "' + "(" * 2000 + "pt <- 1" + ")" * 2000 + '" ; A ;\ninit A ;\n',
        'def A = "(pt <- 1)' + "*" * 3000 + '" ; A ;\ninit A ;\n',
        'def A = "' + "~" * 3000 + '(pt = 1)" ; A ;\ninit A ;\n',
        "def A = " + "(" * 3000 + '"(pt <- 1)" ; A' + ")" * 3000 + " ;\ninit A ;\n",
        f'def A = "{right_nested_table(1500)}" ; A ;\ninit A ;\n',
    ],
    ids=["policy-parens", "star", "negation", "term-parens", "right-nested-union"],
)
def test_deep_nesting_exits_two(tmp_path, capsys, text):
    # Nesting past the limit is refused while parsing, with one error line
    # that names the limit, never as a verdict or a RecursionError.
    model = tmp_path / "nested.dnk"
    model.write_text(text)
    code, out, err = run_cli(capsys, str(model), "-u2")
    assert (code, out) == (2, "")
    assert err.startswith("dynarace: ") and err.count("\n") == 1 and err.endswith("\n")
    assert f"nesting deeper than MAX_NESTING = {MAX_NESTING} levels" in err
    assert list(tmp_path.iterdir()) == [model]


def policy_model(policy):
    return f'def A = "{policy}" ; A ;\ninit A ;\n'


@pytest.mark.parametrize(
    "nested",
    [
        lambda k: policy_model("(" * k + "pt <- 1" + ")" * k),
        lambda k: policy_model("(pt <- 1)" + "*" * (k - 1)),
        lambda k: policy_model("~" * (k - 1) + "(pt = 1)"),
        lambda k: "def A = " + "(" * k + '"(pt <- 1)" ; A' + ")" * k + " ;\ninit A ;\n",
        lambda k: policy_model(right_nested_table(k)),
        # Each * nests its whole operand, parentheses included, one level deeper.
        lambda k: policy_model("(" * (k // 2) + "pt <- 1" + ")*" * (k // 2) + "*" * (k % 2)),
        lambda k: "def A = " + "(" * k + '"' + "(" * k + "pt <- 1" + ")" * k + '" ; A'
        + ")" * k + " ;\ninit A ;\n",
    ],
    ids=["policy-parens", "star", "negation", "term-parens", "right-nested-union",
         "parens-starred", "policy-in-term"],
)
def test_nesting_limit(tmp_path, capsys, nested):
    # At the limit the whole run, -t and the DOT included, stays within the
    # recursion limit; one level more is refused.
    model = tmp_path / "nested.dnk"
    model.write_text(nested(MAX_NESTING))
    code, out, err = run_cli(capsys, str(model), "-u2", "-gfull", "-t")
    assert code in (0, 1) and err == ""
    model.write_text(nested(MAX_NESTING + 1))
    code, out, err = run_cli(capsys, str(model), "-u2", "-gfull", "-t")
    assert (code, out) == (2, "")
    assert f"nesting deeper than MAX_NESTING = {MAX_NESTING} levels" in err


def test_closed_stdout_keeps_verdict_and_dot(tmp_path):
    # The -t output (about 286 kB) outgrows a pipe, so the run is still
    # printing when its reader closes the pipe after one line.
    model = tmp_path / "shared.dnk"
    model.write_text(
        'channels c ;\ndef A = "(pt <- 1) + (pt <- 2)" ; A o+ c ! m ; A ;\n'
        "def B = c ? m ; B ;\ninit A || B ;\n"
    )
    closed, normal = tmp_path / "closed", tmp_path / "normal"
    closed.mkdir()
    normal.mkdir()
    src = str(Path(dynarace.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "dynarace.cli", str(model), "-u4", "-t",
         f"-f{closed / 'report.txt'}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"tracing: nid:0 ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")
    config = RunConfig(str(model), 4, "race", show_steps=True,
                       output_file=str(normal / "report.txt"))
    assert run(config, stdout=io.StringIO(), stderr=io.StringIO()) == 1
    for name in ("report.txt", "shared.dot"):
        assert (closed / name).read_bytes() == (normal / name).read_bytes()


def run_redirected(model, redirect, *argv, buffered):
    """Run the CLI through ``sh`` with ``redirect`` applied (``>&-`` closes
    stdout); ``buffered`` unsets ``PYTHONUNBUFFERED``, as a default shell
    does.  Returns the exit code, stdout and stderr."""
    src = str(Path(dynarace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-m", "dynarace.cli",
         str(model), *argv],
        capture_output=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("depth, code", [(2, 0), (3, 1)])
def test_closed_stdout_file_descriptor_keeps_verdict_and_files(
    model_copy, tmp_path, buffered, depth, code
):
    # Started with stdout closed, the run still writes the DOT and the -f
    # copy, and exits with its verdict, as when the pipe's reader is gone.
    closed, normal = tmp_path / "closed", tmp_path / "normal"
    closed.mkdir()
    normal.mkdir()
    argv = (f"-u{depth}", "-t")
    got = run_redirected(model_copy, ">&-", *argv, f"-f{closed / 'r.txt'}", buffered=buffered)
    assert got == (code, b"", b"")
    assert run(RunConfig(str(model_copy), depth, "race", False, True, str(normal / "r.txt")),
               stdout=io.StringIO(), stderr=io.StringIO()) == code
    for name in ("r.txt", "sw_controller.dot"):
        assert (closed / name).read_bytes() == (normal / name).read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("-u2",), ("-u3", "-t")], ids=["u2", "u3-t"])
def test_failed_stdout_write_exits_two(model_copy, buffered, argv):
    # A write to stdout that fails is an error like any other: exit 2 and
    # one line, whether it fails at once or only when the buffer is flushed.
    code, out, err = run_redirected(model_copy, ">/dev/full", *argv, buffered=buffered)
    assert (code, out) == (2, b"")
    assert err == f"dynarace: OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n".encode()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stderr_still_exits_two(tmp_path, buffered):
    # Started without stderr, the process has ``sys.stderr`` None: the line
    # goes nowhere, not to stdout.
    code, out, err = run_redirected(tmp_path / "missing.dnk", "2>&-", buffered=buffered)
    assert (code, out, err) == (2, b"", b"")


def test_unwritable_stderr_still_exits_two(tmp_path):
    # A stderr whose descriptor was closed later fails the write instead.
    class Closed(io.StringIO):
        def write(self, text):
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    stdout = io.StringIO()
    config = RunConfig(str(tmp_path / "missing.dnk"), 3, "race")
    assert run(config, stdout=stdout, stderr=Closed()) == 2
    assert stdout.getvalue() == ""


def test_empty_report_file_name_exits_two(model_copy, capsys):
    # An unset variable in ``-f "$OUT"`` must not pass for "no -f".
    code, out, err = run_cli(capsys, str(model_copy), "-u3", "-f", "")
    assert (code, out, err) == (2, "", "dynarace: report file name is empty\n")
    assert list(model_copy.parent.iterdir()) == [model_copy]


def test_wide_choice_exit_zero(tmp_path, capsys):
    # 3000 o+ branches nest 3000 Choice nodes deep; loading and unfolding
    # must not recurse along the choice spine.
    channels = ", ".join(f"c{i}" for i in range(3000))
    branches = ['"(a <- 1)" ; A'] + [f"c{i} ! m ; A" for i in range(3000)]
    model = tmp_path / "wide.dnk"
    model.write_text(
        f"channels {channels} ;\ndef A = " + " o+ ".join(branches) + " ;\ninit A ;\n"
    )
    code, out, err = run_cli(capsys, str(model), "-u1")
    assert (code, err) == (0, "")
    assert "Trace 0:" not in out


def test_deep_prefix_chain_exit_zero(tmp_path, capsys):
    # 1500 prefixes nest 1500 SeqPolicy nodes deep; hashing the body (a
    # cache key) and rendering it (an HNF sort key) must not recurse.
    text = "def A = " + '"(pt <- 1)" ; ' * 1500 + "bot ;\ninit A ;\n"
    model = tmp_path / "deep.dnk"
    model.write_text(text)
    for depth in ("-u2", "-u5"):
        code, _, err = run_cli(capsys, str(model), depth)
        assert (code, err) == (0, "")
    body, again = (parse_model(text).definitions["A"] for _ in range(2))
    assert len({body, again}) == 2  # hashed, not walked
    assert render_term(body) == render_term(again)
    # Within one parse the 1500 prefixes share one policy object.
    assert len({t.policy for t in subterms(body) if isinstance(t, SeqPolicy)}) == 1


def test_flat_table_exit_zero(tmp_path, capsys):
    # 900 table entries nest 900 Union nodes deep down the left spine;
    # hashing the policy (a cache key) must not recurse.
    table = " + ".join(f"(pt = {k}) . (pt <- {k + 1})" for k in range(900))
    model = tmp_path / "table.dnk"
    model.write_text(f'def A = "{table}" ; A ;\ninit A ;\n')
    code, _, err = run_cli(capsys, str(model), "-u1")
    assert (code, err) == (0, "")


TABLE = " + ".join(f"(pt = {k}) . (pt <- {k + 1})" for k in range(2000))
CHAIN = " . ".join(f"(pt = {k})" for k in range(2000))


@pytest.mark.parametrize(
    "text",
    [
        f'def A = "{TABLE}" ; A ;\ninit A ;\n',
        f'def A = "(pt = 0)" ; "{TABLE}" ; A ;\ninit A ;\n',
        f'channels x ;\ndef A = x ! "{TABLE}" ; bot ;\n'
        f'def B = x ? "{TABLE}" ; bot ;\ninit A || B ;\n',
        f'def A = "{CHAIN}" ; A ;\ninit A ;\n',
    ],
    ids=["table", "continuation", "message", "chain"],
)
def test_long_policy_chain_exit_zero(tmp_path, capsys, text):
    # 2000 entries or tests nest 2000 Union or Seq nodes down the left spine;
    # normal forms (also of messages) and rendering (of an HNF sort key's
    # continuation) must walk that spine without recursing.
    model = tmp_path / "long.dnk"
    model.write_text(text)
    code, _, err = run_cli(capsys, str(model), "-u1")
    assert (code, err) == (0, "")


WIDE_TESTS = " . ".join(f"(f{i} = 0)" for i in range(21))
WIDE_FIELDS = " ".join(f"f{i} : {{ 0, 1 }} ;" for i in range(21))
OVER_CAP = "dynarace: packet space has 2097152 packets, cap is 1048576\n"


def assert_refused_before_any_output(tmp_path, capsys, text):
    """The model's domains are over the cap: in race mode, with ``-t -f``
    and in full mode, exit 2 with one stderr line, nothing on stdout, and
    neither the report file nor the DOT written."""
    model = tmp_path / "wide.dnk"
    model.write_text(text)
    report = tmp_path / "out" / "report.txt"
    report.parent.mkdir(exist_ok=True)
    for flags in ((), ("-t", f"-f{report}"), ("-gfull",)):
        code, out, err = run_cli(capsys, str(model), "-u2", *flags)
        assert (code, out, err) == (2, "", OVER_CAP)
        assert list(report.parent.iterdir()) == []
        assert not (tmp_path / "wide.dot").exists()


def test_packet_space_over_cap_exits_two_before_any_output(tmp_path, capsys):
    # 21 fields of two values each (one literal and the residual) give
    # 2**21 packets, above the cap; the inferred domains refuse them before
    # the root is expanded, so not even its tracing line is printed.
    assert_refused_before_any_output(
        tmp_path, capsys, f'def A = "{WIDE_TESTS}" ; A ;\ninit A ;\n'
    )


def test_packet_space_over_cap_exits_two_when_declared(tmp_path, capsys):
    # A declared fields block over the cap fails as the model loads, though
    # the model's one policy tests a single field.
    assert_refused_before_any_output(
        tmp_path, capsys,
        f'fields {{ {WIDE_FIELDS} }}\ndef A = "(f0 = 0)" ; A ;\ninit A ;\n',
    )


def test_packet_space_over_cap_exits_two_behind_an_unmatched_send(tmp_path, capsys):
    # Nothing receives on x, so the policy is never reached; the packet
    # space is still refused, whatever the tree would reach.
    assert_refused_before_any_output(
        tmp_path, capsys,
        f'channels x ;\ndef A = x ! one ; "{WIDE_TESTS}" ; A ;\ninit A ;\n',
    )


def test_packet_space_over_cap_exits_two_with_only_message_policies(tmp_path, capsys):
    # Send and receive share their message, so it is never normalised; the
    # domains inferred from it still refuse the packet space.
    assert_refused_before_any_output(
        tmp_path, capsys,
        f'channels x ; def A = x ! "{WIDE_TESTS}" ; A ; '
        f'def B = x ? "{WIDE_TESTS}" ; B ; init A || B ;\n',
    )


def test_each_path_is_resolved_once(model_copy, tmp_path, monkeypatch, capsys):
    # The model, the report, the DOT and the DOT's directory: one walk each.
    resolved = []
    real = Path.resolve

    def counted(self, *args, **kwargs):
        resolved.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "resolve", counted)
    report = tmp_path / "report.txt"
    code, _, err = run_cli(capsys, str(model_copy), "-u3", "-f", str(report))
    assert (code, err) == (1, "")
    assert len(resolved) == len(set(resolved)) == 4


def test_tracing_lines_are_kept_only_for_the_report_file(tmp_path):
    # Without -f the -t lines are printed, not kept: the self loop at -u6
    # prints 3.2 MB of them.
    model = tmp_path / "loop.dnk"
    model.write_text('def A = "(pt <- 1)" ; A o+ "(pt <- 2)" ; A ;\ninit A ;\n')

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        code = run(RunConfig(str(model), 6, "race", False, True), stdout=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 3_000_000
    assert peak < 1_000_000
