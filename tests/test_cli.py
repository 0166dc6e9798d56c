import errno
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dynarace
from dynarace.cli import RunConfig, main, run

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
    assert drawn == list(dynarace.build_tree(sw_model, sw_dom, 4, "race").nodes)


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


def test_unwritable_output_exits_two(model_copy, tmp_path, capsys):
    # The DOT goes next to the -f file, into the same missing directory,
    # and is written first.
    missing = tmp_path / "missing" / "dir" / "out.txt"
    code, _, err = run_cli(capsys, str(model_copy), "-u3", f"-f{missing}")
    assert code == 2
    dot = missing.parent / "sw_controller.dot"
    assert err == f"dynarace: cannot write DOT file {dot}: {os.strerror(errno.ENOENT)}\n"


def test_dot_path_is_a_directory_exits_two(model_copy, capsys):
    dot = model_copy.parent / "sw_controller.dot"
    dot.mkdir()
    code, _, err = run_cli(capsys, str(model_copy), "-u3")
    assert code == 2
    assert err == f"dynarace: cannot write DOT file {dot}: {os.strerror(errno.EISDIR)}\n"


def test_report_path_is_a_directory_exits_two(model_copy, tmp_path, capsys):
    report = tmp_path / "report"
    report.mkdir()
    code, _, err = run_cli(capsys, str(model_copy), "-u3", f"-f{report}")
    assert code == 2
    assert (tmp_path / "sw_controller.dot").is_file()
    assert err == f"dynarace: cannot write report file {report}: {os.strerror(errno.EISDIR)}\n"


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
    body = dynarace.parse_model(text).definitions["A"]
    assert hash(body) == hash(dynarace.parse_model(text).definitions["A"])


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


def test_packet_space_over_cap_exits_two_after_root(tmp_path, capsys):
    # 21 fields of two values each (one literal and the residual) give
    # 2**21 packets, above the cap; the error surfaces in the normal form
    # taken while expanding the root, after its tracing line.
    tests = " . ".join(f"(f{i} = 0)" for i in range(21))
    model = tmp_path / "wide.dnk"
    model.write_text(f'def A = "{tests}" ; A ;\ninit A ;\n')
    report = tmp_path / "out" / "report.txt"
    report.parent.mkdir()
    code, out, err = run_cli(capsys, str(model), "-u2", "-t", f"-f{report}")
    assert code == 2
    assert out == "tracing: nid:0 {A[0]}\n"
    assert err == "dynarace: packet space has 2097152 packets, cap is 1048576\n"
    assert list(report.parent.iterdir()) == []
    assert not (tmp_path / "wide.dot").exists()
