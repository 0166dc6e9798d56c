import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dynarace
from dynarace.cli import main

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


def test_unknown_flag_exits_two(model_copy, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(model_copy), "-z"])
    assert exc.value.code == 2


def test_zero_depth_rejected(model_copy, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(model_copy), "-u0"])
    assert exc.value.code == 2


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
    import re

    assert re.sub(r"\x1b\[[0-9;]*m", "", out) == copied


def test_tracing_steps(model_copy, capsys):
    code, out, _ = run_cli(capsys, str(model_copy), "-t", "-u2")
    assert "tracing: nid:0" in out
    assert "tracing: nid:0 -> nid:1" in out


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
    # all 21 nodes of the full tree, though the race tree keeps 18.
    _, race_out, _ = run_cli(capsys, str(model_copy), "-t", "-u4", "-grace")
    _, full_out, _ = run_cli(capsys, str(model_copy), "-t", "-u4", "-gfull")
    assert tracing_lines(race_out) == tracing_lines(full_out)
    assert len(tracing_lines(full_out)) == 21


def test_unwritable_output_exits_two(model_copy, tmp_path, capsys):
    missing = tmp_path / "missing" / "dir" / "out.txt"
    code, _, err = run_cli(capsys, str(model_copy), "-u3", f"-f{missing}")
    assert code == 2
    assert err.startswith("dynarace: FileNotFoundError: ")
    assert err.count("\n") == 1


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


def test_wide_choice_exit_zero(tmp_path, capsys):
    # 3000 o+ branches nest 3000 Choice nodes deep; loading and unfolding
    # must not recurse along the choice spine.
    branches = ['"(a <- 1)" ; A'] + [f"c{i} ! m ; A" for i in range(3000)]
    model = tmp_path / "wide.dnk"
    model.write_text("def A = " + " o+ ".join(branches) + " ;\ninit A ;\n")
    code, out, err = run_cli(capsys, str(model), "-u1")
    assert (code, err) == (0, "")
    assert "Trace 0:" not in out
