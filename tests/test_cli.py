"""CLI tests (driving repro.cli.main directly)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

BUGGY = """
void main() {
    int r = MPI_Comm_rank();
    if (r == 0) { MPI_Barrier(); }
}
"""

CLEAN = """
void main() {
    MPI_Barrier();
    print("done");
}
"""


RECV_DEADLOCK = """
void main() {
    MPI_Init();
    int r = MPI_Comm_rank();
    int x = 0;
    if (r == 0) {
        MPI_Recv(x, 1, 0);
    } else {
        MPI_Recv(x, 0, 0);
    }
    MPI_Finalize();
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.mh"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.mh"
    path.write_text(CLEAN)
    return str(path)


def test_analyze_flags_buggy(buggy_file, capsys):
    assert main(["analyze", buggy_file]) == 1
    out = capsys.readouterr().out
    assert "collective-mismatch" in out
    assert "MPI_Barrier" in out


def test_analyze_clean_exits_zero(clean_file, capsys):
    assert main(["analyze", clean_file]) == 0
    assert "no warnings" in capsys.readouterr().out


def test_analyze_counting_precision(tmp_path, capsys):
    path = tmp_path / "balanced.mh"
    path.write_text("""
void main() {
    int r = MPI_Comm_rank();
    if (r == 0) { MPI_Barrier(); } else { MPI_Barrier(); }
}
""")
    assert main(["analyze", str(path)]) == 1
    assert main(["analyze", str(path), "--precision", "counting"]) == 0


def test_analyze_initial_context(clean_file):
    # Assuming the whole file runs inside a parallel region flags everything.
    assert main(["analyze", clean_file, "--initial-context", "P1"]) == 1


def test_instrument_writes_output(buggy_file, tmp_path, capsys):
    out_file = tmp_path / "out.mh"
    assert main(["instrument", buggy_file, "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "PARCOACH_CC" in text


def test_instrument_all_inserts_more(clean_file, tmp_path):
    sel = tmp_path / "sel.mh"
    blanket = tmp_path / "all.mh"
    main(["instrument", clean_file, "-o", str(sel)])
    main(["instrument", clean_file, "--all", "-o", str(blanket)])
    assert "PARCOACH_CC" not in sel.read_text()
    assert "PARCOACH_CC" in blanket.read_text()


def test_run_clean_program(clean_file, capsys):
    assert main(["run", clean_file, "-np", "2"]) == 0
    captured = capsys.readouterr()
    assert "[rank 0] done" in captured.out
    assert "clean" in captured.err


def test_run_buggy_instrumented_reports_cc(buggy_file, capsys):
    rc = main(["run", buggy_file, "-np", "2", "--instrument"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CollectiveMismatchError" in err
    assert "CC" in err


def test_run_buggy_raw_deadlocks(buggy_file, capsys):
    rc = main(["run", buggy_file, "-np", "2"])
    assert rc == 1
    assert "DeadlockError" in capsys.readouterr().err


def test_cfg_dot_output(buggy_file, capsys):
    assert main(["cfg", buggy_file, "main"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "MPI_Barrier" in out


def test_cfg_unknown_function(buggy_file, capsys):
    assert main(["cfg", buggy_file, "nope"]) == 2


def test_semantic_errors_abort(tmp_path, capsys):
    path = tmp_path / "bad.mh"
    path.write_text("void main() { x = 1; }")
    # Invalid input is an internal/usage error: exit 2 per the contract
    # (main normalizes the SystemExit raised by _load).
    assert main(["analyze", str(path)]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit-code contract: 0 clean / 1 findings-or-failing / 2 internal-or-
# divergence — one case per subcommand, plus the --help documentation.
# ---------------------------------------------------------------------------


def test_help_documents_exit_codes(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "findings" in out


def test_usage_error_exits_two(capsys):
    assert main(["no-such-subcommand"]) == 2


def test_contract_analyze(buggy_file, clean_file, capsys):
    assert main(["analyze", clean_file]) == 0
    assert main(["analyze", buggy_file]) == 1


def test_contract_batch(buggy_file, clean_file, capsys):
    assert main(["batch", clean_file]) == 0
    assert main(["batch", clean_file, buggy_file]) == 1


def test_contract_instrument_and_cfg_and_callgraph(buggy_file, tmp_path, capsys):
    # Emitters: 0 on success, 2 on a bad target.
    assert main(["instrument", buggy_file, "-o", str(tmp_path / "o.mh")]) == 0
    assert main(["callgraph", buggy_file]) == 0
    assert main(["cfg", buggy_file, "main"]) == 0
    assert main(["cfg", buggy_file, "nope"]) == 2


def test_contract_run(buggy_file, clean_file, capsys):
    assert main(["run", clean_file, "-np", "2"]) == 0
    assert main(["run", buggy_file, "-np", "2", "--instrument"]) == 1


def test_contract_explore(buggy_file, clean_file, capsys):
    assert main(["explore", clean_file, "--runs", "4"]) == 0
    assert main(["explore", buggy_file, "--runs", "4", "--no-minimize"]) == 1


def test_contract_explore_replay_divergence(buggy_file, clean_file, tmp_path,
                                            capsys):
    # Record a failing trace on the buggy program, then replay it against
    # the clean one: the verdict cannot reproduce — exit 2 (divergence).
    trace = tmp_path / "t.trace.json"
    assert main(["explore", buggy_file, "--runs", "4", "--no-minimize",
                 "--save-trace", str(trace)]) == 1
    assert main(["explore", clean_file, "--replay", str(trace)]) == 2


def test_contract_fuzz(capsys, tmp_path):
    # 8 deterministic seeds: no static-miss, no crash — exit 0.
    assert main(["fuzz", "--seeds", "8", "--seed", "0",
                 "--explore-runs", "6"]) == 0
    out = capsys.readouterr().out
    assert "8/8 seeds" in out



# ---------------------------------------------------------------------------
# Unreadable or invalid input: one located diagnostic and exit 2, never a
# traceback — for every subcommand that loads a program.
# ---------------------------------------------------------------------------

_BAD_INPUT = {
    "parse-error": ("void main() { int x = ; }\n",
                    ":1:23: expected an expression"),
    "lex-error": ("void main() { int x = 1 @ 2; }\n",
                  ":1:25: unexpected character '@'"),
    "missing": (None, ": No such file or directory"),
}

_LOADING_COMMANDS = {
    "analyze": [], "callgraph": [], "batch": [], "instrument": [],
    "run": ["-np", "2"], "explore": ["--runs", "2"], "cfg": ["main"],
}


@pytest.mark.parametrize("command", sorted(_LOADING_COMMANDS))
@pytest.mark.parametrize("kind", sorted(_BAD_INPUT))
def test_bad_input_exits_two_with_a_located_message(command, kind, tmp_path,
                                                   capsys):
    text, message = _BAD_INPUT[kind]
    path = tmp_path / "bad.mh"
    if text is not None:
        path.write_text(text)
    assert main([command, str(path)] + _LOADING_COMMANDS[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}{message}") and err.count("\n") == 1


@pytest.mark.parametrize("kind", sorted(_BAD_INPUT))
def test_bad_input_prints_no_traceback(kind, tmp_path):
    text, message = _BAD_INPUT[kind]
    path = tmp_path / "bad.mh"
    if text is not None:
        path.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"{path}{message}")


def test_run_reports_a_recv_deadlock_naming_both_waits(tmp_path):
    path = tmp_path / "recv_deadlock.mh"
    path.write_text(RECV_DEADLOCK)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(path), "-np", "2"],
        capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "verdict: DeadlockError" in proc.stderr
    assert "rank 0 in MPI_Recv(source=1, tag=0)" in proc.stderr
    assert "rank 1 in MPI_Recv(source=0, tag=0)" in proc.stderr
