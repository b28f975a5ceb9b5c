"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main

HELLO = """
_start:
        li $16, 1
        li $17, msg
        li $18, 3
        li $0, 4
        call_pal 0x83
        li $16, 7
        li $0, 1
        call_pal 0x83
msg:    .asciz "cli"
"""


@pytest.fixture()
def hello_program(tmp_path):
    path = tmp_path / "hello.s"
    path.write_text(HELLO)
    return str(path)


class TestCli:
    def test_isas(self, capsys):
        assert main(["isas"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "arm" in out and "ppc" in out

    def test_interfaces(self, capsys):
        assert main(["interfaces", "ppc"]) == 0
        out = capsys.readouterr().out
        assert "block_min" in out and "step_all" in out

    def test_run_returns_exit_status(self, hello_program, capsys):
        status = main(["run", "alpha", hello_program])
        out = capsys.readouterr().out
        assert status == 7
        assert "cli" in out
        assert "executed" in out

    def test_run_alternate_buildset(self, hello_program, capsys):
        status = main(["run", "alpha", hello_program, "--buildset", "block_min"])
        assert status == 7

    def test_run_block_tuning_flags(self, hello_program, capsys):
        status = main(
            ["run", "alpha", hello_program, "--buildset", "block_min",
             "--no-chain", "--superblock", "0"]
        )
        assert status == 7
        assert "cli" in capsys.readouterr().out

    def test_run_superblock_budget_flag(self, hello_program):
        assert main(
            ["run", "alpha", hello_program, "--buildset", "block_min",
             "--superblock", "8"]
        ) == 7

    def test_run_budget_exhausted(self, hello_program, capsys):
        status = main(["run", "alpha", hello_program, "--max", "2"])
        assert status == 2
        assert "budget exhausted" in capsys.readouterr().out

    def test_disasm(self, hello_program, capsys):
        assert main(["disasm", "alpha", hello_program]) == 0
        out = capsys.readouterr().out
        assert "CALL_PAL" in out
        assert "LDAH" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_isa_rejected(self):
        with pytest.raises(SystemExit):
            main(["interfaces", "mips"])

    def test_stats_unknown_isa_exits_2_with_known_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "mips"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown ISA 'mips'" in err
        assert "alpha" in err and "arm" in err

    def test_profile_unknown_isa_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "mips"])
        assert excinfo.value.code == 2
        assert "known ISAs" in capsys.readouterr().err


LOOP = """
_start:
        li $1, 60
loop:   subq $1, 1, $1
        bne $1, loop
        li $16, 5
        li $0, 1
        call_pal 0x83
"""


@pytest.fixture()
def loop_program(tmp_path):
    path = tmp_path / "loop.s"
    path.write_text(LOOP)
    return str(path)


class TestProfileCli:
    def test_run_profile_prints_text_report(self, loop_program, capsys):
        status = main(
            ["run", "alpha", loop_program, "--buildset", "block_min",
             "--profile"]
        )
        assert status == 5
        out = capsys.readouterr().out
        assert "== profile ==" in out
        assert "Hot translated units" in out

    def test_run_profile_writes_chrome_trace(
        self, loop_program, tmp_path, capsys
    ):
        import json

        out = tmp_path / "trace.json"
        status = main(
            ["run", "alpha", loop_program, "--buildset", "block_min",
             f"--profile={out}"]
        )
        assert status == 5
        doc = json.loads(out.read_text())
        assert doc["traceEvents"][0]["ph"] == "M"
        assert all(e["ph"] == "X" for e in doc["traceEvents"][1:])
        assert doc["otherData"]["isa"] == "alpha"
        # profiling alone does not print a stats report
        assert "== stats ==" not in capsys.readouterr().out

    def test_profile_command_json_document(self, capsys):
        import json

        status = main(
            ["profile", "alpha", "block_min", "--kernel", "fib", "--json"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["isa"] == "alpha"
        assert doc["meta"]["buildset"] == "block_min"
        assert doc["hot_blocks"], "no units attributed"
        assert doc["kernels"][0]["kernel"] == "fib"
        assert doc["failures"] == 0

    def test_profile_command_export_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        folded = tmp_path / "stacks.folded"
        status = main(
            ["profile", "alpha", "block_min", "--kernel", "fib",
             "--trace-out", str(trace), "--folded", str(folded)]
        )
        assert status == 0
        assert "Hot translated units" in capsys.readouterr().out
        assert json.loads(trace.read_text())["traceEvents"]
        for line in folded.read_text().splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path and int(weight) > 0
