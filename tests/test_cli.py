import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitwreath
from unitwreath import oracle
from unitwreath.catalog import default_corpus_dir
from unitwreath.cli import main

O16 = str(default_corpus_dir() / "o16")
D8 = str(default_corpus_dir() / "o8" / "D8.pc2")


@pytest.fixture()
def d8xc2_path(corpus_dir):
    return str(corpus_dir / "o16" / "D8xC2.pc2")


def dihedral_times_c2(tmp_path, n: int) -> str:
    """Write D_(2^n) x C2 (order 2^(n+1), s = n - 2) and return its path."""
    rots = [f"r{i}" for i in range(1, n)]
    lines = [f"group D{1 << n}xC2", "gens " + " ".join(rots) + " t c"]
    lines += [f"pow r{i} = r{i + 1}" for i in range(1, n - 1)]
    lines += [f"conj t r{i} = t r{i + 1}" for i in range(1, n - 1)]
    path = tmp_path / f"D{1 << n}xC2.pc2"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_subprocess(*argv):
    """The CLI in a child process with a timeout, so that a runaway
    enumeration fails the test instead of hanging it."""
    src = str(Path(unitwreath.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "unitwreath.cli", *argv],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_pass(self, capsys, d8xc2_path):
        code, out, _ = run(capsys, "check", d8xc2_path)
        assert code == 0
        assert "pass" in out

    def test_abelian_exits_1(self, capsys, tmp_path):
        path = tmp_path / "C2xC2.pc2"
        path.write_text("group C2xC2\ngens a b\n")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 1
        assert json.loads(out)["failure_reason"] == "abelian"

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "check", "no/such/file.pc2")
        assert code == 3
        assert "error" in err

    def test_malformed_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.pc2"
        path.write_text("group X\ngens a\npow a = q\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 3


@pytest.mark.parametrize(
    "command, kind", [("check", "directory"), ("check", "not-utf8"), ("verify", "not-utf8")]
)
def test_unreadable_file_exits_3(capsys, tmp_path, command, kind):
    path = tmp_path / "x.pc2"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"group X\xff\ngens a b\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and str(path) in err


def test_sweep_records_unreadable_files(capsys, tmp_path, d8xc2_path):
    (tmp_path / "D8xC2.pc2").write_text(Path(d8xc2_path).read_text())
    (tmp_path / "dir.pc2").mkdir()
    (tmp_path / "latin1.pc2").write_bytes(b"group \xe9\ngens a\n")
    code, out, _ = run(capsys, "verify", str(tmp_path), "--json")
    assert code == 3
    data = json.loads(out)
    assert [p["group"] for p in data["pipelines"]] == ["D8xC2"]
    errors = data["census"]["errors"]
    assert [e["name"] for e in errors] == ["dir", "latin1"]
    assert all(str(tmp_path) in e["error"] for e in errors)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cap", "abc", "x.pc2"],
        ["verify"],
        ["model", "0"],
        ["verify", O16, "--order", "0"],
        ["verify", O16, "--order", "-4"],
        ["verify", O16, "--order", "7"],
        ["scan", O16, "--order", "1"],
        ["scan", O16, "--order", "12"],
        ["construct", "x.pc2"],  # verify without --oracle covers it
        ["verify", D8, "--order", "32"],  # the sweep flags on one file
        ["verify", D8, "--first-failure"],
    ],
)
def test_usage_error_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("usage:")
    assert "error:" in err and "Traceback" not in err


class TestLargeGroups:
    """Orders above the group algebra's table limit (512): consistency is
    still proved, and `verify` refuses the group when it builds the algebra."""

    # the inconsistent order-8 presentation (b^a = b^2 = 1) with 9 free generators
    INCONSISTENT_2048 = (
        "group Bad2048\ngens a b f1 f2 f3 f4 f5 f6 f7 f8 f9\nconj b a = b b\n"
    )
    # D8 x C2 with 6 free generators: consistent, order 1024
    CONSISTENT_1024 = (
        "group D8xC2xE64\ngens a c b z f1 f2 f3 f4 f5 f6\n"
        "pow a = c\nconj b a = b c\n"
    )

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_inconsistent_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "bad.pc2"
        path.write_text(self.INCONSISTENT_2048)
        code, out, err = run(capsys, command, str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "overlap (b·a)·a" in err

    @pytest.mark.parametrize("command", ["verify"])
    def test_above_table_limit_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "big.pc2"
        path.write_text(self.CONSISTENT_1024)
        code, out, err = run(capsys, command, str(path), "--json")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "order 1024" in err

    def test_directory_sweep_keeps_going(self, capsys, tmp_path, d8xc2_path):
        (tmp_path / "D8xC2.pc2").write_text(Path(d8xc2_path).read_text())
        (tmp_path / "big.pc2").write_text(self.CONSISTENT_1024)
        code, out, _ = run(capsys, "verify", str(tmp_path), "--json")
        assert code == 3
        data = json.loads(out)
        assert [(p["group"], p["verdict"]) for p in data["pipelines"]] == [
            ("D8xC2", "pass")
        ]
        (error,) = data["census"]["errors"]
        assert error["name"] == "big" and "order 1024" in error["error"]
        assert data["verdict"] == "fail"


class TestVerify:
    def test_verify_with_oracle(self, capsys, d8xc2_path):
        code, out, _ = run(capsys, "verify", d8xc2_path, "--oracle", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["section"]["checks"]["oracle-isomorphism"] is True

    def test_hypothesis_failure_exits_1(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "verify", str(corpus_dir / "o8" / "D8.pc2"))
        assert code == 1

    def test_witness_override(self, capsys, d8xc2_path):
        code, out, _ = run(
            capsys, "verify", d8xc2_path, "--oracle",
            "--witness", "a=a,b=b,z=c*z", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["z"] == "c·z"
        assert data["verdict"] == "pass"

    def test_closure_cap_exits_3(self, capsys, tmp_path):
        # D16 x C2 (s = 2): X (16) fits the cap, the section's 64 cosets do not
        path = dihedral_times_c2(tmp_path, 4)
        code, out, err = run(capsys, "verify", path, "--cap", "32", "--json")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "cap 32" in err

    def test_cap_bounds_the_base_group(self, tmp_path):
        # D128 x C2 (s = 5): X would have 2^32 elements, so <X, a> at least
        # 2^33, which the pipeline refuses before the witness search; the
        # base group's own refusal is tested in test_construct
        proc = run_subprocess("verify", dihedral_times_c2(tmp_path, 7), "--json")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith(
            "ambient group <X, a> of order at least 2|X| = 8589934592 exceeds cap 65536\n"
        )

    def test_cap_bounds_the_ambient_group_before_closing_it(self, tmp_path):
        # D64 x C2 (s = 4): |X| = 2^16 fits the cap, but <X, a> has at least
        # 2^17 elements, which is known before the closure starts
        proc = run_subprocess("verify", dihedral_times_c2(tmp_path, 6), "--json")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "<X, a>" in proc.stderr and "2|X| = 131072 exceeds cap 65536" in proc.stderr

    def test_oracle_skip_is_reported(self, capsys, tmp_path):
        # D32 x C2 has s = 3, above the oracle's limit
        code, out, _ = run(
            capsys, "verify", dihedral_times_c2(tmp_path, 5), "--oracle", "--json"
        )
        assert code == 0
        section = json.loads(out)["section"]
        assert "oracle-isomorphism" not in section["checks"]
        assert section["detail"] == (
            "oracle-isomorphism skipped: --oracle runs only for s <= 2"
        )

    def test_bad_witness_exits_3(self, capsys, d8xc2_path):
        code, _, err = run(
            capsys, "verify", d8xc2_path, "--witness", "a=c,b=c,z=z"
        )
        assert code == 3

    def test_witness_on_a_directory_exits_3(self, capsys, corpus_dir):
        code, out, err = run(
            capsys, "verify", str(corpus_dir / "o16"), "--witness", "a=a,b=b,z=z"
        )
        assert code == 3
        assert out == ""
        assert "--witness applies to one presentation file" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a=a,b=b,z=z,q=c", "unknown witness key 'q'"),
            ("a=a,b=b,z=z,a=a", "witness key 'a' given twice"),
            ("a=,b=b,z=z", "witness key 'a' has an empty word"),
            ("a=a,b= ,z=z", "witness key 'b' has an empty word"),
            ("a=a,b=b,z= * ", "witness key 'z' has an empty word"),
        ],
    )
    def test_witness_key_errors_exit_3(self, capsys, d8xc2_path, spec, message):
        code, out, err = run(capsys, "verify", d8xc2_path, "--witness", spec)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_directory_sweep(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "verify", str(corpus_dir / "o16"), "--oracle", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert len(data["pipelines"]) == 4


# sha256 of the sweep's JSON.  A change that alters the JSON on purpose
# updates these and says so in CHANGES.md.
@pytest.mark.parametrize(
    "directory, flags, digest",
    [
        ("o16", [], "78431cb3b0fffeab710da057a65888fb6e0d9b0ab70b73ccaee5e5c56c7643d6"),
        ("o16", ["--oracle"], "39e2de6bbaf4c75ed140c2e7993b45b03b6ec55608464f75aa35a61491a01b36"),
        ("o32", [], "36c6d9689ae545e9ba29dd61ca5592408dfb73148a6828dfb211f5f8c06b17b4"),
        ("o32", ["--oracle"], "ce3dcc14d40f7e87afed2c8cacc6e3000069aba00a7e0e7eabd1cc52ee11ef4d"),
    ],
)
def test_sweep_json_is_pinned(capsys, directory, flags, digest):
    code, out, err = run(capsys, "verify", str(default_corpus_dir() / directory), "--json", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, order",
    [
        (["verify", "{empty}"], None),
        (["verify", "{empty}", "--json"], None),
        (["verify", "{o16}", "--order", "32"], 32),
        (["scan", "{empty}", "--json"], None),
        (["scan", "{o16}", "--order", "8"], 8),
    ],
)
def test_empty_sweep_exits_3(capsys, tmp_path, argv, order):
    argv = [arg.format(empty=tmp_path, o16=O16) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and argv[1] in err
    assert (f"of order {order}" in err) == (order is not None)


class TestScan:
    def test_json_totals(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "scan", str(corpus_dir / "o16"), "--json")
        assert code == 0
        (block,) = json.loads(out)["orders"]
        assert (block["order"], block["total"], block["passing"]) == (16, 14, 4)

    def test_json_is_byte_identical_across_runs(self, capsys, corpus_dir):
        _, first, _ = run(capsys, "scan", str(corpus_dir / "o16"), "--json")
        _, second, _ = run(capsys, "scan", str(corpus_dir / "o16"), "--json")
        assert first == second

    def test_corrupted_file_exits_3(self, capsys, tmp_path):
        (tmp_path / "bad.pc2").write_text("group X\ngens a\npow a = q\n")
        code, out, _ = run(capsys, "scan", str(tmp_path), "--json")
        assert code == 3


class TestModel:
    def test_model_dump(self, capsys):
        code, out, _ = run(capsys, "model", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 8
        assert len(data["table"]) == 8

    def test_model_above_s3_is_a_usage_error(self, capsys, monkeypatch):
        # s = 4 would build a table on 2^20 elements: refuse before any is listed
        def refuse(model):
            raise AssertionError(f"listed the elements of C2 wr C{model.m}")

        monkeypatch.setattr(oracle.WreathModel, "elements", refuse)
        code, out, err = run(capsys, "model", "4")
        assert code == 3
        assert out == ""
        assert "invalid choice" in err

    def test_exit_code_matches_verdict(self, capsys, d8xc2_path):
        code, out, _ = run(capsys, "verify", d8xc2_path, "--oracle", "--json")
        assert (code == 0) == (json.loads(out)["verdict"] == "pass")
