import codecs
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitwreath
from conftest import D8_C2_E64, qualifying_presentations, twisted_presentations
from unitwreath import construct, oracle
from unitwreath.catalog import default_corpus_dir
from unitwreath.cli import _dump, main
from unitwreath.pcgroup import load_file, serialize_presentation

O16 = str(default_corpus_dir() / "o16")
D8 = str(default_corpus_dir() / "o8" / "D8.pc2")


@pytest.fixture()
def d8xc2_path(corpus_dir):
    return str(corpus_dir / "o16" / "D8xC2.pc2")


@pytest.fixture()
def dihedral_file(tmp_path, dihedral_times_c2):
    """Write the conftest's D_(2^n) x C2 (order 2^(n+1), s = n - 2) and return its path, given n."""

    def write(n: int) -> str:
        path = tmp_path / f"D{1 << n}xC2.pc2"
        path.write_text(dihedral_times_c2(n))
        return str(path)

    return write


def run_subprocess(*argv, stdout=subprocess.PIPE, unbuffered=None, address_space=None):
    """The CLI in a child process with a timeout, so that a runaway
    enumeration fails the test instead of hanging it.  unbuffered, when
    given, sets PYTHONUNBUFFERED: "" leaves stdout block-buffered.
    address_space, when given, is the child's RLIMIT_AS in bytes, so that
    a runaway allocation fails in the child alone."""
    src = str(Path(unitwreath.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (address_space, hard))

    return subprocess.run(
        [sys.executable, "-m", "unitwreath.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
        preexec_fn=None if address_space is None else limit,
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["verify", O16], ["verify", O16, "--json"], ["check", D8], ["--help"]])
def test_a_closed_stdout_exits_141_without_a_traceback(argv, unbuffered):
    """stdout is a pipe whose reader closed before the CLI started, as
    `verify ... | head -1` leaves it once head has its line.  Block-buffered,
    the short outputs reach the pipe only at the flush.  Unbuffered, the
    help text's write fails inside argparse, which drops the error itself
    (and exits 0) from Python 3.11 on, and raises it on 3.10 (exit 141)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_subprocess(*argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    codes = {0, 141} if argv == ["--help"] and unbuffered else {141}
    assert proc.returncode in codes and proc.stderr == ""


def test_an_error_keeps_its_traceback_on_a_closed_stdout(monkeypatch):
    """Only a finished run (or argparse's exit) flushes stdout: a fault in
    the run is raised as itself, not as the flush's BrokenPipeError."""
    class ClosedPipe:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError

    def fault(argv):
        raise ValueError("fault")

    monkeypatch.setattr("unitwreath.cli._run", fault)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(ValueError, match="fault"):
        main([])


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

    def test_a_leading_byte_order_mark_is_accepted(self, capsys, tmp_path, d8xc2_path):
        bom = tmp_path / "D8xC2.pc2"
        bom.write_bytes(codecs.BOM_UTF8 + Path(d8xc2_path).read_bytes())
        assert load_file(bom).right == load_file(d8xc2_path).right
        plain = run(capsys, "check", d8xc2_path, "--json")
        assert run(capsys, "check", str(bom), "--json") == plain
        assert plain[0] == 0
        bom.write_bytes(codecs.BOM_UTF8 + b"group X\xff\ngens a b\n")
        code, _, err = run(capsys, "check", str(bom))
        assert code == 3 and err.endswith("not UTF-8 text (invalid start byte at byte 10)\n")

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
    if "--cap" in argv:  # an option no subcommand knows: the top level refuses it
        assert err.startswith("usage: unitwreath [-h] ")
        assert "unrecognized arguments: --cap" in err
    elif argv[0] in ("verify", "scan", "model"):  # the subcommand's usage line, not the top level's
        assert err.startswith(f"usage: unitwreath {argv[0]} ")


class TestLargeGroups:
    """Orders above the group algebra's table limit (512): consistency is
    still proved, and `verify` gives the certificate's verdict without the
    algebra."""

    # the inconsistent order-8 presentation (b^a = b^2 = 1) with 9 free generators
    INCONSISTENT_2048 = (
        "group Bad2048\ngens a b f1 f2 f3 f4 f5 f6 f7 f8 f9\nconj b a = b b\n"
    )
    CONSISTENT_1024 = D8_C2_E64

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_inconsistent_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "bad.pc2"
        path.write_text(self.INCONSISTENT_2048)
        code, out, err = run(capsys, command, str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "overlap (b·a)·a" in err

    ABOVE_THE_TABLE_LIMIT = (
        "algebra cross-check not run: order {} is above 512, the largest order whose "
        "group algebra is built"
    )

    def test_above_table_limit_passes(self, capsys, tmp_path):
        path = tmp_path / "big.pc2"
        path.write_text(self.CONSISTENT_1024)
        code, out, err = run(capsys, "verify", str(path), "--json")
        assert (code, err) == (0, "")
        section = json.loads(out)["section"]
        assert section["verdict"] == "pass" and section["quotient_order"] == 8
        assert section["detail"] == self.ABOVE_THE_TABLE_LIMIT.format(1024)

    def test_orders_of_more_than_4300_digits_print(self, dihedral_file):
        # D65536 x C2 (order 2^17, m = 16,384): |X| = 2^16384 has 4,933
        # digits, more than CPython turns into a string
        path = dihedral_file(16)
        proc = run_subprocess("verify", path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "  base |X| = 2^16384, ambient |<X,a>| = 2^16399, kernel = 2, " in proc.stdout
        proc = run_subprocess("verify", path, "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        section = json.loads(proc.stdout)["section"]
        assert section["verdict"] == "pass" and section["base_order"] == "2^16384"
        assert (section["kernel_order"], section["quotient_order"]) == (2, "2^16398")
        assert section["detail"] == self.ABOVE_THE_TABLE_LIMIT.format(131072)

    # 30 generators and no relation: order 2^30, whose tables would hold 30·2^30 entries
    WIDE_2_30 = "group E30\ngens " + " ".join(f"g{i}" for i in range(30)) + "\n"
    LOAD_LIMIT_ERROR = (
        "error: E30: order 1073741824 is above 262144, the largest order whose "
        "product tables are built at load\n"
    )

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_above_the_load_limit_exits_3(self, tmp_path, command):
        path = tmp_path / "wide.pc2"
        path.write_text(self.WIDE_2_30)
        proc = run_subprocess(command, str(path), "--json", address_space=1 << 30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", self.LOAD_LIMIT_ERROR)

    def test_a_sweep_lists_a_group_above_the_load_limit(self, tmp_path, d8xc2_path):
        (tmp_path / "D8xC2.pc2").write_text(Path(d8xc2_path).read_text())
        (tmp_path / "wide.pc2").write_text(self.WIDE_2_30)
        proc = run_subprocess("verify", str(tmp_path), "--json", address_space=1 << 30)
        assert (proc.returncode, proc.stderr) == (3, "")
        data = json.loads(proc.stdout)
        assert [(p["group"], p["verdict"]) for p in data["pipelines"]] == [("D8xC2", "pass")]
        assert data["census"]["errors"] == [
            {"name": "wide", "error": self.LOAD_LIMIT_ERROR.removeprefix("error: ").rstrip()}
        ]

    @staticmethod
    def d8_times_c2_power(tmp_path, e):
        """A file of D8 x C2^e (order 2^(e+3)): D8's a, c, b, then z and
        e - 1 free generators."""
        path = tmp_path / f"D8xC2^{e}.pc2"
        free = " ".join(f"f{i}" for i in range(1, e))
        path.write_text(f"group D8xC2^{e}\ngens a c b z {free}\npow a = c\nconj b a = b c\n")
        return str(path)

    def test_the_widest_loadable_group(self, capsys, tmp_path):
        # D8 x C2^15, of order 2^18 = LOAD_LIMIT: the widest group that
        # loads gets its report and the certificate's verdict
        path = self.d8_times_c2_power(tmp_path, 15)
        code, out, err = run(capsys, "check", path, "--json")
        assert (code, err) == (0, "") and "Traceback" not in out
        report = json.loads(out)
        assert report["order"] == 1 << 18 and report["pass"]
        code, out, err = run(capsys, "verify", path, "--json")
        assert (code, err) == (0, "") and "Traceback" not in out
        data = json.loads(out)
        assert data["order"] == 1 << 18 and data["verdict"] == "pass"
        assert data["section"]["detail"] == self.ABOVE_THE_TABLE_LIMIT.format(1 << 18)

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_one_generator_past_the_widest_exits_3(self, capsys, tmp_path, command):
        # D8 x C2^16, of order 2^19: one line, the load limit's message
        code, out, err = run(capsys, command, self.d8_times_c2_power(tmp_path, 16), "--json")
        assert (code, out) == (3, "")
        assert err == ("error: D8xC2^16: order 524288 is above 262144, the largest order "
                       "whose product tables are built at load\n")

    def test_directory_sweep_keeps_going(self, capsys, tmp_path, d8xc2_path):
        (tmp_path / "D8xC2.pc2").write_text(Path(d8xc2_path).read_text())
        (tmp_path / "big.pc2").write_text(self.CONSISTENT_1024)
        code, out, _ = run(capsys, "verify", str(tmp_path), "--json")
        assert code == 0
        data = json.loads(out)
        assert [(p["group"], p["verdict"]) for p in data["pipelines"]] == [
            ("D8xC2", "pass"), ("D8xC2xE64", "pass")
        ]
        assert [p["section"]["detail"] for p in data["pipelines"]] == [
            None, self.ABOVE_THE_TABLE_LIMIT.format(1024)
        ]
        assert data["census"]["errors"] == [] and data["verdict"] == "pass"


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

    def test_closure_cap_exits_3(self, capsys, dihedral_file):
        # D16 x C2 (s = 2): no option sets the closures' caps, so --cap is
        # a usage error, and the cross-check runs, bounded by its
        # certified orders
        path = dihedral_file(4)
        code, out, err = run(capsys, "verify", path, "--cap", "32", "--json")
        assert (code, out) == (3, "")
        assert err.startswith("usage: unitwreath [-h] ")
        assert err.endswith("unitwreath: error: unrecognized arguments: --cap 32\n")
        code, out, err = run(capsys, "verify", path, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["section"]["detail"] is None

    def test_a_capped_section_names_its_closure(self, capsys, monkeypatch, tmp_path, corpus_dir):
        # o32_45 (s = 2, k = 3): a witness that certifies k = 2 caps the
        # kernel <a^4>, of 2 elements, at 2^(k-s) = 1, so the algebra
        # disagrees with the certificate: a verdict (exit 2) that names the
        # closure, in one file and in a sweep
        real = construct.select_witness
        monkeypatch.setattr(construct, "select_witness",
                            lambda *args, **kw: replace(real(*args, **kw), k=2))
        path = tmp_path / "o32_45.pc2"
        path.write_text((corpus_dir / "o32" / "o32_45.pc2").read_text())
        message = ("the algebra cross-check differs from the certificate at the section's "
                   "kernel <a^4>: past its certified order 1")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (2, "")
        assert f"  error: {message}\n  verdict: FAIL\n" in out
        code, out, err = run(capsys, "verify", str(tmp_path), "--json")
        assert (code, err) == (2, "")
        data = json.loads(out)
        assert data["census"]["errors"] == []
        assert [(p["group"], p["error"]) for p in data["pipelines"]] == [("o32_45", message)]

    # the certified quotient <X, a>/<a^m>, of order 2^(m+s), is the
    # cross-check's largest closure; above oracle.DEFAULT_CAP it does not run
    QUOTIENT_ABOVE_THE_CAP = (
        "algebra cross-check not run: its quotient <X, a>/<a^{}> has 2^{} elements, above 65536"
    )

    def test_cap_bounds_the_base_group(self, dihedral_file):
        # D128 x C2 (s = 5): X has 2^32 elements and the quotient 2^37: the
        # algebra cross-check, which would list X, does not run, and the
        # certificate's verdict stands; the base group's own refusal is
        # tested in test_construct
        proc = run_subprocess("verify", dihedral_file(7), "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        section = json.loads(proc.stdout)["section"]
        assert section["verdict"] == "pass" and section["base_order"] == 1 << 32
        assert section["detail"] == self.QUOTIENT_ABOVE_THE_CAP.format(32, 37)

    def test_cap_bounds_the_ambient_group_before_closing_it(self, dihedral_file):
        # D64 x C2 (s = 4): |X| = 2^16 fits the cap, but the quotient has
        # 2^20 elements, which is known before the cross-check's closures start
        proc = run_subprocess("verify", dihedral_file(6), "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        section = json.loads(proc.stdout)["section"]
        assert section["verdict"] == "pass" and section["ambient_order"] == 1 << 21
        assert section["detail"] == self.QUOTIENT_ABOVE_THE_CAP.format(16, 20)

    def test_oracle_skip_is_reported(self, capsys, dihedral_file):
        # D32 x C2 has s = 3, above the oracle's limit
        code, out, _ = run(capsys, "verify", dihedral_file(5), "--oracle", "--json")
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
        assert err.startswith("usage: unitwreath verify ")
        assert "--witness applies to one presentation file" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a=a,b=b,z=z,q=c", "unknown witness key 'q'"),
            ("a=a,b=b,z=z,a=a", "witness key 'a' given twice"),
            ("a=,b=b,z=z", "witness key 'a' has an empty word"),
            ("a=a,b= ,z=z", "witness key 'b' has an empty word"),
            ("a=a,b=b,z= * ", "witness key 'z' has an empty word"),
            ("a=a,b,z=z", "bad witness component 'b'"),
            ("a=a,b=b", "witness override missing ['z']"),
            ("a=a,b=q,z=z", "unknown generator 'q' in word 'q'"),
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


# D32 x C2 has s = 3, above the corpus sweeps' s <= 2: its quotient of
# order 2048 is the largest section closure that these tests run, and with
# --oracle its verdict carries the skip detail
@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "7e5737b2b4a38e7545612f4aedb786808f8b83c70de6652bf0a1725aac54053d"),
        (["--oracle"], "8df30dde08eed47097a2fc4c9cf593533ff17974bb87d80f929e29c4c4bcca5a"),
    ],
)
def test_an_s3_verdict_json_is_pinned(capsys, dihedral_file, flags, digest):
    code, out, err = run(capsys, "verify", dihedral_file(5), "--json", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_json_over_the_corpus_is_pinned(capsys):
    """check --json on each of the 73 corpus files, in sorted order: the
    hypothesis reports of the groups that the sweeps above do not pin."""
    paths = sorted(default_corpus_dir().rglob("*.pc2"))
    assert len(paths) == 73
    out = "".join(run(capsys, "check", str(path), "--json")[1] for path in paths)
    digest = "6607cfbc9b214d9b77d7db0d67f8bcd1df13af5f24e6d910e3b89e4462c858bd"
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

    @pytest.mark.parametrize("missing, why", [(False, "Not a directory"),
                                              (True, "No such file or directory")],
                             ids=["file", "missing"])
    def test_a_path_that_is_no_directory_exits_3(self, capsys, d8xc2_path, tmp_path,
                                                 missing, why):
        path = str(tmp_path / "missing") if missing else d8xc2_path
        assert run(capsys, "scan", path) == (3, "", f"error: {path}: {why}\n")


class TestText:
    """The text that verify, scan and model print without --json."""

    def test_verify_a_passing_file(self, capsys, d8xc2_path):
        code, out, err = run(capsys, "verify", d8xc2_path, "--oracle")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        start = lines.index("  witness: a = a, b = b, z = z  (s = 1, k = 2)")
        assert lines[start + 1:] == [
            "  orbit of h = 1 + b(1+z) under conjugation by a:",
            "    h^(a^0) = 1 + b + b·z",
            "    h^(a^1) = 1 + c·b + c·b·z",
            "  base |X| = 4, ambient |<X,a>| = 16, kernel = 2, section = 8",
            *(f"    {name:<34} ok" for name in construct.CHECK_NAMES),
            "  verdict: pass",
        ]

    def test_verify_and_scan_a_directory(self, capsys, corpus_dir, tmp_path):
        """verify <dir> prints scan's census, then each passing pipeline."""
        code, out, err = run(capsys, "verify", str(corpus_dir / "o16"))
        assert (code, err) == (0, "")
        _, census, _ = run(capsys, "scan", str(corpus_dir / "o16"))
        assert out.startswith(census + "group D8xC2 of order 16\n")
        assert out.count("  verdict: pass\n") == 4 and out.endswith("\nsweep verdict: pass\n")
        lines = census.splitlines()
        assert len(lines) == 15
        assert lines[:3] == [
            "order 16: 4 of 14 groups satisfy the hypotheses",
            "  D8xC2        pass  s=1",
            "  o16_01       fail  abelian",
        ]
        (tmp_path / "bad.pc2").write_text("group X\ngens a\npow a = q\n")
        code, out, _ = run(capsys, "scan", str(tmp_path))
        assert code == 3
        assert out.startswith(f"  ERROR bad: {tmp_path / 'bad.pc2'}:line 3: unknown generator 'q'")

    def test_model(self, capsys):
        code, out, _ = run(capsys, "model", "1")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "C2 wr C2: order 8"
        _, dump, _ = run(capsys, "model", "1", "--json")
        assert [list(map(int, line.split())) for line in lines[1:]] == json.loads(dump)["table"]


class TestPipelineErrors:
    """The error a pipeline records, for each way a run can stop short."""

    def test_a_hypothesis_failure(self, capsys):
        code, out, err = run(capsys, "verify", D8, "--json")
        data = json.loads(out)
        assert (code, err) == (1, "")
        assert data["error"] == "hypotheses fail: no-central-involution-outside-derived"
        assert "witness" not in data and data["verdict"] == "fail"

    def test_a_construction_shown_false(self, capsys, monkeypatch, d8xc2_path):
        def refute(group, w):
            raise construct.ConstructionError("orbit refuted")

        monkeypatch.setattr(construct, "certify", refute)
        code, out, err = run(capsys, "verify", d8xc2_path, "--json")
        data = json.loads(out)
        assert (code, err) == (2, "")
        assert data["error"] == "orbit refuted" and data["verdict"] == "fail"
        assert data["witness"]["b"] == "b"
        assert "orbit" not in data and "section" not in data

    def test_a_rejected_witness_override(self, capsys, d8xc2_path):
        # the search always finds a witness (select_witness proves it): only
        # an override can be refused, and that is an input error
        code, out, err = run(capsys, "verify", d8xc2_path, "--json", "--witness", "a=c,b=c,z=z")
        assert (code, out) == (3, "")
        assert err == "error: override pair (b, a) = (c, c) violates the witness side conditions\n"


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


# keys and strings the writer must quote as json does: non-ASCII, quotes,
# backslashes, control characters and a surrogate
ESCAPED = st.sampled_from(["·", "é", "ü·z", 'a"b', "\\", "\n", "\t", "\x00", "\x7f", "\ud800", "", "𝔾"])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(1 << 80), 1 << 80)
    | st.text() | ESCAPED,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | ESCAPED, inner, max_size=4),
    max_leaves=30,
)


class TestDump:
    """cli._dump writes what json.dumps(obj, indent=2, sort_keys=True) writes."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_matches_json_dumps(self, obj):
        assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], 1 << 64, -(1 << 65), True, None, "·",
    ])
    def test_empty_containers_and_scalars(self, obj):
        assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [
        1.5, {1, 2}, {1: "a"}, {"a": [0, 2.0]}, {"b": 1, 2: "c"}, [frozenset()],
    ])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            _dump(obj)


def run_in_process(argv):
    """cli.main on argv, with stdout and stderr captured: (exit code, out, err).
    An exception that escapes main, argparse's SystemExit aside, fails the
    caller: the CLI would have ended in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


MUTATIONS = ("none", "drop", "duplicate", "truncate", "bom", "equals", "unknown")


@st.composite
def presentation_texts(draw):
    """A serialized random presentation, consistent or not, and with one
    mutation of its text: a dropped, duplicated or truncated line, a
    leading byte-order mark, a stray '=', or an unknown generator."""
    pres = draw(twisted_presentations() | qualifying_presentations())
    lines = serialize_presentation(pres).splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    elif mutation == "bom":
        lines.insert(0, "\ufeff")
    elif mutation in ("equals", "unknown"):
        cut = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:cut] + (" = " if mutation == "equals" else " qq ") + lines[i][cut:]
    return "".join(lines)


@pytest.fixture(scope="module")
def presentation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "random.pc2"


@settings(max_examples=100, deadline=None)
@given(presentation_texts())
def test_the_cli_never_ends_in_a_traceback(presentation_file, text):
    """check, verify and verify --oracle, as text and as --json, on random
    and mutated presentations: an exit of 3 prints nothing but one stderr
    line, --json parses and prints the same bytes twice, and a
    presentation that loads (check exits 0 or 1) never makes verify exit
    3.  No exit is 2: the theorem holds on every group that loads."""
    presentation_file.write_text(text, encoding="utf-8")
    path = str(presentation_file)
    codes = {}
    for command in (["check"], ["verify"], ["verify", "--oracle"]):
        code, out, err = run_in_process([*command, path])
        json_code, json_out, json_err = run_in_process([*command, path, "--json"])
        assert (json_code, json_err) == (code, err)
        assert code in (0, 1, 3) and "Traceback" not in out + err
        if code == 3:
            assert out == json_out == "" and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == "" and json.loads(json_out) is not None
            assert run_in_process([*command, path, "--json"]) == (code, json_out, "")
        codes[" ".join(command)] = code
    loads = codes["check"] != 3
    assert (codes["verify"] != 3, codes["verify --oracle"] != 3) == (loads, loads)
