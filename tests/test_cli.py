"""End-to-end command-line behavior: JSON reports, file round-trips,
exit codes."""

import json
import os
import subprocess
import sys

import pytest

import nihobent
from nihobent import (GF, InternalCheckError, MappingTable, SubiacoParams,
                      boolfn, cli, unit_circle)
from nihobent.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nihobent.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_build_quadratic_frozen(capsys):
    code, doc = run(capsys, "build", "--family", "quadratic",
                    "--m", "2", "--a", "0x1")
    assert code == 0
    assert doc["verdicts"]["bent"] is True
    assert doc["verdicts"]["degree"] == 2
    assert doc["verdicts"]["niho"] is True
    assert doc["outputs"]["weight"] in (6, 10)
    assert doc["outputs"]["trace_form"] == [
        {"subfield": 2, "coeff": "0x1", "exponent": 5}]


def test_build_check_roundtrip(tmp_path, capsys):
    table = tmp_path / "f.tt"
    code, built = run(capsys, "build", "--family", "binomial3",
                      "--m", "3", "--b", "0x5", "--out", str(table))
    assert code == 0
    code, checked = run(capsys, "check", str(table))
    assert code == 0
    assert checked["outputs"]["n"] == 6
    assert checked["outputs"]["weight"] == built["outputs"]["weight"]
    # the file-based verdicts must reproduce the in-process ones exactly
    for key in ("bent", "degree", "niho"):
        assert checked["verdicts"][key] == built["verdicts"][key]


def test_check_zero_function(tmp_path, capsys):
    table = tmp_path / "zero.tt"
    table.write_text("n=2\n0000\n")
    code, doc = run(capsys, "check", str(table))
    assert code == 0
    assert doc["verdicts"]["bent"] is False
    assert doc["verdicts"]["degree"] == 0
    assert doc["outputs"]["spectrum_summary"]["max"] == 4


def test_check_runs_one_walsh_transform(tmp_path, monkeypatch, capsys):
    # the bent verdict is read off the reported spectrum, so check does
    # one butterfly; a one-point flip must still read False
    table = tmp_path / "f.tt"
    assert main(["build", "--family", "binomial3", "--m", "3", "--b",
                 "0x5", "--out", str(table)]) == 0
    n, bits = table.read_text().split()
    flipped = tmp_path / "g.tt"
    flipped.write_text(f"{n}\n{'10'[int(bits[0])]}{bits[1:]}\n")
    odd = tmp_path / "odd.tt"
    odd.write_text("n=3\n01101001\n")
    real = boolfn._walsh_butterfly
    calls = []

    def counted(a):
        calls.append(len(a))
        return real(a)
    monkeypatch.setattr(boolfn, "_walsh_butterfly", counted)
    capsys.readouterr()
    for path, bent in ((table, True), (flipped, False), (odd, None)):
        calls.clear()
        code, doc = run(capsys, "check", str(path))
        assert code == 0 and doc["verdicts"]["bent"] is bent
        assert len(calls) == 1


def test_output_is_deterministic(capsys):
    argv = ("correspond", "--family", "subiaco", "--m", "2", "--b", "0xA")
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0 and first == second


def test_compact_json_flag(capsys):
    code = main(["build", "--family", "quadratic", "--m", "2",
                 "--a", "0x1", "--json"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") == 1
    json.loads(out)


def test_correspond_subiaco_frozen(capsys):
    code, doc = run(capsys, "correspond", "--family", "subiaco",
                    "--m", "3", "--b", "0x1")
    assert code == 0
    corr = doc["outputs"]["correspondence"]
    assert corr["verified"] is True and corr["s"] == "0x0"
    assert doc["verdicts"]["verified"] is True


def test_correspond_adelaide(capsys):
    code, doc = run(capsys, "correspond", "--family", "adelaide",
                    "--m", "2", "--beta", "0x8")
    assert code == 0
    assert doc["verdicts"]["verified"] is True


def test_correspond_with_u_selector(capsys):
    code, doc = run(capsys, "correspond", "--family", "subiaco",
                    "--m", "2", "--b", "0x5", "--u", "fifth:1")
    assert code == 0 and doc["verdicts"]["verified"] is True


def test_opoly_sources(tmp_path, capsys):
    code, doc = run(capsys, "opoly", "--source", "subiaco",
                    "--m", "5", "--case", "1", "--s", "0x11")
    assert code == 0 and doc["verdicts"]["is_opoly"] is True
    code, doc = run(capsys, "opoly", "--source", "adelaide",
                    "--m", "2", "--beta", "0x8")
    assert code == 0 and doc["verdicts"]["is_opoly"] is True
    code, doc = run(capsys, "opoly", "--source", "frobenius",
                    "--m", "6", "--exponent", "2")
    assert code == 0 and doc["verdicts"]["is_opoly"] is False
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(["0x0", "0x1", "0x2", "0x3"]))
    code, doc = run(capsys, "opoly", "--source", "file",
                    "--file", str(path))
    assert code == 0
    assert doc["verdicts"]["is_opoly"] is False
    assert doc["verdicts"]["is_permutation"] is True


@pytest.mark.parametrize("argv, flag", [
    (["--source", "subiaco", "--case", "1"], "--m"),
    (["--source", "frobenius", "--exponent", "1"], "--m"),
    (["--source", "adelaide", "--beta", "0x8"], "--m"),
    (["--source", "file"], "--file"),
])
def test_opoly_missing_input_exits_2(argv, flag, capsys):
    assert main(["opoly", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs {flag}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["opoly", "--source", "subiaco", "--m", "5", "--case", "1",
      "--w", "0x3"], "--w"),
    (["opoly", "--source", "frobenius", "--m", "5", "--exponent", "1",
      "--s", "0x3"], "--s"),
    (["opoly", "--source", "file", "--file", "table.json", "--m", "5"],
     "--m"),
    (["opoly", "--source", "adelaide", "--m", "2", "--beta", "0x8",
      "--case", "1"], "--case"),
    (["correspond", "--family", "subiaco", "--m", "3", "--b", "0x5",
      "--beta", "0x2"], "--beta"),
    (["correspond", "--family", "adelaide", "--m", "2", "--beta", "0x8",
      "--b", "0x5", "--u", "cube"], "--b"),
    (["correspond", "--family", "adelaide", "--m", "2", "--beta", "0x8",
      "--u", "cube"], "--u"),
    (["build", "--family", "quadratic", "--m", "2", "--a", "0x1",
      "--r", "7"], "no r"),
    (["build", "--family", "binomial3", "--m", "3", "--b", "0x5",
      "--r", "2"], "no r"),
    (["build", "--family", "quadratic", "--m", "2", "--a", "0x1",
      "--strict"], "--strict"),
    (["build", "--family", "leander-kholosha", "--m", "3", "--strict"],
     "--strict"),
])
def test_inapplicable_flag_exits_2(argv, flag, capsys):
    # a flag the command would not read is refused, not dropped
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("m, b, code", [(2, "0x6", 0), (2, "0x2", 2),
                                        (3, "0x5", 0)])
def test_build_strict_applies_to_binomial3(m, b, code, capsys):
    # 0x6 is a fifth power in GF(16) and 0x2 is not; at odd m strict mode
    # has no condition to enforce and is still accepted
    argv = ["build", "--family", "binomial3", "--m", str(m), "--b", b]
    assert main([*argv, "--strict"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "fifth power" in captured.err
    else:
        assert json.loads(captured.out)["inputs"]["strict"] is True


def test_opoly_frobenius_exponent_reduced_mod_m(capsys):
    # z^(2^N) depends on N mod m only: a huge N is neither expanded nor
    # refused, and the report still echoes N as given
    argv = ["opoly", "--source", "frobenius", "--m", "5", "--exponent"]
    code, doc = run(capsys, *argv, "1000000000000")
    assert code == 0 and doc["inputs"]["exponent"] == 1000000000000
    assert doc["outputs"]["table"] == [f"0x{z:x}" for z in range(32)]
    assert doc["verdicts"]["is_opoly"] is False
    code, doc = run(capsys, *argv, "1000000000001")
    _, ref = run(capsys, *argv, "1")
    assert code == 0 and doc["outputs"] == ref["outputs"]
    assert doc["verdicts"]["is_opoly"] is True


def test_opoly_file_rejects_non_string_entries(tmp_path, capsys):
    # 19 must not be read as 0x19 = 25; numbers and non-arrays exit 2
    numbers = [x % 20 for x in range(32)]
    for data in (numbers, ["0x0", "0x1", 2, "0x3"], {"0x0": "0x1"}):
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(data))
        assert main(["opoly", "--source", "file", "--file", str(path)]) == 2
    assert "hex strings" in capsys.readouterr().err


# each hex option in a call that is valid with the option's value XY
# written as 0xXY; the value has two decimal digits, so that every
# misspelling below has a form that int(text, 16) reads as 0xXY
HEX_CALLS = {
    "build --a": ["build", "--family", "quadratic", "--m", "3",
                  "--a={}"],
    "build --b": ["build", "--family", "binomial3", "--m", "3", "--b={}"],
    "build --modulus": ["build", "--family", "binomial3", "--m", "2",
                        "--b", "0x1", "--modulus={}"],
    "correspond --b": ["correspond", "--family", "subiaco", "--m", "3",
                       "--b={}"],
    "correspond --beta": ["correspond", "--family", "adelaide", "--m", "4",
                          "--beta={}"],
    "opoly --w": ["opoly", "--source", "subiaco", "--m", "5", "--case",
                  "3", "--w={}"],
    "opoly --s": ["opoly", "--source", "subiaco", "--m", "5", "--case",
                  "1", "--s={}"],
    "opoly --beta": ["opoly", "--source", "adelaide", "--m", "4",
                     "--beta={}"],
    "opoly --modulus": ["opoly", "--source", "frobenius", "--m", "4",
                        "--exponent", "1", "--modulus={}"],
}
HEX_VALUES = {"build --a": "16", "build --modulus": "13",
              "correspond --beta": "35", "opoly --beta": "35",
              "opoly --modulus": "13"}


def _misspell(xy: str) -> list:
    """Spellings of the hex value xy that are not hex bitmasks: a digit
    separator, a sign, spaces, non-ASCII digits."""
    wide = "".join(chr(0xFF10 + int(d)) for d in xy)
    return [f"{xy[0]}_{xy[1]}", f"0x{xy[0]}_{xy[1]}", f" +{xy}", f"+{xy}",
            f"{xy} ", f" {xy}", wide]


@pytest.mark.parametrize("option", sorted(HEX_CALLS))
def test_misspelled_hex_exits_2(option, capsys):
    argv = HEX_CALLS[option]
    xy = HEX_VALUES.get(option, "11")
    # positive control: 0x, 0X and no prefix are all read as 0xXY
    for spelled in (f"0x{xy}", f"0X{xy}", xy):
        assert main([a.format(spelled) for a in argv]) == 0
    capsys.readouterr()
    for spelled in _misspell(xy):
        assert main([a.format(spelled) for a in argv]) == 2, spelled
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected a hex bitmask, got {spelled!r}" in captured.err


def test_misspelled_hex_file_entry_and_index_exit_2(tmp_path, capsys):
    # a table entry "1_1" is not 0x11, and general:1_0 is not index 10
    entries = [f"0x{z:x}" for z in range(32)]
    path = tmp_path / "ident.json"
    for spelled, code in [("0x11", 0), ("0X11", 0), ("11", 0)] \
            + [(bad, 2) for bad in _misspell("11")]:
        entries[0x11] = spelled
        path.write_text(json.dumps(entries))
        assert main(["opoly", "--source", "file", "--file", str(path)]) \
            == code, spelled
    argv = ["correspond", "--family", "subiaco", "--m", "4", "--b", "0x1",
            "--u"]
    assert main([*argv, "general:10"]) == 0
    capsys.readouterr()
    for selector in ("general:1_0", "general: 10", "general:+10"):
        assert main([*argv, selector]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad general index" in captured.err


def test_hex_spellings_give_one_stdout(capsys):
    # the report names each value as read, so 0x1f, 0X1F and 1f print alike
    for argv, value, key in (
            (["correspond", "--family", "subiaco", "--m", "3", "--b"],
             "1f", "b"),
            (["opoly", "--source", "subiaco", "--m", "5", "--case", "1",
              "--s"], "1f", "s"),
            # 0x1d lies on the unit circle of GF(2^8)
            (["opoly", "--source", "adelaide", "--m", "4", "--beta"],
             "1d", "beta")):
        outs = []
        for spelled in (f"0x{value}", f"0X{value.upper()}", value):
            assert main([*argv, spelled]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs.count(outs[0]) == 3
        assert json.loads(outs[0])["inputs"][key] == f"0x{value}"


@pytest.mark.parametrize("size", [0, 3, 6])
def test_opoly_file_rejects_bad_lengths(tmp_path, capsys, size):
    # the empty table is refused like any other length, not by a shift
    path = tmp_path / "short.json"
    path.write_text(json.dumps(["0x0"] * size))
    assert main(["opoly", "--source", "file", "--file", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: table length {size} is not a power of 2\n"


def test_opoly_swapped_file_negative_control(tmp_path, capsys):
    # the Subiaco g of GF(32) with G(2) and G(3) swapped: still a
    # permutation, no longer an o-polynomial
    code, doc = run(capsys, "opoly", "--source", "subiaco",
                    "--m", "5", "--case", "1")
    assert code == 0 and doc["verdicts"]["is_opoly"] is True
    table = doc["outputs"]["table"]
    table[2], table[3] = table[3], table[2]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(table))
    code, doc = run(capsys, "opoly", "--source", "file", "--file", str(path))
    assert code == 0
    assert doc["verdicts"]["is_opoly"] is False
    assert doc["verdicts"]["is_permutation"] is True


def test_opoly_degree_limit(tmp_path, capsys, monkeypatch):
    # the test refuses more rows times q than the full scan at m = 16;
    # a Subiaco member counts all q - 1 rows, so it is refused before
    # any catalog table is built, and m = 21 hits the field degree cap
    def never(*args):
        raise AssertionError("catalog table built above the work limit")

    for name in ("subiaco_fs", "subiaco_pair"):
        monkeypatch.setattr(cli, name, never)
    work = "r = 131071 rows of q = 131072 values"
    for argv, message in (
            (["--source", "subiaco", "--m", "17", "--case", "1"], work),
            (["--source", "subiaco", "--m", "20", "--case", "3", "--w",
              "0x3", "--s", "0x1"], "r = 1048575 rows of q = 1048576"),
            (["--source", "frobenius", "--m", "21", "--exponent", "1"],
             "field degree must be in 1..20")):
        assert main(["opoly", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    # a monomial with r = 1 is decided above m = 16; the identity,
    # r = q - 1, is refused by the test itself
    code, doc = run(capsys, "opoly", "--source", "frobenius", "--m", "17",
                    "--exponent", "1", "--json")
    assert code == 0 and doc["verdicts"]["is_opoly"] is True
    table = doc["outputs"]["table"]
    assert main(["opoly", "--source", "frobenius", "--m", "17",
                 "--exponent", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and work in captured.err

    # a file is read first: two swapped entries take the monomial
    # symmetry away, and a table that is no permutation is no o-polynomial
    reads = []
    from_json = cli.MappingTable.from_json
    monkeypatch.setattr(cli.MappingTable, "from_json",
                        lambda *a: reads.append(1) or from_json(*a))
    table[2], table[3] = table[3], table[2]
    path = tmp_path / "swapped17.json"
    path.write_text(json.dumps(table))
    assert main(["opoly", "--source", "file", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and work in captured.err
    assert reads == [1]
    path.write_text(json.dumps(["0x0"] * (1 << 17)))
    code, doc = run(capsys, "opoly", "--source", "file", "--file",
                    str(path), "--json")
    assert code == 0 and reads == [1, 1]
    assert doc["verdicts"] == {"is_opoly": False, "is_permutation": False}


def test_check_one_bit_flip_negative_control(tmp_path, capsys):
    table = tmp_path / "f.tt"
    code, built = run(capsys, "build", "--family", "binomial3",
                      "--m", "3", "--b", "0x5", "--out", str(table))
    assert code == 0 and built["verdicts"]["bent"] is True
    assert built["verdicts"]["niho"] is True
    header, row = table.read_text().split()
    flipped = row[:9] + "10"[int(row[9])] + row[10:]
    table.write_text(f"{header}\n{flipped}\n")
    code, doc = run(capsys, "check", str(table))
    assert code == 0
    assert doc["verdicts"]["bent"] is False
    assert doc["verdicts"]["niho"] is False


def test_build_check_correspond_at_m9(tmp_path, capsys):
    # GF(2^18) runs the same table path as the small fields; a one-bit
    # flip of the written table is the negative control
    table = tmp_path / "f.tt"
    code, built = run(capsys, "build", "--family", "binomial3",
                      "--m", "9", "--b", "0x5", "--out", str(table))
    assert code == 0
    assert built["verdicts"] == {"bent": True, "degree": 9,
                                 "degree_matches_expected": True,
                                 "niho": True}
    code, checked = run(capsys, "check", str(table))
    assert code == 0
    assert checked["verdicts"] == {"bent": True, "degree": 9, "niho": True}
    code, doc = run(capsys, "correspond", "--family", "subiaco",
                    "--m", "9", "--b", "0x5")
    assert code == 0 and doc["verdicts"]["verified"] is True
    header, row = table.read_text().split()
    assert header == "n=18"
    flipped = row[:9] + "10"[int(row[9])] + row[10:]
    table.write_text(f"{header}\n{flipped}\n")
    code, doc = run(capsys, "check", str(table))
    assert code == 0
    assert doc["verdicts"]["bent"] is False
    assert doc["verdicts"]["niho"] is False


def test_check_rejects_malformed_tables(tmp_path, capsys):
    # wrong length, a stray character, a bad header, a size above the
    # field cap: exit 2, no stdout
    for text, message in (("n=2\n011\n", "expected 2^2 characters"),
                          ("n=2\n01.0\n", "expected 2^2 characters"),
                          ("n=x\n0110\n", "bad table header 'n=x'"),
                          ("n=21\n0\n", "table size n=21 out of range")):
        table = tmp_path / "bad.tt"
        table.write_text(text)
        assert main(["check", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_exit_code_precondition(capsys):
    assert main(["build", "--family", "binomial3", "--m", "2",
                 "--b", "0x0"]) == 2
    assert main(["build", "--family", "binomial4", "--m", "2",
                 "--b", "0x1"]) == 2
    assert main(["check", "/nonexistent/file.tt"]) == 2
    assert main(["correspond", "--family", "subiaco", "--m", "2"]) == 2
    # GF(2^22) is above the field cap
    assert main(["build", "--family", "binomial3", "--m", "11",
                 "--b", "0x5"]) == 2
    assert capsys.readouterr().out == ""


def test_spectrum_out(tmp_path, capsys):
    table = tmp_path / "f.tt"
    spec = tmp_path / "spec.json"
    assert main(["build", "--family", "quadratic", "--m", "2",
                 "--a", "0x1", "--out", str(table)]) == 0
    assert main(["check", str(table), "--spectrum-out", str(spec)]) == 0
    values = json.loads(spec.read_text())
    assert sorted(set(values)) == [-4, 4]
    capsys.readouterr()


def _alone(argv):
    """(exit code, stdout) of one call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "nihobent", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    return proc.returncode, proc.stdout


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([f"0x{x:x}" for x in (0, 1, 4, 5, 3, 2,
                                                     7, 6)]))
    calls = [
        ["opoly", "--source", "subiaco", "--m", "5", "--case", "1",
         "--s", "0x3", "--json"],
        ["correspond", "--family", "subiaco", "--m", "3", "--b", "0x5"],
        ["opoly", "--source", "frobenius", "--m", "4"],
        ["opoly", "--source", "file", "--file", str(path), "--json"],
        ["opoly", "--source", "subiaco", "--m", "5", "--case", "1",
         "--s", "0x3", "--json"],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
        # a usage error from argparse itself leaves the parser intact
        with pytest.raises(SystemExit) as exc:
            main(["opoly", "--source", "nowhere"])
        assert exc.value.code == 2
        capsys.readouterr()
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 0]
    assert in_process[2][1] == "" and in_process[0] == in_process[4]
    for argv, got in zip(calls, in_process):
        assert got == _alone(argv)


def test_verdicts_are_python_bools(tmp_path, monkeypatch, capsys):
    reports = []
    real_emit = cli._emit

    def emit(report, compact):
        reports.append(report)
        real_emit(report, compact)

    monkeypatch.setattr(cli, "_emit", emit)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(["0x0", "0x1", "0x1", "0x3"]))
    for argv in (["opoly", "--source", "frobenius", "--m", "5",
                  "--exponent", "2"],
                 ["opoly", "--source", "frobenius", "--m", "6",
                  "--exponent", "2"],
                 ["opoly", "--source", "file", "--file", str(path)],
                 ["opoly", "--source", "adelaide", "--m", "2",
                  "--beta", "0x8"],
                 ["correspond", "--family", "adelaide", "--m", "2",
                  "--beta", "0x8"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(reports) == 5
    for report in reports:
        assert report["verdicts"]
        for value in report["verdicts"].values():
            assert type(value) is bool
    assert [r["verdicts"].get("is_permutation") for r in reports] \
        == [True, True, False, True, None]
    assert [r["verdicts"].get("is_opoly") for r in reports] \
        == [True, False, False, True, None]


def test_closed_stdout_exits_141_without_traceback():
    # the read end is closed before the child starts, so its first write of
    # the (more than 64 KiB) report fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nihobent", "opoly", "--source",
             "frobenius", "--m", "12", "--exponent", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr


def _table_calls(tmp_path) -> list:
    """Every opoly source and both correspond families at m = 2..8, with
    the parameters each m admits."""
    calls = []
    for m in range(2, 9):
        opoly = ["opoly", "--m", str(m), "--source"]
        cases = [["--case", "1"]] if m % 2 else []
        if m % 4 == 2:
            cases.append(["--case", "2"])
        # case 3 has no w at m = 2
        for w in SubiacoParams.case_iii_w_options(GF(m))[:1]:
            cases += [["--case", "3", "--w", hex(w.bits)],
                      ["--case", "3", "--w", hex(w.bits), "--s", "0x1"]]
        calls += [[*opoly, "subiaco", *case] for case in cases]
        calls.append([*opoly, "frobenius", "--exponent", "1"])
        # table[0] == table[1], so normalized is null
        path = tmp_path / f"halved{m}.json"
        path.write_text(json.dumps([hex(x >> 1) for x in range(1 << m)]))
        calls.append(["opoly", "--source", "file", "--file", str(path)])
        calls.append(["correspond", "--family", "subiaco", "--m", str(m),
                      "--b", "0x1"])
        if m % 2 == 0:
            beta = hex(unit_circle(GF(2 * m))[1])
            calls += [[*opoly, "adelaide", "--beta", beta, *s]
                      for s in ([], ["--s", "0x1"], ["--s", "0x2"])]
            calls.append(["correspond", "--family", "adelaide",
                          "--m", str(m), "--beta", beta])
    return calls


def test_spliced_tables_match_json_dumps(tmp_path, monkeypatch, capsys):
    # the old path, json.dumps of the report with to_json() lists, is the
    # oracle for the spliced output in both layouts
    reports = []
    real_emit = cli._emit

    def emit(report, compact):
        reports.append(report)
        real_emit(report, compact)

    monkeypatch.setattr(cli, "_emit", emit)
    for argv in _table_calls(tmp_path):
        for compact in (False, True):
            assert main(argv + ["--json"] * compact) == 0, argv
            out = capsys.readouterr().out
            report = reports[-1]
            tables = [v for v in report["outputs"].values()
                      if isinstance(v, MappingTable)]
            assert len(tables) == (2 if argv[0] == "correspond" or
                                   report["outputs"]["normalized"] else 1)
            layout = ({"separators": (",", ":")} if compact
                      else {"indent": 2})
            assert out == json.dumps(report, sort_keys=True,
                                     default=lambda t: t.to_json(),
                                     **layout) + "\n", argv


def test_forged_placeholder_exits_3_before_any_output(monkeypatch, capsys):
    # a string that already spells table 0's placeholder makes the token
    # occur twice: _emit refuses it before it writes anything
    table = MappingTable(GF(2), [0, 1, 2, 3])
    for compact in (False, True):
        with pytest.raises(InternalCheckError, match="placeholder 0"):
            cli._emit({"a": "\x000", "b": table}, compact)
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cli, "is_permutation", lambda table: "\x000")
    assert main(["opoly", "--source", "frobenius", "--m", "4",
                 "--exponent", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "placeholder 0" in captured.err


CLI_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "cli")
# x -> x^2 over GF(2^3), the README's table.json
README_TABLE = ["0x0", "0x1", "0x4", "0x5", "0x6", "0x7", "0x2", "0x3"]
# recorded stdout file name -> argv: the README examples, with their
# relative file names, and correspond at circle points picked by index
CLI_CASES = {
    "readme_build": ["build", "--family", "binomial3", "--m", "3",
                     "--b", "0x5", "--out", "f.tt"],
    "readme_check": ["check", "f.tt", "--spectrum-out", "spectrum.json"],
    "readme_correspond_subiaco": ["correspond", "--family", "subiaco",
                                  "--m", "3", "--b", "0x5"],
    "readme_correspond_adelaide": ["correspond", "--family", "adelaide",
                                   "--m", "2", "--beta", "0x8"],
    "readme_opoly_subiaco": ["opoly", "--source", "subiaco", "--m", "5",
                             "--case", "1", "--s", "0x11"],
    "readme_opoly_adelaide": ["opoly", "--source", "adelaide", "--m", "2",
                              "--beta", "0x8"],
    "readme_opoly_frobenius": ["opoly", "--source", "frobenius", "--m", "6",
                               "--exponent", "2"],
    "readme_opoly_file": ["opoly", "--source", "file",
                          "--file", "table.json"],
    **{f"correspond_subiaco_m4_general{i}": [
        "correspond", "--family", "subiaco", "--m", "4", "--b", "0x1",
        "--u", f"general:{i}"] for i in (0, 7, 14)},
    "correspond_subiaco_m8_general200": [
        "correspond", "--family", "subiaco", "--m", "8", "--b", "0x1",
        "--u", "general:200"],
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_frozen(name, tmp_path, monkeypatch, capsys):
    # in an empty directory holding the README's f.tt and table.json, so
    # that the file names in each report are the same on every run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(json.dumps(README_TABLE))
    assert main(list(CLI_CASES["readme_build"])) == 0
    capsys.readouterr()
    assert main(list(CLI_CASES[name])) == 0
    with open(os.path.join(CLI_DATA, f"{name}.json"), encoding="ascii") as fh:
        assert capsys.readouterr().out == fh.read()


def test_correspond_by_circle_index_imports_no_numpy_ma():
    # numpy.ma costs about 10 ms to import and no command needs it
    probe = ("import sys\n"
             "from nihobent import cli\n"
             "code = cli.main(['correspond', '--family', 'subiaco',"
             " '--m', '8', '--b', '1'])\n"
             "sys.exit(code or 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0
