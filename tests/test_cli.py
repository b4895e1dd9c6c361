"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from binframe import BinMatrix, cli, enum_cyclic_gram
from binframe.cli import _COMMANDS, _COMMON, _REQUIRED, _Help, _UsageError, main, parse_args, run
from binframe.equiv import SEARCH_BUDGET
from binframe.formats import FORMATS, render_matrix
from oracles import (
    ArgparseUsageError,
    brute_canonical_form,
    build_parser,
    circulant_int_rows,
    gram_of_columns,
    int_dot,
    int_product_rows,
    matrix_rows_of_columns,
    permute_int_rows,
    random_orthogonal_rows,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_check_parseval_yes(write, capsys):
    path = write("id.txt", "100\n010\n001\n")
    assert run(["check", "parseval", path]) == 0
    assert capsys.readouterr().out == "parseval: yes\n"


def test_check_parseval_no_and_quiet(write, capsys):
    path = write("two.txt", "1\n1\n")
    assert run(["check", "parseval", path]) == 1
    assert run(["check", "parseval", path, "--quiet"]) == 1
    out = capsys.readouterr().out
    assert out == "parseval: no\n"


def test_quiet_drops_the_reason_of_a_no_too(write, capsys):
    """``--quiet`` drops the ``binframe: no: <reason>`` line on stderr as
    well as the answer lines: a hollow Gram candidate gives exit 1 and no
    output at all."""
    path = write("hollow.txt", "011\n101\n110\n")
    assert run(["factor", path]) == 1
    assert capsys.readouterr().err == "binframe: no: not a Gram matrix: all columns even\n"
    assert run(["factor", path, "--quiet"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "")


def test_check_gram_vs_malformed(write, capsys):
    ok = write("j3.txt", "111\n111\n111\n")
    assert run(["check", "gram", ok]) == 0
    asym = write("asym.txt", "01\n00\n")
    assert run(["check", "gram", asym]) == 1
    capsys.readouterr()


def test_check_orthogonal(write, capsys):
    good = write("u.txt", "k=4\n7 11 13 14")
    assert run(["check", "orthogonal", good, "--format", "cols-int"]) == 0
    bad = write("j.txt", "111\n111\n111\n")
    assert run(["check", "orthogonal", bad]) == 1
    capsys.readouterr()


def test_check_json_yes_and_no_with_witness(write, capsys):
    ok = write("id.json", json.dumps({"rows": 3, "cols": 3, "data": ["100", "010", "001"]}))
    assert run(["check", "gram", ok, "--format", "json"]) == 0
    assert run(["check", "parseval", ok, "--format", "json"]) == 0
    asym = write("asym.json", json.dumps({"rows": 2, "cols": 2, "data": ["01", "00"]}))
    assert run(["check", "gram", asym, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        '{"gram": true}\n'
        '{"parseval": true}\n'
        '{"gram": false, "witness": "matrix is not symmetric"}\n'
    )
    assert captured.err == ""


NON_SQUARE = ["10", "01", "11"]


def test_non_square_is_a_mathematical_no(write, capsys):
    """A 3 x 2 matrix is no Gram matrix and no orthogonal matrix: every
    such question answers no with exit 1, as `check gram` does."""
    path = write("m.txt", "".join(row + "\n" for row in NON_SQUARE))
    assert run(["check", "gram", path]) == 1
    assert run(["check", "orthogonal", path]) == 1
    assert capsys.readouterr().out == (
        "gram: no (Gram candidate must be square, got shape (3, 2))\n"
        "orthogonal: no (orthogonality needs a square matrix, got shape (3, 2))\n"
    )
    assert run(["factor", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: no: not a Gram matrix: Gram candidate must be square, got shape (3, 2)\n"


def test_non_square_is_a_mathematical_no_in_json(write, capsys):
    path = write("m.json", json.dumps({"rows": 3, "cols": 2, "data": NON_SQUARE}))
    assert run(["check", "orthogonal", path, "--format", "json"]) == 1
    assert run(["factor", path, "--format", "json", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        '{"orthogonal": false, "witness": "orthogonality needs a square matrix, got shape (3, 2)"}\n'
        '{"ok": false, "reason": "not a Gram matrix: Gram candidate must be square, got shape (3, 2)"}\n'
    )
    assert captured.err == ""


def test_factor_all_ones(write, capsys):
    path = write("j3.txt", "111\n111\n111\n")
    assert run(["factor", path]) == 0
    assert capsys.readouterr().out == "1\n1\n1\n"


def test_factor_hollow_ones_is_negative(write, capsys):
    path = write("m.txt", "011\n101\n110\n")
    assert run(["factor", path]) == 1
    err = capsys.readouterr().err
    assert "all columns even" in err


def test_factor_json_payload_is_self_validating(write, capsys):
    path = write(
        "j3.json", json.dumps({"rows": 3, "cols": 3, "data": ["111", "111", "111"]})
    )
    assert run(["factor", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"]["data"] == ["1", "1", "1"]
    assert doc["theta_star_theta_is_identity"] is True
    assert doc["reproduces_gram"] is True


def test_factor_json_negative_witness(write, capsys):
    path = write(
        "m.json", json.dumps({"rows": 3, "cols": 3, "data": ["011", "101", "110"]})
    )
    assert run(["factor", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert doc["witness"] == [0, 0, 0]


def test_factor_non_idempotent_is_negative(write, capsys):
    path = write("m.txt", "110\n110\n001\n")
    assert run(["factor", path]) == 1
    capsys.readouterr()


def test_gram_subcommand(write, capsys):
    path = write("ones.txt", "1\n1\n1\n")
    assert run(["gram", path]) == 0
    assert capsys.readouterr().out == "111\n111\n111\n"


def test_complement_subcommand(write, capsys):
    path = write("e1.txt", "1\n0\n")
    assert run(["complement", path]) == 0
    assert capsys.readouterr().out == "0\n1\n"


def test_complement_negative(write, capsys):
    path = write("ones.txt", "1\n1\n1\n")
    assert run(["complement", path]) == 1
    assert "odd" in capsys.readouterr().err


def test_complement_of_non_parseval_matrix(write, capsys):
    path = write("m.txt", "110\n011\n")
    assert run(["complement", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: no: matrix is not the analysis matrix of a Parseval frame\n"


def test_complement_of_wide_matrix_is_not_parseval(write, capsys):
    """The first two columns of this 2 x 3 matrix are orthonormal; the
    third, for which GF(2)^2 has no room, makes it not Parseval, since
    the Parseval check is made before the room check."""
    assert run(["complement", write("m.txt", "101\n011\n")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: no: matrix is not the analysis matrix of a Parseval frame\n"


def test_matrix_json_documents_keep_their_key_order(write, capsys):
    """factor, complement and canon write the matrix document first, then
    their extra fields."""
    j3 = write("j3.json", json.dumps({"rows": 3, "cols": 3, "data": ["111"] * 3}))
    theta = write("theta.json", json.dumps({"rows": 4, "cols": 2, "data": ["11", "11", "10", "01"]}))
    m = write("m.json", json.dumps({"rows": 2, "cols": 3, "data": ["011", "100"]}))
    assert run(["factor", j3, "--format", "json"]) == 0
    assert run(["complement", theta, "--format", "json"]) == 0
    assert run(["canon", m, "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"theta": {"rows": 3, "cols": 1, "data": ["1", "1", "1"]}, '
        '"theta_star_theta_is_identity": true, "reproduces_gram": true}\n'
        '{"psi": {"rows": 4, "cols": 2, "data": ["10", "01", "11", "11"]}, '
        '"gram_sum_is_identity": true, "block_is_orthogonal": true}\n'
        '{"matrix": {"rows": 2, "cols": 3, "data": ["001", "110"]}, '
        '"row_perm": [1, 0], "col_perm": [1, 2, 0]}\n'
    )


def test_complement_json_verification(write, capsys):
    path = write("theta.txt", "11\n11\n10\n01\n")
    assert run(["complement", path, "--format", "json"]) == 2  # dense file, json parse fails
    capsys.readouterr()
    path_json = write(
        "theta.json",
        json.dumps({"rows": 4, "cols": 2, "data": ["11", "11", "10", "01"]}),
    )
    assert run(["complement", path_json, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gram_sum_is_identity"] is True
    assert doc["block_is_orthogonal"] is True


def test_extend_rows(write, capsys):
    path = write("seed.txt", "100\n")
    assert run(["extend", path]) == 0
    assert capsys.readouterr().out == "100\n010\n001\n"


def test_extend_obstruction(write, capsys):
    path = write("iota.txt", "111\n")
    assert run(["extend", path]) == 1
    capsys.readouterr()


def test_extend_complete_basis_is_returned_unchanged(write, capsys):
    path = write("basis.txt", "010\n100\n001\n")
    assert run(["extend", path]) == 0
    assert capsys.readouterr().out == "010\n100\n001\n"


def test_extend_non_orthonormal_rows(write, capsys):
    path = write("bad.txt", "110\n")
    assert run(["extend", path]) == 1
    assert "orthonormal" in capsys.readouterr().err


def test_reconstruct(write, capsys):
    path = write("id.txt", "100\n010\n001\n")
    assert run(["reconstruct", path, "--x", "101"]) == 0
    assert capsys.readouterr().out == "101\n"


def test_reconstruct_json_flags_mismatch(write, capsys):
    path = write("f.json", json.dumps({"rows": 2, "cols": 2, "data": ["10", "11"]}))
    assert run(["reconstruct", path, "--x", "01", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reconstruction"] == "11"
    assert doc["equal"] is False


def test_reconstruct_wrong_x_length(write, capsys):
    path = write("id.txt", "100\n010\n001\n")
    assert run(["reconstruct", path, "--x", "10101"]) == 2
    capsys.readouterr()


def test_reconstruct_bad_x_reports_its_column(write, capsys):
    path = write("id.txt", "100\n010\n001\n")
    assert run(["reconstruct", path, "--x", "  1a"]) == 2
    assert capsys.readouterr().err == "binframe: parse error at line 1, column 4: invalid character 'a' in vector\n"


def test_reconstruct_non_spanning(write, capsys):
    path = write("flat.txt", "10\n10\n")
    assert run(["reconstruct", path, "--x", "10"]) == 1
    capsys.readouterr()


def test_enum_orthogonal_cols_int(capsys):
    assert run(["enum", "orthogonal", "--k", "4", "--format", "cols-int"]) == 0
    assert capsys.readouterr().out == "1 2 4 8\n7 11 13 14\n"


def test_enum_orthogonal_rejects_nonrepeating(capsys):
    assert run(["enum", "orthogonal", "--k", "4", "--nonrepeating"]) == 2
    capsys.readouterr()


def test_enum_cyclic_dense(capsys):
    assert run(["enum", "cyclic", "--k", "6"]) == 0
    assert capsys.readouterr().out == "100000\n101010\n"


def test_enum_cyclic_json(capsys):
    assert run(["enum", "cyclic", "--k", "9", "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["first_row"] for d in docs] == ["100000000", "100100100", "111011011", "111111111"]
    assert docs[2]["n"] == 7


def test_enum_cyclic_nonrepeating_dense(capsys):
    assert run(["enum", "cyclic", "--k", "9", "--nonrepeating"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=9 n=7 gram=111011011\n")
    assert out.count("\n") == 11  # header + 9 rows + separating blank


def test_enum_cyclic_jobs_flag(capsys):
    """The catalog is built in one process; there is no --jobs option."""
    assert run(["enum", "cyclic", "--k", "15", "--jobs", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_enum_cyclic_nonrepeating_cols_int(capsys):
    assert run(["enum", "cyclic", "--k", "9", "--nonrepeating", "--format", "cols-int"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    fields = [int(x) for x in line.split()]
    assert fields[0] == int("111011011"[::-1], 2)  # little-endian encoding of the first row
    assert len(fields) == 1 + 7


def test_enum_orthogonal_json_and_dense(capsys):
    assert run(["enum", "orthogonal", "--k", "4", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"k": 4, "columns": [1, 2, 4, 8]}\n'
        '{"k": 4, "columns": [7, 11, 13, 14]}\n'
    )
    assert run(["enum", "orthogonal", "--k", "4", "--format", "dense"]) == 0
    assert capsys.readouterr().out == "1000\n0100\n0010\n0001\n\n1110\n1101\n1011\n0111\n\n"


def test_enum_cyclic_cols_int(capsys):
    assert run(["enum", "cyclic", "--k", "9", "--format", "cols-int"]) == 0
    assert capsys.readouterr().out == "1\n73\n439\n511\n"


def test_enum_cyclic_nonrepeating_json(capsys):
    assert run(["enum", "cyclic", "--k", "9", "--nonrepeating", "--format", "json"]) == 0
    theta = ["1000000", "1100111", "1111001", "0111110", "1010111", "1000101", "0000001", "1001111", "1000011"]
    doc = {"k": 9, "n": 7, "gram_first_row": "111011011", "theta": theta}
    assert capsys.readouterr().out == json.dumps(doc) + "\n"


def test_enum_cyclic_size_guard(capsys):
    """An oversized catalog is refused at once with exit 2; k = 127 runs."""
    start = time.monotonic()
    assert run(["enum", "cyclic", "--k", "511"]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "536870912 entries" in captured.err
    assert run(["enum", "cyclic", "--k", "127"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 512 and all(len(line) == 127 for line in lines)


def test_enum_cyclic_work_guards(capsys):
    """Catalogs within the entry cap whose ranks or factorizations would
    run for minutes or hours are refused at once with exit 2."""
    for argv, message in (
        (["enum", "cyclic", "--k", "1000003"], "k <= 92681"),  # two entries, a quadratic gcd each
        (["enum", "cyclic", "--k", "60041"], "1024 entries"),  # 1024 such gcds
        (["enum", "cyclic", "--nonrepeating", "--k", "257"], "65534 entries to factor"),
        (["enum", "cyclic", "--nonrepeating", "--k", "129"], "1014 entries to factor"),
    ):
        start = time.monotonic()
        assert run(argv) == 2
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    for k in range(1, 37):  # every size the tests and the benchmark factor
        assert run(["enum", "cyclic", "--nonrepeating", "--k", str(k)]) == 0
    capsys.readouterr()


def test_enum_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert run(["enum", "cyclic", "--k", "4", "--output", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == "1000\n"


def test_output_may_name_the_input(write, capsys):
    """``--output`` is opened only once the answer is known, so it may
    name the file the command reads."""
    path = write("m.txt", "10\n01\n11\n")
    assert run(["gram", path, "--output", path]) == 0
    assert capsys.readouterr() == ("", "")
    assert Path(path).read_text() == "101\n011\n110\n"


def test_refusals_leave_an_existing_output_untouched(write, capsys):
    target = write("o.txt", "kept\n")
    for argv in (
        ["check", "parseval", write("bad.txt", "1x\n")],
        ["enum", "orthogonal", "--k", "4", "--nonrepeating"],
        ["enum", "cyclic", "--k", "100000"],
    ):
        assert run([*argv, "--output", target]) == 2, argv
        assert capsys.readouterr().out == ""
        assert Path(target).read_bytes() == b"kept\n", argv


def test_dense_no_creates_an_empty_output(write, tmp_path, capsys):
    target = tmp_path / "no.txt"
    assert run(["factor", write("hollow.txt", "011\n101\n110\n"), "--output", str(target)]) == 1
    assert capsys.readouterr() == ("", "binframe: no: not a Gram matrix: all columns even\n")
    assert target.read_bytes() == b""


def test_output_file_holds_the_stdout_bytes(write, tmp_path, capsys):
    """Every command writes to ``--output`` the bytes it prints, with the
    same exit code and the same stderr."""
    ident = write("id.txt", "100\n010\n001\n")
    hollow = write("hollow.json", _json_matrix(["011", "101", "110"]))
    cases = [
        ["check", "gram", write("j3.json", _json_matrix(["111", "111", "111"])), "--format", "json"],
        ["check", "parseval", write("two.txt", "1\n1\n")],
        ["gram", write("theta.txt", "10\n01\n11\n")],
        ["factor", hollow, "--format", "json"],
        ["factor", write("j3c.txt", "k=3\n7 7 7\n"), "--format", "cols-int"],
        ["complement", write("theta.json", _json_matrix(["11", "11", "10", "01"])), "--format", "json"],
        ["extend", write("seed.txt", "1110000\n0001000\n")],
        ["reconstruct", write("id.json", _json_matrix(["100", "010", "001"])), "--x", "101", "--format", "json"],
        ["enum", "cyclic", "--k", "15", "--nonrepeating"],
        ["enum", "orthogonal", "--k", "4", "--format", "json"],
        ["equiv", "perm", ident, write("p.txt", "010\n100\n001\n")],
        ["canon", write("m.txt", "010\n100\n001\n"), "--mode", "conjugation"],
    ]
    assert {argv[0] for argv in cases} == set(_COMMANDS)
    for i, argv in enumerate(cases):
        code = run(argv)
        printed = capsys.readouterr()
        assert printed.out, argv
        target = tmp_path / f"out{i}.txt"
        assert run([*argv, "--output", str(target)]) == code, argv
        assert capsys.readouterr() == ("", printed.err), argv
        assert target.read_text() == printed.out, argv


def test_directory_as_output_is_refused_after_the_answer(write, tmp_path, capsys):
    """An output that cannot be opened exits 2 with the system's message,
    for a yes and for a no alike, and no "no" line goes to stderr."""
    try:
        open(tmp_path, "w", encoding="utf-8")
    except OSError as e:
        message = f"binframe: {e}\n"
    hollow = write("hollow.txt", "011\n101\n110\n")
    for argv in (
        ["check", "parseval", write("id.txt", "10\n01\n")],
        ["factor", hollow],
        ["factor", write("hollow.json", _json_matrix(["011", "101", "110"])), "--format", "json"],
    ):
        assert run([*argv, "--output", str(tmp_path)]) == 2, argv
        assert capsys.readouterr() == ("", message), argv


def test_equiv_perm(write, capsys):
    a = write("a.txt", "100\n010\n001\n")
    b = write("b.txt", "010\n100\n001\n")
    assert run(["equiv", "perm", a, b]) == 0
    c = write("c.txt", "k=4\n7 11 13 14")
    d = write("d.txt", "k=4\n1 2 4 8")
    assert run(["equiv", "perm", c, d, "--format", "cols-int"]) == 1
    capsys.readouterr()


def test_equiv_switching(write, capsys):
    a = write("a.txt", "10\n11\n01\n")
    b = write("b.txt", "01\n10\n11\n")
    assert run(["equiv", "switching", a, b]) == 0
    capsys.readouterr()


def test_equiv_different_shapes_answer_no(write, capsys):
    """Matrices or frames of different shapes are not equivalent: exit 1."""
    a = write("a.txt", "10\n01\n")
    b = write("b.txt", "10\n01\n11\n")
    assert run(["equiv", "perm", a, b]) == 1
    assert capsys.readouterr().out == "permutation-equivalent: no\n"
    assert run(["equiv", "switching", a, b]) == 1
    assert capsys.readouterr().out == "switching-equivalent: no\n"


def test_equiv_switching_non_spanning(write, capsys):
    """A non-spanning analysis matrix is no frame: a "no" naming the reason."""
    flat = write("flat.txt", "10\n10\n")
    good = write("good.txt", "10\n01\n")
    assert run(["equiv", "switching", good, flat]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: no: vectors do not span GF(2)^2\n"


def test_canon_identity_independent(write, capsys):
    path = write("id.txt", "100\n010\n001\n")
    assert run(["canon", path]) == 0
    assert capsys.readouterr().out == "001\n010\n100\n"


def test_canon_json_certificate(write, capsys):
    path = write("m.txt", "10\n11\n")
    assert run(["canon", path, "--format", "json", "--mode", "conjugation"]) == 2
    capsys.readouterr()
    path_json = write("m.json", json.dumps({"rows": 2, "cols": 2, "data": ["10", "11"]}))
    assert run(["canon", path_json, "--format", "json", "--mode", "conjugation"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["row_perm"] == doc["col_perm"]


def test_canon_size_guard(write, capsys):
    """Inputs past ten permuted indices are answered within the search
    budget, and the weight-profile screen still answers "no" first."""
    identity = write("id11.txt", "".join("0" * i + "1" + "0" * (10 - i) + "\n" for i in range(11)))
    start = time.monotonic()
    assert run(["canon", identity, "--mode", "conjugation"]) == 0
    assert capsys.readouterr().out == Path(identity).read_text()  # conjugation fixes I
    a = write("a.txt", "11100000000\n00011100000\n00000011100\n")
    b = write("b.txt", "00000000111\n00001110000\n01110000000\n")
    assert run(["equiv", "perm", a, b]) == 0
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "permutation-equivalent: yes\n"
    assert captured.err == ""
    c = write("c.txt", "11110000000\n00011100000\n00000011100\n")
    assert run(["equiv", "perm", a, c]) == 1
    capsys.readouterr()


def test_canon_refuses_over_the_search_budget(write, capsys):
    """The 127 x 127 identity in conjugation mode (automorphisms S_127)
    spends the whole budget: exit 2 naming it, and nothing on stdout."""
    k = 127
    path = write("id127.txt", "".join("0" * i + "1" + "0" * (k - 1 - i) + "\n" for i in range(k)))
    assert run(["canon", path, "--mode", "conjugation"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"binframe: error: canonical form is over its search budget of {SEARCH_BUDGET} steps\n"


def test_canon_answers_at_the_search_budget(write, capsys):
    """The largest inputs known to answer within the budget: the 63 x 63
    identity and the 63 x 63 all-ones matrix, the slowest of the 128
    cyclic Grams at k = 63.  Conjugation fixes both, and the first optimal
    permutation is the identity."""
    k = 63
    for rows in (["".join("1" if j == i else "0" for j in range(k)) for i in range(k)], ["1" * k] * k):
        path = write("m63.json", _json_matrix(rows))
        start = time.monotonic()
        assert run(["canon", path, "--format", "json", "--mode", "conjugation"]) == 0
        assert time.monotonic() - start < 30.0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrix"]["data"] == rows
        assert doc["row_perm"] == doc["col_perm"] == list(range(k))


def _json_matrix(rows):
    return json.dumps({"rows": len(rows), "cols": len(rows[0]), "data": rows})


def test_canon_symmetric_inputs_finish(write, capsys):
    """Inputs at the size limit with large automorphism groups (I, J and
    J - I are all twin rows and twin columns) finish at once in both
    modes, and each certificate maps the input onto the printed matrix."""
    k = 10
    inputs = {
        "identity": ["".join("1" if j == i else "0" for j in range(k)) for i in range(k)],
        "ones": ["1" * k] * k,
        "hollow-ones": ["".join("0" if j == i else "1" for j in range(k)) for i in range(k)],
        "shift": ["".join("1" if j == (i + 1) % k else "0" for j in range(k)) for i in range(k)],
    }
    cases = [(name, mode) for name in inputs for mode in ("conjugation", "independent-row-col")]
    inputs["ones-12x10"] = ["1" * k] * 12
    cases.append(("ones-12x10", "independent-row-col"))
    for name, mode in cases:
        rows = inputs[name]
        path = write(f"{name}.json", _json_matrix(rows))
        start = time.monotonic()
        assert run(["canon", path, "--format", "json", "--mode", mode]) == 0
        assert time.monotonic() - start < 1.0, (name, mode)
        doc = json.loads(capsys.readouterr().out)
        rp, cp = doc["row_perm"], doc["col_perm"]
        assert sorted(rp) == list(range(len(rows))) and sorted(cp) == list(range(k))
        assert mode == "independent-row-col" or rp == cp
        assert doc["matrix"]["data"] == ["".join(rows[i][j] for j in cp) for i in rp]


def test_canon_past_ten_indices(write, capsys):
    """Conjugation canonical forms past k = 10: Paley k = 41, the
    hypercube Q6 and a spread of cyclic Grams at k = 63, the identity
    among them.  Each certificate maps its input onto the printed matrix,
    and a random conjugate of the input prints the same matrix."""
    p = 41
    squares = {x * x % p for x in range(1, p)}
    inputs = {
        "paley41": (p, tuple(sum(1 << j for j in range(p) if (i - j) % p in squares) for i in range(p))),
        "q6": (64, tuple(sum(1 << (i ^ (1 << b)) for b in range(6)) for i in range(64))),
    }
    for index, cg in enumerate(enum_cyclic_gram(63)):
        if index % 16 == 0:
            inputs[f"cyclic63-{index}"] = (63, circulant_int_rows(cg.first_row.bits, 63))
    assert inputs["cyclic63-0"][1] == tuple(1 << i for i in range(63))
    rng = random.Random(67)
    for name, (k, rows) in inputs.items():
        perm = tuple(rng.sample(range(k), k))
        printed = []
        for tag, m in (("", rows), ("-conjugate", permute_int_rows(rows, perm, perm))):
            text = ["".join(str((r >> j) & 1) for j in range(k)) for r in m]
            path = write(f"{name}{tag}.json", _json_matrix(text))
            assert run(["canon", path, "--format", "json", "--mode", "conjugation"]) == 0, name
            doc = json.loads(capsys.readouterr().out)
            rp, cp = doc["row_perm"], doc["col_perm"]
            assert rp == cp and sorted(rp) == list(range(k)), name
            assert doc["matrix"]["data"] == ["".join(text[i][j] for j in cp) for i in rp], name
            printed.append(doc["matrix"])
        assert printed[0] == printed[1], name


def test_internal_error_exits_2(write, capsys, monkeypatch):
    """A failed internal check is not a mathematical "no"."""

    def broken(_):
        raise RuntimeError("factorization failed its own check")

    monkeypatch.setattr("binframe.gramfactor.factor_gram", broken)
    path = write("j3.txt", "111\n111\n111\n")
    assert run(["factor", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: internal error: factorization failed its own check\n"


def test_parse_failure_exit_code(write, capsys):
    path = write("bad.txt", "10\n1x\n")
    assert run(["check", "parseval", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "line 2" in err
    # a Unicode digit passes str.isdigit() but is no column integer
    path = write("super.txt", "k=2\n\u00b2\n")
    assert run(["check", "parseval", path, "--format", "cols-int"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "line 2, column 1" in err


def test_oversized_cols_int_header_is_refused_at_once(write, capsys):
    """A few-byte cols-int file may not declare millions of rows."""
    path = write("huge.txt", "k=4000000\n1\n")
    start = time.monotonic()
    assert run(["check", "parseval", path, "--format", "cols-int"]) == 2
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr() == ("", "binframe: parse error at line 1, column 1: k=4000000 is over the limit of 14284 rows\n")


def test_cols_int_full_width_column_at_the_limit_answers(write, capsys):
    """The widest column the cols-int cap admits, 2^14284 - 1 with 4300
    digits, is read and answered, not an internal error."""
    path = write("wide.txt", f"k=14284\n{(1 << 14284) - 1}\n")
    assert run(["check", "parseval", path, "--format", "cols-int"]) == 1
    assert capsys.readouterr() == ("parseval: no\n", "")


def test_int_past_the_int_string_limit_is_a_parse_error(write, capsys):
    """A cols-int header or a JSON integer of 5000 digits is malformed
    input, not an internal error."""
    header = write("header.txt", "k=" + "9" * 5000 + "\n1\n")
    assert run(["check", "parseval", header, "--format", "cols-int"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("binframe: parse error at line 1, column 1: k=999") and err.count("\n") == 1
    assert err.endswith(" is over the limit of 14284 rows\n")
    doc = write("m.json", '{"rows": 1, "cols": 1, "data": ["1"], "note": ' + "9" * 5000 + "}")
    assert run(["check", "parseval", doc, "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("binframe: parse error: invalid JSON: ") and err.count("\n") == 1


def test_deeply_nested_json_is_a_parse_error(write, capsys):
    """JSON nested past the decoder's recursion limit is malformed input,
    not an internal error."""
    doc = write("deep.json", "[" * 100_000)
    assert run(["check", "parseval", doc, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("binframe: parse error: invalid JSON: ") and captured.err.count("\n") == 1
    assert "internal error" not in captured.err


@pytest.mark.parametrize(
    "data,where,byte",
    [
        (b"\xff\xfe1\n", "line 1, column 1", 0xFF),
        (b"10\n0\xff\n", "line 2, column 2", 0xFF),
        # a lone CR breaks a line; a two-byte character is two columns
        (b"1\r\n0\r\xc2\xb2\xc3(\n", "line 3, column 3", 0xC3),
    ],
)
def test_bytes_that_are_not_utf8_are_a_parse_error(data, where, byte, write, tmp_path, capsys):
    """Input that is not UTF-8 is malformed input, located by line and
    byte column of its first bad byte, not an internal error; an existing
    output file is left as it was."""
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    target = write("o.txt", "kept\n")
    assert run(["check", "parseval", str(path), "--output", target]) == 2
    assert capsys.readouterr() == ("", f"binframe: parse error at {where}: byte 0x{byte:02x} is not valid UTF-8\n")
    assert Path(target).read_bytes() == b"kept\n"


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("dense", b"10\n01\n"),
        ("cols-int", b"k=2\n1 2\n"),
        ("json", b'{"rows": 2, "cols": 2, "data": ["10", "01"]}\n'),
    ],
    ids=["dense", "cols-int", "json"],
)
@pytest.mark.parametrize("command", [["check", "parseval"], ["gram"]], ids=["check", "gram"])
def test_a_leading_byte_order_mark_is_skipped(fmt, text, command, tmp_path, capsys):
    """A file that starts with the UTF-8 byte-order mark answers as the
    same file without it, in every format."""
    answers = []
    for name, data in (("plain.txt", text), ("marked.txt", BOM + text)):
        path = tmp_path / name
        path.write_bytes(data)
        answers.append((run([*command, str(path), "--format", fmt]), capsys.readouterr()))
    assert answers[0] == answers[1]
    assert answers[0][0] == 0 and answers[0][1].err == ""


@pytest.mark.parametrize(
    "data, message",
    [
        # decode errors count raw bytes, the mark's three included
        (BOM + b"\xff", "line 1, column 4: byte 0xff is not valid UTF-8"),
        # only one leading mark is skipped; any other is a character
        (b"10\n" + BOM + b"01\n", "line 2, column 1: invalid character '\\ufeff'"),
        (BOM + BOM + b"10\n01\n", "line 1, column 1: invalid character '\\ufeff'"),
    ],
    ids=["bad-byte-after-mark", "mark-on-line-2", "second-leading-mark"],
)
def test_byte_order_mark_error_positions(data, message, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    assert run(["check", "parseval", str(path)]) == 2
    assert capsys.readouterr() == ("", f"binframe: parse error at {message}\n")


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_cr_line_breaks_read_as_lf(newline, tmp_path, capsys):
    """CR LF and a lone CR end a line as LF does, in the positions JSON
    errors report too."""
    doc = b'{"rows": 1,\n"cols": x}'
    path = tmp_path / "m.json"
    path.write_bytes(doc)
    assert run(["check", "parseval", str(path), "--format", "json"]) == 2
    expected = capsys.readouterr()
    assert expected.err.startswith("binframe: parse error at line 2, column 9: ")
    path.write_bytes(doc.replace(b"\n", newline))
    assert run(["check", "parseval", str(path), "--format", "json"]) == 2
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=lambda sep: f"U+{ord(sep):04X}"
)
def test_page_break_does_not_split_a_row(sep, tmp_path, capsys):
    """Only LF, CR LF and a lone CR end a line: ``10<FF>01`` is the one row
    1001, whose Gram matrix is 0, not the 2 x 2 identity."""
    path = tmp_path / "m.txt"
    path.write_bytes(f"10{sep}01\n".encode())
    assert run(["gram", str(path)]) == 0
    assert capsys.readouterr() == ("0\n", "")


# Pieces of each format, some malformed, that the fuzz below splices
# into well-formed documents.
_FUZZ_TOKENS = {
    "dense": [b"0", b"1", b"01", b"10", b"11", b" ", b"\t", b"\n", b"\r\n", b"\r", b"x", b"\xc2\xb2", b"\xff"],
    "cols-int": [b"k=", b"k = ", b"1", b"2", b"7", b"0", b"12", b"9" * 40, b"-1", b" ", b"\n", b"=", b"\xff"],
    "json": [
        *(b"{", b"}", b"[", b"]", b":", b",", b" ", b"\n", b'"rows"', b'"cols"', b'"data"', b'"01"', b'"1"'),
        *(b"1", b"2", b"0", b"-1", b"1.5", b"1e999", b"true", b"null", b'"', b"\\", b"\xff"),
    ],
}
_FUZZ_ARGVS = [
    *(["check", prop, "{0}"] for prop in ("parseval", "orthogonal", "gram")),
    *([command, "{0}"] for command in ("gram", "factor", "complement", "extend")),
    ["reconstruct", "{0}", "--x", "{x}"],
    *(["canon", "{0}", "--mode", mode] for mode in ("independent", "conjugation")),
    *(["equiv", relation, "{0}", "{1}"] for relation in ("switching", "perm")),
]


def _fuzz_input(rng: random.Random, fmt: str) -> bytes:
    """About one time in ten raw random bytes; otherwise a random matrix
    of at most 6 x 6 in ``fmt`` with up to three splices of the format's
    tokens, deletions or replacements."""
    if rng.random() < 0.1:
        return rng.randbytes(rng.randint(0, 16))
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    data = render_matrix(BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows))), fmt).encode()
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(data))
        cut = rng.choice((0, 0, 1, 3))
        data = data[:at] + (rng.choice(_FUZZ_TOKENS[fmt]) if rng.random() < 0.7 else b"") + data[at + cut :]
    return data


def test_fuzzed_input_never_reads_as_an_internal_error(tmp_path, capsys):
    """Every command that reads a file, in every format, on 2,046 short
    seeded inputs from ``_fuzz_input``: each run returns 0, 1 or 2 and
    never reports an internal error."""
    rng = random.Random(23)
    paths = [tmp_path / "a", tmp_path / "b"]
    for _ in range(62):
        for template in _FUZZ_ARGVS:
            for fmt in FORMATS:
                inputs = [_fuzz_input(rng, fmt) for _ in paths]
                for path, data in zip(paths, inputs):
                    path.write_bytes(data)
                x = format(rng.getrandbits(6), "06b")[: rng.randint(1, 6)]
                argv = [arg.format(*paths, x=x) for arg in template] + ["--format", fmt]
                code = run(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "internal error" not in err, (argv, inputs, err)


@pytest.mark.parametrize("fmt", ["cols-int", "json"])
def test_cyclic_rows_past_the_cols_int_limit_are_refused(fmt, write, capsys):
    """At k = 24576 the largest first row has 16385 bits, too many to print
    in decimal: cols-int and JSON refuse before writing anything, and an
    existing output file is left as it was."""
    out = write("out.txt", "kept\n")
    assert run(["enum", "cyclic", "--k", "24576", "--format", fmt, "--output", out]) == 2
    assert capsys.readouterr() == (
        "",
        f"binframe: error: a first row of 16385 bits is over the {fmt} limit of 14284 bits; --format dense prints it\n",
    )
    assert Path(out).read_bytes() == b"kept\n"


def test_cyclic_rows_within_the_cols_int_limit_are_written(capsys):
    """Dense prints the k = 24576 catalog; at k = 14336 the largest first
    row has 12289 bits, so cols-int prints it."""
    assert run(["enum", "cyclic", "--k", "24576"]) == 0
    assert [len(row) for row in capsys.readouterr().out.split()] == [24576, 24576]
    assert run(["enum", "cyclic", "--k", "14336", "--format", "cols-int"]) == 0
    assert [int(row).bit_length() for row in capsys.readouterr().out.split()] == [1, 12289]


def test_missing_file_exit_code(capsys):
    assert run(["check", "parseval", "/nonexistent/m.txt"]) == 2
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["enum", "orthogonal"]) == 2  # missing --k
    capsys.readouterr()


def test_unsupported_size_exit_code(capsys):
    assert run(["enum", "orthogonal", "--k", "9"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_help_lists_every_command_and_its_options(capsys):
    """``-h`` and ``--help``, alone or after any command, exit 0 and write
    usage to stdout only; the top-level text names every command with its
    one-line help, a command's text every one of its options."""
    for argv in (["-h"], ["--help"]):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: binframe [-h] {check,gram,")
        for name, (_, about, _, _) in _COMMANDS.items():
            assert f"  {name} " in captured.out and about in captured.out
    assert len(_COMMANDS) == 9
    for name, (_, about, positionals, own) in _COMMANDS.items():
        for flag in ("-h", "--help"):
            assert run([name, flag]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.startswith(f"usage: binframe {name} [-h] ")
            assert about in captured.out
            for option in ("format", "output", "quiet", *own):
                assert f"--{option}" in captured.out
            for positional, choices in positionals.items():
                assert (positional if choices is None else "{" + ",".join(choices) + "}") in captured.out


# Argument lists the CLI's parser must read exactly as argparse reads them.
# ``_ARGV_OK`` lists argvs both accept, ``_ARGV_REFUSED`` argvs both refuse
# (or answer with help).
_ARGV_OK = [
    # the invocations of these tests (file names are placeholders)
    ["check", "parseval", "m.txt"],
    ["check", "parseval", "m.txt", "--quiet"],
    ["check", "gram", "m.txt"],
    ["check", "orthogonal", "m.txt", "--format", "cols-int"],
    ["check", "parseval", "/nonexistent/m.txt"],
    ["factor", "m.txt"],
    ["factor", "m.txt", "--format", "json"],
    ["gram", "m.txt"],
    ["complement", "m.txt"],
    ["complement", "m.json", "--format", "json"],
    ["extend", "m.txt"],
    ["reconstruct", "m.txt", "--x", "101"],
    ["reconstruct", "m.txt", "--x", "01", "--format", "json"],
    ["reconstruct", "m.txt", "--x", "  1a"],
    ["enum", "orthogonal", "--k", "4", "--format", "cols-int"],
    ["enum", "orthogonal", "--k", "4", "--nonrepeating"],
    ["enum", "orthogonal", "--k", "9"],
    ["enum", "cyclic", "--k", "6"],
    ["enum", "cyclic", "--k", "9", "--format", "json"],
    ["enum", "cyclic", "--k", "9", "--nonrepeating", "--format", "cols-int"],
    ["enum", "cyclic", "--k", "9", "--nonrepeating"],
    ["enum", "cyclic", "--nonrepeating", "--k", "15"],
    ["enum", "cyclic", "--nonrepeating", "--k", "257"],
    ["enum", "cyclic", "--k", "511"],
    ["enum", "cyclic", "--k", "1000003"],
    ["check", "parseval", "m.txt", "--format", "cols-int"],
    ["canon", "m.json", "--mode", "conjugation", "--format", "json"],
    ["enum", "cyclic", "--k", "4", "--output", "out.txt"],
    ["equiv", "perm", "a.txt", "b.txt"],
    ["equiv", "perm", "c.txt", "d.txt", "--format", "cols-int"],
    ["equiv", "switching", "a.txt", "b.txt"],
    ["canon", "m.txt"],
    ["canon", "m.json", "--format", "json", "--mode", "conjugation"],
    ["canon", "m.txt", "--mode", "independent-row-col"],
    # the README
    ["enum", "cyclic", "--k", "15", "--nonrepeating"],
    ["equiv", "switching", "f1.txt", "f2.txt"],
    ["canon", "a.txt", "--mode", "conjugation"],
    # the benchmark's jobs, which add --output to every argv
    ["enum", "cyclic", "--k", "34", "--output", "out/cyclic-k34.txt"],
    ["enum", "cyclic", "--nonrepeating", "--k", "30", "--output", "out/nonrepeating-k30.txt"],
    ["enum", "orthogonal", "--k", "6", "--format", "cols-int", "--output", "out/orthogonal-k6.txt"],
    ["factor", "in/gram-k256-dense.txt", "--format", "dense", "--output", "out/factor-k256-dense.txt"],
    ["complement", "in/theta-k64-json.json", "--format", "json", "--output", "out/complement-k64-json.txt"],
    ["extend", "in/rows-k128.txt", "--output", "out/extend-k128.txt"],
    ["factor", "in/even-gram-k64.txt", "--output", "out/factor-all-even-k64.txt"],
    ["complement", "in/odd-theta-k64.txt", "--output", "out/complement-all-odd-k64.txt"],
    ["canon", "in/gram-a.json", "--mode", "conjugation", "--format", "json", "--output", "out/canon-a.txt"],
    ["equiv", "switching", "in/c.txt", "in/d.txt", "--output", "out/switching-no.txt"],
    ["canon", "in/r.json", "--format", "json", "--output", "out/canon-independent.txt"],
    ["equiv", "perm", "in/r1.txt", "in/r2.txt", "--output", "out/perm-yes.txt"],
    # unique prefixes, "=" forms, options anywhere, "--", negative numbers,
    # repeated options (the last wins)
    ["check", "--form", "json", "parseval", "m.txt"],
    ["check", "--q", "parseval", "--o=out.txt", "m.txt"],
    ["enum", "cyclic", "--k=15", "--non"],
    ["enum", "--k", "15", "cyclic", "--format=cols-int"],
    ["canon", "--m", "conjugation", "m.txt"],
    ["reconstruct", "--x=1011", "m.txt"],
    ["enum", "cyclic", "--k", "-5"],
    ["enum", "cyclic", "--k", " 7 "],
    ["reconstruct", "m.txt", "--x", "-1"],
    ["check", "parseval", "--", "-m.txt"],
    ["check", "--", "parseval", "m.txt"],
    ["enum", "--k", "5", "--", "cyclic"],
    ["check", "parseval", "m.txt", "--"],
    ["check", "parseval", "-5"],
    ["check", "parseval", "-.5"],
    ["check", "parseval", "-a b"],
    ["check", "parseval", "m.txt", "--output", "-"],
    ["check", "parseval", "m.txt", "--format", "json", "--format", "dense"],
    ["enum", "cyclic", "--k", "3", "--k", "4"],
    ["check", "--quiet", "--quiet", "parseval", "m.txt"],
]
_ARGV_REFUSED = [
    [],
    ["--"],
    ["frobnicate"],
    ["-5"],
    ["--", "check", "parseval", "m.txt"],
    ["--quiet", "check", "parseval", "m.txt"],
    ["check"],
    ["enum", "orthogonal"],
    ["reconstruct", "m.txt"],
    ["equiv", "perm", "a.txt"],
    ["check", "parsevel", "m.txt"],
    ["check", "--format", "xml", "parseval", "m.txt"],
    ["canon", "m.txt", "--mode", "conj"],
    ["enum", "cyclic", "--k", "x"],
    ["enum", "cyclic", "--k", "1.5"],
    ["enum", "cyclic", "--k="],
    ["enum", "cyclic", "--k"],
    ["enum", "cyclic", "--k", "--", "5"],
    ["enum", "cyclic", "--k", "--quiet"],
    ["check", "parseval", "m.txt", "--output"],
    ["check", "parseval", "m.txt", "--output", "-o"],
    ["enum", "cyclic", "--k", "15", "--jobs", "2"],
    ["enum", "cyclic", "--", "--k", "5"],
    ["check", "parseval", "m.txt", "extra", "-q"],
    ["check", "parseval", "m.txt", "--", "--quiet"],
    ["check", "parseval", "-1."],
    ["check", "--x", "parseval", "m.txt"],
    ["check", "--=x", "parseval", "m.txt"],
    ["check", "--quiet=1", "parseval", "m.txt"],
    ["enum", "cyclic", "--k", "5", "--no=1"],
    ["check", "--help=1"],
    ["check", "-hx"],
    ["--he=x"],
    ["check", "bad", "-h"],
    ["-h"],
    ["--he"],
    ["check", "-h", "bad"],
    ["enum", "--k", "x", "--help"],
    ["-x", "check", "-h"],
]


def _read(argv):
    try:
        return "ok", vars(parse_args(argv))
    except _UsageError as e:
        return "error", str(e)
    except _Help:
        return "help", None


def _read_by_argparse(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(build_parser().parse_args(argv))
    except ArgparseUsageError as e:
        return "error", str(e)
    except SystemExit as e:
        assert e.code == 0
        return "help", None


def test_parser_agrees_with_argparse():
    """Every argv of the corpus gives the namespace argparse gives, or the
    same refusal with the same message, or help."""
    for argv in _ARGV_OK + _ARGV_REFUSED:
        assert _read(argv) == _read_by_argparse(argv), argv
    assert all(_read(argv)[0] == "ok" for argv in _ARGV_OK)
    refusals = " ".join(_read(argv)[1] or "help" for argv in _ARGV_REFUSED)
    for message in (
        "invalid choice",
        "the following arguments are required",
        "unrecognized arguments",
        "invalid int value",
        "expected one argument",
        "ambiguous option",
        "ignored explicit argument",
        "help",
    ):
        assert message in refusals


def test_ambiguous_prefix_is_refused(monkeypatch):
    """No two options of a command share a prefix, so a ``force`` flag is
    added to ``check`` to show an ambiguous one refused; the message is
    argparse's."""
    handler, about, positionals, own = _COMMANDS["check"]
    force = {**own, "force": (None, False, "a flag sharing a prefix with --format")}
    monkeypatch.setitem(_COMMANDS, "check", (handler, about, positionals, force))
    assert parse_args(["check", "--force", "parseval", "m.txt"]).force is True
    with pytest.raises(_UsageError) as refused:
        parse_args(["check", "--fo", "parseval", "m.txt"])
    assert str(refused.value) == "ambiguous option: --fo could match --format, --force"


# Tokens of malformed argvs: "--", help, negative numbers, "=" forms,
# prefixes, unknown options, bad choices and bad ints among good ones.
_TOKENS = [
    *_COMMANDS, "--", "-h", "--help", "--he", "-hx", "-5", "-.5", "-1.", "-", "", "-a b", "-x", "--=x",
    "--format", "--form", "--fo", "--format=json", "--f=dense", "--output", "--o=out.txt", "--quiet",
    "--quiet=1", "--q", "--k", "--k=5", "--k=", "--x", "--x=101", "--mode", "--m", "--mode=conj",
    "--nonrepeating", "--non", "--no=1", "--jobs", "--zzz", "parseval", "orthogonal", "gram", "parsevel",
    "cyclic", "perm", "switching", "conjugation", "independent-row-col", "conj", "dense", "cols-int",
    "json", "xml", "m.txt", "a.txt", "5", " 7 ", "x", "1.5", "101",
]


def _malformed_argv(rng):
    argv = [rng.choice(_TOKENS) for _ in range(rng.randint(0, 7))]
    if rng.random() < 0.8:
        argv.insert(0, rng.choice(list(_COMMANDS)))
    return argv


def _plain_value(rng, kind):
    if isinstance(kind, tuple):
        return rng.choice(kind)
    if kind is int:
        return rng.choice(["0", "5", "15", "007", " 7 ", "1_000", str(rng.randint(0, 10**6))])
    return rng.choice(["m.txt", "out/a.txt", "a b.txt", "101", "5", "cyclic", "x=1", ""])


def _well_formed_argv(rng):
    """A plainly spelled argv of a random command: its positionals in
    order, with options by their exact names interleaved and repeated
    (every required option at least once)."""
    command = rng.choice(list(_COMMANDS))
    _, _, positionals, own = _COMMANDS[command]
    options = {**_COMMON, **own}
    names = [name for name, spec in options.items() if spec[1] is _REQUIRED]
    names += rng.choices(list(options), k=rng.randint(0, 4))
    rng.shuffle(names)
    argv = [_plain_value(rng, kind) for kind in positionals.values()]
    for name in names:
        kind = options[name][0]
        option = ["--" + name] if kind is None else ["--" + name, _plain_value(rng, kind)]
        at = rng.randint(0, len(argv))
        while at and argv[at - 1][:2] == "--" and options[argv[at - 1][2:]][0] is not None:
            at -= 1  # never between an option and its value
        argv[at:at] = option
    return [command, *argv]


def test_parser_agrees_with_argparse_on_random_argvs(monkeypatch):
    """Seeded random argvs, malformed and plainly spelled, give the
    namespace argparse gives, or the same refusal, or help; no plainly
    spelled argv reaches the CLI's own argparse fallback."""
    rng = random.Random(20)
    outcomes = set()
    for _ in range(1000):
        argv = _malformed_argv(rng)
        outcome = _read(argv)
        assert outcome == _read_by_argparse(argv), argv
        outcomes.add(outcome[0])
    assert outcomes == {"ok", "error", "help"}
    fallbacks = []
    fallback = cli._argparse
    monkeypatch.setattr(cli, "_argparse", lambda argv: fallbacks.append(argv) or fallback(argv))
    for _ in range(1000):
        argv = _well_formed_argv(rng)
        assert _read(argv) == _read_by_argparse(argv), argv
    assert fallbacks == []


def test_usage_errors_print_one_line(capsys):
    """A refused argv exits 2 with argparse's message on one stderr line."""
    assert run(["enum", "cyclic", "--k", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: error: argument --k: invalid int value: 'x'\n"


def test_exit_codes_distinguish_outcomes(write, capsys):
    """0 = yes, 1 = mathematical no, 2 = malformed, pairwise distinct."""
    good = write("good.txt", "1\n1\n1\n")
    assert run(["check", "parseval", good]) == 0
    even = write("even.txt", "1\n1\n")
    assert run(["check", "parseval", even]) == 1
    bad = write("bad.txt", "abc\n")
    assert run(["check", "parseval", bad]) == 2
    capsys.readouterr()


def _run_child(*args):
    """``python *args`` in a child that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, check=False,
    )


def _run_optimized(*argv):
    """``python -O -m binframe.cli`` in a child: asserts are stripped."""
    return _run_child("-O", "-m", "binframe.cli", *argv)


def _dense_rows(lines):
    """Row ints of a dense block, entry i of a line in bit i."""
    return tuple(sum(1 << i for i, ch in enumerate(line) if ch == "1") for line in lines)


def _dense_text(rows, cols):
    return "".join("".join(str((r >> j) & 1) for j in range(cols)) + "\n" for r in rows)


def _assert_factors(theta_lines, m_rows):
    """theta* theta = I and theta theta* = m, from the definitions."""
    k, n = len(theta_lines), len(theta_lines[0])
    cols = matrix_rows_of_columns(_dense_rows(theta_lines), n)
    assert all(int_dot(cols[a], cols[b]) == (a == b) for a in range(n) for b in range(n))
    assert gram_of_columns(cols, k) == tuple(m_rows)


def test_cli_results_hold_under_python_O(write):
    """With asserts stripped, every construction still returns checked
    results: factor (including a fallback seed), complement, extend,
    factor and complement of a random k = 128 Parseval frame, the
    k = 15 repetition-free catalog against tests/data/nonrepeating, a
    conjugation canonical form against the exhaustive search, and both
    answers of equiv switching."""
    c9 = circulant_int_rows(int("111011011"[::-1], 2), 9)
    fallback = (1, 0b1100, 0b1010, 0b0110)  # diag(1, hollow ones): its odd column cannot seed
    for k, m_rows in ((9, c9), (4, fallback)):
        proc = _run_optimized("factor", write(f"m{k}.txt", _dense_text(m_rows, k)))
        assert proc.returncode == 0, proc.stderr
        _assert_factors(proc.stdout.split(), m_rows)

    theta = write("theta.json", json.dumps({"rows": 4, "cols": 2, "data": ["11", "11", "10", "01"]}))
    proc = _run_optimized("complement", theta, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["gram_sum_is_identity"] is True and doc["block_is_orthogonal"] is True
    psi = matrix_rows_of_columns(_dense_rows(doc["psi"]["data"]), 2)
    block = (0b0111, 0b1011) + psi  # columns of (theta | psi)
    assert all(int_dot(block[a], block[b]) == (a == b) for a in range(4) for b in range(4))

    proc = _run_optimized("extend", write("seed.txt", "1110000\n0001000\n"))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.split()
    assert rows[:2] == ["1110000", "0001000"]
    basis = _dense_rows(rows)
    assert len(basis) == 7
    assert all(int_dot(basis[a], basis[b]) == (a == b) for a in range(7) for b in range(7))

    proc = _run_optimized("enum", "cyclic", "--nonrepeating", "--k", "15")
    assert proc.returncode == 0, proc.stderr
    blocks = [b.splitlines() for b in proc.stdout.strip().split("\n\n")]
    reference = {}
    for path in sorted((ROOT / "tests" / "data" / "nonrepeating").glob("k15_n*.txt")):
        reference[int(path.stem.split("_n")[1])] = path.read_text().splitlines()[0]
    emitted = []
    for header, *theta_lines in blocks:
        _, n_field, gram_field = header.split()
        n, first_row = int(n_field[2:]), gram_field[5:]
        emitted.append((n, first_row))
        assert len(theta_lines) == 15 and len(theta_lines[0]) == n
        assert len(set(theta_lines)) == 15
        _assert_factors(theta_lines, circulant_int_rows(int(first_row[::-1], 2), 15))
    assert sorted(emitted) == sorted(reference.items())

    m_rows = permute_int_rows(circulant_int_rows(0b0001011, 7), (3, 6, 0, 5, 1, 4, 2), (3, 6, 0, 5, 1, 4, 2))
    dense = ["".join(str((r >> j) & 1) for j in range(7)) for r in m_rows]
    proc = _run_optimized("canon", write("m7.json", _json_matrix(dense)), "--mode", "conjugation", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    matrix, row_perm, col_perm = brute_canonical_form(m_rows, 7, True)
    assert doc["matrix"]["data"] == ["".join(str((r >> j) & 1) for j in range(7)) for r in matrix]
    assert (tuple(doc["row_perm"]), tuple(doc["col_perm"])) == (row_perm, col_perm)

    # a random k = 128 Parseval frame: its Gram factors and it has a complement
    rng = random.Random(131)
    k, n = 128, 64
    while True:
        theta = [r & ((1 << n) - 1) for r in random_orthogonal_rows(rng, k)]
        if any(not r.bit_count() & 1 for r in theta):
            break
    m_rows = int_product_rows(tuple(theta), matrix_rows_of_columns(tuple(theta), n))
    proc = _run_optimized("factor", write("m128.txt", _dense_text(m_rows, k)))
    assert proc.returncode == 0, proc.stderr
    _assert_factors(proc.stdout.split(), m_rows)
    proc = _run_optimized("complement", write("theta128.json", _json_matrix(_dense_text(theta, n).split())), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    psi = _dense_rows(doc["psi"]["data"])
    block = matrix_rows_of_columns(tuple(t | (p << n) for t, p in zip(theta, psi)), k)
    assert all(int_dot(block[a], block[b]) == (a == b) for a in range(k) for b in range(k))

    # the constructors' own checks: a symmetric matrix that is not
    # idempotent, and rows that are not orthonormal
    for argv, reason in (
        (("factor", write("j2.txt", "11\n11\n")), "not a Gram matrix: matrix is not idempotent"),
        (("extend", write("bad.txt", "110\n")), "rows are not orthonormal: vector 0 is even, (v,v) = 0 != 1"),
    ):
        proc = _run_optimized(*argv)
        assert proc.returncode == 1
        assert proc.stderr == _run_child("-m", "binframe.cli", *argv).stderr == f"binframe: no: {reason}\n"

    # b reorders the vectors of a and swaps two coordinates; c has Gram
    # weight profiles equal to a's, so only the canonical forms tell them apart
    a = write("fa.txt", "011\n110\n110\n001\n011\n")
    for text, expected in (("100\n110\n011\n110\n011\n", 0), ("100\n001\n011\n110\n010\n", 1)):
        proc = _run_optimized("equiv", "switching", a, write("fb.txt", text))
        assert proc.returncode == expected, proc.stderr


def test_cli_import_skips_heavy_stdlib_modules():
    """``import binframe.cli`` loads none of ``dataclasses`` and the
    modules it pulls in (``inspect``, ``ast``, ``dis``, ``tokenize``)
    beyond what a bare interpreter, site hooks included, already has."""
    listing = "import sys; print(' '.join(sorted(sys.modules)))"
    bare = set(_run_child("-c", listing).stdout.split())
    loaded = set(_run_child("-c", "import binframe.cli; " + listing).stdout.split())
    assert "binframe.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & (loaded - bare)


def test_cli_import_without_site_loads_no_heavy_modules():
    """Under ``python -S`` no ``site`` hook imports anything first, so
    ``import binframe.cli`` itself must load none of these."""
    proc = _run_child("-S", "-c", "import sys, binframe.cli; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "binframe.cli" in loaded
    assert not {"argparse", "gettext", "locale", "json", "typing", "re", "dataclasses"} & loaded


def test_plain_jobs_load_no_parser_or_json_modules(write):
    """A job on a plainly spelled argv in a dense format, run to its end,
    adds none of ``argparse``, ``json`` or ``__future__`` to what a bare
    interpreter, site hooks included, already has."""
    listing = "import sys; print(' '.join(sorted(sys.modules)))"
    bare = set(_run_child("-c", listing).stdout.split())
    gram = write("j3.txt", "111\n111\n111\n")
    for argv in (["enum", "cyclic", "--k", "15"], ["factor", gram, "--format", "dense"]):
        code = f"import sys\nfrom binframe.cli import run\nassert run({argv!r}) == 0\nsys.stdout.flush()\n"
        proc = _run_child("-c", code + "print()\n" + listing)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert "binframe.cli" in loaded, argv
        assert not {"argparse", "json", "__future__"} & (loaded - bare), argv


def test_benchmark_argvs_parse_without_argparse():
    """Every benchmark job's argv is read by the plain reader, so parsing
    it in a fresh child leaves ``argparse`` unloaded."""
    jobs = [argv for argv in _ARGV_OK if any(arg.startswith("out/") for arg in argv)]
    assert len(jobs) == 12
    code = f"import sys\nfrom binframe.cli import parse_args\nfor argv in {jobs!r}:\n    parse_args(argv)\n"
    proc = _run_child("-S", "-c", code + "print('binframe.cli' in sys.modules, 'argparse' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"


def test_package_has_no_assert_statements():
    """``python -O`` strips asserts, so the package checks with raises."""
    for path in sorted((ROOT / "src" / "binframe").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_closed_stdout_is_refused_not_a_no(write):
    """With file descriptor 1 closed the interpreter has no sys.stdout: a
    command refuses with exit 2 and one error line, unless --output names
    a file to write instead."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def closed_stdout(*argv):
        return subprocess.run(
            [sys.executable, "-m", "binframe.cli", *argv], stderr=subprocess.PIPE, text=True,
            env=env, timeout=120, check=False, preexec_fn=lambda: os.close(1),
        )

    proc = closed_stdout("enum", "cyclic", "--k", "34")
    assert proc.returncode == 2
    assert proc.stderr == "binframe: error: standard output is closed; use --output PATH\n"
    proc = closed_stdout("--help")
    assert (proc.returncode, proc.stderr) == (2, "binframe: error: standard output is closed\n")
    target = write("out.txt", "")
    proc = closed_stdout("enum", "cyclic", "--k", "4", "--output", target)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert Path(target).read_text() == "1000\n"


def test_main_reports_a_crash_as_an_internal_error(write, capsys, monkeypatch):
    """An exception escaping ``run`` exits 2 through ``main``, never 1."""

    def broken(_):
        raise ValueError("unexpected state")

    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr("binframe.gramfactor.factor_gram", broken)
    monkeypatch.setattr(sys, "argv", ["binframe", "factor", write("j3.txt", "111\n111\n111\n")])
    main()
    assert codes == [2]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "binframe: internal error: ValueError: unexpected state\n"


class _Stream(io.StringIO):
    """A text stream that logs each flush in ``calls``."""

    def __init__(self, name, calls):
        super().__init__()
        self.name, self.calls = name, calls

    def flush(self):
        self.calls.append(("flush", self.name))
        super().flush()


def test_main_flushes_both_streams_then_exits_with_the_code(monkeypatch):
    """``main`` skips interpreter teardown: it runs the job, flushes
    stdout and stderr, and only then hands the code to ``os._exit``."""
    calls = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", calls))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", calls))
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("exit", code)))
    monkeypatch.setattr("binframe.cli.run", lambda argv: calls.append(("run", argv)) or 1)
    monkeypatch.setattr(sys, "argv", ["binframe", "enum", "cyclic", "--k", "4"])
    main()
    assert calls == [("run", ["enum", "cyclic", "--k", "4"]), ("flush", "stdout"), ("flush", "stderr"), ("exit", 1)]


def test_run_never_leaves_the_process(write, capsys, monkeypatch):
    """Library callers of ``run`` keep normal exit and teardown."""
    calls = []
    monkeypatch.setattr(os, "_exit", calls.append)
    assert run(["enum", "cyclic", "--k", "9"]) == 0
    assert run(["factor", write("j3.txt", "111\n111\n111\n")]) == 0
    assert run(["--help"]) == 0
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert calls == []


def _buffered_env():
    """The child environment of ``_run_child`` with stdout block-buffered:
    ``PYTHONUNBUFFERED`` would flush each write and hide a lost tail."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    # what 2>&- can leave when a launcher script starts the interpreter:
    # the script file takes descriptor 2, read-only, so writes fail (EBADF)
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("stderr_state", [_close_stderr, _read_only_stderr])
def test_unwritable_stderr_keeps_every_exit_code(stderr_state, write):
    """When stderr cannot be written no message appears, on stderr or
    stdout, and a refusal still exits 2, never 1; only a real "no"
    exits 1."""
    two = write("two.txt", "1\n1\n")
    cases = [
        (("check", "parseval", str(Path(two).with_name("absent.txt"))), 2, b""),
        (("frobnicate",), 2, b""),
        (("check", "parseval", write("bad.txt", "1x\n")), 2, b""),
        (("check", "parseval", two), 1, b"parseval: no\n"),
        (("check", "parseval", write("id.txt", "10\n01\n")), 0, b"parseval: yes\n"),
    ]
    for argv, code, out in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "binframe.cli", *argv], stdout=subprocess.PIPE, env=_buffered_env(),
            timeout=120, check=False, preexec_fn=stderr_state,
        )
        assert (proc.returncode, proc.stdout) == (code, out), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_final_flush_exits_2():
    """Output still buffered at exit that cannot be written is exit 2 with
    the system's message, not a "no" or the interpreter's exit 120."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "binframe.cli", "enum", "cyclic", "--k", "9"], stdout=full, stderr=subprocess.PIPE,
            text=True, env=_buffered_env(), timeout=120, check=False,
        )
    assert (proc.returncode, proc.stderr) == (2, "binframe: [Errno 28] No space left on device\n")


def test_piped_stdout_keeps_its_buffered_tail(write):
    """``main`` leaves by ``os._exit``; stdout read from a pipe to EOF is
    every byte that ``--output`` writes."""
    argv = [sys.executable, "-m", "binframe.cli", "enum", "cyclic", "--k", "63", "--format", "json"]
    proc = subprocess.run(argv, capture_output=True, env=_buffered_env(), timeout=120, check=True)
    target = write("k63.json", "")
    subprocess.run([*argv, "--output", target], env=_buffered_env(), timeout=120, check=True)
    assert proc.stdout == Path(target).read_bytes()
    assert proc.stdout.count(b"\n") == len(enum_cyclic_gram(63)) > 100


@pytest.mark.parametrize(
    "argv,loads",
    [
        (["factor", "j3.txt"], {"gramfactor"}),
        (["check", "parseval", "i3.txt"], set()),
        (["check", "orthogonal", "i3.txt"], set()),
        (["check", "gram", "j3.txt"], {"gramfactor"}),
        (["enum", "cyclic", "--k", "15"], {"catalog"}),
        (["enum", "orthogonal", "--k", "4"], {"catalog"}),
        (["enum", "cyclic", "--k", "15", "--nonrepeating"], {"catalog", "gramfactor"}),
        (["gram", "t42.txt"], set()),
        (["complement", "t42.txt"], {"naimark"}),
        (["extend", "i3.txt"], {"naimark"}),
        (["reconstruct", "i3.txt", "--x", "101"], set()),
        (["equiv", "perm", "i3.txt", "i3.txt"], set()),
        (["equiv", "switching", "t42.txt", "t42.txt"], set()),
        (["canon", "t42.txt"], set()),
    ],
    ids=[
        "factor", "check-parseval", "check-orthogonal", "check-gram", "enum-cyclic", "enum-orthogonal",
        "enum-nonrepeating", "gram", "complement", "extend", "reconstruct", "equiv-perm", "equiv-switching", "canon",
    ],
)
def test_job_loads_only_its_own_modules(argv, loads, write, capsys):
    """A child imports only the modules its command calls: of ``catalog``,
    ``gramfactor`` and ``naimark``, ``factor`` and ``check gram`` load
    ``gramfactor`` alone, ``complement`` and ``extend`` ``naimark`` alone,
    ``enum`` ``catalog`` and, with ``--nonrepeating``, ``gramfactor``, and
    every other command none.  ``equiv`` (with ``frames``) loads for the
    ``canon --mode`` choices that parsing needs.  The output is the
    in-process output."""
    texts = {"i3.txt": "100\n010\n001\n", "j3.txt": "111\n111\n111\n", "t42.txt": "11\n11\n10\n01\n"}
    argv = [write(a, texts[a]) if a.endswith(".txt") else a for a in argv]
    proc = _run_child("-X", "importtime", "-m", "binframe.cli", *argv)
    assert run(argv) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out != ""
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {f"binframe.{m}" for m in loads | {"equiv", "frames"}} <= loaded
    assert not {f"binframe.{m}" for m in {"catalog", "gramfactor", "naimark"} - loads} & loaded


@pytest.mark.parametrize(
    "command,text,what",
    [
        ("complement", "11\n11\n10\n01\n", "extension"),
        ("extend", "1110000\n0001000\n", "extension"),
        ("factor", "100\n010\n001\n", "factorization"),
    ],
    ids=["complement", "extend", "factor"],
)
def test_failed_self_check_of_the_basis_is_an_internal_error(command, text, what, write, capsys, monkeypatch):
    """A corrupted last vector of the orthonormal fill is caught by the
    command's own check and reported with exit 2, not read as a "no".
    ``naimark`` and ``gramfactor`` each bind the fill from ``gf2`` at
    import, so it is patched in both."""
    from binframe import gf2, gramfactor, naimark

    fill = gf2._orthonormal_fill

    def corrupted(*args):
        vecs = fill(*args)
        return vecs[:-1] + [vecs[-1] ^ 1]

    monkeypatch.setattr(naimark, "_orthonormal_fill", corrupted)
    monkeypatch.setattr(gramfactor, "_orthonormal_fill", corrupted)
    assert run([command, write("m.txt", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"binframe: internal error: {what} failed its check")


def test_every_command_is_clean_under_dev_mode_with_warnings_as_errors(write):
    """``python -X dev -W error`` shows unclosed files and other resource
    warnings; no command leans on exit-time cleanup, so each exits with
    its code and prints only its own message."""
    ident = write("id.txt", "100\n010\n001\n")
    cases = [
        (("check", "parseval", write("two.txt", "1\n1\n")), 1, ""),
        (("gram", ident, "--output", write("g.txt", "")), 0, ""),
        (("factor", write("hollow.txt", "011\n101\n110\n")), 1, "binframe: no: not a Gram matrix: all columns even\n"),
        (("complement", write("theta.json", _json_matrix(["11", "11", "10", "01"])), "--format", "json", "--output", write("c.json", "")), 0, ""),
        (("extend", write("seed.txt", "1110000\n0001000\n")), 0, ""),
        (("reconstruct", ident, "--x", "101"), 0, ""),
        (("enum", "cyclic", "--k", "9"), 0, ""),
        (("equiv", "perm", ident, write("p.txt", "010\n100\n001\n")), 0, ""),
        (("canon", write("m.txt", "010\n100\n001\n"), "--mode", "conjugation"), 0, ""),
        (("canon", ident, "--k", "3"), 2, "binframe: error: unrecognized arguments: --k 3\n"),
    ]
    assert {argv[0] for argv, _, _ in cases} == set(_COMMANDS)
    for argv, code, err in cases:
        proc = _run_child("-X", "dev", "-W", "error", "-m", "binframe.cli", *argv)
        assert (proc.returncode, proc.stderr) == (code, err), argv
