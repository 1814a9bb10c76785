"""CLI surface: wire formats, exit codes, file round trips."""

import contextlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import circhad
from circhad import cli, sequences, spectra
from circhad.cli import main
from oracles import analyze_payload, cli_main, cli_parse_args
from test_golden_cli import CASES as GOLDEN_CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "-+++")
    assert code == 0
    assert "PASS" in out


def test_verify_fail(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "++++")
    assert code == 1
    assert "FAIL" in out


def test_verify_malformed_sequence(capsys):
    code, _, err = run(capsys, "verify", "--seq", "+x+")
    assert code == 2
    assert "invalid sign character" in err


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "-+++", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["is_circulant_hadamard"] is True
    assert payload["matrix_identity"] is True
    assert payload["square_weight"]["case"] == "minus"


def test_verify_seq_file(capsys, tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("-+++\n+-++\n\n# comment\n++-+\n")
    code, out, _ = run(capsys, "verify", "--seq-file", str(rows))
    assert code == 0
    assert out.count("PASS") == 3

    rows.write_text("-+++\n++++\n")
    code, _, _ = run(capsys, "verify", "--seq-file", str(rows))
    assert code == 1


def test_verify_seq_file_refusals_name_the_file_and_line(capsys, tmp_path):
    rows = tmp_path / "rows.txt"
    for content, message in (
        (b"-+++\n\n# comment\n+x++\n", " line 4: invalid sign character 'x' (expected '+' or '-')"),
        (b"-+++\r\n+-+ +\r\n", " line 2: invalid sign character ' ' (expected '+' or '-')"),
        (b"-+++\n+\xe9++\n", ": byte 6 is not ASCII"),
        (b"-+++\n" * 3000 + b"\xff\n", ": byte 15000 is not ASCII"),
    ):
        rows.write_bytes(content)
        code, out, err = run(capsys, "verify", "--seq-file", str(rows))
        assert (code, out, err) == (2, "", f"error: {rows}{message}\n"), content


def test_verify_trivial_order_one(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "-")
    assert code == 0  # the 1x1 row is Hadamard; check 1 reports the exception
    assert "trivial 1x1 exception" in out


# ---------------------------------------------------------------------------
# analyze

def test_analyze_schema_and_values(capsys):
    code, out, _ = run(capsys, "analyze", "--seq", "-" * 6 + "+" * 10)
    assert code == 1  # not a candidate: verification failed
    payload = json.loads(out)
    assert sorted(payload.keys()) == ["J", "n", "overall", "perK"]
    assert payload["n"] == 16
    assert payload["J"] == list(range(6))
    assert payload["overall"] is False
    assert len(payload["perK"]) == 16
    k1 = payload["perK"][1]
    assert sorted(k1.keys()) == ["c0pass", "cVector", "k", "lambdaSqEqualsN"]
    assert k1["cVector"] == [6, 5, 4, 2]
    assert k1["c0pass"] is False
    assert k1["lambdaSqEqualsN"] is False


def test_analyze_passing_row(capsys):
    code, out, _ = run(capsys, "analyze", "--seq", "-+++")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert all(m["lambdaSqEqualsN"] for m in payload["perK"])


def test_analyze_single_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--seq", "-+++", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert [m["k"] for m in payload["perK"]] == [2]


def test_analyze_rejects_unsupported_order(capsys):
    code, out, err = run(capsys, "analyze", "--seq", "-+++++")
    assert code == 2 and out == ""
    assert "divisible by 4" in err
    # The order is refused before --k is read, whatever it says.
    for k in ("1", "9", "abc"):
        code, out, err = run(capsys, "analyze", "--seq", "-+++++", "--k", k)
        assert code == 2
        assert out == "" and err == "error: spectral verdicts need an order divisible by 4\n"


def test_analyze_non_integer_mode_names_the_flag(capsys):
    code, out, err = run(capsys, "analyze", "--seq", "-+++", "--k", "abc")
    assert code == 2
    assert out == "" and "--k" in err and "invalid literal" not in err


def _analyze_payload(row, k=None):
    """The payload ``analyze`` prints, rebuilt from the spectral layer for ``json.dumps``."""
    index_set = sequences.minus_indices(sequences.Sequence.from_string(row))
    if k is None:
        verdict = spectra.spectral_verdict(index_set)
        return analyze_payload(index_set, verdict.per_mode, verdict.overall)
    mode = spectra.mode_verdict(index_set, k)
    return analyze_payload(index_set, (mode,), mode.mag_sq_equals_order)


# Every order-4 row (++++ has an empty J), and one seeded row per larger order.
ANALYZE_ROWS = ["".join(signs) for signs in itertools.product("+-", repeat=4)] + [
    "".join(random.Random(n).choice("+-") for _ in range(n)) for n in (8, 12, 16, 36, 60, 64, 100, 144, 1000)
]


@pytest.mark.parametrize("row", ANALYZE_ROWS, ids=lambda row: row if len(row) == 4 else f"n{len(row)}")
def test_analyze_prints_what_the_stdlib_prints(capsys, row):
    n = len(row)
    for k in (None, 0, 1, n // 4 - 1, n // 2, n - 1):
        argv = ("analyze", "--seq", row) + (() if k is None else ("--k", str(k)))
        code, out, _ = run(capsys, *argv)
        payload = _analyze_payload(row, k)
        # Line lists, so a failure names the first line that differs without
        # a string diff of megabytes.
        assert out.split("\n") == (json.dumps(payload, indent=2) + "\n").split("\n"), argv
        assert code == (0 if payload["overall"] else 1), argv


def test_every_mode_analyze_at_order_2000_peaks_under_8_mb():
    # Written mode by mode, a warm call peaks at about 6.3 MB under
    # tracemalloc (CPython 3.11): mostly the kept bodies of modes k < n/2,
    # which modes n - k reprint.  Built as verdict objects and a list of
    # pieces it peaked at 10.7 MB.  The bound leaves 1.7 MB of margin.
    row = "".join(random.Random(2000).choice("+-") for _ in range(2000))
    with open(os.devnull, "w", encoding="ascii") as null, contextlib.redirect_stdout(null):
        assert main(["analyze", "--seq", row]) == 1  # caches the order's remap rows
        tracemalloc.start()
        try:
            code = main(["analyze", "--seq", row])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 1 and peak < 8_000_000, peak


@pytest.mark.parametrize("digits", (4000, 5000))
def test_analyze_over_long_mode_is_quoted_cut_short(capsys, digits):
    # 5000 digits exceed int()'s digit limit; 4000 reach the range check.
    code, out, err = run(capsys, "analyze", "--seq", "-+++", "--k", "9" * digits)
    assert code == 2
    assert out == "" and "k" in err and len(err.encode()) < 400


# ---------------------------------------------------------------------------
# search / report

def test_search_json_and_report_round_trip(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "search", "--n", "4", "--strategy", "exhaustive",
                       "--out", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload.keys()) == sorted(
        ["schema_version", "n", "strategy", "raw_count", "canonical_count",
         "solutions", "nodes_explored", "elapsed_ms", "cap"]
    )
    assert payload["raw_count"] == 8
    assert payload["canonical_count"] == 1
    assert json.loads(out_file.read_text()) == payload

    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize("n", (1, 2, 4, 9))
def test_every_written_report_revalidates(capsys, tmp_path, n):
    out_file = tmp_path / f"report{n}.json"
    code, _, _ = run(capsys, "search", "--n", str(n), "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_search_with_parallel_jobs(capsys):
    code, out, _ = run(capsys, "search", "--n", "4", "--jobs", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["raw_count"] == 8 and payload["canonical_count"] == 1


def test_report_flags_tampered_solutions(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["solutions"][0] = "++++"
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_report_flags_a_listing_search_cannot_write(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--cap", "5", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["solutions"] = data["solutions"][:3]
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 1
    assert json.loads(out)["problems"] == ["3 rows listed, not min(raw_count, cap) = 5"]


def test_report_flags_a_listing_not_closed_under_rotation_and_negation(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    rows = data["solutions"]
    for dropped in rows:
        # Seven of the eight rows: the counts, classes and nodes all agree.
        out_file.write_text(json.dumps(dict(data, raw_count=7, solutions=[r for r in rows if r != dropped])))
        code, out, _ = run(capsys, "report", "--in", str(out_file))
        assert code == 1
        [problem] = json.loads(out)["problems"]
        assert problem.startswith(f"listing is not closed: '{dropped}', a rotation or negation of "), problem


def test_report_flags_duplicate_rows(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data.update(solutions=["-+++", "-+++"], raw_count=2)
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 1
    assert any("strictly ascending" in p for p in json.loads(out)["problems"])


def test_report_of_a_refused_order_skips_its_rows(capsys, tmp_path):
    # Canonicalizing a row of length n builds 2n rotations: seconds for this 20 KB file if checked.
    out_file = tmp_path / "long_row.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data.update(n=20000, solutions=["-" + "+" * 19999], raw_count=1, canonical_count=1, cap=1)
    out_file.write_text(json.dumps(data))
    start = time.monotonic()
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert time.monotonic() - start < 0.5
    assert code == 1
    assert "order 20000 exceeds the order cap 36" in json.loads(out)["problems"]


@pytest.mark.parametrize("field, value", [("strategy", "s" * 5000), ("n", 10**4000), ("raw_count", 10**4000)],
                         ids=("strategy", "n", "raw_count"))
def test_report_cuts_a_long_strategy_label(capsys, tmp_path, field, value):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data[field] = value
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 1
    assert max(map(len, out.splitlines())) < 200
    assert json.loads(out)[field] == str(value)[:60]


def test_report_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    missing = "schema_version, strategy, raw_count, canonical_count, solutions, nodes_explored, elapsed_ms, cap"
    for content, message in (
        (b'{"n": 4}', f"report is missing required fields: {missing}"),
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"n": "\xc3\xa9"}', "byte 7 is not ASCII"),
    ):
        bad.write_bytes(content)
        code, out, err = run(capsys, "report", "--in", str(bad))
        assert (code, out, err) == (2, "", f"error: report {bad}: {message}\n"), content


def test_report_refuses_deeply_nested_json(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run(capsys, "report", "--in", str(deep))
    assert code == 2
    assert out == "" and err == f"error: report {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("key, value", [("raw_count", 8.9), ("schema_version", 1.7), ("cap", True)])
def test_report_with_a_non_integer_count_is_invalid_input(capsys, tmp_path, key, value):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data[key] = value
    out_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "report", "--in", str(out_file))
    assert code == 2
    assert out == "" and f"report field '{key}' must be an integer" in err


def test_search_cap_refusal(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--n", "25")
    assert code == 3
    assert out == "" and "a walk of more than 2^24 rows needs a checkpoint" in err
    # With a checkpoint the same run is admitted, and its report is valid.
    report = tmp_path / "e25.json"
    code, _, _ = run(capsys, "search", "--n", "25", "--checkpoint", str(tmp_path / "e25.ckpt"),
                     "--out", str(report))
    assert code == 0 and json.loads(report.read_text())["nodes_explored"] == 1 << 25
    assert run(capsys, "report", "--in", str(report))[0] == 0
    # Past the order cap a run is refused before its checkpoint is created.
    for argv in (("--n", "37"), ("--n", "1000000000000000000", "--strategy", "weight-constrained")):
        cp = tmp_path / "refused.ckpt"
        code, out, err = run(capsys, "search", *argv, "--checkpoint", str(cp))
        assert code == 3
        assert out == "" and "exceeds the order cap 36" in err and not cp.exists()


def test_search_out_to_an_unwritable_path_prints_nothing(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--n", "4", "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_search_weight_on_non_square(capsys):
    code, _, err = run(capsys, "search", "--n", "8", "--strategy", "weight-constrained")
    assert code == 2
    assert "perfect-square" in err


def test_search_malformed_checkpoint_line_is_invalid_input(capsys, tmp_path):
    cp = tmp_path / "cp.txt"
    argv = ("search", "--n", "4", "--strategy", "exhaustive", "--checkpoint", str(cp))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    lines = [
        "prefix=0000 nodes_explored=3" if l.startswith("prefix=0000 ") else l
        for l in cp.read_text().splitlines()
    ]
    cp.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "does not read" in err


def test_search_checkpoint_whose_rows_are_not_closed_is_invalid_input(capsys, tmp_path):
    # One orbit's four lines emptied (-+++, +---, --+- and ++-+): every
    # line holds, and only the closure of the merged rows fails.
    cp = tmp_path / "cp.txt"
    argv = ("search", "--n", "4", "--strategy", "exhaustive", "--checkpoint", str(cp))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    text = cp.read_text()
    for bits in ("1000", "0111", "1101", "0010"):
        text = re.sub(f"prefix={bits} .*", f"prefix={bits} raw_count=0 nodes_explored=1 elapsed_ms=0 solutions=", text)
    cp.write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and f"error: checkpoint {cp}: the rows are not closed under rotation and negation: " in err


@pytest.mark.parametrize(
    "prefix, line",
    [
        ("0000", f"prefix=0000 raw_count=0 nodes_explored={'9' * 5000} elapsed_ms=0 solutions="),
        ("1000", f"prefix=1000 raw_count=1 nodes_explored=1 elapsed_ms=0 solutions={'-' * 5000}"),
    ],
    ids=["nodes_5000_digits", "row_5000_signs"],
)
def test_search_checkpoint_refusal_quotes_a_long_line_cut_short(capsys, tmp_path, prefix, line):
    cp = tmp_path / "cp.txt"
    argv = ("search", "--n", "4", "--strategy", "exhaustive", "--checkpoint", str(cp))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    cp.write_text("".join(
        (line if l.startswith(f"prefix={prefix} ") else l) + "\n" for l in cp.read_text().splitlines()
    ))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and str(cp) in err and len(err.encode()) < 400


@pytest.mark.parametrize("text", (b"my precious notes", b"line one\nline two no newline"),
                         ids=["no_newline", "unterminated_last_line"])
def test_search_checkpoint_on_a_foreign_file_is_invalid_input_and_leaves_it(capsys, tmp_path, text):
    cp = tmp_path / "notes.txt"
    cp.write_bytes(text)
    code, out, err = run(capsys, "search", "--n", "4", "--checkpoint", str(cp))
    assert code == 2
    assert out == "" and f"checkpoint {cp}" in err and "Traceback" not in err
    assert cp.read_bytes() == text


def test_search_checkpoint_with_malformed_header_is_invalid_input(capsys, tmp_path):
    cp = tmp_path / "cp.txt"
    argv = ("search", "--n", "4", "--strategy", "exhaustive", "--checkpoint", str(cp))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    cp.write_text(cp.read_text().replace("n=4\n", "n=abc\n", 1))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and str(cp) in err and "Traceback" not in err


def test_search_checkpoint_wider_than_any_split_is_invalid_input(capsys, tmp_path):
    # A checkpointed run splits at min(n, 8) and reads only the header
    # it writes, so a file of any other width is refused.
    cp = tmp_path / "cp.txt"
    argv = ("search", "--n", "12", "--strategy", "exhaustive", "--checkpoint", str(cp))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    cp.write_text(cp.read_text().replace("prefix_bits=8\n", "prefix_bits=9\n", 1))
    code, out, err = run(capsys, *argv)
    header = "# circhad search checkpoint v1\nn=12\nstrategy=exhaustive\nprefix_bits=8\n"
    message = f"error: checkpoint {cp} does not start with the header this run writes, {header!r}\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("strategy, message", [
    ("exhaustive", "is not the number of rows every exhaustive run of order 4"),
    ("weight-constrained", "is not the number of rows every weight-constrained run of order 4"),
    ("pruned-dfs", "shard 0000: nodes_explored 999 is more than the 4 nodes any pruned-dfs run of order 4"
                   " visits on this shard"),
], ids=["exhaustive", "weight-constrained", "pruned-dfs"])
def test_search_resume_whose_node_counts_do_not_add_up_is_invalid_input(capsys, tmp_path, strategy, message):
    cp, out_file = tmp_path / "cp.txt", tmp_path / "r.json"
    argv = ("search", "--n", "4", "--strategy", strategy, "--checkpoint", str(cp))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    text = cp.read_text()
    first = re.search(r"^prefix=\S+ raw_count=\d+ nodes_explored=(\d+) ", text, re.M)
    cp.write_text(text[:first.start(1)] + "999" + text[first.end(1):])
    before = cp.read_bytes()
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert out == "" and str(cp) in err and message in err
    assert not out_file.exists() and cp.read_bytes() == before


# ---------------------------------------------------------------------------
# congruence / basis-rank / lemma

def test_congruence_payload(capsys):
    code, out, _ = run(capsys, "congruence", "--n", "36", "--k", "8")
    assert code == 0  # solvability is data, not an error
    payload = json.loads(out)
    assert payload == {
        "n": 36, "k": 8, "c": 18, "g": 4,
        "solvable": False, "j0": None, "solution_count": 0,
    }


def test_congruence_custom_rhs(capsys):
    code, out, _ = run(capsys, "congruence", "--n", "16", "--k", "3", "--c", "8")
    payload = json.loads(out)
    assert code == 0 and payload["solvable"] and payload["j0"] == 8


def test_basis_rank_csv(capsys):
    code, out, _ = run(capsys, "basis-rank", "--n", "36")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,basis_size,rank,euler_half,independent"
    assert lines[1] == "36,9,6,6,false"


def test_basis_rank_json(capsys):
    code, out, _ = run(capsys, "basis-rank", "--n", "16", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 16, "basis_size": 4, "rank": 4, "euler_half": 4, "independent": True,
    }


def test_basis_rank_past_its_cap_is_refused(capsys, monkeypatch):
    code, out, err = run(capsys, "basis-rank", "--n", "4004")
    assert (code, out, err) == (3, "", "error: order 4004 exceeds the basis-rank cap 4000\n")
    for order in ("0", "-4"):
        assert run(capsys, "basis-rank", "--n", order) == (
            2, "", f"error: order must be positive, got --n {order}\n"
        )
    monkeypatch.setattr(cli.cyclotomic, "MAX_BASIS_RANK_ORDER", 36)
    assert run(capsys, "basis-rank", "--n", "36")[:2] == (
        0, "n,basis_size,rank,euler_half,independent\n36,9,6,6,false\n"
    )
    assert run(capsys, "basis-rank", "--n", "40")[:2] == (3, "")


def test_lemma_all_checks_text(capsys):
    code, out, _ = run(capsys, "lemma", "--n", "36")
    assert code == 0
    assert "check 1" in out and "check 2" in out and "check 3" in out
    assert "solvable: no" in out


def test_lemma_failing_order(capsys):
    code, out, _ = run(capsys, "lemma", "--n", "9", "--which", "1")
    assert code == 1
    assert "fail" in out


def test_lemma_check3_is_informational(capsys):
    code, out, _ = run(capsys, "lemma", "--n", "36", "--which", "3")
    assert code == 0
    code, out, _ = run(capsys, "lemma", "--n", "4", "--which", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["check3"]["degenerate_multiplier"] is True


def test_lemma_with_sequence(capsys):
    code, out, _ = run(capsys, "lemma", "--seq", "-+++", "--which", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["check2"]["case"] == "minus"
    code, _, err = run(capsys, "lemma", "--seq", "-+++", "--n", "8", "--which", "1")
    assert code == 2
    assert "disagrees" in err


def test_lemma_requires_valid_selector(capsys):
    code, _, err = run(capsys, "lemma", "--n", "4", "--which", "5")
    assert code == 2


def test_lemma_non_integer_selector_gets_the_selector_message(capsys):
    code, out, err = run(capsys, "lemma", "--n", "4", "--which", "1,x")
    assert code == 2
    assert out == "" and "--which takes a comma-separated subset of 1,2,3" in err


@pytest.mark.parametrize("order", ["0", "-4"])
def test_lemma_rejects_a_non_positive_order_before_any_check(capsys, order):
    code, out, err = run(capsys, "lemma", "--n", order, "--which", "2")
    assert code == 2
    assert out == "" and f"order must be positive, got --n {order}" in err


def test_order_refusals_quote_a_long_order_cut_short(capsys):
    digits = "9" * 4000
    for argv in (
        ("lemma", "--n", "-" + digits),
        ("basis-rank", "--n", "-" + digits),
        ("lemma", "--n", digits, "--seq", "-+++"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert digits[:50] in err and len(err) < 200, argv


def test_lemma_check3_unsupported_order(capsys):
    code, _, err = run(capsys, "lemma", "--n", "8", "--which", "3")
    assert code == 2
    assert "4*t^2" in err


# ---------------------------------------------------------------------------
# argparse level errors

def test_unknown_flag(capsys):
    code, out, err = run(capsys, "verify", "--nope")
    assert code == 2
    assert out == "" and err.startswith("usage: circhad [-h]")
    assert err.endswith("\ncirchad: error: unrecognized arguments: --nope\n")


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


PARSER_PARITY_CASES = [
    *GOLDEN_CASES,
    ("verify", "--seq", "-+++", "--bogus"),
    ("verify", "--format", "xml", "--seq", "-+++"),
    ("analyze",),
    ("lemma", "--n", "\u0661\u0664\u0664"),
    ("verify", "-h"),
    (),
    ("-h",),
    ("frobnicate",),
]


@pytest.mark.parametrize("argv", PARSER_PARITY_CASES, ids=" ".join)
def test_one_parser_pass_answers_as_the_full_parser_does(capsys, argv):
    # main parses a request that names a command with that command's
    # parser alone; the reference runs the full parser on every argv.
    def answer(entry):
        code = entry(list(argv))
        out, err = capsys.readouterr()
        return code, re.sub('"elapsed_ms": [0-9]+', "", out), err

    assert answer(main) == answer(cli_main)
    try:
        reference = cli_parse_args(argv)
    except SystemExit:
        capsys.readouterr()
        return
    assert vars(cli._parse_args(cli._join_seq_values(list(argv)))) == vars(reference)


# Every integer option, with "V" standing for the value under test.
INTEGER_OPTIONS = [
    ("search", "--n", "V"),
    ("search", "--n", "4", "--jobs", "V"),
    ("search", "--n", "4", "--cap", "V"),
    ("congruence", "--n", "V", "--k", "8"),
    ("congruence", "--n", "36", "--k", "V"),
    ("congruence", "--n", "36", "--k", "8", "--c", "V"),
    ("basis-rank", "--n", "V"),
    ("lemma", "--n", "V"),
    ("lemma", "--n", "4", "--which", "V"),
    ("analyze", "--seq", "-+++", "--k", "V"),
]


def _flag(argv):
    return argv[argv.index("V") - 1]


@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]}_{_flag(argv).lstrip('-')}")
@pytest.mark.parametrize("value", ("\u0661\u0664\u0664", "\u0663", "3_6", " 36 ", "9" * 5000),
                         ids=("arabic_144", "arabic_3", "underscore", "padded", "5000_digits"))
def test_integer_options_take_ascii_digits_only(capsys, argv, value):
    # int() alone reads all of these (5000 digits excepted), and argparse
    # would quote a refused value whole.
    flag = _flag(argv)
    code, out, err = run(capsys, *(value if a == "V" else a for a in argv))
    assert code == 2
    assert out == "" and flag in err and len(err.encode()) < 400


# ---------------------------------------------------------------------------
# the entry point in a process of its own

@pytest.mark.parametrize("argv, code", [
    (("verify", "--seq", "-+++"), 0),
    (("verify", "--seq", "++++"), 1),
    (("verify", "--seq", "+x+"), 2),
    (("search", "--n", "25"), 3),
], ids=("pass", "fail", "invalid_input", "cap"))
def test_module_entry_point_exit_codes(argv, code):
    # Run on this package, as a shell sees it: the exit status, a verdict
    # or nothing on stdout, and a refusal on stderr with no traceback.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(circhad.__file__)))
    proc = subprocess.run([sys.executable, "-m", "circhad.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code < 2:
        assert proc.stdout and proc.stderr == ""
    else:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")


def test_import_loads_neither_the_pool_nor_fractions():
    # A command that starts no pool and checks no constant term loads
    # neither stack; -S keeps site packages from loading them first.
    src = os.path.dirname(os.path.dirname(circhad.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import circhad, circhad.cli; "
            "print(*sorted({'concurrent.futures', 'fractions', 'decimal', 'logging'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


# ---------------------------------------------------------------------------
# the indent-2 JSON writer against the stdlib

awkward_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ\u00e9\u2028\u20ac\U0001f600'))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**200), 10**200)
    | awkward_text
    | st.text()
)
SHARED = (1, 2, 3)  # one tuple at several depths, so at several indents
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(awkward_text | st.text(), inner)
    | st.lists(st.integers() | st.booleans()),
    max_leaves=20,
)


@given(json_values)
@example([1, True, 2])
@example((False, 0, -1))
@example({"": [], "a": {}, "b": (), "c": [[]], "d": [{}]})
@example([10**199 + 7, -(10**200 - 1), 0])
@example({'q"\\\n\u00e9\U0001f600': None})
@example({"a": SHARED, "b": [SHARED], "c": {"d": [SHARED, SHARED]}})
@example([(1, 1), (1, True)])
@example([(1, True), (1, 1)])
@example([(0,), (False,), (0.0,)])
def test_json_writer_prints_what_the_stdlib_prints(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_every_json_payload_prints_as_the_stdlib_would(capsys, monkeypatch, tmp_path):
    payloads = []
    writer = cli._json_text

    def recording(obj):
        payloads.append(obj)
        return writer(obj)

    monkeypatch.setattr(cli, "_json_text", recording)
    report = tmp_path / "r.json"
    rows = tmp_path / "rows.txt"
    rows.write_text("-+++\n++++\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1, "n": 4, "strategy": "exhaustive", "raw_count": 1,
        "canonical_count": 1, "solutions": ["++++"], "nodes_explored": 16,
        "elapsed_ms": 0, "cap": 1024,
    }))
    row36 = "--+-+-+++-+--+++++++--+-+----+++++-+"
    invocations = [
        ("verify", "--seq", row36, "--format", "json"),
        ("verify", "--seq-file", str(rows), "--format", "json"),
        ("analyze", "--seq", row36),
        ("analyze", "--seq", "-+++", "--k", "2"),
        ("search", "--n", "4", "--out", str(report)),
        ("report", "--in", str(report)),
        ("report", "--in", str(bad)),
        ("congruence", "--n", "36", "--k", "8"),
        ("congruence", "--n", "12", "--k", "0", "--c", "0"),
        ("basis-rank", "--n", "36", "--format", "json"),
        ("lemma", "--n", "36", "--format", "json"),
        ("lemma", "--seq", "-+++", "--format", "json"),
    ]
    for argv in invocations:
        payloads.clear()
        main(list(argv))
        out = capsys.readouterr().out
        if argv[0] == "analyze":  # printed from its own template, not through _json_text
            payloads.append(_analyze_payload(argv[2], *map(int, argv[4:])))
        assert len(payloads) == 1, argv
        assert out == json.dumps(payloads[0], indent=2) + "\n", argv
    assert report.read_text() == json.dumps(json.loads(report.read_text()), indent=2) + "\n"
