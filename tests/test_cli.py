"""CLI surface: wire formats, exit codes, file round trips."""

import json

import pytest

from circhad.cli import main


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
    code, _, err = run(capsys, "analyze", "--seq", "-+++++")
    assert code == 2
    assert "divisible by 4" in err


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


def test_report_flags_duplicate_rows(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    run(capsys, "search", "--n", "4", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data.update(solutions=["-+++", "-+++"], raw_count=2)
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", "--in", str(out_file))
    assert code == 1
    assert any("strictly ascending" in p for p in json.loads(out)["problems"])


def test_report_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 4}")
    code, _, err = run(capsys, "report", "--in", str(bad))
    assert code == 2
    assert "missing required fields" in err

    bad.write_text("not json")
    code, _, _ = run(capsys, "report", "--in", str(bad))
    assert code == 2


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


def test_search_cap_refusal(capsys, monkeypatch):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", "8")
    code, _, err = run(capsys, "search", "--n", "12")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("value", ("abc", "-1"))
def test_search_invalid_cap_env_is_invalid_input(capsys, monkeypatch, value):
    monkeypatch.setenv("CHM_MAX_EXHAUSTIVE_N", value)
    code, out, err = run(capsys, "search", "--n", "1")
    assert code == 2
    assert out == "" and "CHM_MAX_EXHAUSTIVE_N" in err


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


def test_lemma_check3_unsupported_order(capsys):
    code, _, err = run(capsys, "lemma", "--n", "8", "--which", "3")
    assert code == 2
    assert "4*t^2" in err


# ---------------------------------------------------------------------------
# argparse level errors

def test_unknown_flag(capsys):
    code, _, _ = run(capsys, "verify", "--nope")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
