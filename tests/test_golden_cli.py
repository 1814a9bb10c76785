"""Golden CLI transcript: stdout, stderr and exit code of fixed invocations.

``golden_cli.txt`` holds the transcript with every ``elapsed_ms`` value
masked.  After a deliberate change of output, rewrite it with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.txt

and review the diff.
"""

import contextlib
import io
import os
import pathlib
import re
import time

from circhad import search
from circhad.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.txt")

# An order-36 row with 15 entries -1 (an admissible count), and the
# order-36 row with -1 on its first 15 positions.
ROW36 = "--+-+-+++-+--+++++++--+-+----+++++-+"
BLOCK36 = "-" * 15 + "+" * 21

SEARCHES = [
    ("--n", str(n), "--strategy", strategy, *extra)
    for strategy in search.STRATEGIES
    for n in (1, 4, 9, 16)
    for extra in ((), ("--jobs", "2"), ("--cap", "3"))
] + [
    ("--n", str(n), "--strategy", search.STRATEGY_DFS, "--weight-filter", *extra)
    for n in (1, 4, 9, 16)
    for extra in ((), ("--jobs", "2"))
]

CASES = [("search", *argv) for argv in SEARCHES] + [
    # invalid input (exit 2) and cap refusals (exit 3)
    ("search", "--n", "8", "--strategy", "weight-constrained"),
    ("search", "--n", "8", "--strategy", "pruned-dfs", "--weight-filter"),
    ("search", "--n", "4", "--weight-filter"),
    ("search", "--n", "0"),
    ("search", "--n", "4", "--jobs", "0"),
    ("search", "--n", "4", "--cap", "-1"),
    ("search", "--n", "25"),
    ("search", "--n", "25", "--strategy", "weight-constrained"),
    ("search", "--n", "37", "--strategy", "pruned-dfs"),
    # verify
    ("verify", "--seq", "-+++"),
    ("verify", "--seq", "++++"),
    ("verify", "--seq", "-"),
    ("verify", "--seq", "+x+"),
    ("verify", "--seq", ROW36),
    ("verify", "--seq", "+-+-++"),
    ("verify",),
    ("verify", "--seq", "-+++", "--format", "json"),
    ("verify", "--seq", "+-+-++", "--format", "json"),
    ("verify", "--seq", ROW36, "--format", "json"),
    # analyze
    ("analyze", "--seq", "-+++"),
    ("analyze", "--seq", "--++"),
    ("analyze", "--seq", "-+++", "--k", "2"),
    ("analyze", "--seq", ROW36),
    ("analyze", "--seq", BLOCK36, "--k", "7"),
    ("analyze", "--seq", "-+++++"),
    # lemma
    *[
        ("lemma", *selector, *fmt)
        for selector in (("--n", "4"), ("--n", "36"), ("--n", "64"), ("--seq", "-+++"),
                         ("--seq", ROW36), ("--n", "9", "--which", "1,2"))
        for fmt in ((), ("--format", "json"))
    ],
    ("lemma", "--n", "8", "--which", "3"),
    ("lemma", "--n", "4", "--which", "5"),
    ("lemma", "--n", "8", "--which", "1,2"),
    ("lemma", "--which", "1"),
    # congruence
    ("congruence", "--n", "36", "--k", "8"),
    ("congruence", "--n", "16", "--k", "3", "--c", "8"),
    ("congruence", "--n", "12", "--k", "0", "--c", "0"),
    ("congruence", "--n", "0", "--k", "1"),
    # basis-rank
    ("basis-rank", "--n", "36"),
    ("basis-rank", "--n", "1"),
    ("basis-rank", "--n", "16", "--format", "json"),
    ("basis-rank", "--n", "36", "--format", "json"),
]

_ELAPSED = re.compile(r'"elapsed_ms": [0-9]+')


def transcript() -> str:
    """Every case as a '$ circhad ...' line, its exit code, stdout and stderr."""
    parts = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        parts.append(
            f"$ circhad {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return _ELAPSED.sub('"elapsed_ms": <masked>', "".join(parts))


def test_cli_transcript_matches_golden_file(monkeypatch):
    monkeypatch.delenv(search.EXHAUSTIVE_CAP_ENV, raising=False)
    start = time.monotonic()
    text = transcript()
    assert time.monotonic() - start < 2.0
    assert text == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    os.environ.pop(search.EXHAUSTIVE_CAP_ENV, None)
    print(transcript(), end="")
