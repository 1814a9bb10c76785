"""Command-line interface.

Subcommands
-----------
verify      pass/fail verification of one or more rows (text by default)
analyze     exact per-mode spectral analysis of a row (JSON)
search      enumerate candidate rows (JSON report, optional output file)
congruence  solve k*j = c (mod n) and print the solution set data (JSON)
basis-rank  cosine-basis rank diagnostics (CSV by default)
lemma       the numbered necessary-condition checks 1-3 for an order
report      re-validate a stored search report file

Exit codes: 0 success/pass, 1 verification failed, 2 invalid input,
3 resource cap refusal (``search`` above order 36 or, without
``--checkpoint``, a full enumeration of more than 2^24 rows;
``basis-rank`` above order 4000).  Solvability and rank findings are
data, not failures: ``congruence``, ``basis-rank`` and the check-3
report always exit 0 when the query itself is well-formed and within
the caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import fields

from . import congruences, cyclotomic, search, sequences, spectra

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

_K_ZERO_NOTE = (
    "mode k=0 uses the same pair-sum form as k>0 and passes only when 4*|J|^2 = n; "
    "the k=0 eigenvalue of an actual candidate row is governed by the balanced "
    "-1 count (check 2) instead."
)


_ASCII_INT = re.compile("-?[0-9]+")


def _ascii_int(value: str) -> int:
    """An integer option value, written -?[0-9]+ in ASCII only.

    ``int()`` alone also reads non-ASCII digits, underscores and padding
    spaces.  The refusal quotes the value cut at 60 characters, where
    argparse's own would quote it whole; argparse prefixes the flag.
    """
    if _ASCII_INT.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {value!r:.60}")


def _load_sequences(args) -> list[sequences.Sequence]:
    rows = []
    if args.seq:
        rows.append(sequences.Sequence.from_string(args.seq))
    if args.seq_file:
        with open(args.seq_file, encoding="ascii") as f:
            try:
                text = f.read()  # one decode of the whole file, so offsets are the file's
            except UnicodeDecodeError as exc:
                raise ValueError(f"{args.seq_file}: byte {exc.start} is not ASCII") from None
        for number, line in enumerate(text.split("\n"), 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    rows.append(sequences.Sequence.from_string(line))
                except ValueError as exc:
                    raise ValueError(f"{args.seq_file} line {number}: {exc}") from None
    if not rows:
        raise ValueError("no sequence given; use --seq or --seq-file")
    return rows


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without the stdlib's per-item pass.

    With an indent the stdlib encodes in pure Python, one generator step
    per list entry; a payload's longest lists (``cVector``, ``J``) are
    flat integer lists, joined here by one ``str.join``.  ``bool`` is an
    ``int`` subclass printed as ``true``/``false``, so only lists whose
    entries are all exactly ``int`` take that path.  Such a list is
    encoded once per call and indent and then reused (``analyze`` shares
    one tuple between modes k and n-k); the type check comes first, as
    ``(1, True) == (1, 1)``.  Every piece goes to one output list.  Keys
    must be strings; any scalar but a string, ``int``, ``bool`` or
    ``None`` goes to ``json.dumps``, which prints it (or refuses it) as
    the stdlib would.
    """
    out: list[str] = []
    _write_json(obj, "", out, {})
    return "".join(out)


def _write_json(obj, indent: str, out: list[str], encoded: dict[tuple[tuple, str], str]) -> None:
    """Append the text of obj at this indent to out; ``encoded`` maps (all-int tuple, indent) to its text."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if set(map(type, obj)) == {int}:
            key = (tuple(obj), indent)
            if key not in encoded:
                encoded[key] = f"[\n{inner}" + f",\n{inner}".join(map(int.__repr__, obj)) + f"\n{indent}]"
            out.append(encoded[key])
            return
        lead = f"[\n{inner}"
        for v in obj:
            out.append(lead)
            _write_json(v, inner, out, encoded)
            lead = f",\n{inner}"
        out.append(f"\n{indent}]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        lead = f"{{\n{inner}"
        for k, v in obj.items():
            out.append(f"{lead}{_encode_str(k)}: ")
            _write_json(v, inner, out, encoded)
            lead = f",\n{inner}"
        out.append(f"\n{indent}}}")
    else:
        out.append(json.dumps(obj))


def _fields_payload(result, drop: tuple[str, ...] = ()) -> dict:
    """The fields of a result dataclass, in declaration order, as a JSON object."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name not in drop}


# ---------------------------------------------------------------------------
# verify

def _verify_payload(seq: sequences.Sequence) -> dict:
    hadamard = sequences.is_circulant_hadamard(seq)
    matrix = sequences.has_orthogonal_rows(seq)
    return {
        "sequence": seq.to_string(),
        "n": seq.n,
        "even_order": _fields_payload(sequences.even_order_check(seq.n), drop=("n",)),
        "square_weight": _fields_payload(sequences.square_weight_check(seq), drop=("n",)),
        "is_circulant_hadamard": hadamard,
        "matrix_identity": matrix,
        "passed": hadamard,
    }


def _cmd_verify(args) -> int:
    rows = _load_sequences(args)
    payloads = [_verify_payload(seq) for seq in rows]
    if args.format == "json":
        out = payloads[0] if len(payloads) == 1 else payloads
        print(_json_text(out))
    else:
        for p in payloads:
            print(f"sequence {p['sequence']} (n={p['n']})")
            note = " (trivial 1x1 exception)" if p["even_order"]["trivial_exception"] else ""
            print(f"  check 1, even order: {'pass' if p['even_order']['passed'] else 'fail'}{note}")
            w = p["square_weight"]
            if w["expected"] is not None:
                detail = f" ({w['minus_count']} of {{{w['expected'][0]}, {w['expected'][1]}}})"
            else:
                detail = f" (order {p['n']} is not a perfect square)"
            print(f"  check 2, square order and -1 count: {'pass' if w['passed'] else 'fail'}{detail}")
            print(f"  off-phase autocorrelations all zero: {'yes' if p['is_circulant_hadamard'] else 'no'}")
            print(f"  matrix product equals n*I: {'yes' if p['matrix_identity'] else 'no'}")
            print(f"circulant Hadamard: {'PASS' if p['passed'] else 'FAIL'}")
    return EXIT_PASS if all(p["passed"] for p in payloads) else EXIT_FAIL


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args) -> int:
    seq = sequences.Sequence.from_string(args.seq)
    index_set = sequences.minus_indices(seq)
    if args.k == "all":
        verdict = spectra.spectral_verdict(index_set)
        modes, overall = verdict.per_mode, verdict.overall
    else:
        try:
            k = _ascii_int(args.k)
        except argparse.ArgumentTypeError:
            if seq.n % 4 == 0:
                raise ValueError(f'--k takes "all" or a mode index, got {args.k!r:.60}') from None
            k = 0  # mode_verdict refuses the order before it reads k
        modes = (spectra.mode_verdict(index_set, k),)
        overall = modes[0].mag_sq_equals_order
    payload = {
        "n": seq.n,
        "J": index_set.members,
        "perK": [
            {
                "k": m.k,
                "c0pass": m.constant_term_ok,
                "cVector": m.coefficients.coeffs,
                "lambdaSqEqualsN": m.mag_sq_equals_order,
            }
            for m in modes
        ],
        "overall": overall,
    }
    print(_json_text(payload))
    return EXIT_PASS if overall else EXIT_FAIL


# ---------------------------------------------------------------------------
# search / report

def _cmd_search(args) -> int:
    report = search.run_search(
        args.n,
        args.strategy,
        jobs=args.jobs,
        weight_filter=args.weight_filter,
        list_cap=args.cap,
        checkpoint=args.checkpoint,
    )
    payload = search.report_to_dict(report)
    text = _json_text(payload)
    # The file first, so a path that cannot be written leaves stdout empty.
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_PASS


def _cut(value):
    """A report value as ``report`` echoes it: whole, or its first 60 characters as a string."""
    text = value if isinstance(value, str) else repr(value)
    return value if len(text) <= 60 else text[:60]


def _cmd_report(args) -> int:
    with open(args.infile, encoding="ascii") as f:
        try:
            report = search.report_from_dict(json.load(f))
        except RecursionError:
            raise ValueError(f"report {args.infile}: JSON nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"report {args.infile}: byte {exc.start} is not ASCII") from None
        except ValueError as exc:  # not JSON, or not a report
            raise ValueError(f"report {args.infile}: {exc}") from None
    problems = search.revalidate_report(report)
    print(
        _json_text(
            {
                "n": _cut(report.n),
                "strategy": _cut(report.strategy),
                "raw_count": _cut(report.raw_count),
                "solutions_checked": len(report.solutions),
                "valid": not problems,
                "problems": problems,
            }
        )
    )
    return EXIT_PASS if not problems else EXIT_FAIL


# ---------------------------------------------------------------------------
# congruence

def _cmd_congruence(args) -> int:
    c = args.c if args.c is not None else args.n // 2
    sol = congruences.solve_linear_congruence(args.k, c, args.n)
    print(_json_text(_fields_payload(sol)))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# basis-rank

def _cmd_basis_rank(args) -> int:
    if args.n > cyclotomic.MAX_BASIS_RANK_ORDER:
        raise search.CapExceeded(
            f"order {args.n!r:.60} exceeds the basis-rank cap {cyclotomic.MAX_BASIS_RANK_ORDER}"
        )
    report = cyclotomic.real_basis_rank(args.n)
    if args.format == "json":
        print(_json_text(_fields_payload(report)))
    else:
        print("n,basis_size,rank,euler_half,independent")
        print(
            f"{report.n},{report.basis_size},{report.rank},{report.euler_half},"
            f"{'true' if report.independent else 'false'}"
        )
    return EXIT_PASS


# ---------------------------------------------------------------------------
# lemma (numbered necessary-condition checks)

def _cmd_lemma(args) -> int:
    try:
        which = sorted({_ascii_int(w) for w in args.which.split(",") if w})
    except argparse.ArgumentTypeError:
        which = []
    if not which or any(w not in (1, 2, 3) for w in which):
        raise ValueError("--which takes a comma-separated subset of 1,2,3")
    seq = sequences.Sequence.from_string(args.seq) if args.seq else None
    n = args.n if args.n is not None else (seq.n if seq else None)
    if n is None:
        raise ValueError("give --n or --seq")
    if seq is not None and args.n is not None and seq.n != args.n:
        raise ValueError(f"--n {args.n} disagrees with the sequence length {seq.n}")
    if n < 1:
        raise ValueError(f"order must be positive, got --n {n}")

    payload: dict = {"n": n}
    failed = False
    if 1 in which:
        payload["check1"] = _fields_payload(sequences.even_order_check(n), drop=("n",))
        failed = failed or not payload["check1"]["passed"]
    if 2 in which:
        if seq is not None:
            payload["check2"] = _fields_payload(sequences.square_weight_check(seq), drop=("n",))
            failed = failed or not payload["check2"]["passed"]
        else:
            expected = sequences.expected_minus_counts(n)
            payload["check2"] = {
                "passed": expected is not None,
                "is_square": expected is not None,
                "expected": list(expected) if expected else None,
            }
            failed = failed or expected is None
    if 3 in which:
        payload["check3"] = _fields_payload(congruences.half_period_report(n), drop=("n",))

    if args.format == "json":
        print(_json_text(payload))
    else:
        print(f"n={n}")
        if "check1" in payload:
            c1 = payload["check1"]
            note = " (trivial 1x1 exception)" if c1["trivial_exception"] else ""
            print(f"check 1, even order: {'pass' if c1['passed'] else 'fail'}{note}")
        if "check2" in payload:
            c2 = payload["check2"]
            if c2["expected"] is not None:
                extra = f"; admissible -1 counts: {c2['expected'][0]}, {c2['expected'][1]}"
            else:
                extra = f"; {n} is not a perfect square"
            have = f"; sequence has {c2['minus_count']}" if "minus_count" in c2 else ""
            print(f"check 2, square order and -1 count: {'pass' if c2['passed'] else 'fail'}{extra}{have}")
        if "check3" in payload:
            c3 = payload["check3"]
            print(
                f"check 3, half-period congruence at k = n/4 - 1 = {c3['k']}:"
                f" gcd chain {c3['gcd_chain'][0]} -> {c3['gcd_chain'][1]};"
                f" solvable: {'yes (j0 = %d)' % c3['j0'] if c3['solvable'] else 'no'};"
                f" n/8 integral: {'yes' if c3['n_over_8_integral'] else 'no'};"
                f" turyn excluded: {'yes' if c3['turyn_excluded'] else 'no'}"
            )
            if c3["degenerate_multiplier"]:
                print("  note: k = 0 degenerate multiplier; the congruence is unsolvable although order 4 admits candidate rows")
    return EXIT_FAIL if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="circhad",
        description="Exact verification, analysis and search for circulant Hadamard rows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify rows against the order checks and the exact Hadamard test")
    p.add_argument("--seq", help="row in '+'/'-' text form, e.g. -+++")
    p.add_argument("--seq-file", dest="seq_file", help="file with one row per line")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "analyze",
        help="exact per-mode spectral analysis of a row (order divisible by 4)",
        epilog=_K_ZERO_NOTE,
    )
    p.add_argument("--seq", required=True)
    p.add_argument("--k", default="all", help='"all" or a single mode index')
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="enumerate candidate rows of one order")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--strategy", choices=search.STRATEGIES, default=search.STRATEGY_EXHAUSTIVE)
    p.add_argument("--jobs", type=_ascii_int, default=1)
    p.add_argument("--out", help="also write the JSON report to this file")
    p.add_argument(
        "--weight-filter",
        dest="weight_filter",
        action="store_true",
        help="restrict the pruned DFS to the admissible -1 counts (square orders)",
    )
    p.add_argument("--checkpoint", help="shard checkpoint file; reruns resume from it (needed past 2^24 walked rows)")
    p.add_argument("--cap", type=_ascii_int, default=search.DEFAULT_LIST_CAP, help="solution listing cap")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("congruence", help="solve k*j = c (mod n); solvability is data, exit stays 0")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--k", type=_ascii_int, required=True)
    p.add_argument("--c", type=_ascii_int, default=None, help="right-hand side, default n/2")
    p.set_defaults(func=_cmd_congruence)

    p = sub.add_parser("basis-rank", help="cosine-basis rank diagnostics (CSV)")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_basis_rank)

    p = sub.add_parser(
        "lemma",
        help="numbered necessary-condition checks: 1 even order, 2 square order/-1 count, 3 half-period congruence",
    )
    p.add_argument("--n", type=_ascii_int)
    p.add_argument("--seq", help="optional row; enables the full check 2")
    p.add_argument("--which", default="1,2,3", help="comma-separated subset of 1,2,3")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("report", help="re-validate a stored search report file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _join_seq_values(argv: list[str]) -> list[str]:
    # Rows like "-+++" start with '-', which argparse would read as a
    # flag; fold them into the option token.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--seq" and i + 1 < len(argv):
            out.append(f"--seq={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_seq_values(list(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except search.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
