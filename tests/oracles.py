"""Reference constructions the tests compare the package against.

Each is written the plain way, independent of the fast path it checks,
and is called only with valid input; the CLI reference takes any argv.
"""

import json
import sys

from circhad import cli, search
from circhad.cyclotomic import CycloElement, RealBasisVector


def root_power(n, e):
    """The element carrying a single unit at root power e mod n."""
    coeffs = [0] * n
    coeffs[e % n] = 1
    return CycloElement(n, tuple(coeffs))


def build_circulant(seq):
    """The circulant matrix: row i is the row cyclically shifted i places right, entry (i, j) = h[(j - i) mod n]."""
    h = seq.entries
    n = len(h)
    return tuple(h[n - i :] + h[: n - i] for i in range(n))


def eigenvalue(seq, k):
    """The exact k-th eigenvalue: entry alpha of the row contributes its sign at root power k*alpha."""
    return CycloElement(seq.n, seq.entries).power_map(k)


def eigen_identity_exact(seq):
    """Matrix times the mode-k Fourier vector equals the eigenvalue times the vector, every mode.

    Each (row, mode) pair is assembled as one coefficient vector; the
    eigenvalue side is the matching monomial product.
    """
    n = seq.n
    rows = build_circulant(seq)
    for k in range(n):
        lam = eigenvalue(seq, k).coeffs
        for i, row in enumerate(rows):
            lhs = [0] * n
            for j in range(n):
                lhs[(j * k) % n] += row[j]
            shift = (i * k) % n
            for e in range(n):
                lhs[(e + shift) % n] -= lam[e]
            if not CycloElement(n, tuple(lhs)).is_zero():
                return False
    return True


def reduce_to_real_basis(a):
    """Fold a real (conjugation-symmetric) element onto the first-quadrant cosine basis.

    Conjugate pairs e, n-e carry weight on the cosine of index e; indices
    past the quarter fold back with a sign via
    2cos(2*pi*(n/2 - e)/n) = -2cos(2*pi*e/n), the half-turn root is -1,
    and the quarter-turn cosine is zero.  The order must be divisible by 4.
    """
    n, c = a.n, a.coeffs
    quarter, half = n // 4, n // 2
    out = [0] * quarter
    out[0] = c[0] - c[half]
    for e in range(1, half):
        w = c[e]
        if not w or e == quarter:
            continue
        if e < quarter:
            out[e] += w
        else:
            out[half - e] -= w
    return RealBasisVector(n, tuple(out))


def to_cyclo_element(v):
    """Re-expand cosine coordinates onto root powers: coordinate l becomes the conjugate pair l, n-l."""
    n = v.n
    out = [0] * n
    out[0] = v.coeffs[0]
    for l in range(1, n // 4):
        out[l] += v.coeffs[l]
        out[n - l] += v.coeffs[l]
    return CycloElement(n, tuple(out))


def analyze_payload(index_set, modes, overall):
    """The payload ``circhad analyze`` prints for these modes, for ``json.dumps(payload, indent=2)``."""
    return {
        "n": index_set.n,
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


def cli_parse_args(argv):
    """The namespace of one full-parser pass over argv, as ``circhad`` parsed every request before."""
    parser, _ = cli._build_parser()
    return parser.parse_args(cli._join_seq_values(list(argv)))


def cli_main(argv):
    """``circhad.cli.main`` as it was with the full parser alone: parse_args, then the command."""
    try:
        args = cli_parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else cli.EXIT_USAGE
    try:
        return args.func(args)
    except search.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
