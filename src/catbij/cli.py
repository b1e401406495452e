"""Command-line interface.

Subcommands:

- ``map BIJECTION INPUT``      apply one bijection, print image and stats
- ``poly WHICH N``             print a polynomial (text or JSON)
- ``verify SUITE [N_MAX]``     run a check suite, print a PASS/FAIL table
- ``enumerate KIND N``         stream objects with their statistics

Exit codes: 0 success, 1 verification failure, 2 parse error or bad
arguments, 3 pattern precondition violation, 4 enumeration ceiling.
A reader that closes stdout early (``catbij ... | head``) is not an error:
output stops silently with exit 0.  All regular output goes to stdout,
diagnostics to stderr; identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import itertools
import operator
import os
import sys
from typing import Iterator

from . import bijections, dyck, permutations, polynomials, tableaux, verification
from .errors import DEFAULT_MAX_N, CeilingExceeded, PatternViolation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_PATTERN = 3
EXIT_CEILING = 4

#: the names of ``verification.SUITES``, in order, for ``verify``'s help.
#: The library modules bound above are lazy, each run on the first read of
#: one of its attributes, so build_parser reads none of them and ``--help``
#: loads only errors; a tier-1 test pins this tuple to the suites.
_SUITE_NAMES = ("phi", "lemmas", "kappa-factorization", "inv-area", "symmetry",
                "gf-identity", "tristat", "rsk-j", "kd")

#: rows per write of ``enumerate``; a write per row costs a system call
#: per row when stdout is unbuffered
_BLOCK_ROWS = 1024

# name -> (input kind, function); "perm"/"path" say how to parse the input
_BIJECTIONS = {
    "phi": ("perm", lambda p: bijections.phi(p)),
    "phi-inv": ("path", lambda D: bijections.phi_inv(D)),
    "psi-perm": ("perm", lambda p: bijections.psi_perm(p)),
    "psi-path": ("path", lambda D: dyck.valley_complement(D)),
    "rho": ("perm", lambda p: permutations.reverse(p)),
    "inverse": ("perm", lambda p: permutations.inverse(p)),
    "kappa": ("perm", lambda p: bijections.kappa(p)),
    "beta": ("perm", lambda p: bijections.beta(p)),
    "trio": ("perm", lambda p: bijections.trio_132_213(p)),
    "j": ("perm", lambda p: tableaux.j_involution(p)),
}


# statistic names, in the order of the values from _perm_row / _path_row
_PERM_FIELDS = ("des", "maj", "imaj", "inv")
_PATH_FIELDS = ("maj", "maj0", "maj1", "area", "bounce")


def _perm_row(p: permutations.Permutation) -> tuple[int, ...]:
    s = permutations.perm_stats(p)
    return (s.des, s.maj, s.imaj, s.inv)


def _path_row(D: dyck.DyckPath) -> tuple[int, ...]:
    s = dyck.path_stats(D)
    return (s.maj, s.maj0, s.maj1, dyck.area(D), dyck.bounce(D))


def _pairs(fields: tuple[str, ...]) -> str:
    """The template of ``k=v`` pairs joined by spaces, e.g.
    ``des=%d maj=%d imaj=%d``: the statistics of ``map`` and of a lines row."""
    return " ".join(f"{k}=%d" for k in fields)


def _cmd_map(args) -> int:
    try:
        kind, func = _BIJECTIONS[args.bijection]
    except KeyError:
        print(f"unknown bijection {args.bijection!r}; choose from: "
              + ", ".join(_BIJECTIONS), file=sys.stderr)
        return EXIT_PARSE
    if kind == "perm":
        source = permutations.parse_permutation(args.input)
    else:
        source = dyck.parse_path(args.input)
    image = func(source)
    print(image)
    if isinstance(image, dyck.DyckPath):
        print(_pairs(_PATH_FIELDS) % _path_row(image))
    else:
        print(_pairs(_PERM_FIELDS[:3]) % _perm_row(image)[:3])
    return EXIT_OK


def _cmd_poly(args) -> int:
    which = args.which
    if which == "a":
        poly = polynomials.a_poly(args.n)
    elif which == "cat":
        poly = polynomials.cat_qt(args.n)
    elif which == "macmahon":
        poly = polynomials.macmahon_q_catalan(args.n)
    elif which.startswith("tristat:"):
        parts = which.split(":")
        if len(parts) != 3:
            print("tristat selector is tristat:<pattern>:<orientation>", file=sys.stderr)
            return EXIT_PARSE
        poly = polynomials.tristat_gf(args.n, parts[1], parts[2])
    else:
        print(f"unknown polynomial {which!r}; choose a, cat, macmahon, "
              "or tristat:<pattern>:<orientation>", file=sys.stderr)
        return EXIT_PARSE
    print(poly.to_json() if args.format == "json" else str(poly))
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = verification.run_suite(args.suite, n_max=args.n_max, max_n=args.max_n)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status}  {check.name}"
        if check.detail:
            line += f"  [{check.detail}]"
        print(line)
        failed += not check.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_enumerate(args) -> int:
    kind = args.kind
    if kind == "dyck":
        # bounce is no prefix sum: it stays a call per path
        rows = (
            (str(D), *sums, dyck.bounce(D))
            for D, sums in dyck.paths_with_stats(args.n, max_n=args.max_n)
        )
        fields = _PATH_FIELDS
        word = csv_word = "%s"
    elif kind.startswith("avoiders:"):
        pattern = kind.split(":", 1)[1]
        # the walk's rows, each a word with its (des, maj, imaj, inv), are
        # formatted as they come: the words are permutations by construction,
        # so no Permutation is built.  The walk checks the pattern and the
        # size, so the template of n letters is built only for a valid n
        rows = itertools.starmap(
            operator.add, permutations._avoider_rows(args.n, pattern, max_n=args.max_n))
        fields = _PERM_FIELDS
        word = "[" + ",".join(["%d"] * args.n) + "]"
        # csv.writer quotes only a field with a comma, a quote or a line
        # break in it: a path word is 0s and 1s, and a permutation word
        # such as [2,1] has commas from n = 2 on ([1] has none)
        csv_word = f'"{word}"' if args.n > 1 else word
    else:
        print(f"unknown kind {kind!r}; use dyck or avoiders:<pattern>", file=sys.stderr)
        return EXIT_PARSE

    # (head, row template, separator, tail) of each format; the CSV and JSON
    # rows are the bytes of csv.writer and json.dumps, whose quoting needs
    # no escapes for these words: digits, brackets and commas
    head, item, sep, tail = {
        "lines": ("", word + "  " + _pairs(fields) + "\n", "", ""),
        "csv": (",".join(("word", *fields)) + "\n", csv_word + ",%d" * len(fields) + "\n", "", ""),
        "json": ("[", '{"word": "' + word + '", ' + ", ".join(f'"{k}": %d' for k in fields) + "}", ", ", "]\n"),
    }[args.format]
    if head:
        sys.stdout.write(head)
    _write_blocks(map(item.__mod__, rows), sep)
    if tail:
        sys.stdout.write(tail)
    return EXIT_OK


def _write_blocks(texts: Iterator[str], sep: str) -> None:
    """Write the nonempty texts to stdout joined by sep, _BLOCK_ROWS of them
    per write."""
    write = sys.stdout.write
    lead = ""
    while block := sep.join(itertools.islice(texts, _BLOCK_ROWS)):
        write(lead + block)
        lead = sep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catbij",
        description="Bijections and statistics on Catalan objects.",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        help="enumeration ceiling (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="apply a bijection to one object")
    p_map.add_argument("bijection", help=", ".join(_BIJECTIONS))
    p_map.add_argument("input", help="permutation like [2,1,3] or path like 010011")
    p_map.set_defaults(func=_cmd_map)

    p_poly = sub.add_parser("poly", help="print a polynomial")
    p_poly.add_argument("which", help="a, cat, macmahon, or tristat:<pattern>:<orientation>")
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--format", choices=("text", "json"), default="text")
    p_poly.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run a check suite")
    p_verify.add_argument("suite", help=", ".join([*_SUITE_NAMES, "all"]))
    p_verify.add_argument("n_max", type=int, nargs="?", default=None,
                          help="size bar (default: per-suite)")
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream objects with statistics")
    p_enum.add_argument("kind", help="dyck or avoiders:<pattern>")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--format", choices=("lines", "json", "csv"), default="lines")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone; send the interpreter's final flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except PatternViolation as exc:
        print(f"pattern violation: {exc}", file=sys.stderr)
        return EXIT_PATTERN
    except CeilingExceeded as exc:
        print(f"ceiling: {exc}; raise with --max-n", file=sys.stderr)
        return EXIT_CEILING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
