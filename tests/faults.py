"""The seeded-fault table: each row breaks one line of ``src/catbij`` and
names the check that must catch the break.

Run from anywhere, with only the standard library:

    python tests/faults.py

For each row the script copies ``src/`` to a temporary directory, replaces
the row's line there, and runs the row's check against the copy.  A check
is a tier-1 test id, run alone through pytest, or a ``catbij`` command such
as ``verify rsk-j 7``, which passes when it exits 0.  Each check must pass
on the unchanged ``src/`` and fail on the copy.  The script exits 1 when a
check misses its fault, fails without one, or when a row's line no longer
occurs exactly once in its file, so the table cannot rot silently.

pytest collects only ``test_*.py``, so this file is not part of tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: a check that runs longer than this counts as failing
TIMEOUT_S = 600


class Fault(NamedTuple):
    file: str  # relative to src/catbij
    line: str  # the exact text of one source line, indentation included
    replacement: str
    check: str  # a test id under tests/, or the arguments of a catbij command


FAULTS = [
    # descent_data: the inverse descents shifted by one place
    Fault("permutations.py",
          "            ides |= 1 << v",
          "            ides |= 2 << v",
          "tests/test_permutations.py::TestDescentData::test_matches_the_two_pass_oracle"),
    # the mask-to-set table that descent_data and tableau_descents share
    # drops the top bit of every mask
    Fault("permutations.py",
          "    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)",
          "    return frozenset(i for i in range(mask.bit_length() - 1) if mask >> i & 1)",
          "tests/test_permutations.py::TestDescentData::test_matches_the_two_pass_oracle"),
    # the run's avoider table keyed by size alone: the first class walked
    # at each n fills the entry that every other class then reads
    Fault("verification.py",
          "        return walk() if n > _AVOIDERS_MAX_N else _shared((word, n), walk)",
          "        return walk() if n > _AVOIDERS_MAX_N else _shared((n,), walk)",
          "tests/test_cli.py::TestVerificationSuites::test_avoider_table_matches_fresh_walks"),
    # StandardTableau without its column check
    Fault("tableaux.py",
          "            if any(map(ge, upper, lower)):  # map stops at the shorter row, lower",
          "            if False:",
          "tests/test_tableaux.py::TestStandardTableau::test_invalid_rejected"),
    # the MacMahon q-Catalan one q too high on the two-valley terms at n = 11;
    # verify all passes this fault, as symmetry's default bar is 8
    Fault("polynomials.py",
          "    return _term_map(_valley_gf(n), lambda k, x, y: (0, x + y, 0))",
          "    return _term_map(_valley_gf(n), lambda k, x, y: (0, x + y + (k == 2 and n == 11), 0))",
          "tests/test_polynomials.py::TestExactDivision::test_quotient_route"),
    # the step builder that phi and from_valleys share, with x and y swapped
    Fault("dyck.py",
          "        steps += [NORTH] * (y - prev_y) + [EAST] * (x - prev_x)",
          "        steps += [NORTH] * (x - prev_x) + [EAST] * (y - prev_y)",
          "tests/test_dyck.py::TestValleys::test_from_valleys_goldens"),
    # ValleySet without its elementwise test
    Fault("dyck.py",
          "        if any(map(gt, xs, ys)):",
          "        if False:",
          "tests/test_dyck.py::TestValleys::test_invalid_valley_set_messages"),
    # tableau_descents counts a successor in the same row
    Fault("tableaux.py",
          "        des |= entries & below >> 1",
          "        des |= entries & (below | entries) >> 1",
          "tests/test_tableaux.py::TestDescents::test_matches_the_dict_oracle"),
    # evacuation inserts the complemented reading word without reversing it
    Fault("tableaux.py",
          "    return StandardTableau._of(_insert(n + 1 - v for row in T.rows for v in reversed(row))[0])",
          "    return StandardTableau._of(_insert(n + 1 - v for row in T.rows for v in row)[0])",
          "verify rsk-j 7"),
    # evacuation returns its input from n = 9 on, past the S_n rows' cap and
    # the default bar of rsk-j: verify all passes this fault (39/39) and
    # verify rsk-j 9 fails it (4/5)
    Fault("tableaux.py",
          "    return StandardTableau._of(_insert(n + 1 - v for row in T.rows for v in reversed(row))[0])",
          "    return T if n >= 9 else StandardTableau._of("
          "_insert(n + 1 - v for row in T.rows for v in reversed(row))[0])",
          "tests/test_tableaux.py::TestEvacuation::test_equals_the_jeu_de_taquin_oracle"),
    # the two-row tableau DP of the 321-avoiders records a descent one place late
    Fault("polynomials.py",
          "                        second[d + 1, m + p, 0] += c",
          "                        second[d + 1, m + p + 1, 0] += c",
          "tests/test_polynomials.py::TestTristat::test_valley_route_matches_avoider_oracle[321-plain]"),
    # the two-row product reads the t side of each f_k from its q slot
    Fault("polynomials.py",
          "        out = out + f * _term_map(f, lambda d, m, _: (0, 0, m))",
          "        out = out + f * _term_map(f, lambda d, m, _: (0, m, 0))",
          "tests/test_polynomials.py::TestTristat::test_valley_route_matches_avoider_oracle[321-plain]"),
    # bounce one too high from n = 7 on, on paths whose first touch point is 1;
    # no verify row calls bounce, so verify all passes this fault
    Fault("dyck.py",
          "            total += n - a",
          "            total += n - a + (a == 1 and n >= 7)",
          "tests/test_polynomials.py::TestPolynomialZoo::test_closed_route_matches_path_oracle[cat]"),
    # the 231 extension mask keeps the bit past its run: a placed value, or n + 1
    Fault("permutations.py",
          "    (2, 3, 1): lambda used, free: free & ~(free + (free & -free)),",
          "    (2, 3, 1): lambda used, free: (free + (free & -free)) ^ free,",
          "tests/test_permutations.py::TestEnumeration::test_stream_is_the_lex_filter_of_the_oracle[231]"),
    # the scan of the longer patterns reads one letter of the prefix too
    # few, so it misses the copies that the last letter placed begins
    Fault("permutations.py",
          "        for letters in itertools.combinations(word[:used.bit_count()], len(head)):",
          "        for letters in itertools.combinations(word[:used.bit_count() - 1], len(head)):",
          "tests/test_permutations.py::TestEnumeration::test_stream_is_the_lex_filter_of_the_oracle[2413]"),
    # the interval rule of the longer patterns counts the head's letters
    # above the pattern's last letter, so it bans the wrong gap
    Fault("permutations.py",
          "    below = sum(x < pat[-1] for x in head)",
          "    below = sum(x > pat[-1] for x in head)",
          "tests/test_permutations.py::TestPatterns::test_fast_equals_naive_exhaustively[2413]"),
    # the avoider walk yields the last free value without testing masks[n-1]:
    # a length-3 mask always holds it, a longer pattern's need not
    Fault("permutations.py",
          "            rest = masks[k] & -(2 << tried[k])",
          "            rest = (masks[k] if k < n - 1 else free) & -(2 << tried[k])",
          "tests/test_permutations.py::TestEnumeration::test_stream_is_the_lex_filter_of_the_oracle[2413]"),
    # the Dyck walk's valley adds its y-coordinate to maj1, not its x
    Fault("dyck.py",
          "                    maj1 += easts",
          "                    maj1 += norths",
          "tests/test_dyck.py::TestEnumeration::test_carried_sums_are_path_stats_and_area"),
    # the Dyck walk puts the north child below the east one on its stack,
    # so the east child pops first and the paths come in reverse lex order
    Fault("dyck.py",
          "                push((k + 1, NORTH, norths + 1, easts, maj, maj1, area_ + norths - easts))",
          "                stack.insert(len(stack) - (easts < norths),"
          " (k + 1, NORTH, norths + 1, easts, maj, maj1, area_ + norths - easts))",
          "tests/test_dyck.py::TestEnumeration::test_lex_order_no_duplicates"),
    # j skips evacuation from n = 8 on, past the S_n rows' cap and the
    # default bar of rsk-j, so only a bar of 8 or more catches it
    Fault("tableaux.py",
          "    return inverse_rsk(evacuation(P), Q)",
          "    return inverse_rsk(P if p.n >= 8 else evacuation(P), Q)",
          "verify rsk-j 8"),
    # perm_stats sums Des for imaj; the walk's carried sums are checked
    # against perm_stats, so its oracle test reads the two-pass scans
    Fault("permutations.py",
          "    return PermStats(des=len(d.des), asc=len(d.asc), maj=sum(d.des), imaj=sum(d.ides), inv=inv)",
          "    return PermStats(des=len(d.des), asc=len(d.asc), maj=sum(d.des), imaj=sum(d.des), inv=inv)",
          "tests/test_permutations.py::TestStats::test_one_pass_matches_oracles_exhaustively"),
    # the value-type contract hashes the bare field of a one-field type,
    # not the field tuple
    Fault("permutations.py",
          "        return hash(self._astuple(self))",
          "        return hash(self._read(self))",
          "tests/test_permutations.py::TestValueTypes::test_contract[Permutation]"),
    # the trusted constructors: each fault builds a value that the skipped
    # check would reject, and the oracle rebuilds it through that check.
    # reverse drops the first letter: Permutation._of wraps a short word
    Fault("permutations.py",
          "    return Permutation._of(p.word[::-1])",
          "    return Permutation._of(p.word[:0:-1])",
          "tests/test_bijections.py::TestTrustedConstruction::"
          "test_rebuilds_through_the_checking_constructor[reverse]"),
    # reflect swaps the letters without reversing: DyckPath._of wraps a word
    # that starts below the diagonal
    Fault("dyck.py",
          "    return DyckPath._of(tuple(1 - s for s in reversed(D.steps)))",
          "    return DyckPath._of(tuple(1 - s for s in D.steps))",
          "tests/test_bijections.py::TestTrustedConstruction::"
          "test_rebuilds_through_the_checking_constructor[reflect]"),
    # valley_complement forgets the swap: ValleySet._of wraps xs >= ys, so
    # from_valleys walks below the diagonal
    Fault("dyck.py",
          "    return from_valleys(ValleySet._of(D.n, xs, ys))",
          "    return from_valleys(ValleySet._of(D.n, ys, xs))",
          "tests/test_bijections.py::TestTrustedConstruction::"
          "test_rebuilds_through_the_checking_constructor[valley_complement]"),
    # the size rule without its integer step: standard_tableaux(2.5) yields
    # the tableaux of size 2 and the streams raise a raw TypeError
    Fault("permutations.py",
          "    n = _integer(n)",
          "    pass",
          "tests/test_permutations.py::TestSizeRule::test_non_integer_sizes_are_rejected"),
    # verify_gf_identity without its integer step: an order of 2.5 reaches
    # the Pascal table, whose range raises a raw TypeError
    Fault("polynomials.py",
          '    N = _integer(N, "N")',
          "    pass",
          "tests/test_permutations.py::TestSizeRule::"
          "test_other_sizes_and_orders_read_the_integer_rule[verify_gf_identity]"),
    # the text form drops the first term's "-": -a*q^3 prints as a*q^3
    Fault("polynomials.py",
          '            pieces[0] = pieces[0].strip(" +")  # the first separator: a bare "-" or nothing',
          '            pieces[0] = ""',
          "tests/test_polynomials.py::TestMultiPoly::test_text_form"),
    # TruncatedSeries without its integer step: an order of 1.0 is stored
    # as a float, and two coefficients pass the length test
    Fault("polynomials.py",
          '        object.__setattr__(self, "order", _integer(self.order, "series order"))',
          '        object.__setattr__(self, "order", self.order)',
          "tests/test_permutations.py::TestValueTypes::test_non_integers_rejected[TruncatedSeries]"),
    # run_suite without its integer step: a bar of 2.5 reaches the kd suite,
    # whose range raises a raw TypeError
    Fault("verification.py",
          '        bar = SUITES[suite][1] if n_max is None else permutations._integer(n_max, "size bar")',
          "        bar = SUITES[suite][1] if n_max is None else n_max",
          "tests/test_permutations.py::TestSizeRule::"
          "test_other_sizes_and_orders_read_the_integer_rule[run_suite]"),
    # reconstruct_231 without the integer step on either descent set: 1.5
    # reaches the word's list indices or its closing asserts
    Fault("permutations.py",
          '    des_sorted = sorted({_integer(i, "descent position") for i in des})',
          "    des_sorted = sorted(set(des))",
          "tests/test_permutations.py::TestSizeRule::"
          "test_other_sizes_and_orders_read_the_integer_rule[reconstruct_231]"),
    Fault("permutations.py",
          '    ides_sorted = sorted({_integer(i, "descent position") for i in ides})',
          "    ides_sorted = sorted(set(ides))",
          "tests/test_permutations.py::TestSizeRule::"
          "test_other_sizes_and_orders_read_the_integer_rule[reconstruct_231-ides]"),
    # descent_run_before without its integer step: j = 1.5 indexes the word
    Fault("permutations.py",
          '    w, j = p.word, _integer(j, "j")',
          "    w = p.word",
          "tests/test_permutations.py::TestSizeRule::"
          "test_other_sizes_and_orders_read_the_integer_rule[descent_run_before]"),
    # build_parser reads the ceiling off permutations, which loads that module
    # (and errors) for every command, --help included
    Fault("cli.py",
          "        default=DEFAULT_MAX_N,",
          "        default=permutations.DEFAULT_MAX_N,",
          "tests/test_package.py::TestStartup::test_help_loads_no_library_module_but_errors"),
    # the CLI formats the walk's rows unchecked: a row that puts imaj in the
    # maj column is still a well-formed row, and only the oracle of the
    # row templates, which reads perm_stats, tells
    Fault("cli.py",
          "            operator.add, permutations._avoider_rows(args.n, pattern, max_n=args.max_n))",
          "            lambda w, s: w + (s[0], s[2], s[2], s[3]),"
          " permutations._avoider_rows(args.n, pattern, max_n=args.max_n))",
          "tests/test_cli.py::TestEnumerate::test_row_templates_match_formatting_oracle[avoiders:231]"),
    # the CSV quoting rule misses n = 2, whose words [1,2] and [2,1] have a comma
    Fault("cli.py",
          "        csv_word = f'\"{word}\"' if args.n > 1 else word",
          "        csv_word = f'\"{word}\"' if args.n > 2 else word",
          "tests/test_cli.py::TestEnumerate::test_row_templates_match_formatting_oracle[avoiders:231]"),
]


def passes(check: str, src: Path) -> bool:
    """Whether ``check`` passes with the package imported from ``src``."""
    if check.startswith("tests/"):
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", check]
    else:
        argv = [sys.executable, "-m", "catbij", *check.split()]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    problems = 0
    clean: dict[str, bool] = {}
    for fault in FAULTS:
        where = f"{fault.file}: {fault.line.strip()}"
        lines = (ROOT / "src" / "catbij" / fault.file).read_text().split("\n")
        found = lines.count(fault.line)
        if found != 1:
            print(f"STALE   {where} (the line occurs {found} times)")
            problems += 1
            continue
        if fault.check not in clean:
            clean[fault.check] = passes(fault.check, ROOT / "src")
        if not clean[fault.check]:
            print(f"BROKEN  {fault.check} fails on the unchanged source")
            problems += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            lines[lines.index(fault.line)] = fault.replacement
            (src / "catbij" / fault.file).write_text("\n".join(lines))
            caught = not passes(fault.check, src)
        print(f"{'caught' if caught else 'MISSED'}  {where} -> {fault.check}")
        problems += not caught
    print(f"{len(FAULTS) - problems}/{len(FAULTS)} faults caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
