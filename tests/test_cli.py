import contextlib
import contextvars
import csv
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catbij
from catbij import (
    CeilingExceeded,
    NotAvoiding132,
    NotAvoiding231,
    NotAvoiding312,
    NotAvoiding321,
    NoAssignment,
    Permutation,
    a_poly,
    area,
    avoids,
    bijections,
    bounce,
    cat_qt,
    enumerate_avoiders,
    enumerate_dyck,
    path_stats,
    perm_stats,
    permutations,
    polynomials,
    tableaux,
    verification,
)
from catbij import cli
from catbij.cli import (
    _BIJECTIONS,
    _PATH_FIELDS,
    _PERM_FIELDS,
    _path_row,
    _perm_row,
    main,
)
from catbij.verification import Check, _run, run_suite

# The check lines of ``catbij verify all 4``: check names and details are fixed output.
ALL_4_CHECKS = """\
PASS  phi bijects 231-avoiders onto Dyck paths, n<=4
PASS  maj(phi(w)) = maj(w) + imaj(w), n<=4
PASS  valley sets of phi(w) are (Des, iDes), n<=4
PASS  (maj1, maj0) of phi(w) is (maj, imaj), n<=4
PASS  iDes = {w_i - 1 : i in Des} on 231-avoiders, n<=4
PASS  |Des| = |iDes| on 132/231/312/213-avoiders, n<=4
PASS  witness [2,4,1,3]: 123-avoiding, |Des|=1 but |iDes|=2
PASS  values after an ascent exceed it (231), n<=4
PASS  j >= w_j + run-before-j at ascents (231), n<=4
PASS  consecutive ascents: j_l >= w(j_l+1) - 1 (231), n<=4
PASS  sorted Des <= iDes elementwise (231), n<=4
PASS  reconstruct_231 round-trips descent data, n<=4
PASS  kappa equals reflect o complement o phi o reverse, n<=4
PASS  Set_X(kappa(w)) = Des(w) on 132-avoiders, n<=4
PASS  Set_Y(kappa(w)) = {n-j : j in iDes} on 132-avoiders, n<=4
PASS  iDes = {n-i-h_i : i in Des} on 132-avoiders, n<=4
PASS  h drops exactly at ascents, all permutations, n<=4
PASS  132-avoidance iff h_(i+1) >= h_i - 1, all permutations, n<=4
PASS  inv(w) = area(complement(phi(w))) on 231-avoiders, n<=4
PASS  area(beta(w)) = inv(w) on 312-avoiders, n<=4
PASS  A_n(q,t) = A_n(t,q), n<=4
PASS  Cat_n(q,t) = Cat_n(t,q), n<=4
PASS  permutation and path routes to A_n agree, n<=4
PASS  q^C(n,2) A_n(q,1/q) = maj q-Catalan = binomial quotient = q^C(n,2) Cat_n(q,1/q), n<=4
PASS  Cat_n(1,1) is the Catalan number, n<=4
PASS  expansion-of-1 residuals vanish through z^4
PASS  231-plain equals 312-complemented, n<=4
PASS  132-plain equals 213-complemented, n<=4
PASS  123-plain equals 321-complemented, n<=4
PASS  132/213 identity survives a=1, n<=4
PASS  inverse RSK round-trips all permutations, n<=4
PASS  Des(w)=Des(Q) and iDes(w)=Des(P), n<=4
PASS  321-avoidance iff at most two rows, n<=4
PASS  evacuation: involution, shape, descent complement (tableaux)
PASS  j: involution on 321-avoiders fixing Des, reversing iDes, n<=4
PASS  a shift assignment exists for every n<=4
PASS  n=3: the all-zero assignment is unique
PASS  n=4: exactly two assignments (k=1 on 00011101 or on 01010011)  \
[k=1 on 00011101, else 0; or k=1 on 01010011, else 0]
PASS  valley complement swaps 01010011 and 00011101
""".splitlines()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class CountingStdout(io.StringIO):
    """A stdout that counts the calls to its write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def run_captured(*argv):
    """Exit code, stdout and stderr of one in-process run, without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(*argv, codes=frozenset({0, 2, 3, 4})):
    """An allowed exit code, no traceback, and the same result on a rerun.
    Only ``verify`` may exit 1, a failed check."""
    first = run_captured(*argv)
    code, _, err = first
    assert code in codes
    assert "Traceback" not in err
    assert run_captured(*argv) == first


def assert_digit_pattern(result, digits, accepted):
    """Exit 0 when the digits are accepted, else the pattern error alone."""
    code, out, err = result
    if accepted:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: pattern must be")


def is_permutation(digits):
    return sorted(digits) == [str(i) for i in range(1, len(digits) + 1)]


_ORIENTATIONS = ("plain", "complemented")
# every poly selector; each has a closed route
_CLOSED_SELECTORS = ["a", "cat", "macmahon",
                     *(f"tristat:{p}:{o}" for p in (231, 312, 132, 213, 123, 321) for o in _ORIENTATIONS)]
_POLY_ARGS = st.one_of(
    st.tuples(st.sampled_from(_CLOSED_SELECTORS), st.integers(-2, 14)),
    st.tuples(st.text(max_size=12), st.integers(-2, 6)),
)
_ENUMERATE_ARGS = st.tuples(
    st.one_of(st.just("dyck"), st.sampled_from([f"avoiders:{p}" for p in (123, 132, 213, 231, 312, 321)]),
              st.text(max_size=12)),
    st.integers(-2, 8),
    st.sampled_from(["lines", "csv", "json"]),
)
# 1-4 digits, leading zeros and repeats included, with permutations mixed in
_DIGITS = st.one_of(st.text("0123456789", min_size=1, max_size=4),
                    st.integers(1, 4).flatmap(lambda k: st.permutations("1234"[:k])).map("".join))
_VERIFY_ARGS = st.tuples(
    st.one_of(st.sampled_from([*verification.SUITES, "all"]), st.text(max_size=12)),
    st.integers(-2, 4),
)
_PERM_TEXT = st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
    lambda w: "[" + ",".join(map(str, w)) + "]")
_PATH_TEXT = st.one_of(st.sampled_from([str(D) for n in range(1, 6) for D in enumerate_dyck(n)]),
                       st.text("01 ", max_size=12))
_MAP_ARGS = st.tuples(
    st.one_of(st.sampled_from(list(_BIJECTIONS)), st.text(max_size=12)),
    st.one_of(_PERM_TEXT, _PATH_TEXT, st.text(max_size=12)),
)


class TestMap:
    def test_phi_golden(self, capsys):
        code, out, _ = run(capsys, "map", "phi", "[6,2,1,5,4,3]")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "010010110101"
        assert "maj=25" in lines[1] and "maj0=13" in lines[1] and "maj1=12" in lines[1]

    def test_kappa_golden(self, capsys):
        code, out, _ = run(capsys, "map", "kappa", "[3,4,5,1,2,6]")
        assert code == 0
        assert out.splitlines()[0] == "000011100111"

    def test_perm_image_gets_perm_stats(self, capsys):
        code, out, _ = run(capsys, "map", "psi-perm", "[6,2,1,5,4,3]")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[1,4,2,3,5,6]"
        assert lines[1] == "des=1 maj=2 imaj=3"

    @pytest.mark.parametrize(
        "bijection,inp,expected",
        [
            ("phi-inv", "010010110101", "[6,2,1,5,4,3]"),
            ("psi-path", "01010011", "00011101"),
            ("rho", "[6,2,1,5,4,3]", "[3,4,5,1,2,6]"),
            ("inverse", "[2,3,1]", "[3,1,2]"),
            ("beta", "[1,2,3,4]", "01010101"),
            ("trio", "[1,2]", "[2,1]"),
            ("j", "[1,2,3]", "[1,2,3]"),
        ],
    )
    def test_all_bijections(self, capsys, bijection, inp, expected):
        code, out, _ = run(capsys, "map", bijection, inp)
        assert code == 0
        assert out.splitlines()[0] == expected

    def test_pattern_violation_is_exit_3(self, capsys):
        code, _, err = run(capsys, "map", "phi", "[2,3,1]")
        assert code == 3
        assert "231" in err

    @pytest.mark.parametrize(
        "bijection,word,violation",
        [
            ("phi", (2, 3, 1), NotAvoiding231),
            ("psi-perm", (2, 3, 1), NotAvoiding231),
            ("kappa", (1, 3, 2), NotAvoiding132),
            ("beta", (3, 1, 2), NotAvoiding312),
            ("trio", (1, 3, 2), NotAvoiding132),
            ("j", (3, 2, 1), NotAvoiding321),
        ],
    )
    def test_smallest_non_member_is_a_typed_violation(self, capsys, bijection, word, violation):
        with pytest.raises(violation) as info:
            _BIJECTIONS[bijection][1](Permutation(word))
        name = "".join(map(str, violation.pattern))
        assert str(info.value) == f"permutation does not avoid {name}: {list(word)}"
        text = "[" + ",".join(map(str, word)) + "]"
        assert run(capsys, "map", bijection, text) == (3, "", f"pattern violation: {info.value}\n")

    def test_parse_error_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "map", "phi", "[2,x]")
        assert code == 2

    def test_bad_path_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "map", "phi-inv", "10")
        assert code == 2

    def test_unknown_bijection_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "map", "zeta", "[1,2]")
        assert code == 2

    @settings(max_examples=25, deadline=None)
    @given(_MAP_ARGS)
    def test_generated_arguments(self, args):
        assert_contract("map", *args)


class TestPoly:
    def test_a4_text(self, capsys):
        code, out, _ = run(capsys, "poly", "a", "4")
        assert code == 0
        assert out.strip() == str(a_poly(4))

    def test_a1_trivial(self, capsys):
        code, out, _ = run(capsys, "poly", "a", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_cat4_json(self, capsys):
        code, out, _ = run(capsys, "poly", "cat", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert {"a": 0, "q": 2, "t": 2, "coef": 1} in data["terms"]
        assert len(data["terms"]) == 14
        assert out.strip() == cat_qt(4).to_json()

    def test_macmahon(self, capsys):
        code, out, _ = run(capsys, "poly", "macmahon", "2")
        assert code == 0
        assert out.strip() == "q^2 + 1"

    def test_tristat_selector(self, capsys):
        code, out, _ = run(capsys, "poly", "tristat:231:plain", "2")
        assert code == 0
        assert out.strip() == "a*q*t + 1"

    def test_unknown_poly_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "poly", "zeta", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "selector,err",
        [
            ("tristat:231", "tristat selector is tristat:<pattern>:<orientation>\n"),
            ("tristat:231:sideways", "error: unknown orientation 'sideways'\n"),
            ("tristat:abc:plain", "error: pattern must be digits like 231, got 'abc'\n"),
            ("tristat:0231:plain", "error: pattern must be a permutation like 231, got '0231'\n"),
        ],
        ids=["tristat:231", "tristat:231:sideways", "tristat:abc:plain", "tristat:0231:plain"],
    )
    def test_malformed_tristat_is_exit_2(self, capsys, selector, err):
        assert run(capsys, "poly", selector, "3") == (2, "", err)

    @pytest.mark.parametrize("kind", ["a", "cat", "macmahon", "tristat:231:plain"])
    def test_n_below_one_is_exit_2(self, capsys, kind):
        code, out, err = run(capsys, "poly", kind, "0")
        assert code == 2
        assert out == ""
        assert err == "error: n must be at least 1\n"

    @pytest.mark.parametrize("kind", ["a", "cat", "macmahon", "tristat:231:plain", "tristat:213:complemented",
                                      "tristat:123:plain", "tristat:321:complemented"])
    def test_closed_routes_ignore_the_ceiling(self, capsys, kind):
        result = run(capsys, "--max-n", "3", "poly", kind, "4")
        assert result[0] == 0
        assert result == run(capsys, "poly", kind, "4")

    @settings(max_examples=30, deadline=None)
    @given(_POLY_ARGS)
    def test_generated_selectors(self, args):
        selector, n = args
        assert_contract("poly", selector, str(n))

    @settings(max_examples=15, deadline=None)
    @given(_DIGITS, st.integers(1, 7))
    def test_generated_digit_patterns(self, digits, n):
        result = run_captured("poly", f"tristat:{digits}:plain", str(n))
        assert_digit_pattern(result, digits, is_permutation(digits) and len(digits) == 3)


class TestEnumerate:
    def test_avoiders_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "avoiders:231", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[0] == "[1,2,3,4]  des=0 maj=0 imaj=0 inv=0"

    def test_dyck_single(self, capsys):
        code, out, _ = run(capsys, "enumerate", "dyck", "1")
        assert code == 0
        assert out.splitlines() == ["01  maj=0 maj0=0 maj1=0 area=0 bounce=0"]

    def test_dyck_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "dyck", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["word", "maj", "maj0", "maj1", "area", "bounce"]
        assert len(rows) == 1 + 42

    def test_avoiders_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "avoiders:132", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 5
        assert data[0] == {"word": "[1,2,3]", "des": 0, "maj": 0, "imaj": 0, "inv": 0}
        rows = []
        for p in enumerate_avoiders(3, 132):
            s = perm_stats(p)
            rows.append({"word": str(p), "des": s.des, "maj": s.maj, "imaj": s.imaj, "inv": s.inv})
        assert out == json.dumps(rows) + "\n"

    @pytest.mark.parametrize("n", [1, 4])
    def test_dyck_json(self, capsys, n):
        code, out, _ = run(capsys, "enumerate", "dyck", str(n), "--format", "json")
        assert code == 0
        rows = []
        for D in enumerate_dyck(n):
            s = path_stats(D)
            rows.append({"word": str(D), "maj": s.maj, "maj0": s.maj0, "maj1": s.maj1,
                         "area": area(D), "bounce": bounce(D)})
        assert out == json.dumps(rows) + "\n"

    @pytest.mark.parametrize(
        "kind", ["dyck", "avoiders:231", "avoiders:123", "avoiders:2413", "avoiders:1", "avoiders:21"])
    def test_row_templates_match_formatting_oracle(self, monkeypatch, kind):
        # each format, written in blocks of 1, 2, 3 and the default rows,
        # against its rows formatted and written one at a time
        for n in range(1, 7):
            if kind == "dyck":
                header = ("word", *_PATH_FIELDS)
                rows = [(str(D),) + _path_row(D) for D in enumerate_dyck(n)]
            else:
                header = ("word", *_PERM_FIELDS)
                rows = [(str(p),) + _perm_row(p)
                        for p in enumerate_avoiders(n, kind.split(":")[1])]
            table = io.StringIO()
            writer = csv.writer(table, lineterminator="\n")
            for row in (header, *rows):
                writer.writerow(row)
            oracle = {
                "lines": "".join(row[0] + "  " + " ".join(f"{k}={v}" for k, v in zip(header[1:], row[1:])) + "\n"
                                 for row in rows),
                "json": json.dumps([dict(zip(header, row)) for row in rows]) + "\n",
                "csv": table.getvalue(),
            }
            for block in (1, 2, 3, cli._BLOCK_ROWS):
                monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
                for fmt, want in oracle.items():
                    stdout = CountingStdout()
                    with contextlib.redirect_stdout(stdout):
                        assert main(["enumerate", kind, str(n), "--format", fmt]) == 0
                    assert stdout.getvalue() == want
                    assert stdout.writes <= -(-len(rows) // block) + 2

    @pytest.mark.parametrize(
        "argv",
        [
            *(pytest.param(["enumerate", "dyck", "11", "--format", fmt], id=fmt)
              for fmt in ("lines", "csv", "json")),
            # streams far deeper than the recursion limit
            pytest.param(["--max-n", "600", "enumerate", "dyck", "600"], id="dyck-600"),
            pytest.param(["--max-n", "1200", "enumerate", "avoiders:231", "1200"], id="avoiders-1200"),
        ],
    )
    def test_closed_pipe_is_exit_0(self, argv):
        # The reader takes the start of the output and hangs up, as `| head` does.
        src = str(Path(catbij.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "catbij", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as proc:
            assert os.read(proc.stdout.fileno(), 100)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize(
        "kind,err",
        [
            ("ballot", "unknown kind 'ballot'; use dyck or avoiders:<pattern>\n"),
            ("avoiders:x", "error: pattern must be digits like 231, got 'x'\n"),
            ("avoiders:", "error: pattern must be digits like 231, got ''\n"),
            ("avoiders:01", "error: pattern must be a permutation like 231, got '01'\n"),
            ("avoiders:11", "error: pattern must be a permutation like 231, got '11'\n"),
            ("avoiders:0", "error: pattern must be a permutation like 231, got '0'\n"),
        ],
        ids=["ballot", "avoiders:x", "avoiders:", "avoiders:01", "avoiders:11", "avoiders:0"],
    )
    def test_unknown_kind_is_exit_2(self, capsys, kind, err):
        assert run(capsys, "enumerate", kind, "3") == (2, "", err)

    def test_ceiling_is_exit_4(self, capsys):
        code, _, _ = run(capsys, "enumerate", "dyck", "13")
        assert code == 4
        code, _, _ = run(capsys, "--max-n", "4", "enumerate", "dyck", "5")
        assert code == 4

    @settings(max_examples=30, deadline=None)
    @given(_ENUMERATE_ARGS)
    def test_generated_arguments(self, args):
        kind, n, fmt = args
        assert_contract("enumerate", kind, str(n), "--format", fmt)

    @settings(max_examples=15, deadline=None)
    @given(_DIGITS, st.integers(1, 7))
    def test_generated_digit_patterns(self, digits, n):
        result = run_captured("enumerate", f"avoiders:{digits}", str(n))
        assert_digit_pattern(result, digits, is_permutation(digits))

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "avoiders:312", "5", "--format", "csv")
        _, second, _ = run(capsys, "enumerate", "avoiders:312", "5", "--format", "csv")
        assert first == second


class TestVerifyCommand:
    def test_phi_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "phi", "5")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out

    def test_kd_suite_reports_assignments(self, capsys):
        code, out, _ = run(capsys, "verify", "kd", "4")
        assert code == 0
        assert "00011101" in out and "01010011" in out

    def test_unknown_suite_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_ceiling_names_the_bar(self, capsys):
        assert run(capsys, "verify", "phi", "20") == (
            4, "", "ceiling: n=20 exceeds the enumeration ceiling 12; raise with --max-n\n")

    def test_gf_identity_at_the_ceiling(self, capsys):
        # the identity of order N reads A_(N+1) from a closed route: no enumeration
        code, out, _ = run(capsys, "--max-n", "3", "verify", "gf-identity", "3")
        assert (code, out) == (0, "PASS  expansion-of-1 residuals vanish through z^3\n1/1 checks passed\n")

    def test_failing_check_is_exit_1(self, capsys, monkeypatch):
        def broken(n_max=1, max_n=12):
            return [Check(name="seeded failure", passed=False, detail="counterexample: x")]

        monkeypatch.setitem(verification.SUITES, "phi", (broken, 1))
        code, out, _ = run(capsys, "verify", "phi")
        assert code == 1
        assert "FAIL  seeded failure" in out

    def test_missing_command_is_exit_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "suite,checks",
        [("all", ALL_4_CHECKS), ("kd", ALL_4_CHECKS[-4:])],
    )
    def test_recorded_output_at_bar_4(self, capsys, suite, checks):
        code, out, _ = run(capsys, "verify", suite, "4")
        assert code == 0
        assert out == "\n".join([*checks, f"{len(checks)}/{len(checks)} checks passed", ""])

    @pytest.mark.parametrize("suite,bar", [("phi", "0"), ("all", "-1")])
    def test_bar_below_one_is_exit_2(self, capsys, suite, bar):
        code, out, err = run(capsys, "verify", suite, bar)
        assert code == 2
        assert out == ""
        assert err == f"error: size bar must be at least 1, got {bar}\n"

    @settings(max_examples=25, deadline=None)
    @given(_VERIFY_ARGS)
    def test_generated_arguments(self, args):
        suite, n = args
        assert_contract("verify", suite, str(n), codes={0, 1, 2, 3, 4})


def _failures(bar, domain, test):
    """Every failure of ``test`` over n = 1..bar, in domain order; a test
    that raises fails there."""
    for n in range(1, bar + 1):
        for x in domain(n):
            try:
                failure = test(n, x)
            except Exception as exc:
                failure = f"raised {type(exc).__name__}: {exc}"
            if failure is not None:
                yield failure


def _scan(name, counterexamples, note=""):
    first = next(counterexamples, None)
    if first is None:
        return Check(name=name, passed=True, detail=note)
    return Check(name=name, passed=False, detail=f"counterexample: {first}")


def row_by_row(rows):
    """The reference driver for ``verification._run``: each row walks its
    own domain and stops at its first failure."""
    return [_scan(name, _failures(bar, domain, test), *note) for name, bar, domain, test, *note in rows]


def _perm_words(max_n):
    return [w for n in range(1, max_n + 1) for w in itertools.permutations(range(1, n + 1))]


class TestVerificationSuites:
    @staticmethod
    def recording_domain(consumed):
        def domain(n):
            for x in "abcd":
                consumed.append((n, x))
                yield x
        return domain

    def test_scan_reports_first_counterexample(self):
        consumed = []
        domain = self.recording_domain(consumed)
        failing = {(3, "a"), (2, "d"), (2, "b"), (4, "a")}
        [check] = _run([("demo", 4, domain, lambda n, x: f"{x}@{n}" if (n, x) in failing else None)])
        assert check == Check("demo", False, "counterexample: b@2")
        assert consumed == [(1, "a"), (1, "b"), (1, "c"), (1, "d"), (2, "a"), (2, "b")]
        assert _run([("demo", 1, domain, lambda n, x: None)]) == [Check("demo", True)]

    def test_rows_sharing_a_domain_share_one_walk(self):
        consumed, seen = [], []
        domain = self.recording_domain(consumed)

        def fails_at(*points):
            def test(n, x):
                seen.append((points, n, x))
                return f"{x}@{n}" if (n, x) in points else None
            return test

        late, early, middle = ((3, "b"),), ((2, "b"), (1, "d")), ((2, "d"), (3, "a"))
        rows = [(name, 4, domain, fails_at(*points)) for name, points in
                (("late", late), ("early", early), ("middle", middle))]
        assert [c.detail for c in _run(rows)] == [
            "counterexample: b@3", "counterexample: d@1", "counterexample: d@2"]
        walk = [(n, x) for n in (1, 2, 3) for x in "abcd"]
        assert consumed == walk[:walk.index((3, "b")) + 1]
        # a row is no longer tested once it has failed
        assert [(n, x) for points, n, x in seen if points == early] == walk[:walk.index((1, "d")) + 1]
        assert [(n, x) for points, n, x in seen if points == middle] == walk[:walk.index((2, "d")) + 1]

        consumed.clear()
        rows.append(("never", 4, domain, lambda n, x: None))
        assert [c.passed for c in _run(rows)] == [False, False, False, True]
        assert consumed == [(n, x) for n in (1, 2, 3, 4) for x in "abcd"]

    def test_driver_matches_row_by_row_on_synthetic_rows(self):
        def domain(n):
            return iter(range(n, 0, -1))

        def size(n):
            return (n,)

        rows = [
            ("fails at 3/2", 5, domain, lambda n, x: f"{n}/{x}" if (n, x) in {(4, 1), (3, 2)} else None),
            ("never fails", 5, domain, lambda n, x: None),
            ("fails at 2/1", 5, domain, lambda n, x: f"{n}/{x}" if x == 1 and n > 1 else None),
            ("noted", 5, domain, lambda n, x: None, "a note"),
            ("fact", 1, size, lambda n, _: "broken"),
            ("per size", 5, size, lambda n, _: f"n={n}" if n == 4 else None),
        ]
        checks = _run(rows)
        assert checks == row_by_row(rows)
        assert checks == [
            Check("fails at 3/2", False, "counterexample: 3/2"),
            Check("never fails", True),
            Check("fails at 2/1", False, "counterexample: 2/1"),
            Check("noted", True, "a note"),
            Check("fact", False, "counterexample: broken"),
            Check("per size", False, "counterexample: n=4"),
        ]

    def test_row_that_raises_fails_at_its_smallest_counterexample(self):
        domain = self.recording_domain([])

        def row(raises_at, fails_at=()):
            def test(n, x):
                if (n, x) in raises_at:
                    raise LookupError(f"no image for {x}@{n}")
                return f"{x}@{n}" if (n, x) in fails_at else None
            return test

        rows = [
            ("raises first", 4, domain, row({(2, "b"), (3, "a")}, {(2, "d")})),
            ("fails first", 4, domain, row({(2, "a")}, {(1, "c")})),
            ("raises late", 4, domain, row({(4, "d")})),
            ("never", 4, domain, row(())),
        ]
        checks = _run(rows)
        assert checks == row_by_row(rows)
        assert checks == [
            Check("raises first", False, "counterexample: raised LookupError: no image for b@2"),
            Check("fails first", False, "counterexample: c@1"),
            Check("raises late", False, "counterexample: raised LookupError: no image for d@4"),
            Check("never", True),
        ]

    def test_keyboard_interrupt_ends_the_run(self):
        def interrupted(n, x):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _run([("demo", 3, verification._size, interrupted)])

    def test_suite_row_that_raises_is_a_fail(self, monkeypatch, capsys):
        stats = permutations.perm_stats

        def breaking(p):
            if p.word == (2, 1, 3):
                raise ValueError(f"no stats for {p}")
            return stats(p)

        monkeypatch.setattr(permutations, "perm_stats", breaking)
        code, out, err = run(capsys, "verify", "phi", "3")
        assert (code, err) == (1, "")
        assert out == (
            "PASS  phi bijects 231-avoiders onto Dyck paths, n<=3\n"
            "FAIL  maj(phi(w)) = maj(w) + imaj(w), n<=3"
            "  [counterexample: raised ValueError: no stats for [2,1,3]]\n"
            "PASS  valley sets of phi(w) are (Des, iDes), n<=3\n"
            "FAIL  (maj1, maj0) of phi(w) is (maj, imaj), n<=3"
            "  [counterexample: raised ValueError: no stats for [2,1,3]]\n"
            "2/4 checks passed\n"
        )

    def test_kd_reports_no_assignment_as_raised(self, monkeypatch):
        search = polynomials.kd_search

        def failing(n, **kwargs):
            if n == 2:
                raise NoAssignment("n=2: no target monomial is left for path 0101")
            return search(n, **kwargs)

        monkeypatch.setattr(polynomials, "kd_search", failing)
        exists, *facts = run_suite("kd", 4)
        assert exists == Check("a shift assignment exists for every n<=4", False,
                               "counterexample: raised NoAssignment: n=2: no target monomial is left for path 0101")
        assert all(c.passed for c in facts)

    def test_driver_matches_row_by_row_on_every_suite(self, monkeypatch):
        grouped = run_suite("all", 5)
        monkeypatch.setattr(verification, "_run", row_by_row)
        assert grouped == run_suite("all", 5)

    def test_rsk_rows_run_rsk_once_per_permutation(self, monkeypatch):
        # evacuation inserts a reading word through rsk's loop, _insert;
        # those insertions are counted apart, by the outermost caller: the
        # evacuation row or j
        direct, evacuating, callers = Counter(), Counter(), []
        rsk, insert = tableaux.rsk, tableaux._insert

        def counting(p):
            direct[p.word] += 1
            return rsk(p)

        def inserting(word):
            if "evacuation" in callers:
                evacuating[callers[0]] += 1
            return insert(word)

        def entered(name, f):
            def wrapped(x):
                callers.append(name)
                try:
                    return f(x)
                finally:
                    callers.pop()
            return wrapped

        monkeypatch.setattr(tableaux, "rsk", counting)
        monkeypatch.setattr(tableaux, "_insert", inserting)
        monkeypatch.setattr(tableaux, "evacuation", entered("evacuation", tableaux.evacuation))
        monkeypatch.setattr(tableaux, "j_involution", entered("j", tableaux.j_involution))
        assert all(c.passed for c in run_suite("rsk-j", 5))
        words = _perm_words(5)
        # the three RSK rows share one rsk(w); j maps each 321-avoider and its image
        assert direct == Counter(words) + Counter({w: 2 for w in words if avoids(w, 321)})
        # the evacuation row evacuates the 119 tableaux with n <= 6 and their
        # images; j evacuates the P-tableaux of the 64 321-avoiders with n <= 5
        # and of their images
        assert evacuating == Counter({"evacuation": 2 * 119, "j": 2 * 64})

    def test_all_checks_each_value_once(self, monkeypatch):
        # the pattern constants are parsed once, evacuation builds no
        # Permutation, the kappa and rsk-j rows share one S_1..S_7, and
        # every suite shares one walk of each avoider class per size, all
        # built once per run and let go when it returns; the maps build the
        # values that are valid by construction unchecked, valley sets and
        # the permutations of inverse RSK among them
        built, sizes, walks, valley_sets = [], Counter(), Counter(), []
        post_init, permutations_of = Permutation.__post_init__, itertools.permutations
        enumerate_avoiders = permutations.enumerate_avoiders

        def counting(values):
            sizes[len(values)] += 1
            return permutations_of(values)

        def walking(n, pattern, max_n):
            walks[permutations._pattern_word(pattern), n] += 1
            return enumerate_avoiders(n, pattern, max_n)

        monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(post_init(p)))
        monkeypatch.setattr(verification.itertools, "permutations", counting)
        monkeypatch.setattr(permutations, "enumerate_avoiders", walking)
        monkeypatch.setattr(catbij.ValleySet, "__post_init__", lambda v: valley_sets.append(v))
        assert all(c.passed for c in run_suite("all", 7))
        assert len(built) <= 11_700
        assert valley_sets == []
        assert sizes == Counter(range(1, 8))
        classes = [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
        assert walks == Counter((word, n) for word in classes for n in range(1, 8))
        assert verification._perm_tables.get(None) is None

    def test_avoider_table_matches_fresh_walks(self):
        # at every bar up to the cap, each class's domain yields the lex
        # stream of enumerate_avoiders, whether it fills its entry or reads
        # it; every class is read after another class's entry of the same
        # size exists, a pattern given as a Permutation and as a tuple share
        # one entry, and a size above the cap is walked fresh, not stored
        classes = [(2, 3, 1), (1, 3, 2), (3, 1, 2), (2, 1, 3), (3, 2, 1)]
        cap = verification._AVOIDERS_MAX_N
        fresh = {(word, n): list(enumerate_avoiders(n, word)) for word in classes for n in range(1, cap + 1)}

        def read_at_every_bar():
            table = {}
            verification._perm_tables.set(table)
            for bar in range(1, cap + 1):
                for word in classes:
                    domain = verification._avoiders(Permutation(word) if bar % 2 else word, bar)
                    for n in range(1, bar + 1):
                        assert list(domain(n)) == fresh[word, n], (word, n, bar)
            above = verification._avoiders((2, 3, 1), cap + 1)(cap + 1)
            assert next(above) == next(enumerate_avoiders(cap + 1, 231))
            return table

        table = contextvars.copy_context().run(read_at_every_bar)
        assert table == {key: tuple(avoiders) for key, avoiders in fresh.items()}
        assert verification._perm_tables.get(None) is None

    def test_j_image_leaving_the_class_is_reported(self, monkeypatch):
        # a j that sends [1,2,3] to [3,2,1]; the real j rejects the image
        j = tableaux.j_involution
        leaving = {(1, 2, 3): Permutation((3, 2, 1))}
        monkeypatch.setattr(tableaux, "j_involution", lambda p: leaving.get(p.word) or j(p))
        *_, check = run_suite("rsk-j", 4)
        assert check == Check("j: involution on 321-avoiders fixing Des, reversing iDes, n<=4",
                              False, "counterexample: image leaves the class: [1,2,3]")

    @pytest.mark.parametrize("key,stand_in,failing", [
        ((2, 3, 1), (3, 1, 2), ["231-plain equals 312-complemented"]),
        ((3, 1, 2), (2, 3, 1), ["231-plain equals 312-complemented"]),
        ((1, 3, 2), (2, 1, 3), ["132-plain equals 213-complemented", "132/213 identity survives a=1"]),
        ((2, 1, 3), (1, 3, 2), ["132-plain equals 213-complemented"]),
        ((1, 2, 3), (3, 2, 1), ["123-plain equals 321-complemented"]),
        ((3, 2, 1), (1, 2, 3), ["123-plain equals 321-complemented"]),
    ], ids=["231", "312", "132", "213", "123", "321"])
    def test_tristat_rows_check_every_valley_term_map(self, monkeypatch, key, stand_in, failing):
        # one class given another's route; the enumerated sides stay right,
        # so its rows fail at n = 3, the first n where the routes differ
        monkeypatch.setitem(polynomials._ROUTES, key, polynomials._ROUTES[stand_in])
        assert [c for c in run_suite("tristat", 6) if not c.passed] == [
            Check(f"{name}, n<=6", False, "counterexample: n=3") for name in failing]

    def test_kappa_factorization_runs_heights_once_per_permutation(self, monkeypatch):
        calls = Counter()
        heights = bijections.heights

        def counting(p):
            calls[p.word] += 1
            return heights(p)

        monkeypatch.setattr(bijections, "heights", counting)
        assert all(c.passed for c in run_suite("kappa-factorization", 5))
        words = _perm_words(5)
        # the two height rows share one heights(w); on a 132-avoider, kappa
        # and the iDes row take one each
        assert calls == Counter(words) + Counter({w: 2 for w in words if avoids(w, 132)})

    @pytest.mark.parametrize(
        "suite", ["phi", "lemmas", "kappa-factorization", "inv-area", "tristat", "rsk-j"]
    )
    def test_suites_pass_at_small_bars(self, suite):
        for check in run_suite(suite, n_max=5):
            assert check.passed, f"{suite}: {check.name}: {check.detail}"

    def test_symmetry_and_gf_and_kd(self):
        for suite, bar in (("symmetry", 5), ("gf-identity", 4), ("kd", 5)):
            for check in run_suite(suite, n_max=bar):
                assert check.passed, f"{suite}: {check.name}: {check.detail}"

    def test_run_all(self):
        checks = run_suite("all", n_max=4)
        assert len(checks) >= 20
        assert all(c.passed for c in checks)

    def test_rsk_checks_over_all_permutations_stop_at_7(self, monkeypatch):
        rows = []
        monkeypatch.setattr(verification, "_run", lambda table: rows.extend(table) or [])
        run_suite("rsk-j", 9)
        capped = [(name, bar) for name, bar, domain, *_ in rows if domain is verification._all_perms]
        assert capped == [
            ("inverse RSK round-trips all permutations, n<=7", 7),
            ("Des(w)=Des(Q) and iDes(w)=Des(P), n<=7", 7),
            ("321-avoidance iff at most two rows, n<=7", 7),
        ]
        assert rows[-1][1] == 9  # the j check walks 321-avoiders only

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nonsense")

    def test_bar_below_one_raises(self):
        with pytest.raises(ValueError, match="size bar must be at least 1, got 0"):
            run_suite("kd", n_max=0)

    @pytest.mark.parametrize("suite,bar,max_n", [
        pytest.param("all", 4, 3, id="all-4"),
        pytest.param("gf-identity", 3, 2, id="gf-identity-3"),
        pytest.param("all", 5, 3, id="all-5"),
    ])
    def test_ceiling_is_checked_before_any_check_runs(self, monkeypatch, suite, bar, max_n):
        # the error names the bar; `all` rejects it before phi..symmetry run
        def no_checks(*args):
            raise AssertionError("a check ran before the ceiling was applied")

        monkeypatch.setattr(verification, "_run", no_checks)
        with pytest.raises(CeilingExceeded) as info:
            run_suite(suite, bar, max_n=max_n)
        assert (info.value.n, info.value.max_n) == (bar, max_n)


def test_import_loads_neither_dataclasses_nor_inspect():
    # start-up cost: the value types are hand-written slotted classes; the
    # star import and the read of SUITES run every library module
    src = str(Path(catbij.__file__).resolve().parents[1])
    code = ("import catbij.cli, sys; from catbij import *; catbij.verification.SUITES; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
