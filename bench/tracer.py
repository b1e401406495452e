"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps, from outside the package, every public function of
the catbij modules wherever a catbij module namespace binds it, plus a few
class attributes on the hot paths (object validation and polynomial
arithmetic).  Each wrapped call records one span: name, kind, start, end and
the span that was open when it started.  A function that returns a generator
also gets one span per ``next()``, so stream time is charged where the items
are produced.  ``uninstall`` puts every original back.

Spans stay in flat arrays until ``summary`` turns them into per-name rows:
calls, objects yielded, self time (a span's duration minus the durations of
its child spans) and, for the verification suites, inclusive time.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

#: Modules whose public functions are wrapped, by their short name.
MODULES = ("permutations", "dyck", "bijections", "tableaux", "polynomials",
           "verification", "cli")

#: Class attributes wrapped in place: (module, class, attribute).
CLASS_ATTRS = (
    ("permutations", "Permutation", "__post_init__"),
    ("dyck", "DyckPath", "__post_init__"),
    ("tableaux", "StandardTableau", "__post_init__"),
    ("polynomials", "MultiPoly", "__mul__"),
    ("polynomials", "MultiPoly", "__add__"),
    ("polynomials", "TruncatedSeries", "__mul__"),
)

# span kinds
CALL, YIELD, EXHAUSTED = 0, 1, 2

SUITE_PREFIX = "verification.suite."
COMMAND_PREFIX = "verification.verify_"


class Tracer:
    """Records spans for wrapped catbij callables; one instance per run."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._suite_depth = 0
        self.clear()

    # -- recording ------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded spans (wrappers stay installed)."""
        self.name_ids = array("i")
        self.kinds = array("b")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int, kind: int) -> int:
        idx = len(self.starts)
        stack = self._stack
        self.name_ids.append(nid)
        self.kinds.append(kind)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _iterate(self, it, nid: int):
        begin, end = self._begin, self._end
        while True:
            idx = begin(nid, YIELD)
            try:
                item = next(it)
            except StopIteration:
                self.kinds[idx] = EXHAUSTED
                return
            finally:
                end(idx)
            yield item

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        begin, end, iterate = self._begin, self._end, self._iterate

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid, CALL)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if type(result) is types.GeneratorType:
                return iterate(result, nid)
            return result

        return traced

    def _wrap_run_suite(self, fn):
        # A suite run by ``verify all`` is named ``verification.suite.<name>``;
        # one run by its own ``verify <name>`` command is named
        # ``verification.verify_<name>``.
        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            prefix = SUITE_PREFIX if self._suite_depth else COMMAND_PREFIX
            idx = self._begin(self._id(prefix + name), CALL)
            self._suite_depth += 1
            try:
                return fn(name, *args, **kwargs)
            finally:
                self._suite_depth -= 1
                self._end(idx)

        return traced

    # -- installing -----------------------------------------------------

    def _modules(self) -> dict[str, types.ModuleType]:
        prefix = self.package.__name__ + "."
        found = {self.package.__name__: self.package}
        for name, module in list(sys.modules.items()):
            if name.startswith(prefix) and module is not None:
                found[name] = module
        return found

    def install(self) -> None:
        """Wrap every target; a second call without ``uninstall`` is an error."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = self._modules()
        replacements: dict[int, tuple] = {}
        pkg = self.package.__name__
        for short in MODULES:
            module = namespaces[f"{pkg}.{short}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if short == "verification" and attr == "run_suite":
                    replacements[id(obj)] = (obj, self._wrap_run_suite(obj))
                else:
                    replacements[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for namespace in namespaces.values():
            for attr, obj in list(vars(namespace).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])
        for short, cls_name, attr in CLASS_ATTRS:
            cls = getattr(namespaces[f"{pkg}.{short}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"{short}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name rows of the spans recorded since the last ``clear``.

        ``calls`` counts calls, ``objects`` items yielded; ``self_s`` is
        total duration minus child durations; ``iter_s`` is the inclusive
        time spent in ``next()``; ``total_s`` is inclusive time, and is
        reported only for suite spans (which never nest in themselves).
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        durations = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(durations)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[i]
        rows: dict[str, dict[str, float]] = {}
        for i, (nid, kind) in enumerate(zip(self.name_ids, self.kinds)):
            name = self.names[nid]
            row = rows.get(name)
            if row is None:
                row = rows[name] = {"calls": 0, "objects": 0, "self_s": 0.0,
                                    "iter_s": 0.0, "total_s": 0.0}
            row["self_s"] += durations[i] - child[i]
            if kind == CALL:
                row["calls"] += 1
                if name.startswith((SUITE_PREFIX, COMMAND_PREFIX)):
                    row["total_s"] += durations[i]
            else:
                row["iter_s"] += durations[i]
                row["objects"] += kind == YIELD
        return rows

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as gzipped TSV; returns the span count."""
        kind_names = ("call", "yield", "exhausted")
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tkind\tstart_s\tend_s\tparent\n")
            for i, (nid, kind, parent) in enumerate(
                    zip(self.name_ids, self.kinds, self.parents)):
                out.write(f"{i}\t{self.names[nid]}\t{kind_names[kind]}\t"
                          f"{self.starts[i]!r}\t{self.ends[i]!r}\t{parent}\n")
        return len(self.starts)
