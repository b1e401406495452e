"""The benchmark's own tests; run with ``python -m pytest bench``.

They use the smoke sizes (n <= 6), so they take seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 6  # three workloads, untraced and traced
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced, traced = results[0]["metrics"], results[1]["metrics"]
    assert list(untraced) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced) == [m["name"] for m in spec["per_layer"]]
    assert all(v["value"] > 0 for v in untraced.values())


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import catbij
        import catbij.cli
        from tracer import Tracer

        before = {m: dict(vars(m)) for m in (catbij.permutations, catbij.polynomials)}
        post_init = catbij.Permutation.__post_init__
        tracer = Tracer(catbij)
        tracer.install()
        assert catbij.permutations.perm_stats is not before[catbij.permutations]["perm_stats"]
        assert catbij.polynomials.perm_stats is catbij.permutations.perm_stats
        list(catbij.permutations.enumerate_avoiders(4, 231))
        tracer.uninstall()
        assert catbij.Permutation.__post_init__ is post_init
        for module, namespace in before.items():
            assert dict(vars(module)) == namespace
        rows = tracer.summary()
        assert rows["permutations.enumerate_avoiders"]["objects"] == 14
        # one more for the pattern 231 itself
        assert rows["permutations.Permutation.__post_init__"]["calls"] == 15
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(BENCH))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
