"""Benchmark runner for the catbij command-line interface.

Run one workload from the repository root:

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures end to end.  A closed loop with one client runs the
workload's commands one at a time as ``python -m catbij ...`` children, in an
order shuffled by the seed, pass after pass until ``--seconds`` have elapsed.
Each child's stdout is drained into a SHA-256, its exit status and peak RSS
come from ``os.wait4``, and every command is checked against the golden
digest and exit code in ``goldens.json``.

``--trace 1`` repeats the same commands in this process through
``catbij.cli.main(argv)``, alternating untraced passes with passes under the
span tracer (``tracer.py``), and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from ``BENCHMARK.json``.  The full result, with the environment and every
sample, goes to ``bench/out/``.

Other modes: ``--smoke`` runs every workload at n <= 6 through both paths in
seconds; ``--record-goldens`` rewrites ``goldens.json`` from the current code.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"

# Problem sizes are set so that one pass takes a few seconds on a 2-core VM
# and a run of --seconds holds several passes; see README.md for why each
# command is in its workload.
WORKLOADS = {
    "stream": (
        ("enumerate", "avoiders:231", "10"),
        ("enumerate", "dyck", "10", "--format", "json"),
        ("enumerate", "avoiders:123", "9", "--format", "csv"),
    ),
    "poly": (
        ("poly", "a", "9"),
        ("poly", "cat", "11"),
        ("poly", "macmahon", "11"),
    ),
    "verify": (
        ("verify", "all", "7"),
        ("verify", "kd", "9"),
        ("verify", "gf-identity", "7"),
    ),
}

#: The same workloads at n <= 6, for the benchmark's own test.
SMOKE_WORKLOADS = {
    "stream": (
        ("enumerate", "avoiders:231", "6"),
        ("enumerate", "dyck", "6", "--format", "json"),
        ("enumerate", "avoiders:123", "6", "--format", "csv"),
    ),
    "poly": (
        ("poly", "a", "6"),
        ("poly", "cat", "6"),
        ("poly", "macmahon", "6"),
    ),
    "verify": (
        ("verify", "all", "5"),
        ("verify", "kd", "6"),
        ("verify", "gf-identity", "4"),
    ),
}

#: The fixed cost every invocation pays: interpreter start and package import.
SETUP_ARGV = ("--help",)
#: A bare interpreter start runs no catbij code.  Its median in a run
#: measures how fast the shared machine is during that run; times are
#: rescaled to a machine where it takes REFERENCE_BARE_S (README.md, Noise).
BARE_ARGS = ("-c", "pass")
REFERENCE_BARE_S = 0.075
SETUP_PER_PASS = 2
BARE_PER_PASS = 4


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def command_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": loadavg(),
        "seed": seed,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------

def load_goldens(table: str) -> dict:
    try:
        return json.loads(GOLDENS.read_text())[table]
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot read golden table {table!r} from {GOLDENS}: {exc}")


def check(goldens: dict, record: dict) -> None:
    """Mark the record ``ok`` if exit code and stdout digest match."""
    want = goldens.get(record["command"])
    record["ok"] = (
        want is not None
        and record["exit"] == want["exit"]
        and record["sha256"] == want["sha256"]
    )


# ---------------------------------------------------------------------------
# end-to-end: one child per command
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args, env: dict, command: str) -> dict:
    """Spawn the interpreter with ``args``; time it from spawn to exit."""
    digest = hashlib.sha256()
    nbytes = 0
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
    )
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            digest.update(chunk)
            nbytes += len(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "command": command,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
        "sha256": digest.hexdigest(),
        "bytes": nbytes,
    }


def run_catbij(argv, env: dict) -> dict:
    return run_child(("-m", "catbij", *argv), env, command_key(argv))


def time_left_for_another(start: float, seconds: float, durations: list[float]) -> bool:
    """Start another pass only if one of median length still fits in the
    run, so that a run lasts about ``seconds`` whatever its pass length."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def untraced_run(commands, goldens: dict, rng: random.Random, seconds: float,
                 env: dict) -> dict:
    """Passes of the workload's commands for about ``seconds``, at least one.

    Each pass also spawns SETUP_PER_PASS setup samples and BARE_PER_PASS
    bare interpreter starts, shuffled in among the commands so that all
    three sample the same stretch of machine time.
    """
    run_catbij(SETUP_ARGV, env)  # untimed: fills the bytecode cache
    jobs = ([("command", argv) for argv in commands]
            + [("setup", SETUP_ARGV)] * SETUP_PER_PASS
            + [("bare", BARE_ARGS)] * BARE_PER_PASS)
    passes, setup, bare, durations = [], [], [], []
    start = time.perf_counter()
    while not passes or time_left_for_another(start, seconds, durations):
        began = time.perf_counter()
        rng.shuffle(jobs)
        records = []
        for kind, argv in jobs:
            if kind == "bare":
                record = run_child(argv, env, "python " + command_key(argv))
                record["ok"] = record["exit"] == 0
                bare.append(record)
                continue
            record = run_catbij(argv, env)
            if kind == "setup":
                record["ok"] = record["exit"] == 0 and record["bytes"] > 0
                setup.append(record)
            else:
                check(goldens, record)
                records.append(record)
        passes.append(records)
        durations.append(time.perf_counter() - began)
    return {"setup": setup, "bare": bare, "passes": passes}


def end_to_end_metrics(run: dict) -> tuple[dict[str, float], dict[str, float]]:
    """The reported metrics, and the measured medians they come from."""
    measured = {
        "wall_s": statistics.median(
            sum(r["wall_s"] for r in p) for p in run["passes"]),
        "peak_rss_mb": statistics.median(
            max(r["peak_rss_mb"] for r in p) for p in run["passes"]),
        "setup_s": statistics.median(r["wall_s"] for r in run["setup"]),
        "bare_s": statistics.median(r["wall_s"] for r in run["bare"]),
    }
    scale = REFERENCE_BARE_S / measured["bare_s"]
    metrics = {
        "wall_s": measured["wall_s"] * scale,
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": measured["setup_s"] * scale,
    }
    return metrics, measured


# ---------------------------------------------------------------------------
# traced run: the same commands in this process
# ---------------------------------------------------------------------------

class HashSink:
    """A text stream that keeps only the SHA-256 and length of what is
    written to it, encoded as the CLI's stdout would be."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.digest.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def import_catbij():
    sys.path.insert(0, str(SRC))
    import catbij
    import catbij.cli

    if Path(catbij.__file__).resolve().parent != (SRC / "catbij").resolve():
        fail(f"imported catbij from {catbij.__file__}, not from {SRC}")
    return catbij


def run_inprocess(main, argv) -> dict:
    sink = HashSink()
    saved = sys.stdout
    sys.stdout = sink
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except Exception:  # a crash is a failed command, reported by name
        traceback.print_exc()
        code = None
    finally:
        sys.stdout = saved
    return {
        "command": command_key(argv),
        "wall_s": time.perf_counter() - start,
        "exit": code,
        "sha256": sink.digest.hexdigest(),
        "bytes": sink.bytes,
    }


def inprocess_pass(catbij, commands, goldens: dict, rng: random.Random) -> list[dict]:
    order = list(commands)
    rng.shuffle(order)
    records = [run_inprocess(catbij.cli.main, argv) for argv in order]
    for record in records:
        check(goldens, record)
    return records


def traced_run(commands, goldens: dict, rng: random.Random, seconds: float,
               spans_path: Path) -> dict:
    """Alternate untraced and traced in-process passes for about ``seconds``;
    the last traced pass's spans are written to ``spans_path``."""
    from tracer import Tracer

    catbij = import_catbij()
    tracer = Tracer(catbij)
    plain, traced, summaries, durations = [], [], [], []
    start = time.perf_counter()
    while not traced or time_left_for_another(start, seconds, durations):
        began = time.perf_counter()
        plain.append(inprocess_pass(catbij, commands, goldens, rng))
        tracer.clear()
        tracer.install()
        try:
            traced.append(inprocess_pass(catbij, commands, goldens, rng))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        durations.append(time.perf_counter() - began)
    return {"plain": plain, "traced": traced, "summaries": summaries,
            "spans_written": tracer.write_spans(spans_path)}


def layer_metrics(run: dict) -> dict[str, float]:
    """Per-pass layer metrics: medians over the traced passes for times,
    the first pass for counts (every pass does the same work)."""

    def per_pass(summary: dict) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, row in summary.items():
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
            if row["total_s"]:
                out[f"{name}.total_s"] = row["total_s"]
            if row["objects"]:
                out[f"{name}.objects"] = row["objects"]
                out[f"{name}.us_per_object"] = 1e6 * row["iter_s"] / row["objects"]
        return out

    passes = [per_pass(s) for s in run["summaries"]]
    metrics: dict[str, float] = {}
    for key in passes[0]:
        if key.endswith((".calls", ".objects")):
            metrics[key] = passes[0][key]
        else:
            metrics[key] = statistics.median(p.get(key, 0.0) for p in passes)
    metrics["cli.stdout_bytes"] = sum(r["bytes"] for r in run["traced"][0])
    plain = statistics.median(sum(r["wall_s"] for r in p) for p in run["plain"])
    traced = statistics.median(sum(r["wall_s"] for r in p) for p in run["traced"])
    metrics["trace.overhead_frac"] = traced / plain - 1
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def select(spec_metrics: list[dict], computed: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json names; a layer this workload never enters
    reads 0."""
    return {
        m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]}
        for m in spec_metrics
    }


def print_end_to_end(run: dict, metrics: dict, measured: dict) -> None:
    walls = [sum(r["wall_s"] for r in p) for p in run["passes"]]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    scale = REFERENCE_BARE_S / measured["bare_s"]
    print(f"  wall_s       {metrics['wall_s']['value']:.4f} s    median of "
          f"{len(walls)} passes, measured {measured['wall_s']:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}), x speed scale")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MiB  median "
          f"of the per-pass maximum over children")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s    median of "
          f"{len(run['setup'])} `catbij --help` runs, measured "
          f"{measured['setup_s']:.4f} s, x speed scale")
    print(f"  speed scale  {scale:.4f} = {REFERENCE_BARE_S} s / {measured['bare_s']:.4f} s,"
          f" the median of {len(run['bare'])} bare interpreter starts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at n <= 6 through both paths")
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite goldens.json from the current code")
    args = parser.parse_args(argv)

    if not (SRC / "catbij" / "__init__.py").is_file():
        fail(f"no catbij sources under {SRC}; run from a checkout of the repository")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    if args.record_goldens:
        return record_goldens()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    run_workload(spec, args.workload, args.seed, seconds, args.trace)
    return 0


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int, table: str = "full") -> tuple[dict, dict]:
    """Run and report one workload; returns the result line and, for a
    traced run, every layer metric computed."""
    commands = (WORKLOADS if table == "full" else SMOKE_WORKLOADS)[workload]
    goldens = load_goldens(table)
    env_info = environment(seed)
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-{table}-seed{seed}-trace{trace}"
    print(f"catbij benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace} sizes={table}")

    if trace:
        run = traced_run(commands, goldens, rng, seconds, OUT / f"{stem}.spans.tsv.gz")
        records = [r for p in run["plain"] + run["traced"] for r in p]
        computed = layer_metrics(run)
        metrics = select(spec["per_layer"], computed)
        detail = {"spans_written": run["spans_written"],
                  "layers": dict(sorted(computed.items()))}
        traced_ok = all(r["ok"] for p in run["traced"] for r in p)
        print(f"  traced passes {len(run['traced'])}, untraced in-process passes "
              f"{len(run['plain'])}, trace.overhead_frac "
              f"{computed['trace.overhead_frac']:.3f}; traced stdout "
              f"{'matches' if traced_ok else 'DOES NOT MATCH'} the goldens")
    else:
        run = untraced_run(commands, goldens, rng, seconds, child_env())
        records = run["setup"] + run["bare"] + [r for p in run["passes"] for r in p]
        computed, measured = end_to_end_metrics(run)
        metrics = select(spec["end_to_end"], computed)
        detail = {"measured": measured}
        print_end_to_end(run, metrics, measured)

    env_info["loadavg_after"] = loadavg()
    bad = [r for r in records if not r["ok"]]
    print(f"  failed_frac  {len(bad) / len(records):.4f}      "
          f"({len(bad)} of {len(records)} commands wrong)")
    for record in bad:
        print(f"  MISMATCH: catbij {record['command']} exit={record['exit']} "
              f"sha256={record['sha256'][:16]}")
    print(f"  env: python {env_info['python']}, nproc {env_info['nproc']}, "
          f"cpu {env_info['cpu_model']!r}, commit {env_info['git_commit']}, "
          f"loadavg {env_info['loadavg_before']} -> {env_info['loadavg_after']}")
    result = {
        "correct": not bad,
        "attempted": len(records),
        "failed": len(bad),
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": workload, "sizes": table, "trace": trace,
         "seconds": seconds, "commands": [command_key(c) for c in commands],
         "environment": env_info, "result": result, **detail,
         "records": records}, indent=1) + "\n")
    print(f"  full result: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return result, detail.get("layers", {})


def smoke(spec: dict) -> int:
    """Every workload at n <= 6: one untraced pass of children and one
    in-process traced pass, each checked against the smoke goldens.  Fails
    unless every run is correct and every per-layer metric was measured on
    some workload."""
    ok = True
    measured: set[str] = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            # seconds=0 gives exactly one pass of each kind
            result, layers = run_workload(spec, workload, 1, 0, trace, table="smoke")
            ok = ok and result["correct"]
            measured.update(layers)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    for name in missing:
        print(f"smoke: per-layer metric {name} was not measured on any workload")
    print(f"smoke: {'ok' if ok and not missing else 'FAILED'}")
    return 0 if ok and not missing else 1


def record_goldens() -> int:
    env = child_env()
    tables = {}
    for table, workloads in (("full", WORKLOADS), ("smoke", SMOKE_WORKLOADS)):
        tables[table] = {}
        for commands in workloads.values():
            for argv in commands:
                record = run_catbij(argv, env)
                tables[table][record["command"]] = {
                    "exit": record["exit"],
                    "sha256": record["sha256"],
                    "bytes": record["bytes"],
                }
                print(f"{table}: catbij {record['command']} -> exit "
                      f"{record['exit']}, {record['bytes']} bytes")
    GOLDENS.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
