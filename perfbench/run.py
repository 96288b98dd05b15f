"""CLI benchmark: seeded batches of real ``moonshine`` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command runs in a fresh
process (``python -m moonshine ...`` with ``src`` on the path), one after
the other: a closed loop with one client.  A run repeats the seed's pass of
commands (see ``workloads.py``) while another pass fits in ``--seconds``,
and at least twice.  Every command's exit code and stdout are checked.

The benchmark pins itself and its children to one CPU.  On a shared
machine the speed of that CPU drifts by tens of percent over seconds, so
every time is taken in reference seconds: a fixed pure-Python loop (the
probe) runs on the same CPU before and after each command, and the
command's time is scaled by ``PROBE_NOMINAL`` over the mean of the two
probe times.  Raw times are kept in the run record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
command untraced and then under ``traced_cli.py``, which records spans
around every layer, and prints the per-layer metrics.  The last line of
stdout is one JSON object; a full record of the run goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = {0: 2, 1: 1}
SETUP_REPEATS = 7
COMMAND_TIMEOUT = 120.0
# A run stops starting passes after this, whatever --seconds says.
RUN_DEADLINE = 120.0
TAIL_SAMPLES = 10
PROBE_ITERATIONS = 30_000
# Seconds the probe takes on the reference machine (2-core VM, Python
# 3.11.7) when nothing else competes for its CPU.
PROBE_NOMINAL = 0.025
SETUP_CODE = (
    "import moonshine.cli\n"
    "from importlib import resources\n"
    "from moonshine.classes import parse_table_text\n"
    "parse_table_text(resources.files('moonshine').joinpath('data/catalog.mtf').read_text())\n"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}

PER_LAYER = {
    "series.self_s": "s",
    "series.uni_mul.self_s": "s",
    "series.uni_mul.calls": "count",
    "series.uni_pow.self_s": "s",
    "series.uni_inverse.self_s": "s",
    "series.terms_out": "count",
    "series.max_coeff_bits": "bits",
    "series.bi_mul.self_s": "s",
    "series.bi_mul.calls": "count",
    "series.bi_log1m.self_s": "s",
    "series.bi_exp.self_s": "s",
    "series.bi_substitute_power.self_s": "s",
    "series.share": "frac",
    "modular.self_s": "s",
    "modular.j_series.calls": "count",
    "modular.j_series.s": "s",
    "modular.expand_recipe.s": "s",
    "modular.share": "frac",
    "classes.self_s": "s",
    "classes.load_family.s": "s",
    "classes.euler_poincare_report.s": "s",
    "classes.share": "frac",
    "recursion.self_s": "s",
    "recursion.solve_from_seeds.s": "s",
    "recursion.solve.passes": "count",
    "recursion.solve.derived": "count",
    "recursion.coefficient_relation.s": "s",
    "recursion.coefficient_relation.misses": "count",
    "recursion.coefficient_relation.hit_ratio": "frac",
    "recursion.relation_rhs_terms": "count",
    "recursion.determinacy_audit.s": "s",
    "recursion.audit.symbols": "count",
    "recursion.share": "frac",
    "lattice.self_s": "s",
    "lattice.denominator_identity_report.s": "s",
    "lattice.witt_dims.s": "s",
    "lattice.dimension_product.s": "s",
    "lattice.share": "frac",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.share": "frac",
    "trace.overhead_frac": "frac",
}


class Execution:
    """One finished child process; ``scale`` turns its times into reference seconds."""

    def __init__(self, wall, cpu, code, stdout, stderr):
        self.raw_wall, self.raw_cpu, self.code = wall, cpu, code
        self.stdout, self.stderr = stdout, stderr
        self.scale = 1.0

    @property
    def wall(self) -> float:
        return self.raw_wall * self.scale

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.scale


def probe() -> float:
    """Seconds a fixed mix of big-int, dict, Fraction and list work takes now."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    x = 3**300
    for k in range(PROBE_ITERATIONS):
        acc[k & 255] = acc.get(k & 255, 0) + (x * k) % 1000003
    cells = {(k, k + 1): Fraction(k, 7) + Fraction(3, k + 1) for k in range(PROBE_ITERATIONS // 16)}
    squares = [k * k for k in range(PROBE_ITERATIONS)]
    squares.sort(reverse=True)
    return time.perf_counter() - start


class Runner:
    """Runs children one at a time with a speed probe between any two."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.last_probe = probe()

    def run(self, argv: list[str]) -> Execution:
        done = execute(argv, self.env)
        now = probe()
        done.scale = PROBE_NOMINAL / ((self.last_probe + now) / 2)
        self.last_probe = now
        return done


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def execute(argv: list[str], env: dict[str, str]) -> Execution:
    """Run one child to completion; CPU time comes from its rusage."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            capture_output=True, timeout=COMMAND_TIMEOUT,
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as err:
        code, stdout, stderr = None, err.stdout or b"", b"timed out"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Execution(wall, cpu, code, stdout, stderr)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between the two nearest ranks."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def measure_setup(runner: Runner) -> list[Execution]:
    """Fresh interpreter, ``import moonshine.cli`` and parsing the catalog."""
    argv = [sys.executable, "-c", SETUP_CODE]
    warm = runner.run(argv)  # writes bytecode caches, like an installed package
    if warm.code != 0:
        raise RuntimeError(f"cannot import moonshine: {warm.stderr.decode(errors='replace')}")
    return [runner.run(argv) for _ in range(SETUP_REPEATS)]


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_passes(commands, table_dir, runner, reference, seconds, trace, spans_dir):
    """Closed loop over whole passes; returns one list of records per pass."""
    passes = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES[trace]:
            per_pass = elapsed / len(passes)
            if elapsed + per_pass > seconds or elapsed > RUN_DEADLINE:
                break
        records = []
        for index, command in enumerate(commands):
            argv = command.argv_for(table_dir)
            plain = runner.run([sys.executable, "-m", "moonshine", *argv])
            record = {"index": index, "plain": plain}
            problem = workloads.check_output(command, plain.code, plain.stdout, reference)
            if trace:
                spans_file = spans_dir / f"{len(passes)}-{index}.json"
                traced = runner.run(
                    [sys.executable, str(HERE / "traced_cli.py"), str(spans_file),
                     f"{len(passes)}.{index}", "--", *argv]
                )
                record["traced"] = traced
                if problem is None and (traced.code, traced.stdout) != (plain.code, plain.stdout):
                    problem = "traced run differs from the untraced run"
                if problem is None:
                    with open(spans_file, encoding="utf-8") as handle:
                        layers = tracing.summarize(json.load(handle))
                    record["layers"] = {
                        name: value * traced.scale if name.endswith((".self_s", ".s")) else value
                        for name, value in layers.items()
                    }
                    spans_file.unlink()
            record["problem"] = problem
            records.append(record)
        passes.append(records)
    return passes


def end_to_end_metrics(commands, passes, setups):
    walls = [[] for _ in commands]
    cpus = [[] for _ in commands]
    for records in passes:
        for record in records:
            walls[record["index"]].append(record["plain"].wall)
            cpus[record["index"]].append(record["plain"].cpu)
    every = [w for per in walls for w in per]
    failed = sum(1 for records in passes for r in records if r["problem"])
    tail_pct = 100 * (1 - TAIL_SAMPLES / (MIN_PASSES[0] * len(commands)))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": sum(statistics.median(per) for per in walls),
        "cpu_s": sum(statistics.median(per) for per in cpus),
        "cmd_p50_s": statistics.median(every),
        "cmd_tail_s": percentile(every, tail_pct),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(e.wall for e in setups),
        "ok_frac": 1 - failed / len(every),
    }
    notes = {
        "cmd_tail_percentile": tail_pct,
        "cmd_samples": len(every),
        "fail_frac": failed / len(every),
    }
    return metrics, notes


def per_layer_metrics(passes):
    totals: dict[str, float] = {}
    max_bits = 0
    plain_wall = traced_wall = stdout_bytes = 0.0
    for records in passes:
        for record in records:
            plain_wall += record["plain"].wall
            traced_wall += record["traced"].wall
            stdout_bytes += len(record["plain"].stdout)
            for name, value in record.get("layers", {}).items():
                if name == "series.max_coeff_bits":
                    max_bits = max(max_bits, value)
                else:
                    totals[name] = totals.get(name, 0) + value
    n = len(passes)
    metrics = {name: totals.get(name, 0) / n for name in PER_LAYER}
    metrics["series.max_coeff_bits"] = max_bits
    hits = totals.get("recursion.coefficient_relation.hits", 0)
    misses = totals.get("recursion.coefficient_relation.misses", 0)
    metrics["recursion.coefficient_relation.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    busy = sum(totals.get(f"{layer}.self_s", 0) for layer in tracing.LAYERS)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.share"] = totals.get(f"{layer}.self_s", 0) / busy if busy else 0.0
    metrics["cli.stdout_bytes"] = stdout_bytes / n
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "moonshine" / "__init__.py").is_file():
        print(f"error: no moonshine source tree at {SRC}", file=sys.stderr)
        return 2
    commands = workloads.generate(args.workload, args.seed)
    reference = workloads.load_reference()
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(child_env())
        setups = measure_setup(runner)
        workloads.write_tables(args.workload, scratch)
        passes = run_passes(
            commands, scratch, runner, reference, args.seconds, args.trace, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    executions = [r for records in passes for r in records]
    failed = sum(1 for r in executions if r["problem"])
    if args.trace:
        metrics, units, notes = per_layer_metrics(passes), PER_LAYER, {}
    else:
        (metrics, notes), units = end_to_end_metrics(commands, passes, setups), END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "commands": [c.key for c in commands],
        "passes": len(passes),
        "cpu": cpu,
        "setup": [{"wall": e.wall, "raw_wall": e.raw_wall} for e in setups],
        "executions": [
            {
                "command": commands[r["index"]].key,
                "wall": r["plain"].wall,
                "cpu": r["plain"].cpu,
                "raw_wall": r["plain"].raw_wall,
                "raw_cpu": r["plain"].raw_cpu,
                "exit": r["plain"].code,
                "traced_wall": r["traced"].wall if "traced" in r else None,
                "problem": r["problem"],
                "stderr": r["plain"].stderr.decode(errors="replace")[-2000:] if r["problem"] else "",
            }
            for r in executions
        ],
        "metrics": metrics,
        "notes": notes,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(commands)} commands per pass, "
          f"{len(passes)} passes, {len(executions)} commands run")
    for r in executions:
        if r["problem"]:
            print(f"FAILED {commands[r['index']].key}: {r['problem']}")
    for name, value in metrics.items():
        print(f"{name}\t{value:.6g}\t{units[name]}")
    if notes:
        print(f"cmd_tail_s is p{notes['cmd_tail_percentile']:g} of {notes['cmd_samples']} commands")
        print(f"fail_frac\t{notes['fail_frac']:g}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
