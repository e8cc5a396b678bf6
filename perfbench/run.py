"""screenlimits benchmark: closed-loop workloads through ``cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload scenario-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One client sends the next op only after the previous one has returned. The
workload's configs are generated from ``--seed`` before any timing starts.
Every op's output is checked. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs each op untraced and then traced and prints the per-layer
metrics. The last line of standard output is one JSON object. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import mpmath
import numpy
import scipy

import oracle
from checks import CheckError, check_op
from tracer import Tracer, self_times
from workloads import GENERATORS, ConfigWriter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
SETUP_CODE = "import screenlimits.cli as c; c.build_parser(); print('ready', flush=True)"
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 20

ORACLE_KERNELS = ("poisson_tail", "log_poisson_tail", "binomial_tail")
KERNELS = (*ORACLE_KERNELS, "tail_estimate")
SIM_MODES = ("binomial-exact", "poisson-approx", "copula-correlated")
COMPUTE_MODULES = ("system", "lifetime", "cohorts", "bayes", "effdim")


def metric_units() -> dict:
    """{trace: {metric name: unit}} as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


# ------------------------------------------------------------------ environment

def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "screenlimits").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


class SetupTimer:
    """Times a fresh interpreter until ``build_parser()`` has returned.

    The spawns are spread over the closed loop, so one slow stretch of the
    shared host does not decide the median. The loop's ops are not running
    while a spawn is timed.
    """

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.times: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self._spawn()  # warms the OS and bytecode caches; not counted

    def _spawn(self) -> float:
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                              cwd=ROOT, env=self.env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up interpreter failed with exit code {code}")
        return elapsed

    def maybe_spawn(self, fraction_done: float) -> None:
        """Take the next sample once this share of the loop has passed."""
        if len(self.times) < self.repeats and fraction_done >= len(self.times) / self.repeats:
            self.times.append(self._spawn())

    def finish(self) -> list[float]:
        while len(self.times) < self.repeats:
            self.times.append(self._spawn())
        return self.times


# ------------------------------------------------------------------------ runner

class Runner:
    """Executes ops through cli.main and checks every result."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0

    def _call(self, argv) -> tuple[int | None, str, str, int]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
                code = None
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            elapsed = perf_counter_ns() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def run(self, op, *, timed: bool = True, traced: bool = False):
        if traced:
            self.tracer.op += 1
            first_span = len(self.tracer.spans)
            self.tracer.install()
        try:
            code, stdout, stderr, elapsed = self._call(op.argv)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.bytes_written += _bytes_written(self.tracer.spans[first_span:])
        rows = []
        try:
            digest, rows = check_op(op, code, stdout)
            if self.digests.setdefault(op.key, digest) != digest:
                raise CheckError("output bytes differ from an earlier run of the same op")
            ok = True
        except (CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok = False
            if len(self.failures) < MAX_REPORTED_FAILURES:
                detail = stderr.strip().splitlines()[-1:] if code != op.expect_exit else []
                self.failures.append(" ".join([f"{op.argv[0]} [{op.key}]: {type(exc).__name__}: {exc}", *detail]))
        self.attempted += 1
        self.failed += not ok
        if timed:
            self.records.append({"op": op, "latency_s": elapsed * 1e-9, "ok": ok, "traced": traced})
        return ok, rows


def _bytes_written(spans) -> int:
    total = 0
    for span in spans:
        if span.name in ("tableio.write_text", "tableio.write_json"):
            args, kwargs = span.extra
            path = args[0] if args else kwargs["path"]
            total += os.path.getsize(path)
    return total


def closed_loop(runner: Runner, workload, seconds: float, trace: bool, setup: SetupTimer) -> float:
    """Run whole cycles until `seconds` have passed; return the wall time."""
    start = perf_counter()
    index = 0
    while True:
        for position, op in enumerate(workload.cycles[index % len(workload.cycles)]):
            setup.maybe_spawn((perf_counter() - start) / seconds if seconds else 1.0)
            if not trace:
                runner.run(op)
                continue
            order = (False, True) if (index + position) % 2 == 0 else (True, False)
            for traced in order:
                runner.run(op, traced=traced)
        index += 1
        if perf_counter() - start >= seconds:
            return perf_counter() - start


# ----------------------------------------------------------------------- metrics

def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def typical_latencies(records) -> dict:
    """(op key, workers, traced) -> (op, median latency over the op's repeats).

    Every op of a workload repeats several times in a run. Its median
    latency discards the bursts of a shared machine, and the ops weigh
    equally however the run ended inside the stream.
    """
    groups, ops = defaultdict(list), {}
    for r in records:
        key = (r["op"].key, r["op"].workers, r["traced"])
        groups[key].append(r["latency_s"])
        ops[key] = r["op"]
    return {key: (ops[key], statistics.median(lats)) for key, lats in groups.items()}


def end_to_end_metrics(records, setup_times, max_rel_err) -> dict:
    typical = [lat for _, lat in typical_latencies(records).values()]
    ok_share = sum(r["ok"] for r in records) / len(records)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok_share * len(typical) / sum(typical),
        "latency_p50_ms": _percentile(typical, 50) * 1e3,
        "latency_p99_ms": _percentile(typical, 99) * 1e3,
        "max_rel_err": max_rel_err,
    }


def _plan_draws(span) -> tuple[str, int]:
    args, kwargs = span.extra
    plan = args[0] if args else kwargs["plan"]
    if span.name == "simulate.simulate_correlated":
        corr = args[1] if len(args) > 1 else kwargs["corr"]
        return plan.mode, plan.runs * plan.k + (plan.runs if corr.kind == "exchangeable" else 0)
    if span.name == "simulate.simulate_system" and plan.mode == "binomial-exact":
        return plan.mode, plan.runs * plan.n
    return plan.mode, plan.runs


def per_layer_metrics(runner: Runner, kernel_errors: dict) -> tuple[dict, dict]:
    """Per-layer metrics and each module's share of the traced self time."""
    spans = runner.tracer.spans
    ops = max(1, sum(1 for r in runner.records if r["traced"]))
    own = self_times(spans)
    names = {s.sid: s.name for s in spans}
    self_by_name, self_by_module = Counter(), Counter()
    calls_by_name, calls_by_module = Counter(), Counter()
    draws_by_mode, time_by_mode = Counter(), Counter()
    chunks = analytic_ref = tail_evals = 0
    for s in spans:
        self_by_name[s.name] += own[s.sid]
        self_by_module[s.module] += own[s.sid]
        calls_by_name[s.name] += 1
        calls_by_module[s.module] += 1
        parent = names.get(s.parent, "")
        if s.name == "simulate._chunk_sizes":
            chunks += s.extra
        elif s.name.startswith("simulate.simulate_"):
            mode, draws = _plan_draws(s)
            draws_by_mode[mode] += draws
            time_by_mode[mode] += s.end - s.start
        if s.module == "tails" and parent.startswith("simulate."):
            analytic_ref += s.end - s.start
        if s.name == "tails.poisson_tail" and parent == "lifetime.critical_time_corrected":
            tail_evals += 1

    def per_op_s(ns) -> float:
        return ns * 1e-9 / ops

    m = {
        "cli.build_parser.self_s": per_op_s(self_by_name["cli.build_parser"]),
        "cli.main.self_s": per_op_s(self_by_name["cli.main"]),
    }
    for fn in ("load_scenario", "execute", "render_result", "run_scenario"):
        m[f"scenarios.{fn}.self_s"] = per_op_s(self_by_name[f"scenarios.{fn}"])
    m["tableio.write_s"] = per_op_s(self_by_name["tableio.write_text"] + self_by_name["tableio.write_json"])
    m["tableio.file_sha256.self_s"] = per_op_s(self_by_name["tableio.file_sha256"])
    m["tableio.bytes_written"] = runner.bytes_written / ops
    for kernel in KERNELS:
        m[f"tails.{kernel}.calls"] = calls_by_name[f"tails.{kernel}"] / ops
        m[f"tails.{kernel}.self_s"] = per_op_s(self_by_name[f"tails.{kernel}"])
    for module in COMPUTE_MODULES:
        m[f"{module}.calls"] = calls_by_module[module] / ops
        m[f"{module}.self_s"] = per_op_s(self_by_module[module])
    solves = calls_by_name["lifetime.critical_time_corrected"]
    m["lifetime.tail_evals_per_solve"] = tail_evals / solves if solves else 0.0
    m["simulate.draws"] = sum(draws_by_mode.values()) / ops
    m["simulate.chunks"] = chunks / ops
    m["simulate.self_s"] = per_op_s(self_by_module["simulate"])
    m["simulate.analytic_ref_s"] = per_op_s(analytic_ref)
    for mode in SIM_MODES:
        ns = time_by_mode[mode]
        m[f"simulate.{mode}.draws_per_s"] = draws_by_mode[mode] / (ns * 1e-9) if ns else 0.0
    m["datasets.figure_panels.self_s"] = per_op_s(self_by_name["datasets.figure_panels"])
    m["golden.golden_report.self_s"] = per_op_s(self_by_name["golden.golden_report"])
    m.update(_untraced_metrics(runner.records))
    for kernel in ORACLE_KERNELS:
        m[f"tails.{kernel}.max_rel_err"] = kernel_errors.get(kernel, 0.0)
    shares = {mod: ns / max(1, sum(self_by_module.values())) for mod, ns in self_by_module.items()}
    return m, shares


def _untraced_metrics(records) -> dict:
    """Trace overhead and the Monte Carlo figures, from the paired executions."""
    by_traced = defaultdict(float)
    by_workers = defaultdict(float)
    draws_2w = 0
    for (_, workers, traced), (op, lat) in typical_latencies(records).items():
        by_traced[traced] += lat
        if op.draws and not traced:
            by_workers[workers] += lat
            draws_2w += op.draws if workers == 2 else 0
    figures = [r["latency_s"] for r in records if r["op"].kind == "figures" and not r["traced"]]
    both = by_workers[1] and by_workers[2]
    return {
        "trace_overhead": by_traced[True] / by_traced[False] if by_traced[False] else 0.0,
        "figures_s": statistics.median(figures) if figures else 0.0,
        "draws_per_s": draws_2w / by_workers[2] if both else 0.0,
        "scaling_2w": by_workers[1] / by_workers[2] if both else 0.0,
    }


# --------------------------------------------------------------------- one run

def run_oracle(runner: Runner, work: Path) -> dict:
    errors: dict[str, float] = {}
    for op, compare in oracle.corpus(ConfigWriter(work / "oracle")):
        ok, rows = runner.run(op, timed=False)
        if not ok:
            continue
        for kernel, err in compare(rows).items():
            errors[kernel] = max(errors.get(kernel, 0.0), err)
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tracer | None]:
    """One run: set-up, generate, warm up, closed loop, oracle. Returns (result, tracer)."""
    import screenlimits.cli as cli

    setup = SetupTimer(SETUP_REPEATS)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    runner = Runner(cli, Tracer() if trace else None)
    try:
        workload = GENERATORS[name](seed, work / "stream")
        for op in workload.warmup:
            runner.run(op, timed=False)
        wall = closed_loop(runner, workload, seconds, trace, setup)
        setup_times = setup.finish()
        kernel_errors = run_oracle(runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(kernel_errors) != set(ORACLE_KERNELS):
        runner.failures.append(f"oracle compared only {sorted(kernel_errors)}")
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": not runner.failures,
        "failures": runner.failures,
        "wall_s": wall,
        "setup_times_s": setup_times,
        "kernel_max_rel_err": kernel_errors,
    }
    max_rel_err = max(kernel_errors.values(), default=float("nan"))
    if trace:
        metrics, shares = per_layer_metrics(runner, kernel_errors)
        result["self_time_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    else:
        metrics = end_to_end_metrics(runner.records, setup_times, max_rel_err)
    units = metric_units()[trace]
    missing = sorted(units.keys() - metrics.keys())
    if missing:
        raise RuntimeError(f"BENCHMARK.json lists metrics that are not computed: {missing}")
    result["metrics"] = {key: {"value": metrics[key], "unit": units[key]} for key in units}
    result["error_rate"] = runner.failed / runner.attempted
    return result, runner.tracer


def _report(result: dict, env: dict) -> dict:
    """Print the human-readable summary and return the final JSON object."""
    print("env " + json.dumps(env, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    print(f"error_rate {result['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for kernel, err in sorted(result["kernel_max_rel_err"].items()):
        print(f"oracle {kernel} max_rel_err {err:.3e}")
    for module, share in result.get("self_time_share", {}).items():
        print(f"self_share {module} {share:.4f}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for one cycle, traced and untraced, and "
                             "confirm that every metric in BENCHMARK.json is printed")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "screenlimits" / "__init__.py").is_file():
        print(f"error: no screenlimits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import screenlimits

    if Path(screenlimits.__file__).resolve().parent != (SRC / "screenlimits").resolve():
        print(f"error: screenlimits imported from {screenlimits.__file__}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    env = environment(args)
    result, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"trace-{stem}.jsonl")
    final = _report(result, env)
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"env": env, **result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0


def smoke() -> int:
    """One cycle of every workload, traced and untraced; every listed metric computed."""
    problems = []
    for name in sorted(GENERATORS):
        for trace in (0, 1):
            started = perf_counter()
            result, _ = run_workload(name, 0, 0.0, bool(trace))
            problems += [f"{name} trace={trace}: {f}" for f in result["failures"]]
            status = "ok" if result["correct"] else "FAIL"
            print(f"smoke {name} trace={trace} {status}: {result['attempted']} ops, "
                  f"{len(result['metrics'])} metrics, {perf_counter() - started:.1f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
