"""End-to-end and per-layer benchmark of the semcontrol command-line tool.

    python3 perfbench/run.py --workload small_cmds --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's input files are generated
from ``--seed`` before timing starts, then real ``semcontrol`` commands run
as subprocesses in a closed loop with one client: each command starts only
after the previous one exits.  Every report is checked against the
independent oracles in ``oracle.py``; an op fails on an unexpected exit
code or a failed check.  Ops run in whole rotations of the workload's
command list until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced runs of each op alternate (``traced_cli.py``) and the
per-layer self times are printed, with the tracing overhead.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, per-op times,
spans) is written to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PYTHON = sys.executable
ENTRY = "from semcontrol.cli import main; main()"

#: Set to 1 for the benchmark and every command it starts: nothing runs in
#: parallel, and on a 2-core machine extra BLAS threads only add contention.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Hard limit on one benchmark run; no command is started or left running past it.
RUN_LIMIT_S = 170.0
#: Timed ``import semcontrol.cli`` processes behind ``setup_s`` (after one warm-up).
SETUP_REPEATS = 7

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "simulate_s": "s",
    "estimate_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Spans whose median self time and calls per op are per-layer metrics.
LAYER_SPANS = (
    "model.load_model", "model.model_hash", "model.validate_model", "model.check_stability",
    "model.partition_vertices",
    "effects.implied_moments", "effects.total_effects", "effects.regression_blocks",
    "control.load_plan", "control.resolve_plan", "control.optimal_b",
    "control.plan_is_stable", "control.plan_variance",
    "estimation.to_csv", "estimation.from_csv", "estimation.sample_moments",
    "estimation.iv_estimate", "estimation.tsls_estimate", "estimation.load_covariance",
    "estimation.iverson_moments",
    "simulate.draw_equilibrium", "simulate.save_run",
)

PER_LAYER = {
    "cli.import_s": "s",
    "cli.process_s": "s",
    "cli.run_command_self_s": "s",
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{f"{name}.calls": "count" for name in LAYER_SPANS},
    "control.optimal_b.calls_per_b_optimal_op": "count",
    "estimation.csv_write_mb_per_s": "MB/s",
    "estimation.csv_read_mb_per_s": "MB/s",
    "simulate.draw_rows_per_s": "rows/s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Ops and their execution


@dataclass
class Step:
    """One CLI invocation and the check its JSON report must pass."""

    args: list[str]
    check: Callable[[dict], list[str]]
    csv: Path | None = None  # the CSV a simulate writes or an estimate --data reads
    rows: int = 0  # rows a simulate draws

    @property
    def kind(self) -> str:
        if self.args[0] == "estimate":
            return "estimate_data" if "--data" in self.args else "estimate_cov"
        return self.args[0]


@dataclass
class StepResult:
    kind: str
    wall: float
    rss_kb: int
    problems: list[str]
    csv_bytes: int = 0
    rows: int = 0
    trace: dict | None = None


@dataclass
class OpResult:
    traced: bool
    b_optimal: bool
    steps: list[StepResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def failed(self) -> bool:
        return any(s.problems for s in self.steps)


class Runner:
    """Spawns commands one at a time and checks their reports."""

    def __init__(self, work: Path, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.stdout = work / "stdout.txt"
        self.stderr = work / "stderr.txt"
        self.spans = work / "spans.json"

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def spawn(self, argv: list[str]) -> tuple[int, float, int]:
        """Run ``argv`` to completion; returns (exit code, wall seconds, max RSS in KiB)."""
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            return -signal.SIGKILL, 0.0, 0
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(self.stdout), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(PYTHON, argv, self.env, file_actions=actions)
        killer = threading.Timer(limit, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no command running
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss

    def step(self, step: Step, traced: bool) -> StepResult:
        if traced:
            self.spans.unlink(missing_ok=True)
            argv = [PYTHON, str(HERE / "traced_cli.py"), str(self.spans), *step.args]
        else:
            argv = [PYTHON, "-c", ENTRY, *step.args]
        code, wall, rss = self.spawn(argv)
        result = StepResult(step.kind, wall, rss, [], rows=step.rows)
        if code != 0:
            tail = self.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            result.problems.append(f"{step.kind} exited with {code}: {tail}")
            return result
        if step.csv is not None:
            result.csv_bytes = step.csv.stat().st_size
        if traced:
            result.trace = json.loads(self.spans.read_text())
        try:
            result.problems.extend(step.check(json.loads(self.stdout.read_text())))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            result.problems.append(f"{step.kind} report check raised {exc!r}")
        return result

    def op(self, steps: list[Step], traced: bool) -> OpResult:
        b_optimal = any("--b=optimal" in s.args for s in steps)
        result = OpResult(traced, b_optimal)
        for step in steps:
            result.steps.append(self.step(step, traced))
            if result.steps[-1].problems:
                break
        return result


# ---------------------------------------------------------------------------
# Workloads: each generator yields ops (lists of steps) forever, rotation after rotation


def _cmd(*args) -> list[str]:
    return [*args, "--format", "json"]


def _flag(name: str, value) -> str:
    return f"--{name}={value}"


PART = ["--treatment", "X", "--response", "Y"]


def _sample_window(n: int, seed: int) -> tuple[int, int]:
    """A seeded window of up to 8 rows."""
    import numpy as np

    start = int(np.random.default_rng(seed).integers(0, max(n - 8, 1)))
    return start, min(start + 8, n)


def _draw_pair(d: Path, model: str, n: int, seed: int, csv_name: str, instrument: str):
    """A simulate step and the estimate --data step that reads its CSV back."""
    from oracle import Draws, check_estimate_data, check_simulate

    csv = d / csv_name
    draws = Draws(model, n, seed)
    simulate = Step(
        _cmd("simulate", "--model", model, _flag("n", n), _flag("seed", seed), "--out", str(csv)),
        functools.partial(check_simulate, csv_path=str(csv), draws=draws,
                          window=_sample_window(n, seed)),
        csv,
        n,
    )
    estimate = Step(
        _cmd("estimate", "--data", str(csv), *PART, _flag("instruments", instrument)),
        functools.partial(check_estimate_data, draws=draws, treatment="X", response="Y",
                          instrument=instrument),
        csv,
    )
    return simulate, estimate


def small_cmds(manifest: dict, d: Path):
    import oracle as o

    iverson, iverson_cov = str(d / "iverson_model.json"), str(d / "iverson_cov.json")
    ip = manifest["iverson_plan"]
    for c in itertools.count():
        info = manifest["models"][1 + c % (len(manifest["models"]) - 1)]
        k = info["file"][len("model"):-len(".json")]
        model, cov, plan = (str(d / f"{stem}{k}.json") for stem in ("model", "cov", "plan"))
        covs = info["covariates"]
        w = _flag("W", ",".join(covs))
        plan_spec = json.loads(Path(plan).read_text())
        yield [Step(_cmd("reproduce-iverson"), o.check_reproduce_iverson)]
        yield [Step(_cmd("validate", "--model", model), o.check_validate)]
        yield [Step(_cmd("stability", "--model", model, *PART),
                    functools.partial(o.check_stability, model=model, treatment="X"))]
        yield [Step(_cmd("effects", "--model", model, *PART),
                    functools.partial(o.check_effects, model=model, treatment="X", response="Y"))]
        yield [Step(_cmd("plan-eval", "--model", model, *PART, w, "--cov", cov, "--plan", plan),
                    functools.partial(o.check_plan, model=model, treatment="X", response="Y",
                                      set_point=plan_spec["x"], feedback=plan_spec["a"],
                                      gains=plan_spec["b"],
                                      noise=plan_spec["sigma_eps_star"]))]
        yield [Step(_cmd("plan-eval", "--model", iverson, *PART, "--W=Z1,Z2,Z3",
                         "--cov", iverson_cov, _flag("x", ip["x"]), _flag("a", ip["a"]),
                         "--b=optimal", _flag("sigma-eps", ip["sigma"])),
                    functools.partial(o.check_plan, model=iverson, treatment="X", response="Y",
                                      set_point=ip["x"], feedback={"Y": ip["a"]}, gains=None,
                                      noise=ip["sigma"]))]
        yield [Step(_cmd("plan-optimize", "--model", model, *PART, w, "--cov", cov,
                         _flag("x", info["set_point"]), _flag("a", info["gain"])),
                    functools.partial(o.check_plan, model=model, treatment="X", response="Y",
                                      set_point=info["set_point"], feedback={"Y": info["gain"]},
                                      gains=None, noise=0.0))]
        for instruments in (covs[:1], covs[:2]):
            yield [Step(_cmd("estimate", "--cov", cov, *PART,
                             _flag("instruments", ",".join(instruments))),
                        functools.partial(o.check_estimate_cov, cov_path=cov, treatment="X",
                                          response="Y", instruments=instruments))]
        for i, (m, instrument) in enumerate(((iverson, "Z3"), (model, covs[0]))):
            simulate, estimate = _draw_pair(d, m, manifest["rows"],
                                            manifest["sim_seed_base"] + 2 * c + i,
                                            "small.csv", instrument)
            yield [simulate]
            yield [estimate]


def large_model(manifest: dict, d: Path):
    import oracle as o

    info = manifest["models"][1]
    model = str(d / info["file"])
    w = _flag("W", ",".join(info["covariates"]))
    for c in itertools.count():
        yield [Step(_cmd("validate", "--model", model), o.check_validate)]
        yield [Step(_cmd("stability", "--model", model, *PART),
                    functools.partial(o.check_stability, model=model, treatment="X"))]
        yield [Step(_cmd("effects", "--model", model, *PART),
                    functools.partial(o.check_effects, model=model, treatment="X", response="Y"))]
        yield [Step(_cmd("plan-eval", "--model", model, *PART, w, "--a=-0.5", "--b=optimal"),
                    functools.partial(o.check_plan, model=model, treatment="X", response="Y",
                                      set_point=0.0, feedback={"Y": -0.5}, gains=None,
                                      noise=0.0))]
        yield [Step(_cmd("plan-optimize", "--model", model, *PART, w),
                    functools.partial(o.check_plan, model=model, treatment="X", response="Y",
                                      set_point=0.0, feedback={"Y": 0.0}, gains=None,
                                      noise=0.0))]
        for i in range(2):
            simulate, estimate = _draw_pair(d, model, manifest["rows"],
                                            manifest["sim_seed_base"] + 2 * c + i,
                                            "large.csv", info["covariates"][0])
            yield [simulate]
            yield [estimate]


def draws_io(manifest: dict, d: Path):
    for c in itertools.count():
        yield list(_draw_pair(d, str(d / "iverson_model.json"), manifest["rows"],
                              manifest["sim_seed_base"] + c, "draws.csv", "Z3"))


#: Workload -> (op generator, ops per rotation, fewest rotations per untraced run).
#: The minimum keeps the op count, and so the percentile behind op_tail_s, from
#: jumping between runs: large_model needs 27 ops for the tail to stay among the
#: plan commands.
WORKLOADS = {"small_cmds": (small_cmds, 13, 3), "large_model": (large_model, 9, 3),
             "draws_io": (draws_io, 1, 1)}


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 values beyond it, and that percentile.

    With 10 values or fewer no percentile qualifies; the slowest value is
    reported, at percentile 100.
    """
    ordered = sorted(values) or [0.0]
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[OpResult], setup: list[float]) -> tuple[dict, dict]:
    walls = [op.wall for op in ops if not op.failed]
    steps = [s for op in ops for s in op.steps]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "op_p50_s": _median(walls),
        "op_tail_s": tail_s,
        "simulate_s": _median(s.wall for s in steps if s.kind == "simulate" and not s.problems),
        "estimate_s": _median(s.wall for s in steps if s.kind == "estimate_data"
                              and not s.problems),
        "peak_rss_mb": max(s.rss_kb for s in steps) / 1024.0,
        "setup_s": statistics.median(setup),
    }
    extra = {"op_tail_percentile": tail_pct, "ops_timed": len(walls),
             "steps_by_kind": {k: sum(1 for s in steps if s.kind == k)
                               for k in sorted({s.kind for s in steps})}}
    return metrics, extra


def per_layer(ops: list[OpResult]) -> tuple[dict, list[str]]:
    """Median self time per call and calls per op of each layer span."""
    from tracer import check_spans, self_times

    traced = [op for op in ops if op.traced and not op.failed]
    plain = [op for op in ops if not op.traced and not op.failed]
    self_by_name: dict[str, list[float]] = {}
    optimal_calls = 0
    import_s, process_s = [], []
    write_rate, read_rate, draw_rate = [], [], []
    problems = []
    for op in traced:
        for s in op.steps:
            spans = s.trace["spans"]
            problems += check_spans(spans)
            own = self_times(spans)
            for (name, start, end, _), t in zip(spans, own):
                self_by_name.setdefault(name, []).append(t)
                if name == "cli.run_command":
                    process_s.append(s.wall - (end - start))
                elif name == "estimation.to_csv" and s.csv_bytes:
                    write_rate.append(s.csv_bytes / 1e6 / (end - start))
                elif name == "estimation.from_csv" and s.csv_bytes:
                    read_rate.append(s.csv_bytes / 1e6 / (end - start))
                elif name == "simulate.draw_equilibrium" and s.rows:
                    draw_rate.append(s.rows / (end - start))
                elif name == "control.optimal_b" and op.b_optimal:
                    optimal_calls += 1
            import_s.append(s.trace["import_s"])
    n_ops = max(len(traced), 1)
    metrics = {
        "cli.import_s": _median(import_s),
        "cli.process_s": _median(process_s),
        "cli.run_command_self_s": _median(self_by_name.get("cli.run_command", [])),
    }
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = _median(self_by_name.get(name, []))
        metrics[f"{name}.calls"] = len(self_by_name.get(name, [])) / n_ops
    b_ops = sum(1 for op in traced if op.b_optimal)
    metrics["control.optimal_b.calls_per_b_optimal_op"] = optimal_calls / b_ops if b_ops else 0.0
    metrics["estimation.csv_write_mb_per_s"] = _median(write_rate)
    metrics["estimation.csv_read_mb_per_s"] = _median(read_rate)
    metrics["simulate.draw_rows_per_s"] = _median(draw_rate)
    metrics["trace.overhead_s"] = (_median(op.wall for op in traced)
                                   - _median(op.wall for op in plain))
    return metrics, problems


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "semcontrol").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest()[:16],
        "src_py_lines": lines,
    }


# ---------------------------------------------------------------------------
# Entry point


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import gen

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([PYTHON, "-m", "compileall", "-q", str(SRC)], check=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=RUN_LIMIT_S,
                       stdout=subprocess.DEVNULL)
        manifest = gen.generate(workload, seed, work, gen.TINY if tiny else gen.FULL)
        gen.record_hashes(manifest, work)
        runner = Runner(work, deadline)
        setup = [runner.spawn([PYTHON, "-c", "import semcontrol.cli"])
                 for _ in range(SETUP_REPEATS + 1)][1:]
        if any(code != 0 for code, _, _ in setup):
            raise SystemExit("error: `import semcontrol.cli` failed in a subprocess")
        setup_s = [wall for _, wall, _ in setup]

        build, cycle, min_cycles = WORKLOADS[workload]
        if trace:  # each op runs twice; per-layer metrics have no bound
            min_cycles = max(1, min_cycles // 2)
        if tiny:
            min_cycles = 1
        ops_iter = build(manifest, work)
        ops: list[OpResult] = []
        t0 = time.monotonic()
        last_cycle = 0.0
        for done in itertools.count():
            now = time.monotonic()
            if runner.expired or now + last_cycle > deadline:
                break
            if done >= min_cycles and now - t0 >= seconds:
                break
            for steps in itertools.islice(ops_iter, cycle):
                for traced in ((False, True) if trace else (False,)):
                    ops.append(runner.op(steps, traced))
            last_cycle = time.monotonic() - now
        measured = time.monotonic() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(op.failed for op in ops)
    e2e, extra = end_to_end([op for op in ops if not op.traced], setup_s)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "measured_s": measured, "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops), "environment": environment(),
        "inputs": {k: manifest[k] for k in ("models", "rows", "sim_seed_base")},
        "end_to_end": e2e, **extra,
        "problems": [p for op in ops for s in op.steps for p in s.problems][:20],
        "ops": [{"traced": op.traced, "wall": op.wall, "failed": op.failed,
                 "steps": [{"kind": s.kind, "wall": s.wall, "rss_kb": s.rss_kb}
                           for s in op.steps]} for op in ops],
        "setup_walls": setup_s,
    }
    span_problems = []
    if trace:
        record["per_layer"], span_problems = per_layer(ops)
        record["spans"] = [
            {"op": i, "spans": s.trace["spans"], "import_s": s.trace["import_s"]}
            for i, op in enumerate(ops) if op.traced for s in op.steps if s.trace
        ]
    record["span_problems"] = span_problems[:20]
    record["correct"] = failed == 0 and not span_problems
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (not for measurements)")
    args = parser.parse_args()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy is imported
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up as on Ctrl-C
    if not (SRC / "semcontrol" / "cli.py").is_file():
        print(f"error: no semcontrol sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    for key, value in metrics.items():
        print(f"{key:44s} {value:.6g} {units[key]}")
    print(f"{'op_tail_percentile':44s} {record['op_tail_percentile']:.4g} "
          f"(of {record['ops_timed']} ops)")
    print(f"{'failed_frac':44s} {record['failed_frac']:.4g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for problem in record["problems"] + record["span_problems"]:
        print(f"problem: {problem}")
    print("environment: " + json.dumps(record["environment"]))
    print(f"full record: {(results / name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
