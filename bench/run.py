"""Benchmark of the holowdm reference study, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload reference-mc --seed 1 --seconds 25 --trace 0

One run makes a config from the seed, then starts program processes one at a
time: an untimed warm-up, set-up probes, and timed rounds until ``--seconds``
have passed (at least two).  Each round is a fresh process that imports
holowdm from the checkout's ``src``, parses the config and runs the
workload's CLI commands, writing CSVs to a temporary directory.  With
``--trace 1`` every second round is traced (see tracing.py) and the result
carries the per-layer metrics instead of the end-to-end ones.

Outside the timed region every distinct CSV is checked against independent
references (oracle.py), and corrupted copies of each CSV must be rejected.
Every metric is printed by name with its unit; the last stdout line is the
JSON result.  A record of the run, with the machine facts and every sample,
goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

# thread caps a caller's shell may carry; every workload runs at the
# program's own defaults
THREAD_VARS = ("HOLOWDM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_ROUNDS = 2
# a run must end within 180 s; program processes still running this long
# after the start are killed, which leaves time for the checks
PROCESS_DEADLINE_S = 150.0
MIN_ORACLE_REALIZATIONS = 40

BASE_CONFIG = {
    "lambda_m": 0.01,
    "L_s_over_lambda": 128,
    "L_r_over_lambda": 128,
    "d_m": 0.0,
    "epsilon": 0.003,
    "noise_var_dbw": 0.0,
    "power_grid_dbw": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    "realizations": 500,
    "models": ["iid", "jakes", "isotropic", "non_isotropic"],
    "clusters": [
        {"mean_deg": 30.0, "circ_var": 0.01, "weight": 0.5},
        {"mean_deg": 60.0, "circ_var": 0.005, "weight": 0.5},
    ],
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    experiments: tuple[str, ...]
    overrides: dict


WORKLOADS = {
    # the paper's study at small scale: eigen-solves and channel draws on
    # 256x256 matrices dominate
    "reference-mc": Workload(("all",), ("psf", "eigs", "dof", "capacity"), {"realizations": 20}),
    # no Monte Carlo: dense eigen-solves, the Jakes square root and the
    # variance-profile quadrature at 2048 modes per side
    "wide-aperture-analysis": Workload(
        ("psf", "eigs", "dof"), ("psf", "eigs", "dof"),
        {"L_s_over_lambda": 1024, "L_r_over_lambda": 1024},
    ),
    # tiny 16x32 channels, many realizations: per-call overhead, water-filling
    # and the thread pool dominate.  Run by hand only: BENCHMARK.json leaves it
    # out because its wall time follows host CPU steal too closely to gate on
    "small-array-mc": Workload(
        ("capacity",), ("capacity",),
        {"L_s_over_lambda": 16, "L_r_over_lambda": 8, "realizations": 1500},
    ),
}


def make_config(name: str, seed: int) -> dict:
    stream = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return {**BASE_CONFIG, **WORKLOADS[name].overrides,
            "seed": int(stream.generate_state(1, np.uint64)[0])}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "removed_env": [v for v in THREAD_VARS if v in os.environ],
    }


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over cores.

    Recorded with each run: it shows when a slow run met a busy host.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


@dataclass
class Process:
    code: int
    report: dict | None
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def spawn(spec: dict, env: dict, work: Path, deadline: float) -> Process:
    """Run child.py once and wait for it, with its own resource usage.

    The process is killed at ``deadline`` (CLOCK_MONOTONIC) and when this
    process is interrupted.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().splitlines()
    report = None
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    return Process(
        code=proc.returncode,
        report=report,
        setup_s=report["t_ready"] - start if report else float("nan"),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path.read_text(),
    )


@dataclass
class Round:
    traced: bool
    process: Process
    csvs: dict[str, str | None]

    @property
    def ok(self) -> bool:
        return self.process.report is not None

    @property
    def wall_s(self) -> float:
        report = self.process.report
        return report["t_end"] - report["t_ready"]


def run_round(workload: Workload, config_path: Path, env: dict, work: Path, traced: bool,
              deadline: float) -> Round:
    out = Path(tempfile.mkdtemp(dir=work))
    spec = {"root": str(ROOT), "config": str(config_path), "out": str(out),
            "commands": list(workload.commands), "trace": traced, "setup_only": False}
    process = spawn(spec, env, work, deadline)
    csvs = {}
    for experiment in workload.experiments:
        path = out / f"{experiment}.csv"
        csvs[experiment] = path.read_text() if process.report and path.is_file() else None
    return Round(traced, process, csvs)


def run_checks(experiment: str, text: str, ref: oracle.Reference) -> list[str]:
    try:
        return oracle.CHECKS[experiment](text, ref)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{experiment}: malformed CSV ({exc})"]


def median(values) -> float:
    return float(statistics.median(values))


def layer_unit(name: str) -> str:
    for suffix, unit in (("ms", "ms"), ("bytes", "bytes"), ("gn3", "Gn3")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Measurement:
    setups: list[float]
    rounds: list[Round]
    measured_s: float
    steal_s: float | None


def measure(workload: Workload, cfg: dict, seconds: float, trace: bool, work: Path) -> Measurement | None:
    """The timed region: set-up probes, then rounds until ``seconds`` have passed."""
    env = child_env()
    deadline = time.monotonic() + PROCESS_DEADLINE_S
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=1))
    setup_spec = {"root": str(ROOT), "config": str(config_path), "setup_only": True}
    warm = spawn(setup_spec, env, work, deadline)
    if warm.report is None:
        print(f"bench: the program does not start (exit {warm.code}):\n{warm.stderr}", file=sys.stderr)
        return None
    start, steal_start = time.monotonic(), steal_s()
    setups = [spawn(setup_spec, env, work, deadline).setup_s for _ in range(SETUP_PROBES)]
    rounds: list[Round] = []
    while (len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds) and time.monotonic() < deadline:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, config_path, env, work, traced, deadline))
    measured_s = time.monotonic() - start
    steal_end = steal_s()
    stolen = steal_end - steal_start if steal_start is not None and steal_end is not None else None
    return Measurement(setups, rounds, measured_s, stolen)


@dataclass
class Verdict:
    attempted: int
    failed: int
    wrong: list[str]      # outputs that failed a check
    missing: list[str]    # operations that raised or whose process died
    passing: dict[str, str]   # experiment -> a CSV that passed every check


def evaluate(rounds: list[Round], experiments, ref: oracle.Reference) -> Verdict:
    """Check every distinct CSV once; a traced CSV must equal an untraced one."""
    checked: dict[tuple[str, str], list[str]] = {}
    untraced = {e: {r.csvs[e] for r in rounds if not r.traced} for e in experiments}
    verdict = Verdict(0, 0, [], [], {})
    for rnd in rounds:
        for experiment in experiments:
            verdict.attempted += 1
            text = rnd.csvs[experiment]
            if text is None:
                verdict.failed += 1
                verdict.missing.append(f"{experiment}: no CSV (exit {rnd.process.code}) "
                                       f"{rnd.process.stderr.strip()[-300:]}")
                continue
            if (experiment, text) not in checked:
                checked[experiment, text] = run_checks(experiment, text, ref)
            found = list(checked[experiment, text])
            if rnd.traced and text not in untraced[experiment]:
                found.append(f"{experiment}: traced CSV differs from the untraced one")
            if found:
                verdict.failed += 1
                verdict.wrong.extend(found)
            else:
                verdict.passing.setdefault(experiment, text)
    return verdict


def negative_control(verdict: Verdict, cfg: dict, ref: oracle.Reference) -> dict[str, bool]:
    """Corrupted copies of each passing CSV; True where the checks rejected one."""
    return {
        f"{experiment}: {label}": bool(run_checks(experiment, bad, ref))
        for experiment, text in verdict.passing.items()
        for label, bad in oracle.corruptions(experiment, text, cfg)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running program process is killed
    # and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "holowdm" / "__init__.py").is_file():
        print(f"bench: no holowdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cfg = make_config(args.workload, args.seed)
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        run = measure(workload, cfg, args.seconds, bool(args.trace), Path(tmp))
    if run is None:
        return 1

    # outside the timed region
    rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode()), 1])
    ref = oracle.Reference(cfg, rng, max(cfg["realizations"], MIN_ORACLE_REALIZATIONS))
    verdict = evaluate(run.rounds, workload.experiments, ref)
    negative = negative_control(verdict, cfg, ref)
    problems = verdict.wrong + [f"negative control accepted: {k}" for k, v in negative.items() if not v]
    correct = not problems

    good = [r for r in run.rounds if r.ok]
    plain = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    if not plain or (args.trace and not traced):
        print("bench: no round of the workload completed", file=sys.stderr)
        for line in (problems + verdict.missing)[:10]:
            print(f"  {line}", file=sys.stderr)
        return 1
    setups = run.setups + [r.process.setup_s for r in good]
    e2e = {
        "setup_s": median(setups),
        "wall_s": median(r.wall_s for r in plain),
        "cpu_s": median(r.process.cpu_s for r in plain),
        "peak_rss_mb": median(r.process.peak_rss_mb for r in plain),
    }
    layers, overhead_s = {}, None
    if traced:
        names = traced[0].process.report["layers"]
        layers = {n: median(r.process.report["layers"][n] for r in traced) for n in names}
        overhead_s = median(r.wall_s for r in traced) - e2e["wall_s"]
    capacity_z = oracle.max_abs_z(verdict.passing["capacity"], ref) if "capacity" in verdict.passing else None

    for name, value in e2e.items():
        print(f"{name} {value:.6g} {E2E_UNITS[name]}")
    for name, value in layers.items():
        print(f"{name} {value:.6g} {layer_unit(name)}")
    if overhead_s is not None:
        print(f"trace_overhead_s {overhead_s:.4g} s")
    if capacity_z is not None:
        print(f"capacity_max_abs_z {capacity_z:.3f}")
    print(f"rounds {len(run.rounds)} (traced {len(traced)}), measured {run.measured_s:.1f} s, "
          f"checks {'passed' if correct else 'FAILED'}, negative control "
          f"{sum(negative.values())}/{len(negative)} rejected")
    for line in (problems + verdict.missing)[:20]:
        print(f"problem: {line}")
    machine = machine_facts()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": cfg, "machine": machine, "measured_s": run.measured_s,
        "steal_s": run.steal_s, "setup_samples_s": setups,
        "rounds": [
            {"traced": r.traced, "code": r.process.code, "setup_s": r.process.setup_s,
             "wall_s": r.wall_s if r.ok else None, "cpu_s": r.process.cpu_s,
             "peak_rss_mb": r.process.peak_rss_mb,
             "threads": r.process.report.get("threads") if r.ok else None}
            for r in run.rounds
        ],
        "end_to_end": e2e, "per_layer": layers, "trace_overhead_s": overhead_s,
        "capacity_max_abs_z": capacity_z, "negative_control": negative, "correct": correct,
        "attempted": verdict.attempted, "failed": verdict.failed,
        "problems": problems + verdict.missing,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
        "metrics": {n: {"value": v, "unit": layer_unit(n) if args.trace else E2E_UNITS[n]}
                    for n, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
