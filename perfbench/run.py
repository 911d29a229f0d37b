"""Benchmark of the diffpareto bias sweep: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep_small_steps --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each pass of the workload runs in a fresh
process (perfbench/worker.py) that imports the package from ``src/``. With
``--trace 0`` the passes are untraced and the result holds the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the
result holds the per-layer metrics. Every row is checked against an
independent numpy reference after the passes (see verify.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit, the machine facts and the workload seed.
The run's record, with the spans of a traced run, is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected_seed1.json"

# every result must be printed well inside 180 s: no pass starts that would
# end after this many seconds from the start of the run, and a pass still
# running PASS_KILL_S later is killed, which leaves time to verify
PASS_DEADLINE_S = 120.0
PASS_KILL_S = 30.0
# set-up-only processes started before each untraced pass, so that set-up
# time is sampled across the whole run
SETUP_PROBES_PER_PASS = 2
# single-threaded BLAS in every workload process keeps the timings steady
# on a shared machine; numpy's default would use every core
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="largest step size only, for the self-test"
    )
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "loadavg_start": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: str(BLAS_THREADS) for name in BLAS_ENV},
    }
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        for key in ("blas", "lapack"):
            facts[key] = f"{deps[key]['name']} {deps[key].get('version', '')}".strip()
    except (TypeError, KeyError):
        facts["blas"] = facts["lapack"] = "unknown"
    return facts


class Runner:
    """Starts the workload processes of one run and collects their reports."""

    def __init__(self, args, seed: int, deadline: float):
        self.args = args
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})

    def run(self, mode: str) -> dict | None:
        """One workload process; None when it failed or ran out of time."""
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.seed),
            "--mode", mode, "--outdir", str(RESULTS),
        ]
        if self.args.smoke:
            cmd.append("--smoke")
        timeout = max(1.0, self.deadline + PASS_KILL_S - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"{mode} pass timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"{mode} pass exited with code {proc.returncode}", file=sys.stderr)
            return None
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["mode"] = mode
        # scaled to the reference speed by the kernel samples of this process
        report["scale"] = REFERENCE_S / report["kernel_s"]
        report["setup_raw_s"] = report["t_ready"] - t_spawn
        report["setup_s"] = report["setup_raw_s"] * report["scale"]
        if mode != "setup":
            report["wall_scaled_s"] = (report["wall_s"] - report["sampled_s"]) * report["scale"]
        return report


def check_passes(passes, scenarios, expected) -> tuple[int, int, int]:
    """(rows attempted, rows failed, spectral rows off in one pass).

    A row fails on an exception, on converged=false, when its bias misses
    the reference, or when its iterations/converged differ from the
    expected values of the default seed. A pass whose output files differ
    from the first good pass, or that did not finish, fails every row."""
    rows_per_pass = sum(len(s.config.mu_max_schedule) for s in scenarios.values())
    attempted = failed = 0
    spectral_off = None
    first_files = None
    for report in passes:
        attempted += rows_per_pass
        if report is None:
            failed += rows_per_pass
            continue
        if first_files is None:
            first_files = report["files"]
        if report["files"] != first_files:
            failed += rows_per_pass
            continue
        pass_failed = pass_off = 0
        for entry in report["scenarios"]:
            scenario = scenarios[entry["scenario_id"], entry["family"]]
            if entry["error"] is not None:
                print(f"{entry['scenario_id']}: {entry['error']}", file=sys.stderr)
                pass_failed += len(scenario.config.mu_max_schedule)
                continue
            for row in entry["rows"]:
                ok, off = scenario.check_row(row)
                want = expected.get((entry["scenario_id"], row["mu_max"]))
                if want is not None and want != [row["iterations"], row["converged"]]:
                    ok = False
                pass_failed += not ok
                pass_off += off
        failed += pass_failed
        if spectral_off is None:
            spectral_off = pass_off
    return attempted, failed, spectral_off if spectral_off is not None else rows_per_pass


def load_expected(workload: str) -> dict:
    data = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return {(sid, mu): [iters, conv] for sid, mu, iters, conv in data.get(workload, [])}


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.monotonic()
    if not (SRC / "diffpareto" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    facts = machine_facts()
    families = workloads.families(args.workload, seed, smoke=args.smoke)
    scenarios = {
        (config.scenario_id, family): verify.Scenario(config)
        for family, configs in families.items()
        for config in configs
    }
    # the scenarios of a workload share one schedule, so the tightest one decides
    min_ratio, tightest = min(
        ((s.min_bound_ratio(), s) for s in scenarios.values()), key=lambda pair: pair[0]
    )
    mu_max = max(tightest.config.mu_max_schedule)
    if mu_max >= min_ratio:
        print(
            f"seed {seed} is infeasible for {args.workload}: mu_max {mu_max:g} is not below"
            f" the smallest step bound over the step shape, {min_ratio:.4g}, in scenario"
            f" {tightest.config.scenario_id}; choose another seed",
            file=sys.stderr,
        )
        return 2

    RESULTS.mkdir(exist_ok=True)
    runner = Runner(args, seed, deadline=started + PASS_DEADLINE_S)
    setups = []
    passes = []
    begin = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        if not args.trace:
            for _ in range(SETUP_PROBES_PER_PASS):
                probe = runner.run("setup")
                if probe is not None:
                    setups.append(probe)
        mode = "traced" if args.trace and len(passes) % 2 else "untraced"
        passes.append(runner.run(mode))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if len(passes) >= 2 and now - begin >= args.seconds:
            break
        if now + longest > runner.deadline:
            break

    expected = load_expected(args.workload) if seed == workloads.DEFAULT_SEED else {}
    attempted, failed, spectral_off = check_passes(passes, scenarios, expected)
    good = [p for p in passes if p is not None]
    untraced = [p for p in good if p["mode"] == "untraced"]
    traced = [p for p in good if p["mode"] == "traced"]
    if not untraced or (args.trace and not traced):
        print("no pass of the workload finished", file=sys.stderr)
        return 1
    rows_per_pass = attempted // len(passes)
    print("machine " + json.dumps(facts))
    print(
        f"workload {args.workload} seed {seed} {json.dumps(workloads.config_seeds(seed))}"
        f" passes {len(passes)} min_step_bound_over_shape {min_ratio:.4g}"
    )
    print(f"rows_failed {failed} / rows_total {attempted} (rows)")
    print(f"spectral_rows_off {spectral_off} / {rows_per_pass} (rows)")

    kernel_s = statistics.median(p["kernel_s"] for p in setups + good)
    print(
        f"unscaled medians: wall_s {statistics.median(p['wall_s'] for p in untraced)} s,"
        f" setup_s {statistics.median(p['setup_raw_s'] for p in setups + untraced)} s;"
        f" speed kernel {kernel_s} s (reference {REFERENCE_S} s)"
    )
    if args.trace:
        metrics = per_layer_metrics(traced, untraced, spectral_off)
        metrics["speed.kernel_s"] = (kernel_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in setups + untraced), "s"),
            "wall_s": (statistics.median(p["wall_scaled_s"] for p in untraced), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    record = {
        "workload": args.workload,
        "seed": seed,
        "config_seeds": workloads.config_seeds(seed),
        "trace": args.trace,
        "machine": facts,
        "setup_probes": setups,
        "passes": [
            None if p is None else {k: v for k, v in p.items() if k not in ("scenarios", "spans")}
            for p in passes
        ],
        "rows_failed": failed,
        "rows_total": attempted,
        "spectral_rows_off": spectral_off,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": [p["spans"] for p in traced],
    }
    out = RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer_metrics(traced, untraced, spectral_off) -> dict:
    import spans

    first = traced[0]
    metrics = {}
    for name in spans.all_names():
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(p["self_s"].get(name, 0.0) * p["scale"] for p in traced), "s"
        )
    iterations = first["iterations"]
    loop_s = metrics["diffusion.run_to_fixed_point.self_s"][0]
    metrics["diffusion.iterations"] = (iterations, "count")
    metrics["diffusion.us_per_iter"] = (1e6 * loop_s / iterations if iterations else 0.0, "us")
    metrics["diffusion.converged_share"] = (
        first["fixed_points_converged"] / first["fixed_points"] if first["fixed_points"] else 0.0,
        "share",
    )
    metrics["linalg.spectral_radius.unconverged"] = (first["unconverged"], "count")
    metrics["linalg.spectral_radius.rows_off"] = (spectral_off, "count")
    metrics["experiment.csv_bytes"] = (first["csv_bytes"], "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_scaled_s"] for p in traced)
        - statistics.median(p["wall_scaled_s"] for p in untraced),
        "s",
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
