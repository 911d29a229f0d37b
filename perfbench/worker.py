"""The workload process: one pass of one workload, reported as one JSON line.

Run by run.py, never by hand. The process imports the package, builds the
workload's configs (the set-up a user pays on every CLI call) and, unless
``--mode setup``, runs every scenario through ``run_sweep`` and writes each
family's CSV and gnuplot script, as ``diffpareto figures`` does. Output
files go to a temporary directory under ``--outdir`` that is removed before
the process exits; only their hashes and sizes are reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ru_maxrss would also count the spawning process: Linux carries its
    high-water mark across exec. VmHWM belongs to this image alone."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_pass(families, tracer, outdir: Path) -> list[dict]:
    from diffpareto import experiment  # the traced bindings are installed by now

    scenarios = []
    for family, configs in families.items():
        rows = []
        for config in configs:
            entry = {"family": family, "scenario_id": config.scenario_id, "error": None, "rows": []}
            scenarios.append(entry)
            before = len(tracer.captured)
            try:
                got = experiment.run_sweep(config)
            except Exception as exc:  # a failed scenario fails its rows; the pass goes on
                entry["error"] = f"{type(exc).__name__}: {exc}"
                continue
            results = tracer.captured[before:]
            if len(results) != len(got):
                results = [None] * len(got)
            for row, result in zip(got, results):
                entry["rows"].append(
                    {
                        "mu_max": row.mu_max,
                        "iterations": row.iterations,
                        "converged": row.converged,
                        "spectral_radius": row.spectral_radius,
                        "bias_sq_norm": row.bias_sq_norm,
                        "w_inf": None if result is None else result.w_infinity.tolist(),
                    }
                )
            rows.extend(got)
        experiment.emit_csv(rows, outdir / f"sweep_{family}.csv")
        experiment.emit_plot_script(rows, outdir / f"sweep_{family}.gp")
    return scenarios


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads

    families = workloads.families(args.workload, args.seed, smoke=args.smoke)
    t_ready = time.monotonic()
    import speed

    sampler = speed.SpeedSampler()
    if args.mode == "setup":
        sampler.fill()
        print(json.dumps({"t_ready": t_ready, "kernel_s": sampler.kernel_s()}))
        return 0

    import spans

    tracer = spans.Tracer(spans.all_names() if args.mode == "traced" else [spans.CAPTURE])
    tracer.install()
    outdir = Path(tempfile.mkdtemp(prefix="pass-", dir=args.outdir))
    try:
        with sampler:
            start = time.perf_counter()
            scenarios = _run_pass(families, tracer, outdir)
            wall_s = time.perf_counter() - start
            sampled_s = sum(sampler.samples)
        peak_rss_mb = _peak_rss_mb()
        files = {}
        csv_bytes = 0
        for path in sorted(outdir.iterdir()):
            data = path.read_bytes()
            files[path.name] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".csv":
                csv_bytes += len(data)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    report = {
        "t_ready": t_ready,
        "kernel_s": sampler.kernel_s(),
        "wall_s": wall_s,
        "sampled_s": sampled_s,
        "peak_rss_mb": peak_rss_mb,
        "scenarios": scenarios,
        "files": files,
        "csv_bytes": csv_bytes,
        "iterations": sum(r.iterations_used for r in tracer.captured),
        "fixed_points": len(tracer.captured),
        "fixed_points_converged": sum(bool(r.converged) for r in tracer.captured),
    }
    if args.mode == "traced":
        report.update(
            calls=tracer.calls,
            self_s=tracer.self_s,
            unconverged=tracer.unconverged,
            spans=tracer.spans,
        )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
