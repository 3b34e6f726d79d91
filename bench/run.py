"""chemofv benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs trials of one workload (see ``workloads.py``) one after another in
this process for about ``--seconds`` seconds, checks every trial's output,
prints each metric with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Exit code 0 means every
check passed, 1 that a check failed, 2 that the chemofv sources are missing.

``--trace 0`` reports the end-to-end metrics. A first, untimed trial gives
the peak RSS; the timed trials follow. Step, wall and set-up times in the
JSON are host-speed-normalised (see ``PROBE_REFERENCE_S`` in
``workloads.py``): milliseconds as a quiet host would show them. The
wall-clock figures, the probe's median and ``failed_frac`` are printed on
the lines before it.

``--trace 1`` alternates untraced and traced trials and reports the
per-layer metrics, read from spans recorded around calls into each chemofv
module (``tracer.py``), in wall-clock time; it writes the spans of the
first traced trial to ``bench/_out``.

BLAS and OpenMP pools are held to one thread, so every figure is that of a
single-threaded run; the setting is printed with the environment record.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "bench" / "_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"
P_HIGH = 90  # step_ms_p90 needs ten samples beyond it, so 100 samples
MIN_SAMPLES = 100
# glibc malloc: M_MMAP_THRESHOLD and M_TRIM_THRESHOLD (mallopt parameters).
# With its adaptive threshold the heap keeps a varying share of freed
# memory, so peak RSS of identical runs differed by up to 30%. The memory
# trial runs with large blocks mmapped and returned (its peak repeats to
# 1%); the timed trials then run with the values the adaptive threshold
# settles at on 64-bit glibc, which match its step times.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MEMORY_MALLOC = {M_MMAP_THRESHOLD: 1 << 20}
TIMED_MALLOC = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 64 << 20}

END_TO_END = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "mesh.build_ms": "ms",
    "mesh.pattern_ms": "ms",
    "model.initial_state_ms": "ms",
    "scheme.assemble_chem_ms": "ms/step",
    "scheme.assemble_cell_ms": "ms/step",
    "scheme.step_self_ms": "ms/step",
    "linalg.solve_ms": "ms/step",
    "linalg.solve_direct_ms": "ms/step",
    "linalg.solve_krylov_ms": "ms/step",
    "linalg.solves_direct": "1/step",
    "linalg.solves_krylov": "1/step",
    "linalg.solves_fallback": "1/step",
    "linalg.krylov_iters": "1/step",
    "linalg.residual_max": "ratio",
    "linalg.lu_factorizations": "1/step",
    "linalg.lu_factor_ms": "ms/step",
    "linalg.lu_fill_nnz": "count",
    "linalg.lu_reuse_ratio": "ratio",
    "linalg.structure_ms": "ms/step",
    "linalg.digest_ms": "ms/step",
    "linalg.residual_check_ms": "ms/step",
    "linalg.matrix_build_ms": "ms/step",
    "sim.diagnostics_ms": "ms/step",
    "sim.loop_self_ms": "ms/step",
    "output.snapshot_csv_ms": "ms/call",
    "output.vtk_ms": "ms/call",
    "output.bytes_written": "bytes",
    "config.resolve_ms": "ms",
    "config.manifest_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}
KRYLOV = ("jacobi-bicgstab", "ilu-bicgstab")


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile: the smallest sample with at least q%
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def set_malloc(params: dict[int, int]) -> bool:
    """Apply mallopt settings; False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(key, value) == 1 for key, value in params.items())


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_metrics(trial, spans) -> dict[str, float]:
    """Per-layer figures of one traced trial.

    Step-loop figures cover the timed steps only (after the warm-up step),
    per step; set-up figures are per trial; output figures per call.
    """
    from tracer import NAME, TAG, span_times

    window = (trial.ticks[0], trial.ticks[-1])
    steps = len(trial.ticks) - 1
    incl_w, self_w = span_times(spans, window)
    incl, self_all = span_times(spans)

    def total(name, times, tags=None):
        return sum(
            t for s, t in zip(spans, times)
            if s[NAME] == name and (tags is None or s[TAG] in tags)
        )

    def per_step_ms(name, times=incl_w, tags=None):
        return 1e3 * total(name, times, tags) / steps

    def per_call_ms(name):
        calls = [t for s, t in zip(spans, incl) if s[NAME] == name]
        return 1e3 * sum(calls) / len(calls) if calls else 0.0

    reports = trial.timed_reports
    methods = [r.method for r in reports]
    direct = sum(m.startswith("direct-lu") for m in methods)
    factors = [s for s in spans if s[NAME] == "linalg.lu_factor"]
    timed_factors = sum(window[0] <= s[1] <= window[1] for s in factors)
    direct_tags = ("direct-lu", "direct-lu(fallback)")
    return {
        "mesh.build_ms": 1e3 * total("mesh.build", incl),
        "mesh.pattern_ms": 1e3 * total("mesh.pattern", incl),
        "model.initial_state_ms": 1e3 * total("model.initial_state", incl),
        "scheme.assemble_chem_ms": per_step_ms("scheme.assemble_chem"),
        "scheme.assemble_cell_ms": per_step_ms("scheme.assemble_cell"),
        "scheme.step_self_ms": per_step_ms("scheme.step", self_w),
        "linalg.solve_ms": per_step_ms("linalg.solve"),
        "linalg.solve_direct_ms": per_step_ms("linalg.solve", tags=direct_tags),
        "linalg.solve_krylov_ms": per_step_ms("linalg.solve", tags=KRYLOV),
        "linalg.solves_direct": methods.count("direct-lu") / steps,
        "linalg.solves_krylov": sum(m in KRYLOV for m in methods) / steps,
        "linalg.solves_fallback": methods.count("direct-lu(fallback)") / steps,
        "linalg.krylov_iters": sum(
            r.iterations for r in reports if r.method in KRYLOV
        ) / steps,
        "linalg.residual_max": max(r.residual for r in trial.reports),
        "linalg.lu_factorizations": timed_factors / steps,
        "linalg.lu_factor_ms": per_step_ms("linalg.lu_factor"),
        "linalg.lu_fill_nnz": max((s[TAG] for s in factors), default=0),
        "linalg.lu_reuse_ratio": (direct - timed_factors) / direct if direct else 0.0,
        "linalg.structure_ms": per_step_ms("linalg.structure"),
        "linalg.digest_ms": per_step_ms("linalg.digest"),
        "linalg.residual_check_ms": per_step_ms("linalg.residual_check"),
        "linalg.matrix_build_ms": per_step_ms("linalg.matrix_build"),
        "sim.diagnostics_ms": per_step_ms("sim.diagnostics"),
        "sim.loop_self_ms": per_step_ms("sim.run", self_w),
        "output.snapshot_csv_ms": per_call_ms("output.snapshot_csv"),
        "output.vtk_ms": per_call_ms("output.vtk"),
        "output.bytes_written": sum(
            s[TAG] for s in spans if s[NAME].startswith("output.")
        ),
        "config.resolve_ms": 1e3 * total("config.resolve", incl),
        "config.manifest_ms": 1e3 * total("config.manifest", incl),
        "cli.self_ms": 1e3 * total("cli.main", self_all),
    }


def _traced_trial(workload, seed, steps):
    from tracer import Tracer, trace_chemofv
    from workloads import run_trial

    tracer = Tracer()
    trace_chemofv(tracer)
    try:
        trial = run_trial(workload, seed, steps, SCRATCH)
    finally:
        tracer.restore()
    trial.spans = tracer.spans
    return trial


def end_to_end(trials, column: int) -> dict[str, float]:
    """Step percentiles over all timed steps, and medians over trials of
    wall and set-up time; ``column`` 0 reads wall-clock segment lengths,
    1 the host-speed-normalised ones."""
    segments = [t.segments() for t in trials]
    step_ms = [
        1e3 * seg[column]
        for t, s in zip(trials, segments) for seg in s[1:len(t.ticks)]
    ]
    return {
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": percentile(step_ms, P_HIGH),
        "wall_s": statistics.median(sum(seg[column] for seg in s) for s in segments),
        "setup_s": statistics.median(s[0][column] for s in segments),
    }


def wall_clock_s(trial) -> float:
    return sum(wall for wall, _ in trial.segments())


def measure(name: str, seed: int, seconds: float, trace: bool, steps: int | None = None):
    """Run trials of one workload; returns (result, report lines, spans).

    Trials continue while another one fits in ``seconds``, and, for the
    untraced run, until ``MIN_SAMPLES`` step samples exist or three times
    ``seconds`` have passed. ``steps`` shortens every trial (self-tests).
    """
    import numpy as np

    from workloads import (
        DEFAULT_SEED, FINGERPRINTS, PROBE_REFERENCE_S, WORKLOADS, check_fingerprint,
        run_trial,
    )

    workload = WORKLOADS[name]
    steps = workload.steps if steps is None else steps
    SCRATCH.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    began = time.perf_counter()
    if not trace:
        # The memory trial comes first, while the process's peak is still
        # its own; it doubles as the warm-up and is not timed.
        tuned = set_malloc(MEMORY_MALLOC)
        memory_trial = run_trial(workload, seed, steps, SCRATCH)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tuned = set_malloc(TIMED_MALLOC) and tuned
    while True:
        t0 = time.perf_counter()
        if trace:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    traced.append(_traced_trial(workload, seed, steps))
                else:
                    plain.append(run_trial(workload, seed, steps, SCRATCH))
        else:
            plain.append(run_trial(workload, seed, steps, SCRATCH, probed=True))
        now = time.perf_counter()
        samples = sum(len(t.ticks) - 1 for t in plain)
        enough = trace or samples >= MIN_SAMPLES or now - began >= 3 * seconds
        if enough and now - began + (now - t0) > seconds:
            break

    trials = plain + traced + ([] if trace else [memory_trial])
    failures = [f for t in trials for f in t.failures]
    if not failures:
        first = trials[0].final
        for t in trials[1:]:
            if not (np.array_equal(t.final.u, first.u) and np.array_equal(t.final.c, first.c)):
                failures.append("trials with the same seed ended in different states")
                break
        if seed == DEFAULT_SEED and steps == workload.steps:
            recorded = json.loads(FINGERPRINTS.read_text())
            failures.extend(check_fingerprint(workload, trials[0].kept, recorded))
    attempted = workload.operations(steps) * len(trials)
    failed = attempted if failures else 0
    pairs = [(u, t) for u, t in zip(plain, traced) if not (u.failures or t.failures)]
    plain = [t for t in plain if not t.failures]
    traced = [t for t in traced if not t.failures]

    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"trials {len(plain)} untraced, {len(traced)} traced"]
    units = PER_LAYER if trace else END_TO_END
    if not (traced if trace else plain):
        metrics = dict.fromkeys(units, 0.0)  # nothing completed to measure
    elif trace:
        per_trial = [layer_metrics(t, t.spans) for t in traced]
        metrics = {
            key: statistics.median(m[key] for m in per_trial) for key in per_trial[0]
        }
        # trials of a pair ran back to back, so mostly in the same host mode
        metrics["trace.overhead_frac"] = statistics.median(
            wall_clock_s(t) / wall_clock_s(u) - 1.0 for u, t in pairs
        ) if pairs else 0.0
        t = traced[0]
        direct = sum(r.method.startswith("direct-lu") for r in t.timed_reports)
        lines.append(
            f"traffic: {metrics['linalg.lu_factorizations']:.3f} LU factorizations "
            f"per timed step over {len(t.ticks) - 1} steps; "
            f"lu_reuse_ratio {metrics['linalg.lu_reuse_ratio']:.3f} of {direct} "
            f"direct solves"
        )
    else:
        metrics = end_to_end(plain, 1)
        metrics["peak_rss_mb"] = peak_rss_mb
        wall_clock = end_to_end(plain, 0)
        n = sum(len(t.ticks) - 1 for t in plain)
        probe_us = 1e6 * statistics.median(p for t in plain for p in t.probes)
        lines.append(
            f"{n} step samples, {samples_beyond(n, P_HIGH)} beyond p{P_HIGH}; "
            f"wall and set-up are medians of {len(plain)} trials; peak RSS of the "
            f"memory trial, malloc {'tuned' if tuned else 'default'}"
        )
        lines.append(
            "times are scaled to a quiet host: probe median "
            f"{probe_us:.1f} us, reference {1e6 * PROBE_REFERENCE_S:.1f} us; "
            "wall-clock " + ", ".join(
                f"{k} {v:.6g} {units[k]}" for k, v in wall_clock.items()
            )
        )
    for key, value in metrics.items():
        lines.append(f"  {key:<26} {value:.6g} {units[key]}")
    lines.append(
        f"  {'failed_frac':<26} {failed / attempted:.6g} ratio "
        f"({failed} of {attempted} operations: steps, solves, files)"
    )
    lines.extend(f"FAILED: {f}" for f in failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines, traced[0].spans if traced else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chemofv" / "__init__.py").is_file():
        print(f"chemofv sources not found under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    result, lines, spans = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    lines.append("env: " + json.dumps(env, sort_keys=True))
    if spans is not None:
        out = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"env": env, "result": result, "spans": spans}))
        lines.append(f"spans of the first traced trial: {out.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
