"""The benchmark's four workloads, their correctness checks and fingerprints.

Every trial is one closed-loop simulation, from mesh build to its last
output, with a fresh solver, so its costs and counts are those of a user's
run. The seed becomes the initial condition's ``rng_seed``.

Run ``PYTHONPATH=src python3 bench/workloads.py`` to record ``fingerprints.json`` from the
current code at ``DEFAULT_SEED``.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import chemofv.cli as climod
import chemofv.config as cfgmod
import chemofv.output as outmod
import chemofv.sim as simmod
from chemofv import (
    InitialConditionSpec,
    LinearSolver,
    ModelSpec,
    RectRegion,
    RunConfig,
    SchemeVariant,
    build_uniform_rect_mesh,
    preset,
)

DEFAULT_SEED = 42
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

# Relative tolerance of each fingerprint entry (norms, extremes and band
# means of u and c, scaled by the field's rms where an entry is near zero).
# Every solve meets a relative residual of 1e-12 and the operators are
# diagonally dominant M-matrices with condition numbers below 1e3, so a
# solver meeting the same contract by another path moves a solution by at
# most 1e-9 per solve. Solving these runs all-direct or all-Krylov instead
# moved the fingerprinted states by 1e-11 at most (3e-9 for spots-parabolic
# at its fingerprint step); 1e-6 leaves a hundredfold margin above both,
# and a 1e-3 change on one mesh row still fails.
FINGERPRINT_RTOL = 1e-6
FINGERPRINT_BANDS = 16  # band means over consecutive cell indices: strips of rows
CORRECTED = SchemeVariant(kind="corrected-decoupled")
SNAPSHOT_EVERY = 25  # rings-cli-io: a snapshot every 25 steps
WRITERS = (  # every file rings-cli-io writes goes through one of these
    (outmod, "write_snapshot_csv"),
    (outmod, "write_vtk_structured_points"),
    (outmod, "write_diagnostics_csv"),
    (cfgmod, "write_manifest"),
)


class TallySolver(LinearSolver):
    """LinearSolver that appends every SolveReport it hands back to
    ``reports``."""

    def __init__(self, reports: list):
        super().__init__()
        self.reports = reports

    def solve(self, m, rhs):
        x, report = super().solve(m, rhs)
        self.reports.append(report)
        return x, report


# Host-speed probe. On a shared 2-CPU Xeon VM the host ran the guest in two
# modes, one about 1.7x slower on the probe, for seconds to minutes at a
# time, which moved raw medians by 20-40% between runs. A fixed piece of
# interpreter and numpy work, timed between steps, tracks the mode. A
# workload slows by the probe's slowdown to the power of its host
# sensitivity (measured per workload from steps in both modes: from 0.7
# for the memory-bound LU solves to 0.9 for interpreter overhead), so each
# segment is also reported scaled by (PROBE_REFERENCE_S / probe) **
# sensitivity, PROBE_REFERENCE_S being the probe's time in the quiet mode.
PROBE_REFERENCE_S = 46e-6
_PROBE_DATA = np.random.default_rng(0).random(4096)
_PROBE_INDEX = np.random.default_rng(1).integers(0, 4096, 4096)


def _probe_work():
    total = 0
    for i in range(300):
        total += i
    for _ in range(5):
        total += (_PROBE_DATA[_PROBE_INDEX] * 1.5).sum()
    return total


def probe() -> float:
    """Seconds the probe's work takes now: the fastest of three passes
    after one that warms the caches, so an interrupt does not count."""
    _probe_work()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Trial:
    """Timings, reports and final state of one simulation.

    Cuts split the trial's clock into segments: set-up (start to the first
    observer call, so it includes the warm-up step), one segment per later
    step, and the tail (final diagnostics and output, cut again before each
    file the CLI writes). A ``probed`` trial runs the host-speed probe
    before it starts, at every cut and after it ends; probe time is left
    out of every segment.
    """

    steps: int
    probed: bool = False
    sensitivity: float = 1.0  # the workload's host sensitivity
    keep_step: int = 0  # the step whose state is fingerprinted
    kept: object = None
    start: float = 0.0
    end: float = 0.0
    ticks: list = field(default_factory=list)  # clock at each observer call
    cuts: list = field(default_factory=list)  # clock at each cut
    resumes: list = field(default_factory=list)  # clock when work resumed after it
    probes: list = field(default_factory=list)  # probe seconds, in clock order
    reports: list = field(default_factory=list)  # every SolveReport, in order
    tol: float = LinearSolver().tol
    mark: int = 0  # reports made during set-up
    final: object = None
    diagnostics: object = None
    mesh: object = None
    files: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    spans: list | None = None  # recorded when the trial ran traced

    def begin(self):
        if self.probed:
            self.probes.append(probe())
        self.start = time.perf_counter()

    def cut(self) -> float:
        """End the current segment and return the time it ended."""
        now = time.perf_counter()
        self.cuts.append(now)
        if self.probed:
            self.probes.append(probe())
        self.resumes.append(time.perf_counter() if self.probed else now)
        return now

    def observe(self, state):
        self.ticks.append(self.cut())
        if len(self.ticks) == 1:
            self.mark = len(self.reports)
        if state.step_index == self.keep_step:
            self.kept = state
        self.final = state

    def finish(self):
        self.end = time.perf_counter()
        if self.probed:
            self.probes.append(probe())

    def segments(self) -> list[tuple[float, float]]:
        """(wall, normalised) seconds of every segment, in order: set-up,
        the ``len(ticks) - 1`` timed steps, then the tail.

        The normalised length scales the wall length by PROBE_REFERENCE_S
        over the mean of the two probes around the segment, to the power of
        the host sensitivity.
        """
        starts = [self.start] + self.resumes
        walls = [e - s for s, e in zip(starts, self.cuts + [self.end])]
        if not self.probed:
            return [(w, w) for w in walls]
        return [
            (w, w * (2.0 * PROBE_REFERENCE_S / (a + b)) ** self.sensitivity)
            for w, a, b in zip(walls, self.probes, self.probes[1:])
        ]

    @property
    def timed_reports(self):
        return self.reports[self.mark:]


def _stripe(seed: int, steps: int) -> RunConfig:
    p = preset("test1")
    return RunConfig(
        mesh=build_uniform_rect_mesh(p.x_range, p.y_range, p.nx, p.ny),
        model=p.model,
        ic=replace(p.ic, rng_seed=seed),
        variant=CORRECTED,
        dt=1e-2,
        t_final=steps * 1e-2,
        diagnostics_every=1,
    )


def _spots(seed: int, steps: int) -> RunConfig:
    p = preset("test4", chi=80.0)
    return RunConfig(
        mesh=build_uniform_rect_mesh(p.x_range, p.y_range, p.nx, p.ny),
        model=p.model,
        ic=replace(p.ic, rng_seed=seed),
        variant=CORRECTED,
        dt=0.05,
        t_final=steps * 0.05,
        strict=True,
        diagnostics_every=0,
    )


def _desk(seed: int, steps: int) -> RunConfig:
    return RunConfig(
        mesh=build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 48, 48),
        model=ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0),
        ic=InitialConditionSpec(
            base_u=1.0, region=RectRegion(-4.5, 4.5, -1.0, 1.0), rng_seed=seed
        ),
        variant=CORRECTED,
        dt=1e-4,
        t_final=steps * 1e-4,
        epsilon=0.0,
        strict=True,
        check_matrices=True,
        diagnostics_every=0,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int  # time steps per trial
    build: object = None  # (seed, steps) -> RunConfig; None for the CLI run
    conserves_mass: bool = False
    c_bounded: bool = False  # elliptic saturated: c <= 2
    fingerprint_step: int | None = None  # None: the final step
    host_sensitivity: float = 1.0  # see PROBE_REFERENCE_S

    def operations(self, steps: int) -> int:
        """Steps, solves (two per step) and files one trial attempts."""
        return 3 * steps + len(expected_files(steps) if self.build is None else ())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stripe-elliptic", 150, _stripe, conserves_mass=True, c_bounded=True,
                 host_sensitivity=0.8),
        # At chi=80 the spot instability amplifies roundoff about tenfold
        # every 1.5 steps (a 1e-14 difference is O(1) by step 25), so only
        # an early state has a tolerance the residual contract can justify.
        Workload("spots-parabolic", 40, _spots, fingerprint_step=10, host_sensitivity=0.7),
        Workload("desk-strict", 500, _desk, conserves_mass=True, c_bounded=True,
                 host_sensitivity=0.9),
        Workload("rings-cli-io", 300, host_sensitivity=0.8),
    )
}


def expected_files(steps: int) -> set[str]:
    """Files `chemofv run` leaves for rings-cli-io: manifest, diagnostics,
    and a CSV plus two VTK files per snapshot, the final one included."""
    names = {"manifest.yaml", "diagnostics.csv"}
    snaps = set(range(SNAPSHOT_EVERY, steps + 1, SNAPSHOT_EVERY)) | {steps}
    for s in snaps:
        stem = f"snapshot_{s:08d}"
        names |= {f"{stem}.csv", f"{stem}_u.vtk", f"{stem}_c.vtk"}
    return names


def run_trial(workload: Workload, seed: int, steps: int, scratch: Path,
              probed: bool = False) -> Trial:
    """Run one trial; errors the program raises become trial failures."""
    keep = min(workload.fingerprint_step or steps, steps)
    trial = Trial(steps, probed=probed, sensitivity=workload.host_sensitivity,
                  keep_step=keep)
    try:
        if workload.build is None:
            _cli_trial(trial, seed, steps, scratch)
        else:
            _library_trial(trial, workload, seed, steps)
    except Exception as exc:  # any failure of the program under test
        trial.failures.append(f"{type(exc).__name__}: {exc}")
    if not trial.failures:
        trial.failures.extend(check_trial(trial, workload))
    trial.mesh = trial.diagnostics = None  # a run keeps many trials
    return trial


def _library_trial(trial: Trial, workload: Workload, seed: int, steps: int):
    trial.begin()
    cfg = workload.build(seed, steps)
    solver = TallySolver(trial.reports)
    _, trial.diagnostics, _ = simmod.run(cfg, solver=solver, observer=trial.observe)
    trial.finish()
    trial.mesh = cfg.mesh


def _cli_trial(trial: Trial, seed: int, steps: int, scratch: Path):
    out = scratch / f"rings-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    argv = [
        "run", "--preset", "test3",
        "--set", "time.dt=0.01",
        "--set", f"time.t_final={steps * 0.01!r}",
        "--set", f"output.snapshot_every={SNAPSHOT_EVERY}",
        "--set", "output.format=csv+vtk",
        "--set", f"ic.seed={seed}",
        "--output-dir", str(out),
    ]
    original = simmod.run

    def probed_run(config, solver=None, observer=None):
        # the CLI's own run, with the tallying solver and the step clock
        trial.mesh = config.mesh
        result = original(config, solver=TallySolver(trial.reports), observer=trial.observe)
        trial.diagnostics = result[1]
        return result

    def cut_before(write):
        def cut_write(*args, **kwargs):
            trial.cut()
            return write(*args, **kwargs)
        return cut_write

    patched = [(simmod, "run", probed_run)]
    if trial.probed:
        patched += [
            (owner, name, cut_before(getattr(owner, name)))
            for owner, name in WRITERS
        ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patched]
    for owner, name, replacement in patched:
        setattr(owner, name, replacement)
    try:
        trial.begin()
        code = climod.main(argv)
        trial.finish()
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
    try:
        if code != 0:
            trial.failures.append(f"chemofv run exited with {code}")
        trial.files = sorted(p.name for p in out.iterdir())
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_trial(trial: Trial, workload: Workload) -> list[str]:
    """Correctness gate of one finished trial; returns what failed."""
    failures = []
    if len(trial.ticks) != trial.steps:
        failures.append(f"{len(trial.ticks)} of {trial.steps} steps observed")
        return failures
    bad = [r for r in trial.reports if not r.residual <= trial.tol]
    if bad:
        failures.append(f"{len(bad)} solves above tolerance {trial.tol:g}, e.g. {bad[0]}")
    if len(trial.reports) != 2 * trial.steps:
        failures.append(f"{len(trial.reports)} solves for {trial.steps} steps")
    u, c = trial.final.u, trial.final.c
    for name, values in (("u", u), ("c", c)):
        floor = -1e-12 * max(float(values.max()), 0.0)
        if not float(values.min()) >= floor:
            failures.append(f"final {name} negative: min {float(values.min()):.3e}")
    if workload.conserves_mass:
        mass0 = trial.diagnostics.records[0].mass
        mass = float(trial.mesh.cell_measures @ u)
        if not abs(mass - mass0) <= 1e-10 * abs(mass0):
            failures.append(f"mass drifted {mass0!r} -> {mass!r}")
    if workload.c_bounded and not float(c.max()) <= 2.0 + 1e-12:
        failures.append(f"max c {float(c.max())!r} above 2")
    if workload.build is None:
        want = expected_files(trial.steps)
        if set(trial.files) != want:
            failures.append(
                f"output files differ: missing {sorted(want - set(trial.files))}, "
                f"extra {sorted(set(trial.files) - want)}"
            )
    return failures


def fingerprint(state) -> dict:
    """Sum, sum of squares, min, max and band means of u and c."""
    out = {"step": int(state.step_index)}
    for name in ("u", "c"):
        v = getattr(state, name)
        bands = [float(b.mean()) for b in np.array_split(v, FINGERPRINT_BANDS)]
        out[name] = [float(v.sum()), float(v @ v), float(v.min()), float(v.max())] + bands
    return out


def check_fingerprint(workload: Workload, state, recorded: dict) -> list[str]:
    """Compare the fingerprinted state of a default-seed trial with the
    recorded fingerprint."""
    want = recorded[workload.name]
    if state is None or state.step_index != want["step"]:
        return [f"no state at the fingerprint step {want['step']}"]
    got = fingerprint(state)
    failures = []
    for name in ("u", "c"):
        rms = (want[name][1] / getattr(state, name).size) ** 0.5
        for i, (g, w) in enumerate(zip(got[name], want[name])):
            if not abs(g - w) <= FINGERPRINT_RTOL * max(abs(w), rms):
                failures.append(f"fingerprint {name}[{i}] = {g!r}, recorded {w!r}")
    return failures


def record_fingerprints(scratch: Path) -> dict:
    recorded = {}
    for workload in WORKLOADS.values():
        trial = run_trial(workload, DEFAULT_SEED, workload.steps, scratch)
        if trial.failures:
            raise SystemExit(f"{workload.name}: {trial.failures}")
        recorded[workload.name] = fingerprint(trial.kept)
    return recorded


if __name__ == "__main__":
    scratch = Path(__file__).resolve().parent / "_out"
    scratch.mkdir(exist_ok=True)
    FINGERPRINTS.write_text(json.dumps(record_fingerprints(scratch), indent=1) + "\n")
    print(f"wrote {FINGERPRINTS}")
