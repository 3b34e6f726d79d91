"""Self-tests of the benchmark: statistics, span arithmetic, wrapper
restoration, the correctness gate, and a short run of every workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from chemofv import SolveReport, State  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 90) == 10


def test_samples_beyond_percentile():
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9  # too few for a p90 with ten beyond
    assert run.samples_beyond(1192, 90) == 119
    assert run.samples_beyond(1, 90) == 0
    for n in (100, 117, 1000):
        beyond = run.samples_beyond(n, 90)
        values = list(range(n))
        p90 = run.percentile(values, 90)
        assert sum(v > p90 for v in values) == beyond >= 10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    root = t.open("root")          # 0 .. 10
    clock.now = 1.0
    a = t.open("a")                # 1 .. 4
    clock.now = 2.0
    a1 = t.open("a1")              # 2 .. 3, grandchild of root
    clock.now = 3.0
    t.close(a1)
    clock.now = 4.0
    t.close(a)
    clock.now = 6.0
    b = t.open("b")                # 6 .. 9
    clock.now = 9.0
    t.close(b)
    clock.now = 10.0
    t.close(root)

    incl, own = tracer.span_times(t.spans)
    assert incl == [10.0, 3.0, 1.0, 3.0]
    assert own == [4.0, 2.0, 1.0, 3.0]
    assert [s[tracer.PARENT] for s in t.spans] == [-1, 0, 1, 0]

    # clipped to a window, children outside it no longer count
    incl_w, own_w = tracer.span_times(t.spans, (3.5, 7.0))
    assert incl_w == [3.5, 0.5, 0.0, 1.0]
    assert own_w == [2.0, 0.5, 0.0, 1.0]


def test_hook_time_leaves_every_enclosing_span():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def work():
        clock.now += 2.0
        return "value"

    def slow_hook(tr, index, args, result):
        clock.now += 5.0
        tr.spans[index][tracer.TAG] = result

    class Owner:
        pass

    Owner.work = staticmethod(work)
    t.wrap(Owner, "work", "layer.work", after=slow_hook)
    outer = t.open("outer")
    assert Owner.work() == "value"
    clock.now += 1.0
    t.close(outer)
    t.restore()

    names = [s[tracer.NAME] for s in t.spans]
    assert names == ["outer", "layer.work", "trace.hook"]
    incl, own = tracer.span_times(t.spans)
    assert incl[0] == 3.0 and own[0] == 1.0  # 8 s long, 5 of them hook
    assert incl[1] == 2.0 and t.spans[1][tracer.TAG] == "value"


def _wrapped_attributes():
    probe = tracer.Tracer()
    tracer.trace_chemofv(probe)
    saved = [(owner, attr) for owner, attr, _, _ in probe._saved]
    probe.restore()
    return {(owner, attr): vars(owner).get(attr) for owner, attr in saved}


def test_wrappers_restored_after_traced_run():
    before = _wrapped_attributes()
    assert len(before) >= 20
    result, _, spans = run.measure("desk-strict", 1, 0.0, True, steps=3)
    assert result["correct"] and spans
    for (owner, attr), original in before.items():
        assert vars(owner).get(attr) is original, f"{owner}.{attr} left wrapped"


def test_restore_removes_wrapper_of_inherited_attribute():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    t = tracer.Tracer()
    t.wrap(Child, "f", "x.f")
    assert "f" in vars(Child) and Child().f() == 1
    t.restore()
    assert "f" not in vars(Child)


def test_segments_leave_out_probes_and_scale_by_sensitivity():
    ref = workloads.PROBE_REFERENCE_S
    trial = workloads.Trial(steps=2, probed=True, sensitivity=0.5)
    trial.start, trial.end = 0.0, 10.0
    trial.cuts = [2.0, 5.0, 8.0]      # set-up ends, step ends, a tail cut
    trial.resumes = [3.0, 6.0, 8.5]   # each after a probe
    trial.ticks = trial.cuts[:2]
    trial.probes = [ref, ref, 4 * ref, 4 * ref, ref]
    walls = [w for w, _ in trial.segments()]
    assert walls == [2.0, 2.0, 2.0, 1.5]
    scaled = [n for _, n in trial.segments()]
    # probes 2.5x and 4x slower than the reference, square-rooted
    assert scaled == pytest.approx([2.0, 2.0 / 2.5 ** 0.5, 2.0 / 2.0, 1.5 / 2.5 ** 0.5])
    unprobed = workloads.Trial(steps=2)
    unprobed.start, unprobed.end = 0.0, 4.0
    unprobed.cuts = unprobed.resumes = [1.0, 3.0]
    assert unprobed.segments() == [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0)]


def _trial_with(u, c, residual=1e-14):
    mesh = workloads.build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
    trial = workloads.Trial(steps=1)
    trial.ticks = [0.0]
    trial.mesh = mesh
    trial.final = State(u=np.asarray(u, float), c=np.asarray(c, float),
                        u_prev=np.asarray(u, float))
    mass0 = float(mesh.cell_measures @ np.ones(4))
    trial.diagnostics = SimpleNamespace(records=[SimpleNamespace(mass=mass0)])
    trial.reports = [SolveReport(3, residual, "jacobi-bicgstab")] * 2
    return trial


def test_correctness_gate_flags_bad_trials():
    w = workloads.WORKLOADS["stripe-elliptic"]
    assert workloads.check_trial(_trial_with([1, 1, 1, 1], [1, 1, 1, 1]), w) == []
    assert workloads.check_trial(_trial_with([1, 1, 1, 1], [1, 1, 1, 1], 1e-9), w)
    assert workloads.check_trial(_trial_with([1, -1e-3, 1, 1], [1, 1, 1, 1]), w)
    assert workloads.check_trial(_trial_with([1, 1, 1, 1.1], [1, 1, 1, 1]), w)  # mass
    assert workloads.check_trial(_trial_with([1, 1, 1, 1], [1, 2.5, 1, 1]), w)
    mismatch = _trial_with([1, 1, 1, 1], [1, 1, 1, 1])
    mismatch.ticks = []  # no step observed
    assert workloads.check_trial(mismatch, w)


def test_fingerprint_tolerates_roundoff_and_flags_changes():
    w = workloads.WORKLOADS["desk-strict"]
    rng = np.random.default_rng(0)
    u = 1.0 + rng.random(2304)
    c = rng.random(2304)
    state = State(u=u, c=c, u_prev=u, step_index=500)
    recorded = {w.name: workloads.fingerprint(state)}
    near = State(u=u * (1 + 1e-9), c=c, u_prev=u, step_index=500)
    assert workloads.check_fingerprint(w, near, recorded) == []
    bumped = u.copy()
    bumped[:48] += 1e-3  # one mesh row
    far = State(u=bumped, c=c, u_prev=bumped, step_index=500)
    assert workloads.check_fingerprint(w, far, recorded)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_prints_every_metric(name, trace):
    result, lines, _ = run.measure(name, 3, 0.0, trace, steps=4)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    printed = "\n".join(lines)
    for m in listed:
        assert f" {m['name']} " in printed
    assert "failed_frac" in printed
    if trace:
        assert result["metrics"]["linalg.residual_max"]["value"] <= 1e-12


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-strict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
