"""Outside-in tracing of chemofv: spans around calls into each module layer.

The tracer replaces public entry points with wrappers that record a span
(name, start, end, parent) per call, and puts every original back on
``restore``. Spans stay in memory; the benchmark writes them out when a run
ends. Names are ``<layer>.<what>``; spans named ``trace.*`` are the tracer's
own work (reading LU fill, sizing written files) and are subtracted from
every span that contains them.
"""

from __future__ import annotations

import functools
import os
import time

# Span record fields; records are lists so that ``end`` and ``tag`` can be
# filled in when the call returns.
NAME, START, END, PARENT, TAG = range(5)
HOOK_PREFIX = "trace."


class Tracer:
    """Span recorder that wraps attributes of modules and classes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(tracer, span_index, args, result)`` runs once the span is
        closed, inside a ``trace.hook`` span.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                hook = tracer.open(HOOK_PREFIX + "hook")
                try:
                    after(tracer, index, args, result)
                finally:
                    tracer.close(hook)
            return result

        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _tag_solve(tracer, index, args, result):
    tracer.spans[index][TAG] = result[1].method


def _tag_fill(tracer, index, args, result):
    tracer.spans[index][TAG] = int(result.L.nnz + result.U.nnz)


def _tag_bytes(tracer, index, args, result):
    tracer.spans[index][TAG] = os.path.getsize(args[0])


def trace_chemofv(tracer: Tracer) -> None:
    """Wrap the chemofv entry points each per-layer metric is read from.

    Every owner is the namespace the caller looks the name up in at call
    time: ``sim.run`` calls ``step`` and the diagnostics through the sim
    module, ``scheme.step`` calls the assemblies through the scheme module,
    ``LinearSolver.solve`` calls ``spmv`` and ``check_m_matrix_pattern``
    through the linalg module and ``splu`` through ``scipy.sparse.linalg``,
    and ``cli`` calls config, sim and output through their modules.
    """
    import scipy.sparse.linalg as spla

    from chemofv import cli, config, linalg, mesh, output, scheme, sim

    wrap = tracer.wrap
    wrap(mesh.Mesh, "__init__", "mesh.build")
    wrap(mesh.Mesh, "adjacency_csr", "mesh.pattern")
    wrap(sim, "make_initial_state", "model.initial_state")
    wrap(sim, "run", "sim.run")
    for name in ("discrete_norm", "discrete_h1_seminorm", "gradient_energy"):
        wrap(sim, name, "sim.diagnostics")
    wrap(sim, "step", "scheme.step")
    wrap(scheme, "assemble_chem_system", "scheme.assemble_chem")
    wrap(scheme, "assemble_cell_system", "scheme.assemble_cell")
    wrap(scheme, "check_m_matrix_pattern", "linalg.structure")
    wrap(linalg, "check_m_matrix_pattern", "linalg.structure")
    wrap(linalg.LinearSolver, "solve", "linalg.solve", after=_tag_solve)
    wrap(linalg, "spmv", "linalg.residual_check")
    wrap(linalg.SparseMatrix, "__init__", "linalg.matrix_build")
    wrap(linalg.SparseMatrix, "content_digest", "linalg.digest")
    wrap(spla, "splu", "linalg.lu_factor", after=_tag_fill)
    wrap(output, "write_snapshot_csv", "output.snapshot_csv", after=_tag_bytes)
    wrap(output, "write_vtk_structured_points", "output.vtk", after=_tag_bytes)
    wrap(output, "write_diagnostics_csv", "output.diagnostics_csv", after=_tag_bytes)
    wrap(config, "resolve", "config.resolve")
    wrap(config, "write_manifest", "config.manifest")
    wrap(cli, "main", "cli.main")


def _overlap(start, end, window):
    if window is None:
        return end - start
    return max(0.0, min(end, window[1]) - max(start, window[0]))


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_times(spans, window=None) -> tuple[list[float], list[float]]:
    """Inclusive and self seconds of each span, clipped to ``window``.

    Inclusive time is the span's length minus the ``trace.*`` spans inside
    it. Self time is the span's length minus the part of it its direct
    child spans cover. ``window`` is a (start, end) pair or None.
    """
    n = len(spans)
    inclusive = [_overlap(s[START], s[END], window) for s in spans]
    children: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            lo, hi = s[START], s[END]
            if window is not None:
                lo, hi = max(lo, window[0]), min(hi, window[1])
            if hi > lo:
                children[parent].append((lo, hi))
    self_time = [inclusive[i] - _union_length(children[i]) for i in range(n)]
    for i, s in enumerate(spans):
        if s[NAME].startswith(HOOK_PREFIX):
            hook = inclusive[i]
            parent = s[PARENT]
            while parent >= 0:
                inclusive[parent] -= hook
                parent = spans[parent][PARENT]
    return inclusive, self_time
