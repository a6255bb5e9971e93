"""Per-layer spans for the traced run, installed from outside the program.

Each span wraps a name through which one layer calls the next (for
example ``homology`` and ``product`` as ``obstruction`` sees them) and
records its duration on the calling thread's CPU clock.  Spans nest per
thread, so a span's self time is its duration minus that of the spans
opened inside it on the same thread.  The CPU clock keeps the obstruct
batch's pool threads, which take turns on the interpreter lock, from
counting the same wall-clock interval twice; the self times of all spans
then add up to the CPU time the process spent inside the traced calls.

``install`` patches module attributes and class attributes and returns a
callable that restores every original, so untraced passes run the
program exactly as shipped.
"""

import dataclasses
import statistics
import threading
import time
from collections import defaultdict

GATE = "bundlesim.gate"
FIELD = "bundlesim.field"


class _ThreadState:
    def __init__(self):
        self.stack = []  # [metric, time spent in child spans]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)


class Tracer:
    """Span accumulators, kept per thread and merged at the end."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, metric, fn, count=None, record=False):
        """``fn`` inside a span.  ``metric`` may be a function of the
        enclosing span's metric (None at the root); ``count(counts, metric,
        args, result)`` records counters at the same boundary; ``record``
        keeps every inclusive duration, for percentiles."""
        clock = time.thread_time
        pick = metric if callable(metric) else None

        def span(*args, **kwargs):
            st = self._state()
            name = pick(st.stack[-1][0] if st.stack else None) if pick else metric
            frame = [name, 0.0]
            st.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][1] += total
                st.self_s[name] += total - frame[1]
                if record:
                    st.durations[name].append(total)
            if count is not None:
                count(st.counts, name, args, result)
            return result

        return span

    def totals(self):
        """(self seconds, counts, durations) merged over threads, and the
        number of threads that opened spans."""
        self_s, counts, durations = defaultdict(float), defaultdict(int), defaultdict(list)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.counts.items():
                counts[k] += v
            for k, v in st.durations.items():
                durations[k].extend(v)
        return self_s, counts, durations, len(threads)


# ---------------------------------------------------------------------------
# counters recorded at the span boundaries
# ---------------------------------------------------------------------------


def _count_calls(key):
    def count(counts, _name, _args, _result):
        counts[key] += 1

    return count


def _count_facets(counts, _name, _args, result):
    counts["complexes.facets_built"] += len(getattr(result, "facets", ()))


def _count_simplices(counts, _name, _args, result):
    counts["complexes.simplices"] += result[1]


def _count_sparse(counts, _name, args, result):
    counts["exactalg.nnz"] += len(args[2])
    counts["exactalg.unit_pivots"] += len(result) - counts.pop("_core_rank", 0)


def _count_dense(counts, name, args, result):
    matrix = args[0]
    if name == "exactalg.dense_core":
        counts["exactalg.dense_core_cells"] += matrix.rows * matrix.cols
        counts["_core_rank"] = len(result.factors)
    else:
        counts["exactalg.nnz"] += sum(1 for v in matrix.entries if v)


def _count_lanes(counts, name, args, _result):
    if name == FIELD:
        counts["bundlesim.field_calls"] += 1
        counts["bundlesim.field_lanes"] += getattr(args[0], "size", 1)


def _field_metric(parent):
    return GATE if parent == GATE else FIELD


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def install(tracer, fib):
    """Wrap the layer boundaries of the imported package ``fib``; returns
    a function that puts every original back."""
    cli, obstruction, sequences = fib.cli, fib.obstruction, fib.sequences
    homology, exactalg, complexes, bundlesim = (
        fib.homology, fib.exactalg, fib.complexes, fib.bundlesim
    )
    undo = []

    def patch(owner, name, metric, **kw):
        raw = vars(owner)[name]
        undo.append((owner, name, raw))
        setattr(owner, name, tracer.wrap(metric, getattr(owner, name), **kw))

    build = dict(count=_count_facets)
    # cli -> obstruction / sequences / complexes
    patch(cli, "evaluate", "obstruction", count=_count_calls("obstruction.queries"), record=True)
    patch(cli, "kunneth_check", "sequences")
    patch(cli, "pair_les_check", "sequences")
    patch(cli, "SimplicialPair", "complexes.build")
    patch(complexes.SimplicialComplex, "from_json_dict", "complexes.build", **build)
    # obstruction -> complexes / homology
    patch(obstruction, "product", "complexes.build", **build)
    patch(obstruction, "puncture", "complexes.build", **build)
    patch(obstruction, "homology", "homology", count=_count_calls("homology.calls"))
    patch(obstruction, "is_connected", "homology")
    # sequences -> complexes / homology
    patch(sequences, "product", "complexes.build", **build)
    patch(sequences, "boundary_columns", "complexes.boundary", count=_count_simplices)
    patch(sequences, "homology", "homology", count=_count_calls("homology.calls"))
    patch(sequences, "relative_boundary_columns", "homology")
    patch(sequences, "HomologyBasis", "homology")
    patch(homology.HomologyBasis, "express", "homology")
    # homology -> complexes / exactalg
    patch(homology, "boundary_columns", "complexes.boundary", count=_count_simplices)
    patch(homology, "invariant_factors_sparse", "exactalg.sparse", count=_count_sparse)
    patch(homology, "smith_normal_form", "exactalg.dense", count=_count_dense)
    patch(exactalg, "smith_normal_form", "exactalg.dense_core", count=_count_dense)
    # bundlesim: the integrators, the compatibility gate and the fields
    patch(bundlesim, "basin", "bundlesim.integrator")
    patch(bundlesim, "flow_retraction", "bundlesim.integrator")
    patch(bundlesim, "check_compatibility", GATE)

    def wrap_fields(system):
        plant = tracer.wrap(_field_metric, system.plant, count=_count_lanes)
        ctrl_a = tracer.wrap(_field_metric, system.controller_a)
        # a shared controller stays one object, so the integrator keeps
        # taking its single-controller path
        ctrl_b = (
            ctrl_a
            if system.controller_b is system.controller_a
            else tracer.wrap(_field_metric, system.controller_b)
        )
        return dataclasses.replace(
            system, plant=plant, controller_a=ctrl_a, controller_b=ctrl_b
        )

    from_spec = bundlesim.system_from_spec
    undo.append((bundlesim, "system_from_spec", from_spec))
    bundlesim.system_from_spec = lambda spec: wrap_fields(from_spec(spec))

    def restore():
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return restore


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass."""
    self_s, counts, durations, threads = tracer.totals()
    queries = sorted(durations.get("obstruction", []))
    n = len(queries)
    field_calls = counts["bundlesim.field_calls"]
    lanes = counts["bundlesim.field_lanes"]
    return {
        "cli.self_s": self_s["cli"],
        "obstruction.self_s": self_s["obstruction"],
        "obstruction.queries": counts["obstruction.queries"],
        "obstruction.query_p50_s": statistics.median(queries) if n else 0.0,
        # highest order statistic with at least ten queries beyond it
        "obstruction.query_tail_s": queries[n - 11] if n >= 11 else 0.0,
        "complexes.build_s": self_s["complexes.build"],
        "complexes.boundary_s": self_s["complexes.boundary"],
        "complexes.simplices": counts["complexes.simplices"],
        "complexes.facets_built": counts["complexes.facets_built"],
        "homology.self_s": self_s["homology"],
        "homology.calls": counts["homology.calls"],
        "exactalg.sparse_snf_s": self_s["exactalg.sparse"],
        "exactalg.dense_snf_s": self_s["exactalg.dense"] + self_s["exactalg.dense_core"],
        "exactalg.nnz": counts["exactalg.nnz"],
        "exactalg.unit_pivots": counts["exactalg.unit_pivots"],
        "exactalg.dense_core_cells": counts["exactalg.dense_core_cells"],
        "sequences.self_s": self_s["sequences"],
        "bundlesim.gate_s": self_s[GATE],
        "bundlesim.field_s": self_s[FIELD],
        "bundlesim.field_calls": field_calls,
        "bundlesim.field_ns_per_lane": 1e9 * self_s[FIELD] / lanes if lanes else 0.0,
        "bundlesim.integrator_self_s": self_s["bundlesim.integrator"],
        "bundlesim.rk4_steps": field_calls // 4,
        "trace.attributed_s": sum(self_s.values()),
        "trace.threads": threads,
    }


UNITS = {name: ("ns" if name.endswith("_ns_per_lane") else "s" if name.endswith("_s") else "count")
         for name in (
             "cli.self_s", "obstruction.self_s", "obstruction.queries", "obstruction.query_p50_s",
             "obstruction.query_tail_s", "complexes.build_s", "complexes.boundary_s",
             "complexes.simplices", "complexes.facets_built", "homology.self_s", "homology.calls",
             "exactalg.sparse_snf_s", "exactalg.dense_snf_s", "exactalg.nnz", "exactalg.unit_pivots",
             "exactalg.dense_core_cells", "sequences.self_s", "bundlesim.gate_s", "bundlesim.field_s",
             "bundlesim.field_calls", "bundlesim.field_ns_per_lane", "bundlesim.integrator_self_s",
             "bundlesim.rk4_steps", "trace.attributed_s", "trace.threads", "trace.pass_s",
             "trace.pass_cpu_s", "trace.overhead_s")}
