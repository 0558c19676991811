"""Spans around calls into percolab, recorded from outside the package.

``install`` replaces public names that the package calls between its
layers (``Simulation`` methods, ``processes.add_edge``,
``harness.find_tc`` ...) with wrappers that record a span: name, start,
end, parent and a few attributes. Spans live in memory and are written
as JSON when the traced round ends.

Two functions are called far too often for one span per call
(``add_edge`` on every attempt, ``deriv_transformed`` on every ODE step).
They are "hot": each thread sums their call count and time, and the
time is also charged to the enclosing span, so self times stay right.

Worker threads of the harness pool start with an empty span stack; their
top-level spans take the main thread's innermost open span as parent.
"""
from __future__ import annotations

import itertools
import threading
import weakref
from contextlib import contextmanager
from time import perf_counter

HOT = ("ledger.add_edge", "ode.deriv_transformed")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.sims: list[dict] = []  # one record per Simulation constructed
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._hot_tables: list[dict] = []  # one per thread, merged at the end

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hot_table(self) -> dict:
        table = getattr(self._local, "hot", None)
        if table is None:
            table = self._local.hot = {name: [0, 0.0] for name in HOT}
            self._hot_tables.append(table)
        return table

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif self._main_stack:
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        rec = {"id": next(self._ids), "name": name, "parent": parent,
               "thread": threading.get_ident(), "hot": 0.0, **attrs}
        stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            self.spans.append(rec)

    def hot(self, name: str, fn):
        table_of = self._hot_table
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc = table_of()[name]
                acc[0] += 1
                acc[1] += dt
                stack = stack_of()
                if stack:
                    stack[-1]["hot"] += dt

        return wrapper

    def spanned(self, name: str, fn, result_attrs=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if result_attrs is not None:
                rec.update(result_attrs(result))
            return result

        return wrapper

    def hot_totals(self) -> dict[str, list]:
        totals = {name: [0, 0.0] for name in HOT}
        for table in self._hot_tables:
            for name, (calls, secs) in table.items():
                totals[name][0] += calls
                totals[name][1] += secs
        return totals


def install_counter(processes, sink: list) -> None:
    """Untraced rounds: only count attempted insertions, no timing."""
    sim = processes.Simulation
    advance_to, add_er_edges = sim.advance_to, sim.add_er_edges

    def counted_advance_to(self, m_target):
        m0 = self.m
        advance_to(self, m_target)
        sink.append(self.m - m0)

    def counted_add_er_edges(self, count):
        e0 = self.extra_attempts
        add_er_edges(self, count)
        sink.append(self.extra_attempts - e0)

    sim.advance_to = counted_advance_to
    sim.add_er_edges = counted_add_er_edges


def install(tracer: Tracer, processes, harness, ode) -> None:
    """Wrap the names each layer calls; see the module docstring."""
    sim_cls = processes.Simulation
    init, advance_to = sim_cls.__init__, sim_cls.advance_to
    add_er_edges, snapshot = sim_cls.add_er_edges, sim_cls.snapshot
    sim_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def traced_init(self, *args, **kwargs):
        with tracer.span("processes.init"):
            init(self, *args, **kwargs)
        sim_ids[self] = len(tracer.sims)
        tracer.sims.append({"seed": self.seed, "rule": self.kind.value, "n": self.n,
                            "initial": self.initial.format()})

    def traced_advance_to(self, m_target):
        m0 = self.m
        with tracer.span("processes.advance_to", rule=self.kind.value,
                         sim=sim_ids.get(self)) as rec:
            advance_to(self, m_target)
        rec["attempts"] = self.m - m0

    def traced_add_er_edges(self, count):
        e0 = self.extra_attempts
        with tracer.span("processes.add_er_edges", sim=sim_ids.get(self)) as rec:
            add_er_edges(self, count)
        rec["attempts"] = self.extra_attempts - e0

    def traced_snapshot(self):
        with tracer.span("processes.snapshot") as rec:
            snap = snapshot(self)
        rec.update(sim=sim_ids.get(self), m=snap.m, extra=self.extra_attempts,
                   components=snap.dist.n_components)
        return snap

    sim_cls.__init__ = traced_init
    sim_cls.advance_to = traced_advance_to
    sim_cls.add_er_edges = traced_add_er_edges
    sim_cls.snapshot = traced_snapshot
    processes.add_edge = tracer.hot("ledger.add_edge", processes.add_edge)
    processes.snapshot_distribution = tracer.spanned(
        "ledger.snapshot_distribution", processes.snapshot_distribution)
    ode.deriv_transformed = tracer.hot("ode.deriv_transformed", ode.deriv_transformed)
    harness.find_tc = tracer.spanned("ode.find_tc", harness.find_tc)
    harness.critical_trajectory = tracer.spanned(
        "ode.critical_trajectory", harness.critical_trajectory)
    harness.solve_rho = tracer.spanned(
        "giant.solve_rho", harness.solve_rho, lambda r: {"iterations": r.iterations})
    harness.run_process = tracer.spanned("processes.run_process", harness.run_process)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may run in other threads and overlap, so their intervals are
    merged before subtracting; hot time charged to the span is disjoint
    from its same-thread child spans and is subtracted as a sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = max(0.0, s["end"] - s["start"] - covered - s["hot"])
    return out
