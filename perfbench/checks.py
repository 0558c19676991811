"""Output checks made apart from percolab.

Nothing here imports percolab. The checks rebuild what the program should
have written from the documented contracts:

* the proposal stream: replicate seed ``s`` draws from
  ``numpy.random.default_rng(s)`` in chunks of ``CHUNK`` rows of 4 (two-choice
  rules) or 2 (uniform rules) vertices; a switch of row width discards the
  rows still buffered; uniform rules skip loops without counting them,
  two-choice rules count them (the workloads keep ``loops = true``); ``er``
  skips every edge already present, the initial path edges included, so it
  keeps first occurrences; Poisson edge counts are drawn from the same
  generator between chunks, when the schedule asks for them;
* the replicate seed scheme of the README: replicate ``i`` of grid point
  ``j`` uses ``seed ^ (j * R + i)``;
* the bounded-size limit equations, integrated here with ``solve_ivp``;
* the survival equation ``rho = 1 - sum_k w_k exp(-rho t k)``, solved here
  by bisection.

Replayed graphs are rebuilt with ``scipy.sparse.csgraph`` (``product`` uses
the small union-find below) and compared with the written values to their
printed precision. Each failed check is charged to the operation whose
output it read.
"""
from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

CHUNK = 1 << 18
PUBLISHED_TC = 1.1763  # four decimals, as published
PRED_REL = 1e-7  # limit-equation predictions: two integrators, same system
# A single run's s2 against the uniform-edge closed form 1/(1-t). Over 1000
# er-wr seeds at n = 2e5 the relative deviation had sd 0.45% and at most
# 1.5% at t = 0.5, but sd 8.4% and up to +49% at t = 0.9, where one large
# component of size k adds k^2/n. So the value is checked, with a band of
# 10%, only up to t = 0.5; the prediction column is checked at every t.
S2_CLOSED_FORM_REL = 0.1
S2_CLOSED_FORM_T_MAX = 0.5


class Report:
    """Counts checks and keeps the failures per operation."""

    def __init__(self):
        self.count = 0
        self.failures: dict[str, list[str]] = defaultdict(list)

    def check(self, op: str, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures[op].append(what)

    def same_print(self, op: str, written: str, value: float, what: str) -> None:
        self.check(op, written == format(value, ".10g"),
                   f"{what}: written {written}, replayed {value!r}")

    def close(self, op: str, written: float, expected: float, rel: float, what: str) -> None:
        ok = abs(written - expected) <= rel * max(abs(expected), 1e-300)
        self.check(op, ok, f"{what}: written {written!r}, expected {expected!r}")


# -- proposal stream replay -------------------------------------------------


class Stream:
    def __init__(self, seed: int, n: int):
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.buf = None
        self.pos = 0
        self.seen = None  # sorted keys u*n+v (u < v) of present edges, for er

    def rows(self, cols: int) -> np.ndarray:
        if self.buf is None or self.pos >= len(self.buf) or self.buf.shape[1] != cols:
            self.buf = self.rng.integers(0, self.n, size=(CHUNK, cols), dtype=np.int64)
            self.pos = 0
        return self.buf[self.pos:]

    def poisson(self, t: float) -> int:
        return int(self.rng.poisson((self.n - 1) * t / 2))


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, u: int, v: int) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]

    def sizes(self) -> list[int]:
        return [self.size[v] for v, p in enumerate(self.parent) if v == p]


def path_edges(initial: str) -> list[tuple[int, int]]:
    """Initial components as paths on consecutive vertex blocks."""
    edges, offset = [], 0
    for item in filter(None, initial.split(",")):
        size, count = (int(x) for x in item.split(":"))
        for _ in range(count):
            edges.extend((v, v + 1) for v in range(offset, offset + size - 1))
            offset += size
    return edges


def graph_stats(sizes, n: int) -> dict:
    """Exact power sums and extremes of a component-size list."""
    vals, counts = np.unique(np.asarray(sizes, dtype=np.int64), return_counts=True)
    vals, counts = [int(v) for v in vals], [int(c) for c in counts]
    s = [sum(v**k * c for v, c in zip(vals, counts)) for k in (1, 2, 3, 4)]
    c1 = vals[-1]
    c2 = c1 if counts[-1] > 1 else (vals[-2] if len(vals) > 1 else 0)
    n1 = counts[0] if vals[0] == 1 else 0
    return {"S1": s[0], "s2": s[1] / n, "s3": s[2] / n, "s4": s[3] / n,
            "c1": c1, "c2": c2, "n1": n1,
            "c1_frac": c1 / n, "c2_frac": c2 / n, "x1": n1 / n}


class Replay:
    """One simulated graph, rebuilt from the stream contract."""

    def __init__(self, rule: str, n: int, seed: int, initial: str = ""):
        self.rule, self.n, self.m = rule, n, 0
        self.stream = Stream(seed, n)
        edges = path_edges(initial)
        self.eu = [u for u, _ in edges]
        self.ev = [v for _, v in edges]
        if rule == "product":
            self.uf = UnionFind(n)
            for u, v in edges:
                self.uf.union(u, v)
        if rule == "bf":
            self.iso = bytearray(b"\x01") * n
            for u, v in edges:
                self.iso[u] = self.iso[v] = 0
        if rule == "er":
            self.stream.seen = np.sort(np.array([u * n + v for u, v in edges], dtype=np.int64))

    def advance_to(self, m_target: int) -> None:
        need = m_target - self.m
        if self.rule == "bf":
            self._bf(need)
        elif self.rule == "product":
            self._product(need)
        else:
            self._uniform(need, dedupe=self.rule == "er")
        self.m = m_target

    def add_er_edges(self, count: int) -> None:
        """Continuation with uniform with-replacement edges."""
        self._uniform(count, dedupe=False)

    def _uniform(self, need: int, dedupe: bool) -> None:
        stream, n = self.stream, self.n
        while need > 0:
            rows = stream.rows(2)
            u, v = rows[:, 0], rows[:, 1]
            ok = u != v
            if dedupe:
                keys = np.minimum(u, v) * n + np.maximum(u, v)
                ok &= ~np.isin(keys, stream.seen)
                cand = np.flatnonzero(ok)
                _, first = np.unique(keys[cand], return_index=True)
                ok = np.zeros(len(rows), dtype=bool)
                ok[cand[first]] = True
            idx = np.flatnonzero(ok)[:need]
            stream.pos += int(idx[-1]) + 1 if len(idx) == need else len(rows)
            if dedupe:
                stream.seen = np.sort(np.concatenate([stream.seen, keys[idx]]))
            self.eu.extend(u[idx].tolist())
            self.ev.extend(v[idx].tolist())
            need -= len(idx)

    def _bf(self, need: int) -> None:
        stream, iso, eu, ev = self.stream, self.iso, self.eu, self.ev
        while need > 0:
            rows = stream.rows(4)
            k = min(need, len(rows))
            for v1, w1, v2, w2 in rows[:k].tolist():
                u, v = (v1, w1) if iso[v1] and iso[w1] else (v2, w2)
                if u != v:
                    iso[u] = iso[v] = 0
                    eu.append(u)
                    ev.append(v)
            stream.pos += k
            need -= k

    def _product(self, need: int) -> None:
        stream, uf = self.stream, self.uf
        find, size = uf.find, uf.size
        while need > 0:
            rows = stream.rows(4)
            k = min(need, len(rows))
            for v1, w1, v2, w2 in rows[:k].tolist():
                p1 = size[find(v1)] * size[find(w1)]
                p2 = size[find(v2)] * size[find(w2)]
                if p1 >= p2:
                    uf.union(v1, w1)
                else:
                    uf.union(v2, w2)
            stream.pos += k
            need -= k

    def stats(self) -> dict:
        if self.rule == "product":
            sizes = self.uf.sizes()
        else:
            g = coo_matrix((np.ones(len(self.eu), dtype=np.int32), (self.eu, self.ev)),
                           shape=(self.n, self.n)).tocsr()
            _, labels = connected_components(g, directed=False)
            sizes = np.bincount(labels)
        return dict(graph_stats(sizes, self.n), m=self.m)


def replay_schedule(rule: str, n: int, seed: int, t_end: float, record_at,
                    initial: str = "") -> list[dict]:
    """Snapshots of one run on the run_process record schedule."""
    r = Replay(rule, n, seed, initial)
    out = []
    if rule == "er-poisson":
        prev, m = 0.0, 0
        for t in record_at:
            if t > prev:
                m += r.stream.poisson(t - prev)
                prev = t
            r.advance_to(m)
            out.append(dict(r.stats(), t=t))
    else:
        m_end = math.floor(n * t_end / 2)
        for t in record_at:
            m_i = min(int(round(n * t / 2)), m_end)
            r.advance_to(m_i)
            out.append(dict(r.stats(), t=2 * m_i / n))
    return out


def replay_stop_restart(n: int, seed: int, tc: float, delta: float) -> tuple[dict, dict]:
    """Bounded-size run stopped at tc - delta^(2/3), continued with a Poisson
    number of uniform edges: (stopped snapshot, final snapshot)."""
    eps = delta ** (2.0 / 3.0)
    r = Replay("bf", n, seed)
    r.advance_to(math.floor(n * (tc - eps) / 2))
    stopped = r.stats()
    x1 = stopped["x1"]
    r.add_er_edges(r.stream.poisson((1.0 - x1 * x1) * (eps + delta)))
    return stopped, r.stats()


# -- limit equations and survival equation ------------------------------------


def _raw_rhs(t, y):
    # bounded-size limit: isolated fraction x and moments s2, s3, s4
    x, s2, s3, s4 = y
    first = x * x  # both ends of the first pair isolated
    rest = 1.0 - first
    return [-first - rest * x,
            first + rest * s2 * s2,
            3.0 * first + 3.0 * rest * s2 * s3,
            7.0 * first + rest * (4.0 * s2 * s4 + 3.0 * s3 * s3)]


def _regular_rhs(t, y):
    # the same system in f = 1/s2 and g = s3/s2^3, regular through f = 0
    x, f, g = y
    first = x * x
    return [-first - (1.0 - first) * x,
            -first * f * f - (1.0 - first),
            3.0 * first * f**3 - 3.0 * first * f * g]


class Limit:
    """Bounded-size limit system, critical time and growth constants."""

    def __init__(self):
        self.raw = solve_ivp(_raw_rhs, (0.0, 1.1), [1.0, 1.0, 1.0, 1.0], method="DOP853",
                             rtol=1e-12, atol=1e-12, dense_output=True).sol

        def f_zero(t, y):
            return y[1]

        f_zero.terminal = True
        sol = solve_ivp(_regular_rhs, (0.0, 1.4), [1.0, 1.0, 1.0], method="DOP853",
                        rtol=1e-12, atol=1e-12, dense_output=True, events=f_zero)
        self.regular = sol.sol
        self.tc = float(sol.t_events[0][0])
        x, _, g = sol.y_events[0][0]
        self.alpha = 1.0 / (1.0 - x * x)
        self.beta = float(g)
        self.gamma = 2.0 * (1.0 - x * x) / self.beta

    def moments(self, t: float) -> dict[str, float]:
        x, s2, s3, s4 = (float(v) for v in self.raw(t))
        return {"x1": x, "s2": s2, "s3": s3, "s4": s4}

    def xbar(self, t: float) -> float:
        return float(self.regular(t)[0])


def survival_root(counts: dict[int, int], t: float) -> float:
    """Largest-component fraction: root of rho = 1 - sum w_k exp(-rho t k)."""
    n = sum(k * c for k, c in counts.items())
    terms = [(k, k * c / n) for k, c in counts.items()]
    if t * sum(k * w for k, w in terms) <= 1.0:
        return 0.0

    def excess(rho):
        return 1.0 - sum(w * math.exp(-rho * t * k) for k, w in terms) - rho

    lo, hi = 1e-12, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


# -- CSV access ---------------------------------------------------------------


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def replicates(rows, observable, process=None, delta=None) -> dict[int, list[dict]]:
    """Replicate rows of one observable by run id, in file order."""
    out: dict[int, list[dict]] = defaultdict(list)
    for r in rows:
        if r["observable"] != observable or r["run_id"] == "mean":
            continue
        if process is not None and r["process"] != process:
            continue
        if delta is not None and float(r["delta"]) != delta:
            continue
        out[int(r["run_id"])].append(r)
    return out


def _check_seeds(rep, op, rows, observable, seed, offset, **where):
    for i, rs in replicates(rows, observable, **where).items():
        for r in rs:
            rep.check(op, int(r["seed"]) == seed ^ (offset + i),
                      f"{observable} run {i}: seed {r['seed']} is not {seed} ^ {offset + i}")


def _check_means(rep, op, rows):
    """Each mean row is the mean of the replicate rows it summarises."""
    groups = defaultdict(list)
    for r in rows:
        if r["run_id"] != "mean" and r["value"]:
            groups[(r["process"], r["t"], r["delta"], r["observable"])].append(float(r["value"]))
    for r in rows:
        key = (r["process"], r["t"], r["delta"], r["observable"])
        if r["run_id"] == "mean" and r["value"] and key in groups:
            vals = groups[key]
            rep.close(op, float(r["value"]), sum(vals) / len(vals), 1e-8,
                      f"mean {r['observable']} t={r['t']} delta={r['delta']}")


def _check_monotone(rep, op, values, direction, what):
    pairs = list(zip(values, values[1:]))
    ok = all(b >= a for a, b in pairs) if direction > 0 else all(b <= a for a, b in pairs)
    rep.check(op, ok, f"{what} not {'non-decreasing' if direction > 0 else 'non-increasing'}: "
                      f"{values}")


def _check_replayed(rep, op, snap, n, what):
    rep.check(op, snap["S1"] == n, f"{what}: S1 = {snap['S1']} != n = {n}")
    rep.check(op, snap["c1"] >= snap["c2"], f"{what}: c1 < c2")


# -- per-experiment checks ----------------------------------------------------


def check_constants(rep, op, cfg, rows, limit):
    val = {r["observable"]: r for r in rows}
    tc = float(val["tc"]["value"])
    rep.check(op, abs(tc - PUBLISHED_TC) <= 5e-5, f"tc {tc} is not the published {PUBLISHED_TC}")
    for name in ("tc", "alpha", "beta", "gamma"):
        rep.close(op, float(val[name]["value"]), getattr(limit, name), 1e-8, name)
    product = math.prod(float(val[k]["value"]) for k in ("gamma", "alpha", "beta"))
    rep.close(op, product, 2.0, 1e-8, "gamma*alpha*beta from the written constants")
    rep.close(op, float(val["gamma_alpha_beta"]["value"]), 2.0, 1e-9, "gamma_alpha_beta row")


def check_moments(rep, op, cfg, rows, limit):
    n = cfg["n"]
    for obs in ("x1", "s2", "s3", "s4"):
        _check_seeds(rep, op, rows, obs, cfg["seed"], 0)
    for r in rows:
        if r["prediction"]:
            pred = limit.moments(float(r["t"]))[r["observable"]]
            rep.close(op, float(r["prediction"]), pred, PRED_REL,
                      f"{r['observable']} prediction at t={r['t']}")
    x1 = replicates(rows, "x1")
    s2 = replicates(rows, "s2")
    for i in x1:
        _check_monotone(rep, op, [float(r["value"]) for r in x1[i]], -1, f"x1 run {i}")
        _check_monotone(rep, op, [float(r["value"]) for r in s2[i]], +1, f"s2 run {i}")
    t_grid = cfg["t_grid"]
    snaps = replay_schedule("bf", n, int(x1[0][0]["seed"]), t_grid[-1], t_grid)
    for snap in snaps:
        _check_replayed(rep, op, snap, n, f"moments replay t={snap['t']}")
    for obs in ("x1", "s2", "s3", "s4"):
        for snap, r in zip(snaps, replicates(rows, obs)[0]):
            rep.same_print(op, r["t"], snap["t"], f"{obs} run 0 record time")
            rep.same_print(op, r["value"], snap[obs], f"{obs} run 0 at t={r['t']}")
    _check_means(rep, op, rows)


def check_two_phase(rep, op, cfg, rows, limit):
    n, reps_ = cfg["n"], cfg["replicates"]
    for j, delta in enumerate(cfg["delta_grid"]):
        eps = delta ** (2.0 / 3.0)
        _check_seeds(rep, op, rows, "c1_frac_direct", cfg["seed"], 2 * j * reps_, delta=delta)
        _check_seeds(rep, op, rows, "x1_stopped", cfg["seed"], (2 * j + 1) * reps_, delta=delta)
        a, b, g = limit.alpha, limit.beta, limit.gamma
        preds = {
            "x1_stopped": limit.xbar(limit.tc - eps),
            "s2_stopped": a / eps,
            "s3_stopped": b * a**3 / eps**3,
            "s4_stopped": 3.0 * b * b * a**5 / eps**5,
            "s3_ratio": b,
            "s4_ratio": 3.0 * b * b,
            "c1_frac_direct": g * delta,
            "c1_frac_two_phase": g * delta,
        }
        for r in rows:
            if float(r["delta"]) == delta and r["observable"] in preds:
                rep.close(op, float(r["prediction"]), preds[r["observable"]], PRED_REL,
                          f"{r['observable']} prediction at delta={delta}")
        direct = replicates(rows, "c1_frac_direct", delta=delta)[0][0]
        t_final = limit.tc + delta
        (snap,) = replay_schedule("bf", n, int(direct["seed"]), t_final, (t_final,))
        _check_replayed(rep, op, snap, n, "direct run replay")
        rep.same_print(op, direct["value"], snap["c1_frac"], f"c1_frac_direct run 0 delta={delta}")
        seed = int(replicates(rows, "x1_stopped", delta=delta)[0][0]["seed"])
        stopped, final = replay_stop_restart(n, seed, limit.tc, delta)
        for snap_ in (stopped, final):
            _check_replayed(rep, op, snap_, n, "stop-restart replay")
        rep.check(op, final["x1"] <= stopped["x1"] and final["s2"] >= stopped["s2"],
                  "continuation raised x1 or lowered s2")
        written = {obs: replicates(rows, obs, delta=delta)[0][0]["value"]
                   for obs in ("x1_stopped", "s2_stopped", "s3_stopped", "s4_stopped",
                               "c1_frac_two_phase")}
        for obs in ("x1", "s2", "s3", "s4"):
            rep.same_print(op, written[obs + "_stopped"], stopped[obs],
                           f"{obs}_stopped run 0 delta={delta}")
        rep.same_print(op, written["c1_frac_two_phase"], final["c1_frac"],
                       f"c1_frac_two_phase run 0 delta={delta}")
    _check_means(rep, op, rows)


def check_variant_agreement(rep, op, cfg, rows, limit):
    n, reps_, t_grid = cfg["n"], cfg["replicates"], cfg["t_grid"]
    for vi, rule in enumerate(("er", "er-wr", "er-poisson")):
        _check_seeds(rep, op, rows, "s2", cfg["seed"], vi * reps_, process=rule)
        runs = replicates(rows, "s2", process=rule)
        for i, rs in runs.items():
            _check_monotone(rep, op, [float(r["value"]) for r in rs], +1, f"{rule} s2 run {i}")
            for r in rs:
                closed = 1.0 / (1.0 - float(r["t"]))
                rep.close(op, float(r["prediction"]), closed, 1e-9, f"{rule} 1/(1-t) column")
                if float(r["t"]) <= S2_CLOSED_FORM_T_MAX:
                    rep.close(op, float(r["value"]), closed, S2_CLOSED_FORM_REL,
                              f"{rule} s2 run {i} at t={r['t']} against 1/(1-t)")
        snaps = replay_schedule(rule, n, int(runs[0][0]["seed"]), t_grid[-1], t_grid)
        for snap, r in zip(snaps, runs[0]):
            _check_replayed(rep, op, snap, n, f"{rule} replay")
            rep.same_print(op, r["value"], snap["s2"], f"{rule} s2 run 0 at t={r['t']}")
    _check_means(rep, op, rows)


def check_giant(rep, op, cfg, rows, limit):
    n, t_grid, initial = cfg["n"], cfg["t_grid"], cfg.get("initial", "")
    rule = cfg.get("process") or "er-poisson"
    _check_seeds(rep, op, rows, "c1_frac", cfg["seed"], 0)
    counts = defaultdict(int)
    for item in filter(None, initial.split(",")):
        size, count = (int(x) for x in item.split(":"))
        counts[size] += count
    counts[1] += n - sum(k * c for k, c in counts.items())
    for t in t_grid:
        rho = survival_root(counts, t)
        at_t = [r for r in rows if float(r["t"]) == t]
        for r in at_t:
            if r["observable"] == "c1_frac":
                rep.check(op, abs(float(r["prediction"]) - rho) <= 1e-8,
                          f"fixed point at t={t}: written {r['prediction']}, bisection {rho!r}")
        # the lower bound is written whenever rho > 0, the upper one where valid
        for r in at_t:
            if r["observable"] == "c1_frac_lower_bound":
                rep.check(op, float(r["prediction"]) <= rho + 1e-9,
                          f"fixed point {rho!r} below the written lower bound at t={t}")
            if r["observable"] == "c1_frac_upper_bound":
                rep.check(op, rho <= float(r["prediction"]) + 1e-9,
                          f"fixed point {rho!r} above the written upper bound at t={t}")
    runs = replicates(rows, "c1_frac")
    for i, rs in runs.items():
        _check_monotone(rep, op, [float(r["value"]) for r in rs], +1, f"c1_frac run {i}")
    snaps = replay_schedule(rule, n, int(runs[0][0]["seed"]), t_grid[-1], t_grid, initial)
    for snap, r in zip(snaps, runs[0]):
        _check_replayed(rep, op, snap, n, "giant replay")
        rep.same_print(op, r["value"], snap["c1_frac"], f"c1_frac run 0 at t={r['t']}")
    _check_means(rep, op, rows)


def check_process(rep, op, spec, records):
    """A direct run_process call: every record field, exactly."""
    n = spec["n"]
    snaps = replay_schedule(spec["kind"], n, spec["seed"], spec["t_end"], spec["record_at"],
                            spec.get("initial", ""))
    rep.check(op, len(records) == len(snaps), f"{len(records)} records, {len(snaps)} expected")
    for rec, snap in zip(records, snaps):
        _check_replayed(rep, op, snap, n, f"replay t={snap['t']}")
        for key in ("t", "m", "s2", "s3", "s4", "c1_frac", "c2_frac", "x1"):
            rep.check(op, rec[key] == snap[key],
                      f"{key} at t={snap['t']}: returned {rec[key]!r}, replayed {snap[key]!r}")
    for key, direction in (("m", +1), ("s2", +1), ("x1", -1), ("c1_frac", +1)):
        _check_monotone(rep, op, [r[key] for r in records], direction, key)
    rep.check(op, all(r["c1_frac"] >= r["c2_frac"] for r in records), "c1 < c2 in a record")


EXPERIMENT_CHECKS = {
    "constants": check_constants,
    "moments": check_moments,
    "two_phase": check_two_phase,
    "variant_agreement": check_variant_agreement,
    "giant": check_giant,
}


def check_outputs(ops: list[dict], outputs: dict[str, object]) -> Report:
    """Run every check on one round's outputs.

    ``outputs`` maps an experiment op to its CSV path and a process op to its
    list of records (dicts).
    """
    rep = Report()
    limit = Limit()
    for op in ops:
        name = op["name"]
        check = check_process if op["kind"] == "process" \
            else EXPERIMENT_CHECKS[op["spec"]["experiment"]]
        try:
            if op["kind"] == "process":
                check(rep, name, op["spec"], outputs[name])
            else:
                check(rep, name, op["spec"], read_rows(outputs[name]), limit)
        except (KeyError, IndexError, ValueError, TypeError, OSError) as exc:
            # missing or malformed output
            rep.check(name, False, f"output unreadable: {exc!r}")
    return rep
