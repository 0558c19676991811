"""Evolving random-graph processes over the component ledger.

A Simulation owns one seeded generator and one process rule. Randomness
is drawn in fixed-size chunks of uniform vertex proposals at the Python
level, and both engines consume the identical stream, so traces match
exactly across engines for a given seed.

engine='python' is the scalar reference: it walks the rows one by one
through a union-find forest with an exact moment ledger. engine='auto'
decides whole slices of rows with numpy on one int64 union-find forest
for every rule, whose roots hold the component sizes. An initial graph
is written into the forest directly, each component a star on its first
vertex, since only its vertex sets matter. The uniform rules and bf
buffer the edges they insert and fold them into the forest in rounds of
vectorized hooking and pointer jumping, once per snapshot or per CHUNK
edges. er keeps the sorted keys of the pairs present; each slice of
proposals is sorted once, its distinct keys are looked up in that array
in sorted order, and the new ones are merged in. The two-choice rules
decide speculative blocks of about sqrt(n) rows on the state at block
start: bf on the isolation bitmap, and the product rule on exact
component sizes. For the product rule numpy decides at once every round
of a block whose components no earlier round of the block touched and
whose choice cannot change as the giant grows, and a short scalar pass
plays the rest in row order; both merge straight into the forest. A
snapshot is the histogram of the sizes at the roots.

One run attempts at most MAX_ATTEMPTS insertions; asking for more
raises InvalidConfigError, since no run of that length could finish.

Process time follows t = 2m/n where m counts attempted insertions
(rounds for the two-choice rules), with m = floor(n*t/2) at the end
time and record instants snapped to the nearest attempted-edge index.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .ledger import SizeDistribution, add_edge, ledger_init, snapshot_distribution

__all__ = [
    "ENGINES",
    "ProcessKind",
    "InitialGraphSpec",
    "TraceRecord",
    "Snapshot",
    "Simulation",
    "run_process",
    "poisson_edge_count",
]

CHUNK = 1 << 18  # proposal rows drawn per generator call
PRODUCT_BLOCK: int | None = None  # rows per product block; None scales it with sqrt(n)
MAX_ATTEMPTS = 1 << 32  # insertions one simulation may attempt, main and continuation each
ENGINES = ("auto", "python")


class ProcessKind(enum.Enum):
    """Edge-arrival rules; values are the CLI tokens."""

    ER_WITHOUT_REPLACEMENT = "er"
    ER_WITH_REPLACEMENT = "er-wr"
    ER_POISSON_TIME = "er-poisson"
    BOUNDED_SIZE = "bf"
    PRODUCT_RULE = "product"

    @classmethod
    def from_token(cls, token: str) -> "ProcessKind":
        for kind in cls:
            if kind.value == token:
                return kind
        raise InvalidConfigError(f"unknown process {token!r}")

    @property
    def two_choice(self) -> bool:
        return self in (ProcessKind.BOUNDED_SIZE, ProcessKind.PRODUCT_RULE)


@dataclass(frozen=True)
class InitialGraphSpec:
    """Deterministic starting components, a list of (size, count) pairs.

    Components are realized as paths on consecutive vertex blocks
    starting at vertex 0; vertices not covered stay singletons. Only
    the size multiset matters to every observable here.
    """

    parts: tuple[tuple[int, int], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "InitialGraphSpec":
        """Parse the comma list ``size:count``, e.g. ``3:100,7:2``."""
        text = text.strip()
        if not text:
            return cls()
        parts = []
        for item in text.split(","):
            try:
                size_s, count_s = item.split(":")
                size, count = int(size_s), int(count_s)
            except ValueError as exc:
                raise InvalidConfigError(f"bad initial-graph item {item!r}") from exc
            if size < 1 or count < 1:
                raise InvalidConfigError(f"sizes and counts must be >= 1: {item!r}")
            parts.append((size, count))
        return cls(tuple(parts))

    def format(self) -> str:
        return ",".join(f"{s}:{c}" for s, c in self.parts)

    @property
    def total_vertices(self) -> int:
        return sum(s * c for s, c in self.parts)

    def validate_for(self, n: int) -> None:
        if self.total_vertices > n:
            raise InvalidConfigError(
                f"initial graph needs {self.total_vertices} vertices but n={n}"
            )

    def to_distribution(self, n: int) -> SizeDistribution:
        """Exact component-size histogram including the singleton fill."""
        self.validate_for(n)
        counts: dict[int, int] = {}
        for s, c in self.parts:
            counts[s] = counts.get(s, 0) + c
        fill = n - self.total_vertices
        if fill:
            counts[1] = counts.get(1, 0) + fill
        return SizeDistribution(dict(sorted(counts.items())))

    def component_sizes(self) -> np.ndarray:
        """Size of each component, in vertex-block order."""
        return np.repeat(np.array([s for s, _ in self.parts], dtype=np.int64),
                         np.array([c for _, c in self.parts], dtype=np.int64))

    def path_lows(self) -> np.ndarray:
        """Lower ends v of the path edges (v, v+1), in construction order."""
        inner = np.ones(self.total_vertices, dtype=bool)
        inner[np.cumsum(self.component_sizes()) - 1] = False  # the last vertex of each path
        return np.flatnonzero(inner)

    def path_edges(self) -> list[tuple[int, int]]:
        """Edges (v, v+1) of the path realization, in construction order."""
        return [(v, v + 1) for v in self.path_lows().tolist()]


def poisson_edge_count(t: float, n: int, rng: np.random.Generator) -> int:
    """Number of edges arriving by process time t under Poisson arrivals."""
    if not t >= 0:
        raise InvalidConfigError(f"time must be >= 0, got {t}")
    if t == 0:
        return 0
    try:
        return int(rng.poisson((n - 1) * t / 2))
    except ValueError as exc:  # a mean past numpy's limit, about 9.2e18
        raise InvalidConfigError(f"Poisson edge count at time {t:g} on n={n}: {exc}") from exc


@dataclass(frozen=True)
class TraceRecord:
    """Observables at one record instant.

    t is the process time of the snapshot (2m/n for edge-counted
    processes, the requested time for Poisson arrivals); m is the
    number of attempted insertions so far.
    """

    t: float
    m: int
    s2: float
    s3: float
    s4: float
    c1_frac: float
    c2_frac: float
    x1: float


@dataclass(frozen=True)
class Snapshot:
    """Exact component statistics at one instant."""

    m: int
    dist: SizeDistribution
    s_sums: tuple[int, int, int, int]
    c1: int
    c2: int
    n1: int

    @property
    def n(self) -> int:
        return self.s_sums[0]

    def s(self, k: int) -> float:
        return self.s_sums[k - 1] / self.s_sums[0]

    @property
    def x1(self) -> float:
        return self.n1 / self.s_sums[0]

    def trace(self, t: float) -> TraceRecord:
        n = self.s_sums[0]
        return TraceRecord(
            t=t,
            m=self.m,
            s2=self.s_sums[1] / n,
            s3=self.s_sums[2] / n,
            s4=self.s_sums[3] / n,
            c1_frac=self.c1 / n,
            c2_frac=self.c2 / n,
            x1=self.n1 / n,
        )


class Simulation:
    """One evolving graph under one process rule.

    engine='auto' runs the batch engine, engine='python' the scalar
    reference. Both consume the same proposal stream, so results are
    engine-independent.
    """

    def __init__(self, kind: ProcessKind, n: int, initial: InitialGraphSpec | str | None = None,
                 seed: int = 0, loops: bool = True, engine: str = "auto"):
        if n < 2:
            raise InvalidConfigError("n must be >= 2")
        if engine not in ENGINES:
            raise InvalidConfigError(f"unknown engine {engine!r}")
        if seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        if isinstance(initial, str):
            initial = InitialGraphSpec.parse(initial)
        self.initial = initial or InitialGraphSpec()
        self.initial.validate_for(n)
        self.kind = kind
        self.n = n
        self.seed = seed
        self.loops = loops
        self.engine = engine
        self.rng = np.random.default_rng(seed)
        self.m = 0  # attempted insertions of the main process
        self.extra_attempts = 0  # continuation edges added on top
        self.e1_rounds = 0  # rounds in which the first offered edge was chosen
        self.blocks = 0  # speculative bf and product blocks decided by the batch engine
        self._buf: np.ndarray | None = None
        self._pos = 0
        self._cols = 4 if kind.two_choice else 2
        # without replacement the main process can insert each free pair once
        self._free_pairs = None
        if kind is ProcessKind.ER_WITHOUT_REPLACEMENT:
            initial_edges = sum((s - 1) * c for s, c in self.initial.parts)
            self._free_pairs = n * (n - 1) // 2 - initial_edges
        self._batch = engine == "auto"
        if self._batch:
            self._init_batch()
        else:
            self._init_scalar()

    # -- construction ---------------------------------------------------

    def _init_scalar(self) -> None:
        self.forest, self.ledger = ledger_init(self.n)
        edges = self.initial.path_edges()
        for u, v in edges:
            add_edge(self.forest, self.ledger, u, v)
        self._seen: set[int] | None = None
        if self.kind is ProcessKind.ER_WITHOUT_REPLACEMENT:
            self._seen = {u * self.n + v for u, v in edges}

    def _init_batch(self) -> None:
        n = self.n
        # union-find forest: each vertex points towards the root of its
        # component, and `_size` holds the component size at each root
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=np.int64)  # valid at roots only
        self._iso = np.ones(n, dtype=bool)
        self._big = 0  # the product rule's root of a largest component; -1 after a fold
        self._trees = n  # n minus the merges made, for the snapshot self-check
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []  # edges not yet in the forest
        self._npending = 0
        # the initial components are built as stars on their first vertex,
        # which has the paths' vertex sets without folding their edges
        sizes = self.initial.component_sizes()
        if len(sizes):
            starts = np.cumsum(sizes) - sizes
            k = self.initial.total_vertices
            self._parent[:k] = np.repeat(starts, sizes)
            self._size[starts] = sizes
            self._iso[:k] = np.repeat(sizes == 1, sizes)
            self._trees -= k - len(sizes)
            self._big = int(starts[np.argmax(sizes)])
        if self.kind is ProcessKind.ER_WITHOUT_REPLACEMENT:
            # sorted keys u*n+v (u < v) of the edges present, closed by n*n,
            # which is above every key, so a lookup never runs off the end
            lo = self.initial.path_lows()
            self._keys = np.append(lo * n + lo + 1, n * n)
        if self.kind.two_choice:
            # A block is decided on the state at its start. A block of L rows
            # meets a vertex (bf) or a component (product) an earlier round of
            # it touched with probability of order L*L/n, so O(sqrt(n)) rows
            # keep those rounds rare and the per-block overhead small.
            if self.kind is ProcessKind.BOUNDED_SIZE:
                self._block = max(2, int(0.7 * math.sqrt(n)))
            else:
                self._block = PRODUCT_BLOCK or max(2, int(1.2 * math.sqrt(n)))
            self._stamp = np.full(n, self._block, dtype=np.int64)

    # -- proposal stream -------------------------------------------------

    def _refill(self, cols: int) -> None:
        if self._buf is None or self._pos >= len(self._buf) or self._cols != cols:
            # switching proposal shape discards any buffered rows
            self._buf = self.rng.integers(0, self.n, size=(CHUNK, cols), dtype=np.int64)
            self._pos = 0
            self._cols = cols

    # -- main process ----------------------------------------------------

    def _check_target(self, m_target: int) -> None:
        _check_attempts(m_target)
        if self._free_pairs is not None and m_target > self._free_pairs:
            raise InvalidConfigError(
                f"er on n={self.n} has {self._free_pairs} vertex pairs free of initial "
                f"edges, fewer than the {m_target} insertions asked for"
            )

    def advance_to(self, m_target: int) -> None:
        """Consume proposals until m_target insertions have been attempted."""
        if m_target < self.m:
            raise InvalidConfigError("cannot rewind a simulation")
        self._check_target(m_target)
        cols = 4 if self.kind.two_choice else 2
        while self.m < m_target:
            self._refill(cols)
            self.m += self._consume(self.kind, m_target - self.m)

    def add_er_edges(self, count: int) -> None:
        """Attempt `count` uniform with-replacement edges on the current graph.

        Continuation segment for stop-restart constructions; tracked in
        extra_attempts, not in the main process clock m.
        """
        left = int(count)
        _check_attempts(self.extra_attempts + left)
        while left > 0:
            self._refill(2)
            done = self._consume(ProcessKind.ER_WITH_REPLACEMENT, left)
            left -= done
            self.extra_attempts += done

    def _consume(self, kind: ProcessKind, need: int) -> int:
        """Attempt up to `need` insertions from the buffered chunk; returns
        the number attempted. Every engine consumes exactly the rows the
        scalar loop would."""
        if not self._batch:
            return self._consume_python(kind, need)
        if kind is ProcessKind.BOUNDED_SIZE:
            return self._consume_bf(need)
        if kind is ProcessKind.PRODUCT_RULE:
            return self._consume_product(need)
        return self._consume_uniform(need, kind is ProcessKind.ER_WITHOUT_REPLACEMENT)

    def _consume_python(self, kind: ProcessKind, need: int) -> int:
        forest, ledger = self.forest, self.ledger
        find, size = forest.find, forest.comp_size
        seen = self._seen if kind is ProcessKind.ER_WITHOUT_REPLACEMENT else None
        is_bf = kind is ProcessKind.BOUNDED_SIZE
        done = 0
        while done < need and self._pos < len(self._buf):
            # a slice of need - done rows holds at most that many insertions,
            # so converting it never runs past the rows the loop consumes
            rows = self._buf[self._pos:self._pos + need - done].tolist()
            self._pos += len(rows)
            if kind.two_choice:
                for v1, w1, v2, w2 in rows:
                    if not self.loops and (v1 == w1 or v2 == w2):
                        continue
                    done += 1
                    if is_bf:
                        first = size[find(v1)] == 1 and size[find(w1)] == 1
                    else:
                        first = size[find(v1)] * size[find(w1)] >= size[find(v2)] * size[find(w2)]
                    if first:
                        self.e1_rounds += 1
                        add_edge(forest, ledger, v1, w1)
                    else:
                        add_edge(forest, ledger, v2, w2)
            else:
                for u, v in rows:
                    if u == v:
                        continue
                    if seen is not None:
                        key = u * self.n + v if u < v else v * self.n + u
                        if key in seen:
                            continue
                        seen.add(key)
                    done += 1
                    add_edge(forest, ledger, u, v)
        return done

    # -- batch engine ----------------------------------------------------

    def _insert(self, u: np.ndarray, v: np.ndarray) -> None:
        """Mark the ends of loop-free edges as joined and buffer the edges
        for the forest. A full buffer of CHUNK edges is folded at once, so
        it never holds more than one chunk's worth."""
        if len(u):
            self._iso[u] = False
            self._iso[v] = False
            self._pending.append((u, v))
            self._npending += len(u)
            if self._npending >= CHUNK:
                self._fold()

    def _find(self, x: np.ndarray) -> np.ndarray:
        """Roots of the vertices x, which are then pointed at them."""
        parent = self._parent
        roots = parent[x]
        while True:
            up = parent[roots]
            if np.array_equal(up, roots):
                break
            roots = up
        parent[x] = roots
        return roots

    def _fold(self) -> None:
        """Merge the buffered edges into the forest in rounds of vectorized
        hooking and pointer jumping (Shiloach and Vishkin).

        In a round every edge whose ends have different roots hooks the
        smaller root, by size and then by index, under the other, so the
        pointers climb a strict order and close no cycle. A root offered
        several parents takes one: each edge writes its own mark into it,
        and the edge whose mark stayed wins. Jumping the hooked roots over
        their parents, which are hooked roots too or roots, points each
        straight at a root, whose size then takes in theirs; so the sizes
        are exact at the roots after every round, union by size keeps the
        trees shallow, and one gather finds the next round's roots.
        """
        if not self._pending:
            return
        self._big = -1  # merges the product rule did not see: it finds its giant again
        parent, size = self._parent, self._size
        a = self._find(np.concatenate([p[0] for p in self._pending]))
        b = self._find(np.concatenate([p[1] for p in self._pending]))
        self._pending, self._npending = [], 0
        while True:
            live = a != b
            if not live.all():
                live = np.flatnonzero(live)
                if not len(live):
                    break
                a, b = a[live], b[live]
            # the first round of a large fold sets the run's peak memory, so
            # each temporary is dropped as soon as it is used
            sa, sb = size[a], size[b]
            # a - b where a hooks under b, else 0 (cheaper than np.where)
            shift = (a - b) * ((sa < sb) | ((sa == sb) & (a < b)))
            del sa, sb
            child, top = b + shift, a - shift
            del shift
            mark = np.arange(-1, -1 - len(child), -1)
            parent[child] = mark
            won = np.flatnonzero(parent[child] == mark)
            del mark
            child = child[won]
            top = top[won]
            parent[child] = top
            while True:
                up = parent[top]
                if np.array_equal(up, top):
                    break
                parent[child] = top = up
            np.add.at(size, top, size[child])
            self._trees -= len(child)
            a, b = parent[a], parent[b]

    def _consume_uniform(self, need: int, norep: bool) -> int:
        # need rows hold at most need insertions: the whole slice is consumed
        rows = self._buf[self._pos:self._pos + need]
        self._pos += len(rows)
        u, v = rows[:, 0], rows[:, 1]
        take = self._new_pairs(u, v) if norep else np.flatnonzero(u != v)
        u, v = u[take], v[take]
        self._insert(u, v)
        return len(u)

    def _new_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rows, in row order, that are er insertions: no loop, no pair
        already present and no repeat of an earlier row's pair. Their keys
        join `_keys`.

        One sort of the slice's keys groups equal pairs; the earliest row of
        each group is its least row index, whatever order the sort left equal
        keys in. The sorted distinct keys are looked up in `_keys` and the
        new ones are merged in at the positions the lookup found.
        """
        n = self.n
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.concatenate(([0], starts))
        rows = np.minimum.reduceat(order, starts)
        keys = keys[starts]
        del order, starts
        at = np.searchsorted(self._keys, keys)
        # a loop's key u*(n+1) is the only kind of key that n+1 divides
        fresh = np.flatnonzero((self._keys[at] != keys) & (keys % (n + 1) != 0))
        self._keys = np.insert(self._keys, at[fresh], keys[fresh])
        return np.sort(rows[fresh])

    def _consume_bf(self, need: int) -> int:
        """One speculative block of bf rounds.

        Every round is decided on the isolation bitmap at block start.
        Isolation only ever ends, so a round can be decided wrongly only
        when it takes the first edge although v1 or w1 was joined by an
        earlier round of the same block. The block is cut before the
        first such round; every round before it is exact.
        """
        rows = self._buf[self._pos:self._pos + min(need, self._block)]
        span = len(rows)
        at = None
        if not self.loops:
            at = np.flatnonzero((rows[:, 0] != rows[:, 1]) & (rows[:, 2] != rows[:, 3]))
            rows = rows[at]
        v1, w1 = rows[:, 0], rows[:, 1]
        first = self._iso[v1] & self._iso[w1]
        a = np.where(first, v1, rows[:, 2])
        b = np.where(first, w1, rows[:, 3])
        real = a != b
        cut = len(rows)
        asked = np.flatnonzero(first)
        if len(asked) and asked[-1] > 0:
            when = np.flatnonzero(real)
            ends = np.concatenate((a[when], b[when]))
            stamp = self._stamp  # earliest round of the block joining each vertex
            np.minimum.at(stamp, ends, np.concatenate((when, when)))
            stale = (stamp[v1[asked]] < asked) | (stamp[w1[asked]] < asked)
            stamp[ends] = self._block
            if stale.any():
                cut = int(asked[np.argmax(stale)])
        self.e1_rounds += int(np.count_nonzero(first[:cut]))
        keep = real[:cut]
        self._insert(a[:cut][keep], b[:cut][keep])
        self.blocks += 1
        if cut == len(rows):
            self._pos += span
        else:
            self._pos += cut if at is None else int(at[cut])
        return cut

    def _consume_product(self, need: int) -> int:
        """One block of product-rule rounds on the int64 union-find.

        A vectorized pass finds the roots of all four vertices of every
        round at block start. A round is free when none of its roots but
        the giant's (`_big`) was read by an earlier round of the block: no
        earlier round can have merged them, so their sizes are exact. Only
        the giant's size G may have grown since block start, and each
        product has the form c*G**d, so the choice is monotone in G; a free
        round whose choice is the same at G = g0, the size at block start,
        and at G = n is exact. Round 0 reads the block-start state, so it
        is always exact. All exact rounds are applied at once: merges into
        the giant keep `_big` as the root, and every other merge joins two
        roots that no other round of the pass reads.

        A scalar pass then plays the other rounds in row order on the live
        forest. The merges applied so far only touched components those
        rounds do not meet, except the giant, so each reads exact sizes
        once the giant's is set to g0 plus the growth from earlier rounds.
        """
        self._fold()  # initial and continuation edges change the sizes read
        if self._big < 0:
            roots = np.flatnonzero(self._parent == np.arange(self.n))
            self._big = int(roots[np.argmax(self._size[roots])])
        rows = self._buf[self._pos:self._pos + min(need, self._block)]
        self._pos += len(rows)
        if not self.loops:
            rows = rows[(rows[:, 0] != rows[:, 1]) & (rows[:, 2] != rows[:, 3])]
        count = len(rows)
        parent, size, big = self._parent, self._size, self._big
        roots = self._find(rows.ravel())
        turn = np.repeat(np.arange(count), 4)
        stamp = self._stamp  # earliest round of the block reading each root
        np.minimum.at(stamp, roots, turn)
        fresh = stamp[roots] == turn
        stamp[roots] = self._block
        roots = roots.reshape(count, 4)
        giant = roots == big
        free = (fresh.reshape(count, 4) | giant).all(axis=1)
        g0 = int(size[big])
        sizes = size[roots]
        low = np.where(giant, g0, sizes)
        high = np.where(giant, self.n, sizes)
        first = low[:, 0] * low[:, 1] >= low[:, 2] * low[:, 3]
        exact = free & (first == (high[:, 0] * high[:, 1] >= high[:, 2] * high[:, 3]))
        exact[:1] = True

        a = np.where(first, roots[:, 0], roots[:, 2])
        b = np.where(first, roots[:, 1], roots[:, 3])
        join = exact & (a != b)
        into = join & ((a == big) | (b == big))
        other = (a + b - big)[into]  # the root that joins the giant
        grow = np.zeros(count, dtype=np.int64)  # giant growth per round
        grow[into] = size[other]
        parent[other] = big
        size[big] += grow.sum()
        pair = join & ~into
        pa, pb = a[pair], b[pair]
        sa, sb = size[pa], size[pb]
        swap = sa < sb  # union by size
        top = np.where(swap, pb, pa)
        parent[np.where(swap, pa, pb)] = top
        size[top] = sa + sb
        u = np.where(first, rows[:, 0], rows[:, 2])[join]
        v = np.where(first, rows[:, 1], rows[:, 3])[join]
        e1 = int(np.count_nonzero(first[exact]))

        late = np.flatnonzero(~exact)
        us: list[int] = []
        vs: list[int] = []
        grown: list[int] = []  # roots of the scalar pass's other merges
        if len(late):
            before = (np.cumsum(grow) - grow)[late].tolist()
            extra = 0  # giant growth from the scalar rounds played so far
            for g, quad, row in zip(before, roots[late].tolist(), rows[late].tolist()):
                for i, x in enumerate(quad):
                    while parent[x] != x:
                        x = parent[x]
                    quad[i] = int(x)
                giant_size = g0 + g + extra
                sz = [giant_size if x == big else int(size[x]) for x in quad]
                if sz[0] * sz[1] >= sz[2] * sz[3]:
                    e1 += 1
                    x, y, edge = quad[0], quad[1], row[:2]
                else:
                    x, y, edge = quad[2], quad[3], row[2:]
                if x == y:
                    continue
                if y == big or (x != big and size[x] < size[y]):
                    x, y = y, x  # x keeps the root: the giant, else the larger
                parent[y] = x
                size[x] += size[y]
                if x == big:
                    extra += int(size[y])
                else:
                    grown.append(x)
                us.append(edge[0])
                vs.append(edge[1])

        # keep `_big` on a largest component: only components merged in this
        # block grew, and those still roots are the candidates
        tops = np.concatenate((top, np.array(grown, dtype=np.int64)))
        tops = tops[parent[tops] == tops]
        if len(tops):
            best = tops[np.argmax(size[tops])]
            if size[best] > size[big]:
                self._big = int(best)
        self.e1_rounds += e1
        self._trees -= len(u) + len(us)
        self._iso[u] = self._iso[v] = False
        self._iso[us] = self._iso[vs] = False
        self.blocks += 1
        return count

    # -- observation -----------------------------------------------------

    def snapshot(self) -> Snapshot:
        if self._batch:
            self._fold()
            # the roots are found one block of vertices at a time, since an
            # arange of all n would be the largest temporary of the run
            is_root = np.empty(self.n, dtype=bool)
            for lo in range(0, self.n, CHUNK):
                hi = min(lo + CHUNK, self.n)
                np.equal(self._parent[lo:hi], np.arange(lo, hi), out=is_root[lo:hi])
            if np.count_nonzero(is_root) != self._trees:
                raise AssertionError("union-find roots and merge count disagree")
            sizes = np.compress(is_root, self._size)
            # the largest size is counted apart, so the bincount runs only to
            # the second largest; added last, it keeps the sizes in order
            at = int(np.argmax(sizes))
            top = int(sizes[at])
            sizes[at] = 1
            counts = np.bincount(sizes)
            counts[1] -= 1
            small = np.flatnonzero(counts)
            hist = dict(zip(small.tolist(), counts[small].tolist()))
            hist[top] = hist.get(top, 0) + 1
            dist = SizeDistribution(hist)
            sums = tuple(dist.power_sum(k) for k in (1, 2, 3, 4))
            c1, c2, n1 = dist.c1, dist.c2, dist.n1
            if sums[0] != self.n:
                raise AssertionError("component sizes do not sum to n")
            if n1 != int(np.count_nonzero(self._iso)):
                raise AssertionError("singletons and isolation bitmap disagree")
        else:
            dist = snapshot_distribution(self.forest)
            sums = tuple(dist.power_sum(k) for k in (1, 2, 3, 4))
            if list(sums) != self.ledger.s_sums:
                raise AssertionError("ledger and histogram moments disagree")
            c1, c2, n1 = dist.c1, dist.c2, dist.n1
            if (c1, n1) != (self.ledger.c1_size, self.ledger.n1_isolated):
                raise AssertionError("ledger extremes and histogram disagree")
        return Snapshot(m=self.m, dist=dist, s_sums=sums, c1=c1, c2=c2, n1=n1)


def _check_attempts(m: int) -> None:
    if m > MAX_ATTEMPTS:
        raise InvalidConfigError(
            f"{m} insertions asked for, more than the {MAX_ATTEMPTS} one run may attempt"
        )


def _snap_index(n: int, t: float, m_end: int) -> int:
    return min(int(round(n * t / 2)), m_end)


def run_process(kind: ProcessKind | str, n: int, initial: InitialGraphSpec | str | None = None,
                t_end: float = 1.0, record_at: tuple[float, ...] = (), seed: int = 0,
                loops: bool = True, engine: str = "auto") -> list[TraceRecord]:
    """Run one process to t_end, recording observables on a schedule.

    Deterministic given (seed, kind, n, initial, schedule). record_at
    must be sorted and bounded by t_end.
    """
    if isinstance(kind, str):
        kind = ProcessKind.from_token(kind)
    record_at = tuple(record_at)
    if not all(0 <= t < math.inf for t in (*record_at, t_end)):
        raise InvalidConfigError("times must be finite and >= 0")
    if list(record_at) != sorted(record_at):
        raise InvalidConfigError("record_at must be sorted ascending")
    if record_at and record_at[-1] > t_end:
        raise InvalidConfigError("record_at entries must not exceed t_end")
    sim = Simulation(kind, n, initial=initial, seed=seed, loops=loops, engine=engine)
    records: list[TraceRecord] = []
    if kind is ProcessKind.ER_POISSON_TIME:
        prev_t = 0.0
        m_cum = 0
        for t in record_at:
            if t > prev_t:
                m_cum += poisson_edge_count(t - prev_t, n, sim.rng)
                prev_t = t
            sim.advance_to(m_cum)
            records.append(sim.snapshot().trace(t))
        if t_end > prev_t:
            m_cum += poisson_edge_count(t_end - prev_t, n, sim.rng)
            sim.advance_to(m_cum)
    else:
        m_end = int(math.floor(n * t_end / 2))
        sim._check_target(m_end)
        for t in record_at:
            m_i = _snap_index(n, t, m_end)
            sim.advance_to(m_i)
            records.append(sim.snapshot().trace(2 * m_i / n))
        sim.advance_to(m_end)
    return records
