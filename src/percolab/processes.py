"""Evolving random-graph processes over the component ledger.

A Simulation owns one seeded generator and one process rule. Randomness
comes in fixed-size chunks of CHUNK uniform vertex proposals, and both
engines consume the identical stream, so traces match exactly across
engines for a given seed. The scalar reference draws each chunk whole, as
int64 rows, which is the stream the golden results were made from. The
batch engine draws a chunk PIECE rows at a time, as the rows are needed;
consecutive draws give the values, and leave the generator in the state,
of one draw of the whole chunk. The generator reaches a chunk's end when
the chunk is spent, when the rows change shape (a two-choice rule's
quadruples against the pairs of a continuation), which drops the rest of
the chunk, and when `Simulation.rng` is read for another draw (a Poisson
count): the batch engine then draws the rest of the chunk first and
queues it for the proposals that follow.

engine='python' is the scalar reference: it walks the rows one by one
through a union-find forest with an exact moment ledger. engine='auto'
decides whole slices of rows with numpy on one union-find forest for
every rule: int64 parents, and sizes that are int32 while n < 2**31, held
at the roots, with 0 at the other vertices. The rows are drawn as int32
when every vertex fits, which numpy draws from the same stream as int64.
An initial graph is written into the forest directly, each component a
star on its first vertex, since only its vertex sets matter. The uniform
rules and bf buffer the edges they insert and fold them into the forest
once per snapshot or per CHUNK edges, at most FOLD edges at a time, in
rounds of vectorized hooking and pointer jumping that free their
temporaries as they go. er keeps the sorted keys of the pairs present;
each slice of proposals is sorted once, its distinct keys are looked up
in that array in sorted order, and the new ones are merged in. The
two-choice rules decide speculative blocks of about sqrt(n) rows on the
state at block start: bf on the isolation bitmap, and the product rule
on exact component sizes. For the product rule each block takes as
its giant the largest component it reads; one vectorized pass applies
every round of the block whose other components no earlier pending round
reads and whose choice cannot change as that giant grows, merging
straight into the forest through one hook, and repeats on the rounds
left until none is; it widens the sizes it reads to int64 before it
multiplies them. A snapshot bincounts the sizes FOLD vertices at a time,
and checks the histogram against the merge count, n and the isolation
bitmap; check_forest recounts the roots from the parents, FOLD vertices
at a time too, which run_process does after its last snapshot. So the
temporaries of a fold and a recount are bounded by FOLD whatever n is,
and a snapshot's by FOLD and the second largest size.

One run attempts at most MAX_ATTEMPTS insertions; asking for more
raises InvalidConfigError, since no run of that length could finish.
An er simulation refuses n above ER_MAX_N (3,037,000,499), whose pair
keys would overflow int64.

Process time follows t = 2m/n where m counts attempted insertions: every
two-choice round, a loop too, and every uniform proposal but a loop. At
the end time m = floor(n*t/2); record instants snap to the nearest m.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with this module, not in a first run

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

CHUNK = 1 << 18  # proposal rows of one chunk of the stream
PIECE = 1 << 15  # proposal rows drawn per generator call, a chunk's pieces in turn
FOLD = 1 << 15  # buffered edges merged, or vertices scanned, at a time
PRODUCT_BLOCK: int | None = None  # rows per product block; None scales it with sqrt(n)
MAX_ATTEMPTS = 1 << 32  # insertions one simulation may attempt, main and continuation each
# er stores the keys u*n+v of its pairs and the sentinel n*n in int64
ER_MAX_N = math.isqrt(np.iinfo(np.int64).max)
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
    """The exact component-size histogram after m attempted insertions."""

    m: int
    dist: SizeDistribution

    def trace(self, t: float) -> TraceRecord:
        d, n = self.dist, self.dist.n_vertices
        return TraceRecord(t=t, m=self.m, s2=d.s(2), s3=d.s(3), s4=d.s(4), c1_frac=d.c1 / n,
                           c2_frac=d.c2 / n, x1=d.n1 / n)


class Simulation:
    """One evolving graph under one process rule.

    engine='auto' runs the batch engine, engine='python' the scalar
    reference. Both consume the same proposal stream, so results are
    engine-independent.
    """

    def __init__(self, kind: ProcessKind, n: int, initial: InitialGraphSpec | str | None = None,
                 seed: int = 0, engine: str = "auto"):
        if n < 2:
            raise InvalidConfigError("n must be >= 2")
        if kind is ProcessKind.ER_WITHOUT_REPLACEMENT and n > ER_MAX_N:
            raise InvalidConfigError(
                f"er keeps its pair keys below n*n in int64, so n must be at most "
                f"{ER_MAX_N}, got {n}"
            )
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
        self.engine = engine
        self._rng = np.random.default_rng(seed)
        self.m = 0  # attempted insertions of the main process
        self.extra_attempts = 0  # continuation edges added on top
        self.e1_rounds = 0  # rounds in which the first offered edge was chosen
        self.blocks = 0  # speculative bf and product blocks decided by the batch engine
        self._buf = np.empty((0, 0), dtype=np.int64)  # the rows being consumed
        self._pos = 0
        self._cols = 0  # columns of the current chunk's rows
        self._undrawn = 0  # rows of the current chunk not drawn yet
        self._ahead: deque[np.ndarray] = deque()  # pieces drawn ahead by `rng`
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
        # component, and `_size` holds the component size at each root and
        # 0 elsewhere, so the sizes alone give the histogram. The parents
        # are int64, since numpy casts any other index array on each use,
        # at every level of `_find`; the sizes are values, never indices,
        # so they are int32 whenever n fits
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=_size_dtype(n))
        self._iso = np.ones(n, dtype=bool)
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
            self._size[:k] = 0
            self._size[starts] = sizes
            self._iso[:k] = np.repeat(sizes == 1, sizes)
            self._trees -= k - len(sizes)
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
                self._block = PRODUCT_BLOCK or max(2, int(3 * math.sqrt(n)))
            # round numbers within a block fit int32; np.minimum.at will not
            # write int64 values into it, so the rounds written are int32 too
            self._stamp = np.full(n, self._block, dtype=np.int32)

    # -- proposal stream -------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The generator, with the current chunk drawn to its end, so that a
        draw on it (a Poisson count) comes where it came when a chunk was
        drawn whole. The batch engine queues the rest of the chunk for the
        proposals that follow; the scalar reference, which draws whole
        chunks, has none left to draw."""
        while self._undrawn:
            self._ahead.append(self._piece())
        return self._rng

    def _piece(self) -> np.ndarray:
        """Draw the next piece of the current chunk: at most PIECE rows for
        the batch engine, and for the scalar reference the whole chunk as
        int64 rows, the draw the golden results were made with."""
        if self._batch:
            rows = min(self._undrawn, PIECE)
            self._undrawn -= rows
            return _draw(self._rng, self.n, rows, self._cols)
        rows, self._undrawn = self._undrawn, 0
        return self._rng.integers(0, self.n, size=(rows, self._cols), dtype=np.int64)

    def _refill(self, cols: int) -> None:
        if self._pos < len(self._buf) and self._buf.shape[1] == cols:
            return
        if cols != self._cols:
            # switching proposal shape drops the rest of the chunk, drawn or not
            self._ahead.clear()
            while self._undrawn:
                self._piece()
            self._cols = cols
        if self._ahead:
            self._buf = self._ahead.popleft()
        else:
            if not self._undrawn:
                self._undrawn = CHUNK
            self._buf = self._piece()
        self._pos = 0

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
                done += len(rows)
                for v1, w1, v2, w2 in rows:
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
        for the forest. A buffer of CHUNK edges is folded, so it never holds
        more than one chunk's worth."""
        if len(u):
            self._iso[u] = False
            self._iso[v] = False
            self._pending.append((u, v))
            self._npending += len(u)
            if self._npending >= CHUNK:
                self._fold()

    def _find(self, x: np.ndarray) -> np.ndarray:
        """Roots of the vertices x, which are then pointed at them.

        One gather reads the parents and one check finds the entries whose
        parent is not a root. Only those climb, and after each level the set
        shrinks to the entries still below a root. An entry at depth one or
        less already points at its root, so only the deep ones are written
        back.
        """
        parent = self._parent
        roots = parent[x]
        up = parent[roots]
        deep = np.flatnonzero(up != roots)
        live, up = deep, up[deep]
        while len(live):
            roots[live] = up
            above = parent[up]
            still = np.flatnonzero(above != up)
            live, up = live[still], above[still]
        parent[x[deep]] = roots[deep]
        return roots

    def _fold(self) -> None:
        """Merge the buffered edges into the forest, at most FOLD at a time,
        so the temporaries of a merge stay small whatever was buffered.
        Each merge gathers views of the buffered arrays, never a copy of the
        whole buffer."""
        pending, self._pending, self._npending = self._pending, [], 0
        group: list[tuple[np.ndarray, np.ndarray]] = []
        count = 0
        for u, v in pending:
            for lo in range(0, len(u), FOLD):
                part = (u[lo:lo + FOLD], v[lo:lo + FOLD])
                if count + len(part[0]) > FOLD:
                    self._merge(group)
                    group, count = [], 0
                group.append(part)
                count += len(part[0])
        if group:
            self._merge(group)

    def _merge(self, edges: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Merge edges into the forest in rounds of vectorized hooking and
        pointer jumping (Shiloach and Vishkin).

        In a round every edge whose ends have different roots hooks the
        smaller root, by size and then by index, under the other, so the
        pointers climb a strict order and close no cycle. A root offered
        several parents takes one: each edge writes its own mark into it,
        and the edge whose mark stayed wins. Jumping the hooked roots over
        their parents, which are hooked roots too or roots, points each
        straight at a root, whose size then takes in theirs and drops to 0;
        so the sizes are exact at the roots and 0 elsewhere after every
        round, union by size keeps the trees shallow, and one gather finds
        the next round's roots. The lookups of the ends and each jump read
        again only the entries not yet at a root, so a level costs what is
        still moving.
        """
        parent, size = self._parent, self._size
        a = self._find(np.concatenate([e[0] for e in edges]))
        b = self._find(np.concatenate([e[1] for e in edges]))
        while True:
            live = a != b
            if not live.all():
                live = np.flatnonzero(live)
                if not len(live):
                    break
                a, b = a[live], b[live]
            # the FOLD-sized temporaries are freed as soon as they are used,
            # so fewer of them are live at the round's peak; but `shift`
            # lives to the round's end, since freed before `mark` is made
            # it took 1.6 to 3.7 times the minor page faults at n = 2e7
            del live
            sa, sb = size[a], size[b]
            # a - b where a hooks under b, else 0 (cheaper than np.where)
            shift = (a - b) * ((sa < sb) | ((sa == sb) & (a < b)))
            del sa, sb
            child, top = b + shift, a - shift
            mark = np.arange(-1, -1 - len(child), -1)
            parent[child] = mark
            won = np.flatnonzero(parent[child] == mark)
            del mark
            child = child[won]
            top = top[won]
            del won
            parent[child] = top
            # pointer jumping: only a child whose parent was hooked in this
            # round reads again, since the others already point at a root
            up = parent[top]
            live = np.flatnonzero(up != top)
            up = up[live]
            while len(live):
                top[live] = up
                parent[child[live]] = up
                above = parent[up]
                still = np.flatnonzero(above != up)
                live, up = live[still], above[still]
            np.add.at(size, top, size[child])
            size[child] = 0
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
        keys = np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v)
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
        block = self._buf[self._pos:self._pos + min(need, self._block)]
        rows = block.astype(np.int64)  # one widening instead of one per index
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
            rounds = when.astype(np.int32)
            np.minimum.at(stamp, ends, np.concatenate((rounds, rounds)))
            stale = (stamp[v1[asked]] < asked) | (stamp[w1[asked]] < asked)
            stamp[ends] = self._block
            if stale.any():
                cut = int(asked[np.argmax(stale)])
        self.e1_rounds += int(np.count_nonzero(first[:cut]))
        keep = real[:cut]
        # buffered at the rows' width, so int32 rows keep the buffer half as large
        self._insert(a[:cut][keep].astype(block.dtype), b[:cut][keep].astype(block.dtype))
        self.blocks += 1
        self._pos += cut
        return cut

    def _consume_product(self, need: int) -> int:
        """One block of product-rule rounds on the union-find.

        One vectorized pass repeats over `left`, the rounds of the block not
        yet applied, in row order (deterministic reservations). The first
        pass picks the block's giant, a stand-in for the largest component:
        the largest root the block reads. It stays a root, since every merge
        with it hooks the other root under it, and its size only grows. Each
        pass finds the live roots of the rounds left and calls a round free
        when none of its roots but the giant's was read by an earlier round
        of `left`. Every round applied so far merged only roots that no
        earlier unapplied round read, so a free round's other components
        have the sizes they have in row order. Only the giant's size G may
        differ: in row order it is the block-start size g0 plus the growth
        from every earlier round, known exactly for the rounds already
        applied. Each product has the form c*G**d, so the choice is monotone
        in G, and a free round whose choice is the same at that lower end
        and at G = n is exact. The first round of `left` follows only
        applied rounds, so its lower end is the giant's true size: it is
        always exact, and the loop ends. The exact rounds are applied at
        once by one hook, whose children no other round of the pass reads.
        The sizes read are widened to int64 first, since a product at
        G = n passes 2**31 long before n does.
        """
        self._fold()  # initial and continuation edges change the sizes read
        rows = self._buf[self._pos:self._pos + min(need, self._block)].astype(np.int64)
        self._pos += len(rows)
        count = len(rows)
        parent, size = self._parent, self._size
        stamp = self._stamp  # earliest round of the pass reading each root
        big = -1  # the block's giant, picked by the first pass
        grow = np.zeros(count, dtype=np.int64)  # giant growth per applied round
        left = np.arange(count)
        while len(left):
            quads = rows[left]
            roots = self._find(quads.ravel())
            if big < 0:
                big = roots[np.argmax(size[roots])]
                g0 = size[big]
            turn = np.repeat(np.arange(len(left), dtype=np.int32), 4)
            np.minimum.at(stamp, roots, turn)
            fresh = stamp[roots] == turn
            stamp[roots] = self._block
            roots = roots.reshape(-1, 4)
            giant = roots == big
            free = (fresh.reshape(-1, 4) | giant).all(axis=1)
            sizes = size[roots].astype(np.int64)
            # rounds still in `left` have grown nothing, so the running sum
            # at a round is the growth from the applied rounds before it
            low = np.where(giant, g0 + np.cumsum(grow)[left, None], sizes)
            high = np.where(giant, self.n, sizes)
            first = low[:, 0] * low[:, 1] >= low[:, 2] * low[:, 3]
            exact = free & (first == (high[:, 0] * high[:, 1] >= high[:, 2] * high[:, 3]))
            exact[0] = True

            a = np.where(first, roots[:, 0], roots[:, 2])
            b = np.where(first, roots[:, 1], roots[:, 3])
            join = exact & (a != b)
            a, b = a[join], b[join]
            # the child goes under the giant, else the smaller under the
            # larger, ties to a
            keep = (b != big) & ((a == big) | (size[a] >= size[b]))
            top = np.where(keep, a, b)
            child = a + b - top
            grow[left[join]] = np.where(top == big, size[child], 0)
            parent[child] = top
            np.add.at(size, top, size[child])
            size[child] = 0
            self._iso[np.where(first, quads[:, 0], quads[:, 2])[join]] = False
            self._iso[np.where(first, quads[:, 1], quads[:, 3])[join]] = False
            self._trees -= len(child)
            self.e1_rounds += int(np.count_nonzero(first[exact]))
            left = left[~exact]
        self.blocks += 1
        return count

    # -- observation -----------------------------------------------------

    def snapshot(self) -> Snapshot:
        if self._batch:
            self._fold()
            # sizes are 0 off the roots, so their bincount past 0 is the
            # histogram; the largest size is counted apart, so the bincount
            # runs only to the second largest, and added last it keeps the
            # sizes in order. np.bincount copies what is not intp, so it
            # reads the sizes FOLD at a time
            size = self._size
            at = int(np.argmax(size))
            top = int(size[at])
            size[at] = 0
            counts = np.zeros(int(size.max()) + 1, dtype=np.int64)
            for lo in range(0, self.n, FOLD):
                part = np.bincount(size[lo:lo + FOLD])
                counts[:len(part)] += part
            size[at] = top
            counts[0] = 0
            small = np.flatnonzero(counts)
            hist = dict(zip(small.tolist(), counts[small].tolist()))
            hist[top] = hist.get(top, 0) + 1
            dist = SizeDistribution(hist)
            if dist.n_components != self._trees:
                raise AssertionError("nonzero sizes and merge count disagree")
            if dist.n_vertices != self.n:
                raise AssertionError("component sizes do not sum to n")
            if dist.n1 != int(np.count_nonzero(self._iso)):
                raise AssertionError("singletons and isolation bitmap disagree")
        else:
            dist = snapshot_distribution(self.forest)
            if [dist.power_sum(k) for k in (1, 2, 3, 4)] != self.ledger.s_sums:
                raise AssertionError("ledger and histogram moments disagree")
            if (dist.c1, dist.n1) != (self.ledger.c1_size, self.ledger.n1_isolated):
                raise AssertionError("ledger extremes and histogram disagree")
        return Snapshot(m=self.m, dist=dist)

    def check_forest(self) -> None:
        """Recount the batch engine's roots from the parents, FOLD vertices
        at a time, and check that they are the vertices of nonzero
        size and as many as the merges leave. The scalar engine's snapshot
        already recounts its forest, so this checks nothing more there."""
        if not self._batch:
            return
        self._fold()
        roots = 0
        for lo in range(0, self.n, FOLD):
            hi = min(lo + FOLD, self.n)
            is_root = self._parent[lo:hi] == np.arange(lo, hi)
            if not np.array_equal(is_root, self._size[lo:hi] != 0):
                raise AssertionError("union-find roots and nonzero sizes disagree")
            roots += int(np.count_nonzero(is_root))
        if roots != self._trees:
            raise AssertionError("union-find roots and merge count disagree")


def _draw(rng: np.random.Generator, n: int, rows: int, cols: int) -> np.ndarray:
    """rows rows of cols uniform vertices below n: int32 when they fit, else
    int64. numpy draws the same values from the same stream either way, and
    consecutive calls draw what one call for all their rows would."""
    dtype = np.int32 if n <= 1 << 31 else np.int64
    return rng.integers(0, n, size=(rows, cols), dtype=dtype)


def _size_dtype(n: int) -> type:
    """The dtype of the component sizes: int32 while a size, at most n,
    fits, else int64."""
    return np.int32 if n < 1 << 31 else np.int64


def _check_attempts(m: int) -> None:
    if m > MAX_ATTEMPTS:
        raise InvalidConfigError(
            f"{m} insertions asked for, more than the {MAX_ATTEMPTS} one run may attempt"
        )


def _snap_index(n: int, t: float, m_end: int) -> int:
    return min(int(round(n * t / 2)), m_end)


def run_process(kind: ProcessKind | str, n: int, initial: InitialGraphSpec | str | None = None,
                t_end: float = 1.0, record_at: tuple[float, ...] = (), seed: int = 0,
                engine: str = "auto") -> list[TraceRecord]:
    """Run one process to t_end, recording observables on a schedule.

    Deterministic given (seed, kind, n, initial, schedule). record_at
    must be sorted and bounded by t_end. The forest is recounted after the
    last snapshot.
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
    sim = Simulation(kind, n, initial=initial, seed=seed, engine=engine)
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
        if records:
            sim.check_forest()
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
        if records:
            sim.check_forest()
        sim.advance_to(m_end)
    return records
