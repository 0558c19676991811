"""Evolving random-graph processes over the component ledger.

A Simulation owns one seeded generator and one process rule. Randomness
comes in fixed-size chunks of CHUNK uniform vertex proposals, and both
engines consume the identical stream, so traces match exactly across
engines for a given seed. The scalar reference draws each chunk whole, as
int64 rows, which is the stream the golden results were made from. The
batch engine draws a chunk FOLD rows at a time, as the rows are needed,
as int32, which every vertex below MAX_N fits; numpy draws the same
values from the stream either way, and consecutive draws give the
values, and leave the generator in the state, of one draw of the whole
chunk. The generator reaches a chunk's end when the chunk is spent, when
the rows change shape (a two-choice rule's quadruples against the pairs
of a continuation), which drops the rest of the chunk, and when
`Simulation.rng` is read for another draw (a Poisson count): the batch
engine then draws the rest of the chunk first and queues it for the
proposals that follow. A stop before a continuation switches to pairs
first (`start_pairs`), so the queue only ever holds rows that are read:
er-poisson's, or the pairs a uniform rule's continuation reads on.

engine='python' is the scalar reference: it walks the rows one by one
through a union-find forest with an exact moment ledger. engine='auto'
decides whole slices of rows with numpy on one union-find forest for
every rule, held in one int64 array (Tarjan and van Leeuwen): a vertex's
parent below the roots, and minus the component size at each root. An
initial graph is written into the forest directly, each component a star
on its first vertex, since only its vertex sets matter. The uniform
rules and bf buffer the edges they insert and fold them into the forest
at each snapshot and before the buffer would pass FOLD edges, in one
merge of rounds of vectorized hooking and pointer jumping that free
their temporaries; what follows a hook, the roots taking in the
children's sizes, is stated once for every rule. er keeps the sorted
keys of the pairs present; the keys of each slice of proposals are
sorted once, the distinct ones are looked up in that array in sorted
order, and the new ones are merged in and inserted as pairs read back
from the keys, since which row of a repeated pair inserts it changes no
component. The two-choice rules decide speculative
blocks of about sqrt(n) rows on the state at block start: bf on the
isolation bitmap, and the product rule on exact component sizes. A block
marks the vertices or roots it touches in their forest entries, below
-n where no entry lies, and writes the entries back before anything
else reads the forest, so every rule holds 9 bytes a vertex. For the
product rule each block takes as its giant the largest component it
reads; one vectorized pass applies every round of the block whose other
components no earlier pending round reads and whose choice cannot change
as that giant grows, merging straight into the forest through one hook,
and repeats on the rounds left until none is; the sizes it multiplies
are int64, as the entries are. A snapshot reads the forest in one pass,
FOLD vertices at a time: it refuses a vertex that is its own parent,
bincounts the sizes at the roots below FOLD and lists the larger ones
apart, then checks the histogram against the merge count, n and the
isolation bitmap. So the temporaries of a fold and of a snapshot are
bounded by FOLD whatever n and the sizes are.

One run attempts at most MAX_ATTEMPTS insertions; asking for more
raises InvalidConfigError, since no run of that length could finish.
A simulation refuses n above MAX_N before it allocates anything.

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
FOLD = 1 << 15  # proposal rows drawn, buffered edges merged, or vertices scanned, at a time
MAX_ATTEMPTS = 1 << 32  # insertions one simulation may attempt, main and continuation each
# vertices fit int32 rows, and er's keys u*n+v and sentinel n*n fit int64
MAX_N = 1 << 31
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
        if not 2 <= n <= MAX_N:
            raise InvalidConfigError(f"n must lie in [2, {MAX_N}], got {n}")
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
        # union-find forest in one array: each vertex below a root holds its
        # parent, and each root minus the size of its component, so the
        # negative entries alone give the histogram. The entries are int64,
        # since numpy casts any other index array on each use, at every
        # level of `_find`
        self._parent = np.full(n, -1, dtype=np.int64)
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
            self._parent[starts] = -sizes
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
            scale = 0.7 if self.kind is ProcessKind.BOUNDED_SIZE else 3
            self._block = max(2, int(scale * math.sqrt(n)))

    # -- proposal stream -------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The generator, with the current chunk drawn to its end, so that a
        draw on it (a Poisson count) comes where it came when a chunk was
        drawn whole. The batch engine queues the rest of the chunk for the
        proposals that follow, which read it: er-poisson's, or a uniform
        rule's continuation, since a two-choice rule's stop drops its chunk
        first (`start_pairs`). The scalar reference, which draws whole
        chunks, has none left to draw."""
        while self._undrawn:
            self._ahead.append(self._piece())
        return self._rng

    def _piece(self) -> np.ndarray:
        """Draw the next piece of the current chunk: at most FOLD int32 rows
        for the batch engine, and for the scalar reference the whole chunk as
        int64 rows, the draw the golden results were made with."""
        if self._batch:
            rows, dtype = min(self._undrawn, FOLD), np.int32
        else:
            rows, dtype = self._undrawn, np.int64
        self._undrawn -= rows
        return self._rng.integers(0, self.n, size=(rows, self._cols), dtype=dtype)

    def start_pairs(self) -> None:
        """Switch the proposals to pairs, as the first draw of a continuation
        (`add_er_edges`) would. The rest of a two-choice rule's chunk, drawn
        or not, is dropped here, so a read of `rng` for the continuation's
        count queues none of it."""
        self._reshape(2)

    def _reshape(self, cols: int) -> None:
        if cols != self._cols:
            # switching proposal shape drops the rest of the chunk, drawn or not
            self._buf, self._pos = np.empty((0, 0), dtype=np.int64), 0
            self._ahead.clear()
            while self._undrawn:
                self._piece()
            self._cols = cols

    def _refill(self, cols: int) -> None:
        if self._pos < len(self._buf) and self._buf.shape[1] == cols:
            return
        self._reshape(cols)
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
        self.m += self._attempt(self.kind, m_target - self.m)

    def add_er_edges(self, count: int) -> None:
        """Attempt `count` uniform with-replacement edges on the current graph.

        Continuation segment for stop-restart constructions; tracked in
        extra_attempts, not in the main process clock m.
        """
        count = int(count)
        _check_attempts(self.extra_attempts + count)
        self.extra_attempts += self._attempt(ProcessKind.ER_WITH_REPLACEMENT, count)

    def _attempt(self, kind: ProcessKind, count: int) -> int:
        """Attempt `count` insertions under `kind` from the proposal stream,
        a buffered piece at a time, and return how many were attempted.
        Every engine consumes exactly the rows the scalar loop would."""
        cols = 4 if kind.two_choice else 2
        done = 0
        while done < count:
            self._refill(cols)
            need = count - done
            if not self._batch:
                done += self._consume_python(kind, need)
            elif kind is ProcessKind.BOUNDED_SIZE:
                done += self._consume_bf(need)
            elif kind is ProcessKind.PRODUCT_RULE:
                done += self._consume_product(need)
            else:
                done += self._consume_uniform(need, kind is ProcessKind.ER_WITHOUT_REPLACEMENT)
        return done

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
        for the forest. The buffer is folded first if the edges would take
        it past FOLD, so it never holds more than FOLD edges."""
        if len(u):
            self._iso[u] = False
            self._iso[v] = False
            if self._npending + len(u) > FOLD:
                self._fold()
            self._pending.append((u, v))
            self._npending += len(u)

    def _find(self, x: np.ndarray) -> np.ndarray:
        """Roots of the vertices x, which are then pointed at them.

        A negative entry marks a root. One gather reads the entries: each
        vertex's parent, or minus a size, which the vertex itself, a root,
        replaces. One more gather and check find the entries whose parent
        is not a root. Only those climb, while the entry above is a parent
        (`parent[up] >= 0`), and after each level the set shrinks to the
        entries still below a root. An entry at depth one or less already
        points at its root, so only the deep ones are written back.
        """
        parent = self._parent
        roots = parent[x]
        at = np.flatnonzero(roots < 0)
        roots[at] = x[at]
        del at
        up = parent[roots]
        deep = np.flatnonzero(up >= 0)
        live, up = deep, up[deep]
        while len(live):
            roots[live] = up
            above = parent[up]
            still = np.flatnonzero(above >= 0)
            live, up = live[still], above[still]
        parent[x[deep]] = roots[deep]
        return roots

    def _fold(self) -> None:
        """Merge the buffered edges, at most FOLD of them, into the forest in
        one merge, so its temporaries are bounded by FOLD."""
        if self._pending:
            self._merge(self._pending)
            self._pending, self._npending = [], 0

    def _merge(self, edges: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Merge edges into the forest in rounds of vectorized hooking and
        pointer jumping (Shiloach and Vishkin).

        In a round every edge whose ends have different roots hooks the
        smaller root, by size and then by index, under the other, so the
        pointers climb a strict order and close no cycle. The sizes are the
        roots' entries, read before any is written: the smaller size is the
        larger entry, so the larger of an edge's two entries is its child's.
        A root offered several parents takes one: each edge writes its own
        mark into it, and the edge whose mark stayed wins; its hook writes
        the parent over the child's size. `_find` on the hooked roots then
        jumps each over its parent, a hooked root too or a root, straight
        to a root, which takes in the children's entries (`_absorb`); so
        every root holds its exact size after every round, and union by
        size keeps the trees shallow. An edge whose mark stayed has joined
        its ends; only the others go on to the next round, whose roots one
        gather finds, since every child now points straight at its root
        and every top is a root or one of those children. The lookups of
        the ends and each jump read again only the entries not yet at a
        root, so a level costs what is still moving.
        """
        parent = self._parent
        a = self._find(np.concatenate([e[0] for e in edges]))
        b = self._find(np.concatenate([e[1] for e in edges]))
        while True:
            live = a != b
            if not live.all():
                live = np.flatnonzero(live)
                a, b = a[live], b[live]
            if not len(a):
                break
            # the FOLD-sized temporaries are freed as soon as they are used,
            # and filtered one at a time, so few of them are live at once
            del live
            ea, eb = parent[a], parent[b]  # minus the roots' sizes
            # a - b where a hooks under b, else 0 (cheaper than np.where)
            shift = (a - b) * ((ea > eb) | ((ea == eb) & (a < b)))
            child, top = b + shift, a - shift
            del shift, a, b
            entry = np.maximum(ea, eb)  # the child's, read before the marks write over it
            del ea, eb
            mark = np.arange(-1, -1 - len(child), -1)
            parent[child] = mark
            stayed = parent[child] == mark
            del mark
            won = np.flatnonzero(stayed)
            lost = np.flatnonzero(~stayed)  # the edges that go on
            del stayed
            a, b = child[lost], top[lost]
            del lost
            child = child[won]
            entry = entry[won]
            parent[child] = top[won]
            del won, top
            self._absorb(entry, self._find(child))
            del child, entry
            a, up = parent[a], parent[b]  # a child's root, a top's parent or size
            b = np.where(up < 0, b, up)
            del up

    def _absorb(self, entries: np.ndarray, top: np.ndarray) -> None:
        """What follows a hook of roots under the roots `top`: each top's
        entry takes in `entries`, minus the sizes its children held before
        the hook wrote their parents over them, and the trees lose one per
        child."""
        np.add.at(self._parent, top, entries)
        self._trees -= len(entries)

    def _consume_uniform(self, need: int, norep: bool) -> int:
        # need rows hold at most need insertions: the whole slice is consumed
        rows = self._buf[self._pos:self._pos + need]
        self._pos += len(rows)
        u, v = rows[:, 0], rows[:, 1]
        if norep:
            u, v = self._new_pairs(u, v)
        else:
            take = np.flatnonzero(u != v)
            u, v = u[take], v[take]
        self._insert(u, v)
        return len(u)

    def _new_pairs(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The er insertions of a nonempty slice of proposals: its distinct
        pairs that are no loop and not present yet, as (lower, upper) ends
        in key order, at the dtype of u. Their keys join `_keys`. Which row
        of a repeated pair inserts it changes no component, so no row is
        tracked.

        The slice's keys are sorted once and the distinct ones kept; they
        are looked up in `_keys` in sorted order, and the new ones are
        merged in at the positions the lookup found.
        """
        n = self.n
        keys = np.sort(np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        at = np.searchsorted(self._keys, keys)
        # a loop's key u*(n+1) is the only kind of key that n+1 divides
        fresh = np.flatnonzero((self._keys[at] != keys) & (keys % (n + 1) != 0))
        keys = keys[fresh]
        self._keys = np.insert(self._keys, at[fresh], keys)
        return (keys // n).astype(u.dtype), (keys % n).astype(u.dtype)

    def _consume_bf(self, need: int) -> int:
        """One speculative block of bf rounds.

        Every round is decided on the isolation bitmap at block start.
        Isolation only ever ends, so a round can be decided wrongly only
        when it takes the first edge although v1 or w1 was joined by an
        earlier round of the same block. The block is cut before the
        first such round; every round before it is exact. Those vertices
        were isolated at block start, so only an end isolated then is
        marked: its entry, -1, holds the earliest round joining it, below
        -n, until the asked ends are read, and -1 again after.
        """
        # one widening instead of one per index
        rows = self._buf[self._pos:self._pos + min(need, self._block)].astype(np.int64)
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
            lone = np.flatnonzero(self._iso[ends])  # the ends isolated at block start
            ends = ends[lone]
            parent, base = self._parent, -self.n - self._block  # round i is base + i
            np.minimum.at(parent, ends, np.concatenate((when, when))[lone] + base)
            stale = np.minimum(parent[v1[asked]], parent[w1[asked]]) < asked + base
            parent[ends] = -1
            if stale.any():
                cut = int(asked[np.argmax(stale)])
        self.e1_rounds += int(np.count_nonzero(first[:cut]))
        keep = real[:cut]
        self._insert(a[:cut][keep], b[:cut][keep])
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
        of `left`: each root read holds the earliest turn reading it, below
        -n, in its entry until the turns are read back. Every round applied
        so far merged only roots that no earlier unapplied round read, so a
        free round's other components have the sizes they have in row order.
        Only the giant's size G may differ: in row order it is the
        block-start size g0 plus the growth from every earlier round, known
        exactly for the rounds already applied. Each product has the form
        c*G**d, so the choice is monotone in G, and a free round whose
        choice is the same at that lower end and at G = n is exact. The
        first round of `left` follows only applied rounds, so its lower end
        is the giant's true size: it is always exact, and the loop ends. The
        exact rounds are applied at once by one hook, whose children no
        other round of the pass reads; their entries are added into the tops
        before the hook writes over them. The products multiply the int64
        entries, minus the sizes, in pairs, so a product at G = n, which
        passes 2**31 long before n does, cannot wrap.
        """
        self._fold()  # continuation edges change the sizes read
        rows = self._buf[self._pos:self._pos + min(need, self._block)].astype(np.int64)
        self._pos += len(rows)
        count = len(rows)
        parent = self._parent
        big = -1  # the block's giant, picked by the first pass
        grow = np.zeros(count, dtype=np.int64)  # giant growth per applied round
        left = np.arange(count)
        # turn i of a pass, for each of its four roots: -n - count + i, below -n
        turns = np.repeat(np.arange(-self.n - count, -self.n), 4)
        while len(left):
            quads = rows[left]
            roots = self._find(quads.ravel())
            entries = parent[roots]  # minus the roots' sizes
            if big < 0:
                at = np.argmin(entries)
                big, g0 = roots[at], -entries[at]
            # each root read takes the earliest turn reading it, and its entry
            # back once the turns are compared, before any hook
            turn = turns[:len(roots)]
            np.minimum.at(parent, roots, turn)
            fresh = (parent[roots] == turn).reshape(-1, 4)
            parent[roots] = entries
            roots, entries = roots.reshape(-1, 4), entries.reshape(-1, 4)
            giant = roots == big
            free = (fresh | giant).all(axis=1)
            # rounds still in `left` have grown nothing, so the running sum
            # at a round is the growth from the applied rounds before it
            low = np.where(giant, -g0 - np.cumsum(grow)[left, None], entries)
            high = np.where(giant, -self.n, entries)
            first = low[:, 0] * low[:, 1] >= low[:, 2] * low[:, 3]
            exact = free & (first == (high[:, 0] * high[:, 1] >= high[:, 2] * high[:, 3]))
            exact[0] = True

            a = np.where(first, roots[:, 0], roots[:, 2])
            b = np.where(first, roots[:, 1], roots[:, 3])
            join = exact & (a != b)
            a, b = a[join], b[join]
            # the child goes under the giant, else the smaller under the
            # larger, ties to a
            keep = (b != big) & ((a == big) | (parent[a] <= parent[b]))
            top = np.where(keep, a, b)
            child = a + b - top
            entries = parent[child]
            grow[left[join]] = np.where(top == big, -entries, 0)
            self._absorb(entries, top)
            parent[child] = top
            self._iso[np.where(first, quads[:, 0], quads[:, 2])[join]] = False
            self._iso[np.where(first, quads[:, 1], quads[:, 3])[join]] = False
            self.e1_rounds += int(np.count_nonzero(first[exact]))
            left = left[~exact]
        self.blocks += 1
        return count

    # -- observation -----------------------------------------------------

    def snapshot(self) -> Snapshot:
        if self._batch:
            self._fold()
            # one pass reads the forest FOLD vertices at a time, so its
            # temporaries are bounded by FOLD whatever n and the sizes are.
            # Each slice refuses a vertex that is its own parent, which
            # `_find` would climb forever, bincounts its sizes, the negated
            # entries at the roots and 0 below them, under FOLD (the counts
            # past 0 are the histogram) and lists the larger ones apart
            parent = self._parent
            counts = np.zeros(1, dtype=np.int64)
            large: list[int] = []
            for lo in range(0, self.n, FOLD):
                hi = min(lo + FOLD, self.n)
                if (parent[lo:hi] == np.arange(lo, hi)).any():
                    raise AssertionError("a union-find vertex is its own parent")
                # the sizes, 0 below the roots; in this copy the large sizes
                # are set to 0, which is not counted
                part = np.negative(parent[lo:hi])
                np.maximum(part, 0, out=part)
                big = part >= FOLD
                if big.any():
                    large += part[big].tolist()
                    part[big] = 0
                part = np.bincount(part, minlength=len(counts))
                part[:len(counts)] += counts
                counts = part
            counts[0] = 0
            small = np.flatnonzero(counts)
            hist = dict(zip(small.tolist(), counts[small].tolist()))
            for s in sorted(large):  # above every small size, so the keys stay in order
                hist[s] = hist.get(s, 0) + 1
            dist = SizeDistribution(hist)
            if dist.n_components != self._trees:
                raise AssertionError("roots and merge count disagree")
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
