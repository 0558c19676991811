"""Process semantics: rule choices, stream determinism, engine parity, golden
rows, limits."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson

from percolab import (
    InitialGraphSpec,
    InvalidConfigError,
    ProcessKind,
    Simulation,
    poisson_edge_count,
    run_process,
)
from percolab import processes
from percolab.harness import ExperimentConfig, ResultRow, run_experiment

ALL_KINDS = list(ProcessKind)


# ---------------------------------------------------------------------------
# initial graph specification

def test_initial_spec_parse_roundtrip():
    spec = InitialGraphSpec.parse("3:100,7:2")
    assert spec.total_vertices == 314
    assert spec.format() == "3:100,7:2"
    assert InitialGraphSpec.parse("").total_vertices == 0


def test_initial_spec_rejects_garbage():
    for bad in ("3", "3:0", "0:5", "a:b", "3:-1", "3:1,"):
        with pytest.raises(InvalidConfigError):
            InitialGraphSpec.parse(bad)


def test_initial_spec_distribution_fills_singletons():
    dist = InitialGraphSpec.parse("3:1").to_distribution(5)
    assert dist.counts == {3: 1, 1: 2}
    assert dist.s(2) == pytest.approx(2.2)


def test_initial_spec_too_large_for_n():
    with pytest.raises(InvalidConfigError):
        InitialGraphSpec.parse("3:2").validate_for(5)


def test_initial_spec_path_edges_are_consecutive_blocks():
    spec = InitialGraphSpec.parse("3:1,2:1")
    assert list(spec.path_edges()) == [(0, 1), (1, 2), (3, 4)]


INITIAL_FOREST = "1:3,4:2,2:5,7:1"  # size-1 parts and a part longer than a bf block at n = 28


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [28, 40, 3000])
def test_initial_graph_is_built_straight_into_the_forest(kind, n):
    """Right after construction the forest holds the initial components,
    each vertex pointing at its root, with no edge left to fold."""
    spec = InitialGraphSpec.parse(INITIAL_FOREST)
    sim = Simulation(kind, n, initial=spec)
    assert (sim._pending, sim._npending) == ([], 0)
    assert (sim._parent[sim._parent] == sim._parent).all()
    assert sim._trees == n - sum((s - 1) * c for s, c in spec.parts)
    assert sim._parent[sim._big] == sim._big
    assert sim._size[sim._big] == 7
    want = spec.to_distribution(n)
    assert np.count_nonzero(sim._iso) == want.n1
    assert sim.snapshot().dist == want


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_engine_parity_from_the_initial_forest(kind):
    grid = tuple(1.5 * (i + 1) / 10 for i in range(10))
    kwargs = dict(n=3000, initial=INITIAL_FOREST, t_end=1.5, record_at=grid, seed=23)
    batch = run_process(kind, engine="auto", **kwargs)
    assert len(batch) == 10
    assert batch == run_process(kind, engine="python", **kwargs)


# ---------------------------------------------------------------------------
# rule semantics on scripted rows, on both engines

def play_rows(kind, rows, rounds, n=12, initial="4:2", loops=True, one_by_one=False):
    """Play hand-made rows (they stand in for the drawn chunk) for `rounds`
    rounds on both engines, in one advance or one round per advance. Both
    must agree on the component sizes, isolated vertices, rounds attempted,
    first-edge rounds and rows consumed; that common result is returned."""
    out = []
    for engine in processes.ENGINES:
        sim = Simulation(ProcessKind.from_token(kind), n, initial=initial, loops=loops,
                         engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)
        for m in range(1, rounds + 1) if one_by_one else (rounds,):
            sim.advance_to(m)
        snap = sim.snapshot()
        out.append((snap.dist.counts, snap.n1, sim.m, sim.e1_rounds, sim._pos))
    assert out[0] == out[1]
    return out[0]


def test_er_step_skips_loops_without_counting():
    for kind in ("er", "er-wr", "er-poisson"):
        counts, _, m, _, pos = play_rows(kind, [(3, 3), (0, 1)], 1, n=5, initial="")
        assert (counts, m, pos) == ({1: 3, 2: 1}, 1, 2)


def test_er_step_without_replacement_resamples_present_edges():
    # in one advance the repeat is in the same slice as the first proposal of
    # the pair; one round per advance finds it among the edges already present
    for one_by_one in (False, True):
        counts, _, m, _, pos = play_rows("er", [(0, 1), (1, 0), (1, 2)], 2, n=5, initial="",
                                         one_by_one=one_by_one)
        assert (counts, m, pos) == ({1: 2, 3: 1}, 2, 3)
    # an initial edge is present from the start
    counts, _, m, _, pos = play_rows("er", [(1, 0), (1, 2)], 1, n=5, initial="2:1")
    assert (counts, m, pos) == ({1: 2, 3: 1}, 1, 2)


def test_bf_step_takes_first_edge_iff_both_isolated():
    counts, n1, _, e1, _ = play_rows("bf", [(8, 9, 0, 1)], 1)
    assert (counts, n1, e1) == ({1: 2, 2: 1, 4: 2}, 2, 1)  # 8 and 9 isolated
    counts, n1, _, e1, _ = play_rows("bf", [(0, 8, 9, 10)], 1)
    assert (counts, n1, e1) == ({1: 2, 2: 1, 4: 2}, 2, 0)  # falls through to 9-10


def test_bf_step_chosen_loop_is_a_noop_round():
    # v1 == w1 isolated counts as both isolated; the chosen edge is a loop
    counts, n1, m, e1, pos = play_rows("bf", [(8, 8, 0, 1)], 1)
    assert (counts, n1, m, e1, pos) == ({1: 4, 4: 2}, 4, 1, 1, 1)


def test_bf_step_loopless_mode_resamples_whole_round():
    counts, n1, m, e1, pos = play_rows("bf", [(8, 8, 0, 1), (9, 10, 2, 3)], 1, loops=False)
    assert (counts, n1, m, e1, pos) == ({1: 2, 2: 1, 4: 2}, 2, 1, 1, 2)


def test_product_rule_prefers_larger_product_ties_first():
    for rows, e1_want in (([(0, 4, 8, 9)], 1),  # 16 beats 1
                          ([(8, 9, 0, 4)], 0)):  # product 1 loses to 16
        counts, _, _, e1, _ = play_rows("product", rows, 1)
        assert (counts, e1) == ({1: 4, 8: 1}, e1_want)
    # a tie keeps the first pair
    counts, _, _, e1, _ = play_rows("product", [(8, 9, 10, 11)], 1)
    assert (counts, e1) == ({1: 2, 2: 1, 4: 2}, 1)


# ---------------------------------------------------------------------------
# whole-process runs

def test_run_process_records_snap_to_nearest_step():
    recs = run_process("er", 10, t_end=1.0, record_at=(0.42, 1.0), seed=3)
    assert [r.m for r in recs] == [2, 5]
    assert recs[0].t == pytest.approx(0.4)  # reported time is 2m/n
    assert recs[1].t == pytest.approx(1.0)


def test_run_process_rejects_unsorted_records():
    with pytest.raises(InvalidConfigError):
        run_process("er", 10, t_end=1.0, record_at=(0.8, 0.2), seed=0)
    with pytest.raises(InvalidConfigError):
        run_process("er", 10, t_end=1.0, record_at=(1.2,), seed=0)


def test_er_without_replacement_fills_complete_graph():
    # n=5 at t=4 asks for exactly C(5,2) distinct edges
    for seed in range(3):
        recs = run_process("er", 5, t_end=4.0, record_at=(4.0,), seed=seed)
        assert recs[0].c1_frac == 1.0
        assert recs[0].s2 == pytest.approx(5.0)


@pytest.mark.parametrize("engine", ["auto", "python"])
def test_er_without_replacement_rejects_more_edges_than_free_pairs(engine):
    # t=5 at n=5 asks for 12 distinct edges; the complete graph has 10
    with pytest.raises(InvalidConfigError):
        run_process("er", 5, t_end=5.0, seed=0, engine=engine)
    # two initial pairs leave 8 free pairs: t=3.2 (8 edges) fits, t=3.6 (9) does not
    recs = run_process("er", 5, initial="2:2", t_end=3.2, record_at=(3.2,), engine=engine)
    assert recs[0].s2 == pytest.approx(5.0)
    with pytest.raises(InvalidConfigError):
        run_process("er", 5, initial="2:2", t_end=3.6, engine=engine)
    sim = Simulation(ProcessKind.ER_WITHOUT_REPLACEMENT, 5, engine=engine)
    with pytest.raises(InvalidConfigError):
        sim.advance_to(11)


def test_two_vertex_er():
    recs = run_process("er", 2, t_end=1.0, record_at=(1.0,), seed=1)
    assert recs[0].c1_frac == 1.0
    assert recs[0].x1 == 0.0


def test_same_seed_reproduces_different_seed_varies():
    a = run_process("bf", 4000, t_end=1.0, record_at=(0.5, 1.0), seed=7)
    b = run_process("bf", 4000, t_end=1.0, record_at=(0.5, 1.0), seed=7)
    c = run_process("bf", 4000, t_end=1.0, record_at=(0.5, 1.0), seed=8)
    assert a == b
    assert a != c


def test_poisson_edge_count_moments():
    rng = np.random.default_rng(0)
    assert poisson_edge_count(0.0, 1000, rng) == 0
    draws = [poisson_edge_count(0.8, 1000, rng) for _ in range(3000)]
    want = 999 * 0.8 / 2
    assert np.mean(draws) == pytest.approx(want, abs=4 * math.sqrt(want / 3000))
    assert np.var(draws) == pytest.approx(want, rel=0.15)


def stream_trace(kind, n, initial="", loops=True, seed=0, engine="auto",
                 schedule=(), extra=0):
    """Everything a Simulation exposes after a schedule of advances and
    snapshots, then an optional continuation: the snapshots, the
    first-edge count, both clocks and the generator state."""
    sim = Simulation(ProcessKind.from_token(kind), n, initial=initial, seed=seed,
                     loops=loops, engine=engine)
    snaps = []
    for m in schedule:
        sim.advance_to(m)
        snaps.append(sim.snapshot())
    if extra:
        sim.add_er_edges(extra)
        snaps.append(sim.snapshot())
    return (snaps, sim.e1_rounds, sim.m, sim.extra_attempts, sim._pos,
            sim.rng.bit_generator.state)


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
@pytest.mark.parametrize("loops", [True, False])
def test_engine_parity(kind, loops):
    """The batch and scalar engines must consume the identical stream and
    produce identical snapshots and first-edge counts, including with an
    initial graph."""
    initial = "3:5,2:10"
    kwargs = dict(n=3000, initial=initial, t_end=1.2, record_at=(0.6, 1.2),
                  seed=11, loops=loops)
    fast = run_process(kind, engine="auto", **kwargs)
    slow = run_process(kind, engine="python", **kwargs)
    assert fast == slow
    sched = dict(kind=kind, n=3000, initial=initial, loops=loops, seed=11,
                 schedule=(0, 900, 1800))
    assert stream_trace(engine="auto", **sched) == stream_trace(engine="python", **sched)


def test_engine_parity_two_phase_continuation():
    sims = []
    for engine in ("auto", "python"):
        sim = Simulation(ProcessKind.BOUNDED_SIZE, 2000, seed=5, engine=engine)
        sim.advance_to(900)
        sim.add_er_edges(150)
        sims.append((sim.snapshot(), sim.e1_rounds, sim.rng.bit_generator.state))
    assert sims[0] == sims[1]


def test_er_engine_parity_near_the_complete_graph():
    """At n=40 most of the 780 pairs get used, so proposals repeat present
    edges and each other within one slice."""
    for seed in range(3):
        sched = dict(kind="er", n=40, initial="3:4", seed=seed, schedule=(300, 700, 772))
        assert stream_trace(engine="auto", **sched) == stream_trace(engine="python", **sched)


@pytest.mark.parametrize("chunk", [5, 64])
@pytest.mark.parametrize("n", [40, 60])
def test_er_key_set_matches_the_scalar_seen_set(n, chunk):
    """Short chunks cut the advances into many slices, which repeat present
    edges and, at 64 rows, each other. After every advance the batch keys
    must be the scalar engine's seen set, sorted and closed by n*n."""
    pairs = n * (n - 1) // 2 - 8
    schedule = (1, pairs // 8, pairs // 2, pairs - 10, pairs)
    with mock.patch.object(processes, "CHUNK", chunk):
        batch = Simulation(ProcessKind.ER_WITHOUT_REPLACEMENT, n, initial="3:4", seed=n,
                           engine="auto")
        scalar = Simulation(ProcessKind.ER_WITHOUT_REPLACEMENT, n, initial="3:4", seed=n,
                            engine="python")
        for m in schedule:
            batch.advance_to(m)
            scalar.advance_to(m)
            keys = batch._keys
            assert (np.diff(keys) > 0).all()
            assert keys[-1] == n * n
            assert keys.tolist() == sorted(scalar._seen) + [n * n]
        sched = dict(kind="er", n=n, initial="3:4", seed=n, schedule=schedule)
        assert stream_trace(engine="auto", **sched) == stream_trace(engine="python", **sched)


def test_engine_parity_across_a_chunk_boundary():
    """Records on both sides of the end of the first chunk, with loop rows
    skipped (so rounds and rows drift apart), then a continuation."""
    chunk = processes.CHUNK
    sched = dict(kind="bf", n=1000, loops=False, seed=3,
                 schedule=(chunk - 700, chunk + 500), extra=2000)
    assert stream_trace(engine="auto", **sched) == stream_trace(engine="python", **sched)


def test_bf_batch_parity_when_blocks_are_cut_every_round():
    """Each round offers as first edge a vertex that the round before it
    joined, so every speculative block is cut after one round; the scalar
    engine fed the same rows must agree."""
    rows, prev, fresh = [(0, 1, 2, 3)], 1, 4
    for _ in range(39):
        rows.append((prev, fresh, fresh + 1, fresh + 2))
        prev, fresh = fresh + 1, fresh + 3
    sims = []
    for engine in ("auto", "python"):
        sim = Simulation(ProcessKind.BOUNDED_SIZE, fresh, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)  # stands in for the drawn chunk
        sim.advance_to(len(rows))
        sims.append(sim)
    batch, scalar = ((s.snapshot(), s.e1_rounds, s._pos) for s in sims)
    assert batch == scalar
    assert batch[1] == 1  # only round 0 took its first edge
    assert sims[0].blocks == len(rows)


@pytest.mark.parametrize("loops", [True, False])
def test_product_batch_parity_on_hand_made_rows(loops):
    """Ties, a chosen loop, a chosen edge inside one component and, without
    loops, skipped rows; the scalar engine fed the same rows must agree."""
    rows = [
        (0, 1, 2, 3),  # tie 1*1 = 1*1: the first edge joins 0-1
        (0, 0, 4, 5),  # 2*2 > 1*1: the first edge, a loop (skipped without loops)
        (4, 5, 1, 0),  # 1*1 < 2*2: the second edge, inside {0, 1}
        (2, 3, 6, 6),  # tie: the first edge joins 2-3 (skipped without loops)
        (6, 7, 0, 2),  # the second edge joins {0, 1} and 2's component
        (8, 9, 8, 9),  # tie between equal edges: the first joins 8-9
    ]
    rounds = 6 if loops else 4
    sims = []
    for engine in ("auto", "python"):
        sim = Simulation(ProcessKind.PRODUCT_RULE, 10, loops=loops, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)  # stands in for the drawn chunk
        sim.advance_to(rounds)
        sims.append((sim.snapshot(), sim.e1_rounds, sim._pos))
    assert sims[0] == sims[1]
    snap, e1, pos = sims[0]
    assert pos == len(rows)
    if loops:
        assert (e1, snap.dist.counts) == (4, {1: 4, 2: 1, 4: 1})
    else:
        assert (e1, snap.dist.counts) == (2, {1: 5, 2: 1, 3: 1})


def test_product_engine_parity_with_chunk_of_one_row():
    """Every round refills the buffer, loop rows are skipped across refills,
    and a continuation feeds the union-find the rule reads."""
    sched = dict(kind="product", n=300, initial="3:10,2:20", loops=False, seed=8,
                 schedule=(50, 200), extra=100)
    with mock.patch.object(processes, "CHUNK", 1):
        auto = stream_trace(engine="auto", **sched)
        assert auto == stream_trace(engine="python", **sched)
    sims = []
    for engine in ("auto", "python"):
        sim = Simulation(ProcessKind.PRODUCT_RULE, 300, initial="3:10,2:20", seed=8,
                         engine=engine)
        sim.advance_to(100)
        sim.add_er_edges(100)
        sim.advance_to(200)  # product rounds after the continuation
        sims.append((sim.snapshot(), sim.e1_rounds, sim.rng.bit_generator.state))
    assert sims[0] == sims[1]


def test_product_giant_root_survives_folds_of_every_size():
    """The initial graph is built straight into the forest, and with
    CHUNK = 1 every continuation edge is folded as it is inserted, so no
    edge is left buffered when a block starts; each block must still read a
    root of a largest component as its giant."""
    with mock.patch.object(processes, "CHUNK", 1):
        sim = Simulation(ProcessKind.PRODUCT_RULE, 300, initial="8:1,2:20", seed=4)
        for m, extra in ((1, 0), (40, 150), (41, 0), (80, 150), (81, 0)):
            sim.advance_to(m)
            assert sim._parent[sim._big] == sim._big
            assert sim._size[sim._big] == sim.snapshot().c1
            sim.add_er_edges(extra)


def product_on_rows(rows, n, initial):
    """Play hand-made rows (they stand in for the drawn chunk) on both engines,
    with every row in one product block; returns (snapshot, e1_rounds, _pos)
    per engine and the batch simulation."""
    out = []
    for engine in ("auto", "python"):
        with mock.patch.object(processes, "PRODUCT_BLOCK", 64):
            sim = Simulation(ProcessKind.PRODUCT_RULE, n, initial=initial, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)
        sim.advance_to(len(rows))
        out.append((sim.snapshot(), sim.e1_rounds, sim._pos))
        if engine == "auto":
            batch = sim
    return out, batch


def test_product_round_sharing_a_component_with_its_block_is_played_late():
    """Round 1 meets 15's component, which round 0 grew: at block start it is
    a tie and would take the first edge, but the exact sizes take the second.
    Round 2 then reads the component round 1 grew."""
    rows = [
        (15, 16, 17, 18),  # tie: 15-16
        (19, 20, 15, 21),  # 1*1 < 2*1: the second edge, 21 joins {15, 16}
        (19, 21, 22, 23),  # 1*3 > 1*1: 19 joins {15, 16, 21}
    ]
    (batch, scalar), sim = product_on_rows(rows, 30, initial="8:1")
    assert batch == scalar
    snap, e1, _ = batch
    assert (e1, snap.dist.counts) == (2, {1: 18, 4: 1, 8: 1})
    assert sim.blocks == 1


def test_product_choice_flips_as_the_giant_grows_inside_a_block():
    """The giant {0..7} grows by one in round 0 (the vectorized pass) and by
    one in round 1 (the scalar pass). Round 2 offers the giant with a
    singleton against components of 5 and 2: at the giant's block-start
    size 8 it would take the second edge, at its true size 10 it ties and
    takes the first."""
    rows = [
        (0, 15, 16, 17),  # 8*1 > 1*1: 15 joins the giant
        (16, 15, 18, 19),  # 16 was read by round 0; 1*9 > 1*1: 16 joins the giant
        (0, 20, 8, 13),  # 10*1 >= 5*2: 20 joins the giant
        (21, 22, 23, 24),  # tie: 21-22
    ]
    (batch, scalar), sim = product_on_rows(rows, 30, initial="8:1,5:1,2:1")
    assert batch == scalar
    snap, e1, _ = batch
    assert (e1, snap.dist.counts) == (4, {1: 10, 2: 2, 5: 1, 11: 1})
    assert sim._size[sim._big] == 11


def test_product_snapshot_checks_its_union_find():
    for later in (
        [(0, 1, 0, 1)],  # the second merge of 0 and 1 in the vectorized pass
        [(1, 2, 4, 5), (0, 1, 6, 7)],  # 1 was read by the round before: the scalar pass
    ):
        with mock.patch.object(processes, "PRODUCT_BLOCK", 64):
            sim = Simulation(ProcessKind.PRODUCT_RULE, 8)
        sim._buf = np.array([(0, 1, 2, 3), *later], dtype=np.int64)
        sim.advance_to(1)
        sim.snapshot()
        child = 1 if sim._parent[1] == 0 else 0
        sim._parent[child], sim._size[child] = child, 1  # forget that 0 and 1 are joined
        sim.advance_to(1 + len(later))  # the forest counts a second merge of 0 and 1
        with pytest.raises(AssertionError):
            sim.snapshot()


def test_batch_snapshot_checks_itself():
    """Each rule's snapshot checks the root count against the merges, the
    sizes at the roots against n and the singletons against the isolation
    bitmap, so corrupting any of them raises."""
    def roots_largest_first(sim):
        roots = np.flatnonzero(sim._parent == np.arange(sim.n))
        return roots[np.argsort(-sim._size[roots], kind="stable")]

    def forget_a_join(sim):
        sim._iso[np.flatnonzero(~sim._iso)[0]] = True

    def grow_the_giant(sim):
        sim._size[roots_largest_first(sim)[0]] += 1

    def shrink_a_small_root(sim):
        sim._size[roots_largest_first(sim)[-1]] -= 1

    def reroot_a_vertex(sim):
        child = np.flatnonzero(sim._parent != np.arange(sim.n))[0]
        sim._parent[child] = child

    for kind in ALL_KINDS:
        for corrupt in (forget_a_join, grow_the_giant, shrink_a_small_root, reroot_a_vertex):
            sim = Simulation(kind, 100, initial="3:2", seed=1)
            sim.advance_to(45)
            sim.snapshot()
            sim.advance_to(50)  # bf and the uniform rules leave edges to fold
            corrupt(sim)
            with pytest.raises(AssertionError):
                sim.snapshot()


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_engine_parity_on_a_dense_record_grid(kind):
    """Fifty record points, so every snapshot folds only the edges since the
    one before it, from an initial graph and past the critical time."""
    grid = tuple(1.5 * (i + 1) / 50 for i in range(50))
    kwargs = dict(n=3000, initial="3:5,2:10", t_end=1.5, record_at=grid, seed=21)
    batch = run_process(kind, engine="auto", **kwargs)
    assert len(batch) == 50
    assert batch == run_process(kind, engine="python", **kwargs)


def test_engine_parity_on_a_dense_continuation_grid():
    """A stopped bf run, then its uniform continuation in fifty pieces with a
    snapshot after each."""
    runs = []
    for engine in processes.ENGINES:
        sim = Simulation(ProcessKind.BOUNDED_SIZE, 3000, seed=22, engine=engine)
        sim.advance_to(1500)
        snaps = [sim.snapshot()]
        for _ in range(50):
            sim.add_er_edges(20)
            snaps.append(sim.snapshot())
        runs.append((snaps, sim.e1_rounds, sim.rng.bit_generator.state))
    assert runs[0] == runs[1]


@st.composite
def parity_cases(draw):
    n = draw(st.integers(2, 3000))
    kind = draw(st.sampled_from([k.value for k in ALL_KINDS]))
    parts, left = [], n
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, max(1, min(left, 6))))
        if size > left:
            break
        count = draw(st.integers(1, left // size))
        parts.append(f"{size}:{count}")
        left -= size * count
    initial = ",".join(parts)
    spec = InitialGraphSpec.parse(initial)
    cap = 3 * n
    if kind == "er":
        cap = min(cap, n * (n - 1) // 2 - sum((s - 1) * c for s, c in spec.parts))
    schedule = sorted(draw(st.lists(st.integers(0, cap), max_size=4)))
    extra = draw(st.integers(0, n))
    chunk = draw(st.sampled_from([processes.CHUNK, 1, 7, 64]))
    block = draw(st.sampled_from([processes.PRODUCT_BLOCK, 1, 3, 64]))
    return dict(kind=kind, n=n, initial=initial, loops=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32)), schedule=schedule, extra=extra), chunk, block


@given(parity_cases())
def test_engine_parity_property(case):
    """Batch equals scalar for any n, rule, loop mode, initial graph, record
    schedule, continuation, chunk length and product block length."""
    sched, chunk, block = case
    with mock.patch.object(processes, "CHUNK", chunk), \
            mock.patch.object(processes, "PRODUCT_BLOCK", block):
        assert stream_trace(engine="auto", **sched) == stream_trace(engine="python", **sched)


@pytest.mark.parametrize("bad", [
    dict(t_end=math.nan), dict(t_end=math.inf), dict(record_at=(math.nan,)),
    dict(t_end=math.inf, record_at=(0.5,)), dict(seed=-1),
])
def test_run_process_rejects_non_finite_times_and_negative_seeds(bad):
    kwargs = dict(t_end=1.0, record_at=(1.0,), seed=0)
    kwargs.update(bad)
    for kind in ("bf", "er-poisson"):
        with pytest.raises(InvalidConfigError):
            run_process(kind, 100, **kwargs)


def test_poisson_edge_count_rejects_means_numpy_cannot_draw():
    rng = np.random.default_rng(0)
    for t in (1e300, math.inf, math.nan):
        with pytest.raises(InvalidConfigError):
            poisson_edge_count(t, 1000, rng)
    with pytest.raises(InvalidConfigError):
        run_process("er-poisson", 1000, t_end=1e300, seed=0)


def test_attempts_beyond_the_limit_raise():
    with mock.patch.object(processes, "MAX_ATTEMPTS", 100):
        for engine in processes.ENGINES:
            sim = Simulation(ProcessKind.ER_WITH_REPLACEMENT, 50, engine=engine)
            sim.advance_to(100)
            with pytest.raises(InvalidConfigError):
                sim.advance_to(101)
            sim.add_er_edges(60)
            with pytest.raises(InvalidConfigError):
                sim.add_er_edges(41)  # 101 continuation edges in all
            assert (sim.m, sim.extra_attempts) == (100, 60)
        for kind in ("bf", "er-poisson"):
            with pytest.raises(InvalidConfigError):
                run_process(kind, 50, t_end=10.0, seed=0)


def test_add_er_edges_does_not_touch_e1_count():
    sim = Simulation(ProcessKind.BOUNDED_SIZE, 2000, seed=5, engine="python")
    sim.advance_to(800)
    before = sim.e1_rounds
    sim.add_er_edges(100)
    assert sim.e1_rounds == before
    assert (sim.m, sim.extra_attempts) == (800, 100)


# ---------------------------------------------------------------------------
# statistical agreement with limit values (single runs, generous bands)

def test_er_susceptibility_matches_subcritical_closed_form():
    recs = run_process("er", 200000, t_end=0.75, record_at=(0.5, 0.75), seed=42)
    assert recs[0].s2 == pytest.approx(2.0, rel=0.02)
    assert recs[1].s2 == pytest.approx(4.0, rel=0.05)


def test_bf_fraction_isolated_tracks_ode(raw_traj):
    recs = run_process("bf", 200000, t_end=1.0, record_at=(1.0,), seed=42)
    assert recs[0].x1 == pytest.approx(raw_traj.xbar(1.0), abs=0.01)


def test_bf_first_edge_rate_matches_xbar_squared(raw_traj):
    """Fraction of rounds taking the first edge integrates xbar^2."""
    n, t_end = 200000, 1.0
    sim = Simulation(ProcessKind.BOUNDED_SIZE, n, seed=9)
    sim.advance_to(int(n * t_end / 2))
    ts = np.linspace(0.0, t_end, 401)
    xs = np.array([raw_traj.xbar(float(s)) for s in ts])
    want = simpson(xs**2, x=ts) / t_end
    got = sim.e1_rounds / sim.m
    assert got == pytest.approx(want, rel=0.05)


def test_bf_stays_subcritical_past_er_transition():
    recs = run_process("bf", 400000, t_end=1.1, record_at=(1.1,), seed=4)
    assert recs[0].c1_frac < 0.01


def test_bf_susceptibility_lags_er():
    er = run_process("er", 100000, t_end=0.9, record_at=(0.5, 0.9), seed=12)
    bf = run_process("bf", 100000, t_end=0.9, record_at=(0.5, 0.9), seed=12)
    for e, b in zip(er, bf):
        assert b.s2 < e.s2


def test_poissonized_er_susceptibility():
    recs = run_process("er-poisson", 200000, t_end=0.5, record_at=(0.5,), seed=2)
    assert recs[0].s2 == pytest.approx(2.0, rel=0.02)
    assert recs[0].t == 0.5  # poissonized runs report the requested time


# ---------------------------------------------------------------------------
# stream contract: rows of the committed golden results, cell for cell

RESULTS = Path(__file__).resolve().parents[1] / "scripts" / "results"


def golden_lines(name, keep):
    lines = (RESULTS / name).read_text().splitlines()[1:]
    return [line for line in lines if keep(line.split(","))]


def test_golden_moments_rows():
    """Replicates 0 and 1 (seeds 42 and 43) of the shipped moments config."""
    cfg = ExperimentConfig.from_dict({
        "experiment": "moments", "n": 1_000_000, "replicates": 2, "seed": 42,
        "t_grid": [0.25, 0.5, 0.75, 1.0],
    })
    rows = [r for r in run_experiment(cfg).rows if r.run_id != "mean"]
    got = [",".join(r.csv_cells()) for r in rows]
    assert got == golden_lines("moments.csv", lambda c: c[1] in ("0", "1"))


def test_golden_variant_agreement_rows():
    """Replicate 0 of each variant of the shipped variant_agreement config
    (10 replicates per variant, so seeds 42 ^ 0, 42 ^ 10 and 42 ^ 20)."""
    got = []
    for vi, kind in enumerate(("er", "er-wr", "er-poisson")):
        seed = 42 ^ (vi * 10)
        recs = run_process(kind, 1_000_000, t_end=0.9, record_at=(0.5, 0.9), seed=seed)
        for t, rec in zip((0.5, 0.9), recs):
            row = ResultRow("variant_agreement", "0", seed, 1_000_000, kind, t, None,
                            "s2", rec.s2, 1.0 / (1.0 - t), "closed_form")
            got.append(",".join(row.csv_cells()))
    assert got == golden_lines("variant_agreement.csv", lambda c: c[1] == "0")
