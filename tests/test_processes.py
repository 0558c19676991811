"""Process semantics: rule choices, stream determinism, engine parity, golden
rows, limits."""

import math
import tracemalloc
from functools import partial
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
from percolab import harness, processes
from percolab.harness import ExperimentConfig, ResultRow, RunSpec, run_experiment, stop_restart

ALL_KINDS = list(ProcessKind)
# the snapshot with its own checks only, without the recount of the forest
# that tests/conftest.py adds after every snapshot
SNAPSHOT = Simulation.snapshot


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
    roots = np.flatnonzero(sim._parent == np.arange(n))
    assert sim._size[roots].max() == 7
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


def stream_offset(sim):
    """The rows of the current chunk read so far: CHUNK less the rows not
    drawn yet, the rows queued by `rng` and the rows of the buffer not read.
    The batch engine holds a chunk in pieces and the scalar reference holds
    it whole, so this, not the position in the buffer, is what both share."""
    queued = sum(len(piece) for piece in sim._ahead)
    return processes.CHUNK - sim._undrawn - queued - (len(sim._buf) - sim._pos)


def rows_read(sim, rows):
    """The hand-made rows a simulation read; they stand in for the last rows
    of a chunk."""
    return stream_offset(sim) - (processes.CHUNK - len(rows))


# ---------------------------------------------------------------------------
# rule semantics on scripted rows, on both engines

def play_rows(kind, rows, rounds, n=12, initial="4:2", one_by_one=False):
    """Play hand-made rows (they stand in for the drawn chunk) for `rounds`
    rounds on both engines, in one advance or one round per advance. Both
    must agree on the component sizes, isolated vertices, rounds attempted,
    first-edge rounds and rows consumed; that common result is returned."""
    out = []
    for engine in processes.ENGINES:
        sim = Simulation(ProcessKind.from_token(kind), n, initial=initial, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)
        for m in range(1, rounds + 1) if one_by_one else (rounds,):
            sim.advance_to(m)
        snap = sim.snapshot()
        out.append((snap.dist.counts, snap.dist.n1, sim.m, sim.e1_rounds, rows_read(sim, rows)))
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


def stream_trace(kind, n, initial="", seed=0, engine="auto", schedule=(), extra=0):
    """Everything a Simulation exposes after a schedule of advances and
    snapshots, then an optional continuation: the snapshots, the
    first-edge count, both clocks, the stream offset and the generator
    state."""
    sim = Simulation(ProcessKind.from_token(kind), n, initial=initial, seed=seed,
                     engine=engine)
    snaps = []
    for m in schedule:
        sim.advance_to(m)
        snaps.append(sim.snapshot())
    if extra:
        sim.add_er_edges(extra)
        snaps.append(sim.snapshot())
    return (snaps, sim.e1_rounds, sim.m, sim.extra_attempts, stream_offset(sim),
            sim.rng.bit_generator.state)


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_engine_parity(kind):
    """The batch and scalar engines must consume the identical stream and
    produce identical snapshots and first-edge counts, including with an
    initial graph."""
    initial = "3:5,2:10"
    kwargs = dict(n=3000, initial=initial, t_end=1.2, record_at=(0.6, 1.2),
                  seed=11)
    fast = run_process(kind, engine="auto", **kwargs)
    slow = run_process(kind, engine="python", **kwargs)
    assert fast == slow
    sched = dict(kind=kind, n=3000, initial=initial, seed=11, schedule=(0, 900, 1800))
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
    """Records on both sides of the end of the first chunk, then a
    continuation. er-wr skips loop rows without counting them, so its
    attempts and rows drift apart; bf counts a row as a round, loop or not."""
    chunk = processes.CHUNK
    for kind in ("bf", "er-wr"):
        sched = dict(kind=kind, n=1000, seed=3, schedule=(chunk - 700, chunk + 500),
                     extra=2000)
        trace = stream_trace(engine="auto", **sched)
        assert trace == stream_trace(engine="python", **sched)
        if kind == "er-wr":
            # main and continuation read one stream of pairs, so the rows read,
            # chunk + offset, exceed the chunk + 2500 attempts by the loops skipped
            _, _, m, extra, offset, _ = trace
            assert (m, extra) == (chunk + 500, 2000)
            assert offset > 2500


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
    batch, scalar = ((s.snapshot(), s.e1_rounds, rows_read(s, rows)) for s in sims)
    assert batch == scalar
    assert batch[1] == 1  # only round 0 took its first edge
    assert sims[0].blocks == len(rows)


def test_product_batch_parity_on_hand_made_rows():
    """Ties, a chosen loop and a chosen edge inside one component; the
    scalar engine fed the same rows must agree."""
    rows = [
        (0, 1, 2, 3),  # tie 1*1 = 1*1: the first edge joins 0-1
        (0, 0, 4, 5),  # 2*2 > 1*1: the first edge, a loop
        (4, 5, 1, 0),  # 1*1 < 2*2: the second edge, inside {0, 1}
        (2, 3, 6, 6),  # tie: the first edge joins 2-3
        (6, 7, 0, 2),  # the second edge joins {0, 1} and 2's component
        (8, 9, 8, 9),  # tie between equal edges: the first joins 8-9
    ]
    sims = []
    for engine in ("auto", "python"):
        sim = Simulation(ProcessKind.PRODUCT_RULE, 10, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)  # stands in for the drawn chunk
        sim.advance_to(len(rows))
        sims.append((sim.snapshot(), sim.e1_rounds, rows_read(sim, rows)))
    assert sims[0] == sims[1]
    snap, e1, pos = sims[0]
    assert pos == len(rows)
    assert (e1, snap.dist.counts) == (4, {1: 4, 2: 1, 4: 1})


def test_product_engine_parity_with_chunk_of_one_row():
    """Every round refills the buffer, and a continuation feeds the
    union-find the rule reads."""
    sched = dict(kind="product", n=300, initial="3:10,2:20", seed=8,
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
    edge is left buffered when a block starts; after every step the batch
    engine must still agree with the scalar one."""
    steps = []
    with mock.patch.object(processes, "CHUNK", 1):
        for engine in processes.ENGINES:
            sim = Simulation(ProcessKind.PRODUCT_RULE, 300, initial="8:1,2:20", seed=4,
                             engine=engine)
            seen = []
            for m, extra in ((1, 0), (40, 150), (41, 0), (80, 150), (81, 0)):
                sim.advance_to(m)
                seen.append((sim.snapshot(), sim.e1_rounds, sim.rng.bit_generator.state))
                sim.add_er_edges(extra)
            steps.append(seen)
    assert steps[0] == steps[1]


def product_on_rows(rows, n, initial):
    """Play hand-made rows (they stand in for the drawn chunk) on both engines,
    with every row in one product block; returns (snapshot, e1_rounds, rows read)
    per engine and the batch simulation."""
    out = []
    for engine in ("auto", "python"):
        with mock.patch.object(processes, "PRODUCT_BLOCK", 64):
            sim = Simulation(ProcessKind.PRODUCT_RULE, n, initial=initial, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)
        sim.advance_to(len(rows))
        out.append((sim.snapshot(), sim.e1_rounds, rows_read(sim, rows)))
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


def test_product_chain_applies_one_round_per_pass():
    """Each round reads the component the round before it grew, so each
    pass over the rounds left applies only its first round: six rounds,
    six passes, one block. The component grows 2, 3, ..., 7, taking the
    first and the second edge in turn."""
    rows = [
        (10, 11, 12, 13),  # tie: 10-11
        (12, 13, 11, 14),  # 1*1 < 2*1: the second edge, 14 joins {10, 11}
        (14, 15, 16, 17),  # 3*1 > 1*1: 15 joins
        (18, 19, 15, 20),  # 1*1 < 4*1: 20 joins
        (20, 21, 22, 23),  # 5*1 > 1*1: 21 joins
        (24, 25, 21, 26),  # 1*1 < 6*1: 26 joins
    ]
    out = []
    for engine in ("auto", "python"):
        with mock.patch.object(processes, "PRODUCT_BLOCK", 64):
            sim = Simulation(ProcessKind.PRODUCT_RULE, 30, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)
        if engine == "auto":
            with mock.patch.object(sim, "_find", wraps=sim._find) as find:
                sim.advance_to(len(rows))
            assert find.call_count == len(rows)  # one root lookup per pass
            assert sim.blocks == 1
        else:
            sim.advance_to(len(rows))
        out.append((sim.snapshot(), sim.e1_rounds, rows_read(sim, rows)))
    assert out[0] == out[1]
    snap, e1, pos = out[0]
    assert (e1, pos, snap.dist.counts) == (3, len(rows), {1: 23, 7: 1})


def test_product_choice_flips_as_the_giant_grows_inside_a_block():
    """The giant {0..7} grows by one in round 0 (applied by the first pass)
    and by one in round 1 (applied by the second, since round 0 read 16).
    Round 2 offers the giant with a singleton against components of 5 and
    2: at the giant's block-start size 8 plus the growth of round 0 it
    would take the second edge, at its true size 10 it ties and takes the
    first."""
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


def test_product_widens_sizes_before_it_multiplies_them():
    """Round 1 offers the giant {0..22499} with a component of 21500
    against two components of 22000. At the giant's block-start size
    22500 it would take the second edge, at its true size 22600 it takes
    the first, so the round waits for the second pass. At G = n its first
    product is 2.15e9, past 2**31: multiplied as int32 sizes it wraps to a
    negative value, the round looks exact in the first pass and merges
    the two components of 22000."""
    rows = [
        (0, 88000, 88100, 88101),  # 22500*100 > 1*1: the component of 100 joins the giant
        (0, 66500, 22500, 44500),  # 22600*21500 >= 22000*22000: the first edge
    ]
    n = 100_000
    assert n * 21500 >= 2**31
    (batch, scalar), sim = product_on_rows(rows, n, initial="22500:1,22000:2,21500:1,100:1")
    assert sim._size.dtype == np.int32
    assert batch == scalar
    snap, e1, _ = batch
    assert (e1, snap.dist.counts) == (2, {1: 11900, 22000: 2, 44100: 1})
    assert sim.blocks == 1


def test_product_giant_is_the_largest_component_its_block_reads():
    """The block never reads the component of 8, so its giant is the
    component of 3 on vertices 8..10. A pair merge grows past the giant,
    later rounds read that component beside the giant, round 6 hooks it
    under the smaller giant and round 7, which waits for round 5 to read
    22, grows the giant in the same pass as round 6."""
    rows = [
        (8, 9, 12, 13),  # 3*3 > 1*1: the first edge, inside the giant
        (12, 13, 14, 15),  # tie: 12-13
        (16, 17, 12, 14),  # 1*1 < 2*1: 14 joins {12, 13}
        (18, 19, 14, 15),  # 1*1 < 3*1: 15 joins, a component of 4 beside the giant's 3
        (12, 20, 8, 21),  # 4*1 > 3*1: 20 joins the component of 4
        (8, 22, 12, 23),  # 3*1 < 5*1: 23 joins the component of 5
        (8, 12, 24, 25),  # 3*6 > 1*1: the component of 6 joins the giant
        (8, 22, 27, 28),  # 9*1 > 1*1: 22 joins the giant, in the pass of round 6
    ]
    (batch, scalar), sim = product_on_rows(rows, 30, initial="8:1,3:1")
    assert batch == scalar
    snap, e1, pos = batch
    assert (e1, pos, snap.dist.counts) == (5, len(rows), {1: 12, 8: 1, 10: 1})
    assert sim.blocks == 1


def test_product_snapshot_checks_its_union_find():
    for later in (
        [(0, 1, 0, 1)],  # the second merge of 0 and 1 in the first pass
        [(1, 2, 4, 5), (0, 1, 6, 7)],  # 1 was read by the round before: the second pass
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


def test_find_climbs_a_forest_four_levels_deep():
    """Equal sizes hook the smaller root under the larger, so joining
    roots only, in four stages folded apart, leaves 0 -> 1 -> 3 -> 7 -> 15.
    A lookup returns every root, points each looked-up vertex at its root
    and leaves every other pointer as it was."""
    sim = Simulation(ProcessKind.ER_WITH_REPLACEMENT, 20)
    for edges in ([(2 * i, 2 * i + 1) for i in range(9)],
                  [(1, 3), (5, 7), (9, 11), (13, 15)],
                  [(3, 7), (11, 15)],
                  [(7, 15)]):
        sim._insert(*np.array(edges, dtype=np.int64).T)
        sim._fold()
    before = sim._parent.copy()
    assert before[[0, 1, 3, 7, 15]].tolist() == [1, 3, 7, 15, 15]
    assert sim._size[15] == 16
    x = np.array([0, 2, 0, 9, 15, 16, 18, 12, 0])
    assert sim._find(x).tolist() == [15, 15, 15, 15, 15, 17, 18, 15, 15]
    expect = before.copy()
    expect[x] = [15, 15, 15, 15, 15, 17, 18, 15, 15]
    assert sim._parent.tolist() == expect.tolist()
    assert sim._find(np.array([1, 3, 4])).tolist() == [15, 15, 15]
    assert sim.snapshot().dist.counts == {1: 2, 2: 1, 16: 1}


@pytest.mark.parametrize("n, initial, rows", [
    # every edge of the path hooks i under i+1 in the same round: 0 -> 1 ->
    # ... -> 15 before the jumps, which then take four steps
    (16, "", [(i, i + 1) for i in range(15)]),
    (16, "", [(i + 1, i) for i in reversed(range(15))]),
    # the stars rooted at 0, 3, 6 and 9 hook 0 -> 3 -> 6 -> 9 in one round,
    # beside a chain of singletons
    (30, "3:4", [(1, 4), (5, 7), (8, 10), (12, 13), (13, 14), (14, 15), (15, 16)]),
])
def test_fold_jumps_pointers_over_roots_hooked_in_the_same_round(n, initial, rows):
    snaps = []
    for engine in processes.ENGINES:
        sim = Simulation(ProcessKind.ER_WITH_REPLACEMENT, n, initial=initial, engine=engine)
        sim._buf = np.array(rows, dtype=np.int64)  # stands in for the drawn chunk
        if engine == "auto":
            before = sim._parent.copy()
        sim.advance_to(len(rows))
        snaps.append(sim.snapshot())
        if engine == "auto":
            # after the fold every pointer it moved points straight at a root
            up = sim._parent[np.flatnonzero(sim._parent != before)]
            assert len(up) and (sim._parent[up] == up).all()
    assert snaps[0] == snaps[1]


def test_batch_snapshot_checks_itself():
    """Each rule's snapshot checks the count of nonzero sizes against the
    merges, their sum against n and the singletons against the isolation
    bitmap, so corrupting any of them raises. A vertex taken off its tree
    becomes a root of size 0, which those checks cannot see; the recount of
    the forest after a run's last snapshot finds it."""
    def roots_largest_first(sim):
        roots = np.flatnonzero(sim._parent == np.arange(sim.n))
        return roots[np.argsort(-sim._size[roots], kind="stable")]

    def forget_a_join(sim):
        sim._iso[np.flatnonzero(~sim._iso)[0]] = True

    def grow_the_giant(sim):
        sim._size[roots_largest_first(sim)[0]] += 1

    def shrink_a_small_root(sim):
        sim._size[roots_largest_first(sim)[-1]] -= 1

    def size_a_hooked_child(sim):
        sim._size[np.flatnonzero(sim._parent != np.arange(sim.n))[0]] = 1

    def zero_the_giant(sim):
        sim._size[roots_largest_first(sim)[0]] = 0

    def reroot_a_vertex(sim):
        child = np.flatnonzero(sim._parent != np.arange(sim.n))[0]
        sim._parent[child] = child

    for kind in ALL_KINDS:
        for corrupt in (forget_a_join, grow_the_giant, shrink_a_small_root,
                        size_a_hooked_child, zero_the_giant):
            sim = Simulation(kind, 100, initial="3:2", seed=1)
            sim.advance_to(45)
            SNAPSHOT(sim)
            sim.advance_to(50)  # bf and the uniform rules leave edges to fold
            corrupt(sim)
            with pytest.raises(AssertionError):
                SNAPSHOT(sim)
        sim = Simulation(kind, 100, initial="3:2", seed=1)
        sim.advance_to(50)
        SNAPSHOT(sim)
        reroot_a_vertex(sim)
        SNAPSHOT(sim)
        with pytest.raises(AssertionError, match="roots and nonzero sizes disagree"):
            sim.check_forest()


def test_runs_recount_the_forest_after_their_last_snapshot(monkeypatch):
    """run_process recounts the forest once, right after its last snapshot
    and before it runs on to t_end; stop_restart recounts it after the
    snapshot that follows its continuation."""
    monkeypatch.setattr(Simulation, "snapshot", SNAPSHOT)
    seen = []
    with mock.patch.object(Simulation, "check_forest", autospec=True, side_effect=lambda sim:
                           seen.append((sim.m, sim.extra_attempts, sim._npending))):
        for kind in ("bf", "er-poisson"):
            records = run_process(kind, 1000, t_end=1.2, record_at=(0.5, 1.0), seed=2)
            assert seen == [(records[-1].m, 0, 0)]
            seen.clear()
        run_process("bf", 1000, t_end=1.2, seed=2)
        assert seen == []
        stop_restart(RunSpec(ProcessKind.BOUNDED_SIZE, 1000, seed=2, t_end=0.8), continue_t=0.3)
        [(m, extra, pending)] = seen
        assert (m, pending) == (400, 0) and extra > 0


@pytest.mark.parametrize("n", [2, 100, 200_000, 2**31 - 1, 2**31, 2**31 + 1])
def test_proposal_rows_are_drawn_narrow_from_the_int64_stream(n):
    """The engine draws its rows as int32 whenever every vertex fits, a
    chunk in consecutive pieces. They must be the rows, and leave the
    generator in the state, of the whole int64 chunk the golden results
    were made with, whether in PIECE pieces or in odd ones."""
    chunk, piece = processes.CHUNK, processes.PIECE
    for cols in (2, 4):
        for sizes in ([chunk], [piece] * (chunk // piece), [1, 7, piece - 8, chunk - piece]):
            narrow, wide = np.random.default_rng(n), np.random.default_rng(n)
            pieces = [processes._draw(narrow, n, rows, cols) for rows in sizes]
            assert {p.dtype for p in pieces} == {np.dtype(np.int32 if n <= 2**31 else np.int64)}
            want = wide.integers(0, n, size=(chunk, cols), dtype=np.int64)
            assert np.array_equal(np.concatenate(pieces), want)
            assert narrow.bit_generator.state == wide.bit_generator.state


@pytest.mark.parametrize("fold", [1, 3, 64])
@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_engine_parity_with_short_folds(kind, fold):
    """Buffered edges merged into the forest a few at a time, from an
    initial graph, across records and a continuation (which the product
    rule folds before its next block)."""
    sched = dict(kind=kind, n=2000, initial="3:5,2:10", seed=17, schedule=(300, 900, 1400),
                 extra=400)
    runs = []
    with mock.patch.object(processes, "FOLD", fold):
        assert stream_trace(engine="auto", **sched) == stream_trace(engine="python", **sched)
        for engine in processes.ENGINES:
            sim = Simulation(ProcessKind.from_token(kind), 2000, initial="3:5,2:10", seed=17,
                             engine=engine)
            sim.advance_to(900)
            sim.add_er_edges(400)
            sim.advance_to(1400)  # rule rounds after the continuation
            runs.append((sim.snapshot(), sim.e1_rounds, sim.rng.bit_generator.state))
    assert runs[0] == runs[1]


def piece_trace(kind, engine):
    """stream_trace's schedule, then a run with a Poisson count drawn on the
    generator mid-chunk, a continuation of that many edges and rule rounds
    after it. Returns what both observe (snapshots, first-edge counts,
    clocks, generator states) and, apart, the stream offset of each."""
    sched = dict(kind=kind, n=2000, initial="3:5,2:10", seed=19, schedule=(300, 900, 1400),
                 extra=400)
    *trace, offset, state = stream_trace(engine=engine, **sched)
    sim = Simulation(ProcessKind.from_token(kind), 2000, initial="3:5,2:10", seed=19,
                     engine=engine)
    sim.advance_to(710)
    snaps = [sim.snapshot()]
    extra = poisson_edge_count(0.3, 2000, sim.rng)
    sim.advance_to(900)
    sim.add_er_edges(extra)
    sim.advance_to(1400)  # rule rounds after the continuation
    snaps.append(sim.snapshot())
    seen = (trace, state, snaps, sim.e1_rounds, sim.m, sim.extra_attempts,
            sim.rng.bit_generator.state)
    return seen, (offset, stream_offset(sim))


@pytest.mark.parametrize("piece, chunk", [(1, 1000), (7, 1000), (64, 1000), (processes.PIECE, 100)])
@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_engine_parity_across_piece_boundaries(kind, piece, chunk):
    """Chunks drawn in pieces of 1, 7 and 64 rows, which do not divide the
    chunk, and chunks shorter than a piece. Both engines must agree, rows
    read included, and the pieces must not change the stream: what the
    runs observe equals what they observe when each chunk is drawn in one
    piece."""
    with mock.patch.object(processes, "CHUNK", chunk):
        with mock.patch.object(processes, "PIECE", piece):
            batch = piece_trace(kind, "auto")
            assert batch == piece_trace(kind, "python")
        with mock.patch.object(processes, "PIECE", chunk):
            whole, _ = piece_trace(kind, "auto")
    assert batch[0] == whole


def test_mid_chunk_poisson_counts_keep_the_whole_chunk_stream():
    """At n = 2e5 each record's Poisson count is drawn tens of thousands of
    rows into a chunk: the batch engine must have drawn the whole chunk
    before it, as the scalar reference does, and the proposals after it
    must read on in that chunk."""
    kwargs = dict(n=200_000, t_end=1.3, record_at=(0.1, 0.5, 1.0, 1.3), seed=5)
    assert run_process("er-poisson", **kwargs) == run_process("er-poisson", engine="python",
                                                              **kwargs)


@pytest.mark.parametrize("initial", ["", "2:50000"])
def test_er_pieces_keep_the_whole_chunk_stream(initial):
    """er's 90,000 insertions at n = 2e5 read three pieces of one chunk, with
    records in each; its pair lookups and key merges must see the rows of
    one whole-chunk draw, from the empty graph and from half of the vertices
    in pairs."""
    kwargs = dict(n=200_000, initial=initial, t_end=0.9, record_at=(0.1, 0.5, 0.9), seed=6)
    assert run_process("er", **kwargs) == run_process("er", engine="python", **kwargs)


@pytest.mark.parametrize("kind, t_end, continue_t",
                         [("bf", 0.8, 0.3), ("er-wr", 0.5, 0.6), ("er", 0.9, 0.6)])
def test_stop_restart_keeps_the_whole_chunk_stream(kind, t_end, continue_t):
    """The continuation's Poisson count is drawn tens of thousands of rows
    into a chunk. bf then switches to pairs, which drops the rest of its
    chunk; er-wr and er keep their shape, so their continuation reads on in
    the same chunk, for more than 2^15 rows. A piece that er read twice
    would change none of its records, every pair in it being present the
    second time, but would change the rows this continuation reads."""
    spec = RunSpec(ProcessKind.from_token(kind), 200_000, seed=3, t_end=t_end)
    with mock.patch.object(harness, "Simulation", partial(Simulation, engine="python")):
        want = stop_restart(spec, continue_t)
    assert stop_restart(spec, continue_t) == want


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
    return dict(kind=kind, n=n, initial=initial, seed=draw(st.integers(0, 2**32)),
                schedule=schedule, extra=extra), chunk, block


@given(parity_cases())
def test_engine_parity_property(case):
    """Batch equals scalar for any n, rule, initial graph, record schedule,
    continuation, chunk length and product block length."""
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


def test_er_refuses_n_whose_keys_overflow_int64_before_allocating():
    """er keeps the keys u*n+v and the sentinel n*n in int64; one n above
    the bound is refused before any array of n entries is made (numpy
    reports its buffers to tracemalloc)."""
    assert processes.ER_MAX_N == 3_037_000_499
    assert processes.ER_MAX_N ** 2 <= np.iinfo(np.int64).max < (processes.ER_MAX_N + 1) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfigError, match="at most 3037000499"):
            Simulation(ProcessKind.ER_WITHOUT_REPLACEMENT, processes.ER_MAX_N + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


MEMORY_N = 1_000_000
MIB = 1 << 20


def traced(fn):
    """fn(), the bytes it left allocated and the most it had allocated at
    once, both above what was live before it (numpy reports its buffers
    to tracemalloc)."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def memory_states(kind):
    """A batch simulation at n = 1e6, with at most FOLD edges buffered,
    from the first edges to t = 1.2, past the transition of every rule."""
    sim = Simulation(ProcessKind.from_token(kind), MEMORY_N, seed=1)
    for m in (processes.FOLD, MEMORY_N // 2, 6 * MEMORY_N // 10):
        if kind == "product":
            # product rounds merge in place, so a continuation fills the buffer
            sim.advance_to(m)
            sim.snapshot()
            sim.add_er_edges(processes.FOLD)
        else:
            sim.advance_to(m - processes.FOLD)
            sim.snapshot()
            sim.advance_to(m)
        assert processes.FOLD // 2 < sim._npending <= processes.FOLD
        yield sim


@pytest.mark.parametrize("kind", ["bf", "er-wr", "product"])
def test_batch_forest_holds_int64_parents_int32_sizes_and_a_bitmap(kind):
    """8n + 4n + n bytes, and 4n more for a two-choice rule's int32 round
    stamps; the few KiB beyond are the generator and the small fields."""
    sim, held, _ = traced(lambda: Simulation(ProcessKind.from_token(kind), MEMORY_N, seed=1))
    assert (sim._parent.dtype, sim._size.dtype) == (np.int64, np.int32)
    want = (8 + 4 + 1 + 4 * sim.kind.two_choice) * MEMORY_N
    assert want <= held <= want + 64 * 1024


@pytest.mark.parametrize("kind", ["bf", "er-wr", "product"])
def test_a_fold_allocates_at_most_2_mib_above_what_was_live(kind):
    """The temporaries of merging FOLD edges are bounded by FOLD, whatever
    n is, and most are freed once they are used."""
    for sim in memory_states(kind):
        _, _, peak = traced(sim._fold)
        assert sim._npending == 0
        assert peak <= 2 * MIB, (sim.m, peak / MIB)


@pytest.mark.parametrize("kind", ["bf", "er-wr", "product"])
def test_snapshot_and_recount_allocate_at_most_half_a_mib(kind):
    """With nothing buffered, a snapshot bincounts the int32 sizes and a
    recount compares the parents with their indices, FOLD vertices at a
    time, rather than making an array of n or CHUNK entries."""
    for sim in memory_states(kind):
        sim._fold()

        def observe():
            sim.snapshot()
            sim.check_forest()

        _, _, peak = traced(observe)
        assert peak <= MIB // 2, (sim.m, peak / MIB)


def test_sizes_are_int32_while_a_size_fits():
    """A size is at most n, so int32 holds every size while n < 2**31;
    the dtype is read from n alone, without making a forest."""
    assert processes._size_dtype(2**31 - 1) is np.int32
    assert processes._size_dtype(2**31) is np.int64


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


def test_bf_fraction_isolated_tracks_ode(traj):
    recs = run_process("bf", 200000, t_end=1.0, record_at=(1.0,), seed=42)
    assert recs[0].x1 == pytest.approx(traj.xbar(1.0), abs=0.01)


def test_bf_first_edge_rate_matches_xbar_squared(traj):
    """Fraction of rounds taking the first edge integrates xbar^2."""
    n, t_end = 200000, 1.0
    sim = Simulation(ProcessKind.BOUNDED_SIZE, n, seed=9)
    sim.advance_to(int(n * t_end / 2))
    ts = np.linspace(0.0, t_end, 401)
    xs = np.array([traj.xbar(float(s)) for s in ts])
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
