"""Unit tests for collectives: correctness against sequential references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi import MAX, MAXLOC, MIN, MINLOC, PROD, SUM
from repro.simmpi.ops import ReductionOp
from repro.simmpi.runner import run_native

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


@pytest.mark.parametrize("p", SIZES)
def test_barrier_synchronizes(p):
    """No rank may leave the barrier before the last rank has entered."""
    enter, leave = {}, {}

    def prog(lib, task):
        from repro.des.syscalls import Advance
        yield Advance(task.world_rank * 1.0)  # staggered arrival
        enter[task.world_rank] = lib.sched.now
        yield from lib.barrier(task, lib.comm_world)
        leave[task.world_rank] = lib.sched.now
        return None

    run_native(p, prog)
    last_enter = max(enter.values())
    assert all(t >= last_enter for t in leave.values())


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_delivers_to_all(p, root):
    root = 0 if root == 0 else p - 1

    def prog(lib, task):
        data = {"v": 42} if task.world_rank == root else None
        out = yield from lib.bcast(task, lib.comm_world, data, root)
        return out

    run = run_native(p, prog)
    assert all(r == {"v": 42} for r in run.results)


def test_bcast_root_returns_before_leaves_receive():
    """Section III-D: the root of a Bcast is not synchronizing."""
    times = {}

    def prog(lib, task):
        from repro.des.syscalls import Advance
        if task.world_rank != 0:
            yield Advance(100.0)  # leaves arrive very late
        yield from lib.bcast(task, lib.comm_world, "x", 0)
        times[task.world_rank] = lib.sched.now
        return None

    run_native(4, prog)
    assert times[0] < 1.0          # root exits immediately
    assert all(times[r] >= 100.0 for r in (1, 2, 3))


@pytest.mark.parametrize("p", SIZES)
def test_reduce_sum_matches_reference(p):
    def prog(lib, task):
        data = np.arange(8, dtype=np.int64) * (task.world_rank + 1)
        out = yield from lib.reduce(task, lib.comm_world, data, SUM, root=0)
        return out

    run = run_native(p, prog)
    expected = np.arange(8, dtype=np.int64) * sum(range(1, p + 1))
    np.testing.assert_array_equal(run.results[0], expected)
    assert all(r is None for r in run.results[1:])


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("op,fold", [
    (SUM, lambda xs: sum(xs)),
    (MAX, lambda xs: max(xs)),
    (MIN, lambda xs: min(xs)),
    (PROD, lambda xs: int(np.prod(xs))),
])
def test_allreduce_scalar(p, op, fold):
    def prog(lib, task):
        out = yield from lib.allreduce(task, lib.comm_world, task.world_rank + 1, op)
        return out

    run = run_native(p, prog)
    expected = fold(range(1, p + 1))
    assert all(r == expected for r in run.results)


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_numpy_array(p):
    def prog(lib, task):
        data = np.full(16, float(task.world_rank))
        out = yield from lib.allreduce(task, lib.comm_world, data, SUM)
        return out

    run = run_native(p, prog)
    expected = np.full(16, float(sum(range(p))))
    for r in run.results:
        np.testing.assert_allclose(r, expected)


def test_allreduce_maxloc():
    values = [3.0, 9.0, 1.0, 9.0]

    def prog(lib, task):
        pair = (values[task.world_rank], task.world_rank)
        out = yield from lib.allreduce(task, lib.comm_world, pair, MAXLOC)
        return out

    run = run_native(4, prog)
    assert all(r == (9.0, 1) for r in run.results)  # tie -> lower index


def test_allreduce_minloc():
    values = [3.0, 9.0, 1.0, 1.0]

    def prog(lib, task):
        pair = (values[task.world_rank], task.world_rank)
        out = yield from lib.allreduce(task, lib.comm_world, pair, MINLOC)
        return out

    run = run_native(4, prog)
    assert all(r == (1.0, 2) for r in run.results)


def test_non_commutative_reduce_preserves_rank_order():
    concat = ReductionOp("CONCAT", lambda a, b: a + b, commutative=False)

    def prog(lib, task):
        out = yield from lib.reduce(
            task, lib.comm_world, [task.world_rank], concat, root=0
        )
        return out

    run = run_native(6, prog)
    assert run.results[0] == [0, 1, 2, 3, 4, 5]


def test_non_commutative_allreduce():
    concat = ReductionOp("CONCAT", lambda a, b: a + b, commutative=False)

    def prog(lib, task):
        out = yield from lib.allreduce(task, lib.comm_world, [task.world_rank], concat)
        return out

    run = run_native(5, prog)
    assert all(r == [0, 1, 2, 3, 4] for r in run.results)


@pytest.mark.parametrize("p", SIZES)
def test_gather_and_scatter_roundtrip(p):
    def prog(lib, task):
        gathered = yield from lib.gather(
            task, lib.comm_world, f"r{task.world_rank}", root=0
        )
        if task.world_rank == 0:
            assert gathered == [f"r{i}" for i in range(p)]
            tosend = [x.upper() for x in gathered]
        else:
            tosend = None
        mine = yield from lib.scatter(task, lib.comm_world, tosend, root=0)
        return mine

    run = run_native(p, prog)
    assert run.results == [f"R{i}" for i in range(p)]


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, "mid"])
def test_gather_scatter_nonzero_root(p, root):
    root = 0 if root == 0 else p // 2

    def prog(lib, task):
        gathered = yield from lib.gather(task, lib.comm_world, task.world_rank, root)
        data = [x * 2 for x in gathered] if task.world_rank == root else None
        mine = yield from lib.scatter(task, lib.comm_world, data, root)
        return gathered, mine

    run = run_native(p, prog)
    for r, (gathered, mine) in enumerate(run.results):
        if r == root:
            assert gathered == list(range(p))
        else:
            assert gathered is None
        assert mine == r * 2


@pytest.mark.parametrize("p", SIZES)
def test_allgather(p):
    def prog(lib, task):
        out = yield from lib.allgather(task, lib.comm_world, task.world_rank ** 2)
        return out

    run = run_native(p, prog)
    expected = [i ** 2 for i in range(p)]
    assert all(r == expected for r in run.results)


@pytest.mark.parametrize("p", SIZES)
def test_alltoall(p):
    def prog(lib, task):
        data = [(task.world_rank, j) for j in range(p)]
        out = yield from lib.alltoall(task, lib.comm_world, data)
        return out

    run = run_native(p, prog)
    for i, row in enumerate(run.results):
        assert row == [(j, i) for j in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_scan_inclusive(p):
    def prog(lib, task):
        out = yield from lib.scan(task, lib.comm_world, task.world_rank + 1, SUM)
        return out

    run = run_native(p, prog)
    assert run.results == [sum(range(1, i + 2)) for i in range(p)]


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_reduce_scatter_block(p):
    def prog(lib, task):
        data = [np.array([task.world_rank * 100 + j]) for j in range(p)]
        out = yield from lib.reduce_scatter_block(task, lib.comm_world, data, SUM)
        return out

    run = run_native(p, prog)
    total_rank = sum(r * 100 for r in range(p))
    for j, r in enumerate(run.results):
        np.testing.assert_array_equal(r, np.array([total_rank + j * p]))


def test_consecutive_collectives_do_not_cross_match():
    def prog(lib, task):
        w = lib.comm_world
        a = yield from lib.allreduce(task, w, 1, SUM)
        b = yield from lib.allreduce(task, w, 10, SUM)
        c = yield from lib.bcast(task, w, "z" if task.world_rank == 2 else None, 2)
        return a, b, c

    run = run_native(4, prog)
    assert all(r == (4, 40, "z") for r in run.results)


class TestNonBlockingCollectives:
    def test_ibarrier_overlaps_compute(self):
        def prog(lib, task):
            from repro.des.syscalls import Advance
            req = yield from lib.ibarrier(task, lib.comm_world)
            yield Advance(1.0)  # overlap
            yield from lib.wait(task, req)
            return lib.sched.now

        run = run_native(4, prog)
        assert all(t >= 1.0 for t in run.results)

    def test_ibcast_result_via_wait(self):
        def prog(lib, task):
            data = "payload" if task.world_rank == 0 else None
            req = yield from lib.ibcast(task, lib.comm_world, data, 0)
            out = yield from lib.wait(task, req)
            return out

        run = run_native(4, prog)
        assert all(r == "payload" for r in run.results)

    def test_iallreduce_test_then_wait(self):
        def prog(lib, task):
            from repro.des.syscalls import Advance
            req = yield from lib.iallreduce(task, lib.comm_world, 2, SUM)
            flag, _ = lib.test(task, req)
            yield Advance(10.0)
            flag_late, val = lib.test(task, req)
            return flag_late, val

        run = run_native(4, prog)
        assert all(r == (True, 8) for r in run.results)

    def test_two_icolls_in_flight_on_same_comm(self):
        def prog(lib, task):
            r1 = yield from lib.iallreduce(task, lib.comm_world, 1, SUM)
            r2 = yield from lib.iallreduce(task, lib.comm_world, 5, SUM)
            v2 = yield from lib.wait(task, r2)
            v1 = yield from lib.wait(task, r1)
            return v1, v2

        run = run_native(4, prog)
        assert all(r == (4, 20) for r in run.results)

    def test_ialltoall(self):
        def prog(lib, task):
            data = [task.world_rank * 10 + j for j in range(3)]
            req = yield from lib.ialltoall(task, lib.comm_world, data)
            out = yield from lib.wait(task, req)
            return out

        run = run_native(3, prog)
        for i, row in enumerate(run.results):
            assert row == [j * 10 + i for j in range(3)]


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_allreduce_equals_numpy_sum(p, n, seed):
    rng = np.random.default_rng(seed)
    contribs = [rng.normal(size=n) for _ in range(p)]

    def prog(lib, task):
        out = yield from lib.allreduce(
            task, lib.comm_world, contribs[task.world_rank].copy(), SUM
        )
        return out

    run = run_native(p, prog)
    # MPI requires all ranks of an allreduce to receive identical results
    for r in run.results[1:]:
        np.testing.assert_array_equal(r, run.results[0])
    # and the value must match a reference sum up to association order
    expected = np.sum(contribs, axis=0)
    np.testing.assert_allclose(run.results[0], expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=10),
    root=st.integers(min_value=0, max_value=9),
)
def test_property_bcast_any_root(p, root):
    root = root % p

    def prog(lib, task):
        data = ("blob", root) if task.world_rank == root else None
        out = yield from lib.bcast(task, lib.comm_world, data, root)
        return out

    run = run_native(p, prog)
    assert all(r == ("blob", root) for r in run.results)


# ----------------------------------------------------------------------
# request-id parity of the request-free collective message path
# ----------------------------------------------------------------------
PARITY_P = 5
#: per-rank start delays (a permutation of 0..4 ms): early ranks park on
#: their receives, late ranks find messages already arrived
PARITY_DELAY = [(r * 7 % PARITY_P) * 1e-3 for r in range(PARITY_P)]

PARITY_CALLS = {
    "barrier": lambda lib, t, c: lib.barrier(t, c),
    "bcast": lambda lib, t, c: lib.bcast(t, c, t.world_rank, 0),
    "reduce": lambda lib, t, c: lib.reduce(t, c, t.world_rank, SUM, 0),
    "allreduce": lambda lib, t, c: lib.allreduce(t, c, t.world_rank, SUM),
    "gather": lambda lib, t, c: lib.gather(t, c, t.world_rank, 0),
    "scatter": lambda lib, t, c: lib.scatter(
        t, c, list(range(PARITY_P)) if t.world_rank == 0 else None, 0),
    "allgather": lambda lib, t, c: lib.allgather(t, c, t.world_rank),
    "alltoall": lambda lib, t, c: lib.alltoall(t, c, list(range(PARITY_P))),
    "scan": lambda lib, t, c: lib.scan(t, c, t.world_rank, SUM),
    "reduce_scatter_block": lambda lib, t, c: lib.reduce_scatter_block(
        t, c, list(range(PARITY_P)), SUM),
}


@pytest.mark.parametrize("name", sorted(PARITY_CALLS))
def test_collective_messages_draw_two_request_ids_each(name):
    """Every collective-internal message draws exactly one request id on
    each side, whichever receive path takes it: the ids reach traced
    ``MPI_Wait(<RealReq #N>)`` park reasons, so a slip would move every
    later trace line."""
    from repro.des.syscalls import Advance
    from repro.simmpi import request

    paths = {"arrived": 0, "parked": 0}

    def prog(lib, task):
        if "_recv_coll" not in vars(lib):
            recv = lib._recv_coll

            def counted(task, ctx, src, tag):
                arrived = any(
                    m.context_id == ctx and m.src == src and m.tag == tag
                    for m in lib.endpoints[task.world_rank].unexpected
                )
                paths["arrived" if arrived else "parked"] += 1
                payload = yield from recv(task, ctx, src, tag)
                return payload

            lib._recv_coll = counted
        yield Advance(PARITY_DELAY[task.world_rank])
        out = yield from PARITY_CALLS[name](lib, task, lib.comm_world)
        return out

    before = next(request._req_ids)
    run = run_native(PARITY_P, prog)
    drawn = next(request._req_ids) - before - 1
    messages = run.network.stats.messages
    assert messages > 0
    assert paths["arrived"] + paths["parked"] == messages
    assert paths["arrived"] > 0 and paths["parked"] > 0
    assert drawn == 2 * messages
    for ep in run.lib.endpoints:
        assert ep.posted == [] and ep.unexpected == []
