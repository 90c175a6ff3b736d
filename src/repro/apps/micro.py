"""Small deterministic programs used by tests and ablation benches."""

from __future__ import annotations

import numpy as np

from repro.apps.base import MpiProgram
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.ops import SUM
from repro.util.rng import make_rng


class TokenRing(MpiProgram):
    """Pass an incrementing token around the ring; compute between hops.

    Point-to-point only — exercises drain and restart of pt2pt state.
    """

    def __init__(self, rank: int, laps: int = 3, compute_s: float = 1e-4):
        super().__init__(rank)
        self.laps = laps
        self.compute_s = compute_s
        self.mem["log"] = []

    def main(self, api):
        p = api.size
        me = api.rank
        right = (me + 1) % p
        left = (me - 1) % p
        for lap in range(self.laps):
            yield from api.compute(self.compute_s)
            if me == 0:
                yield from api.send(lap * 1000, right, tag=7)
                token, _st = yield from api.recv(left, tag=7)
            else:
                token, _st = yield from api.recv(left, tag=7)
                yield from api.send(token + 1, right, tag=7)
            self.mem["log"].append(token)
        return self.mem["log"]

    @staticmethod
    def expected(rank: int, nranks: int, laps: int):
        if rank == 0:
            return [lap * 1000 + nranks - 1 for lap in range(laps)]
        return [lap * 1000 + rank - 1 for lap in range(laps)]


def token_ring_job(nranks: int, laps: int = 10):
    """The fault studies' token-ring job: ``(factory, expected)``, the
    per-rank program factory and every rank's expected result."""
    factory = lambda r: TokenRing(r, laps=laps, compute_s=2e-3)  # noqa: E731
    expected = [TokenRing.expected(r, nranks, laps) for r in range(nranks)]
    return factory, expected


class AllreduceLoop(MpiProgram):
    """Iterated allreduce with compute: the minimal collective workload."""

    def __init__(self, rank: int, iters: int = 5, compute_s: float = 1e-4):
        super().__init__(rank)
        self.iters = iters
        self.compute_s = compute_s

    def main(self, api):
        total = 0
        for i in range(self.iters):
            yield from api.compute(self.compute_s)
            v = yield from api.allreduce(self.rank + i, SUM)
            total += v
        return total

    @staticmethod
    def expected(nranks: int, iters: int) -> int:
        base = nranks * (nranks - 1) // 2
        return sum(base + nranks * i for i in range(iters))


class RandomPt2Pt(MpiProgram):
    """Seeded random point-to-point traffic, deliberately leaving
    messages in flight much of the time (drain stress).

    Every rank sends ``rounds`` messages to seeded peers and receives
    exactly the messages addressed to it (the schedule is globally
    deterministic, so each rank can compute who sends to it)."""

    def __init__(self, rank: int, nranks: int, rounds: int = 20, seed: int = 0,
                 payload_len: int = 64, compute_s: float = 2e-5):
        super().__init__(rank)
        self.nranks = nranks
        self.rounds = rounds
        self.seed = seed
        self.payload_len = payload_len
        self.compute_s = compute_s

    def schedule(self):
        """Global schedule: list of (sender, receiver, tag) per round."""
        out = []
        for rnd in range(self.rounds):
            rng = make_rng(self.seed, "rpt2pt", rnd)
            perm = rng.permutation(self.nranks)
            for s in range(self.nranks):
                out.append((s, int(perm[s]), rnd))
        return out

    def main(self, api):
        sched = self.schedule()
        my_sends = [(dst, tag) for (src, dst, tag) in sched if src == self.rank]
        n_recvs = sum(1 for (_s, dst, _t) in sched if dst == self.rank)
        checks = 0
        # send everything eagerly, then receive whatever is addressed here
        for dst, tag in my_sends:
            payload = np.full(self.payload_len, self.rank, dtype=np.uint8)
            yield from api.send(payload, dst, tag=tag)
            yield from api.compute(self.compute_s)
        for _ in range(n_recvs):
            data, st = yield from api.recv(ANY_SOURCE, ANY_TAG)
            checks += int(data[0]) + st.count
        return checks


class BcastThenSend(MpiProgram):
    """The Section III-E pattern (with the paper's evident typo fixed):

    rank 0:  MPI_Bcast(root=0); MPI_Send(to 1)
    rank 1:  MPI_Recv(from 0);  MPI_Bcast

    Natively this runs fine — the Bcast root is not synchronizing, so
    rank 0 proceeds to its Send.  A barrier inserted before the Bcast
    (original MANA) makes rank 0 wait for rank 1, which waits in Recv
    for a Send that now never happens: deadlock.
    """

    def __init__(self, rank: int):
        super().__init__(rank)

    def main(self, api):
        if api.rank == 0:
            value = yield from api.bcast("payload", root=0)
            yield from api.send("unblock", 1, tag=3)
        else:
            msg, _st = yield from api.recv(0, tag=3)
            value = yield from api.bcast(None, root=0)
        return value


class IcollStream(MpiProgram):
    """Issues a stream of non-blocking collectives, holding several in
    flight; exercises request virtualization, the replay log, and
    two-step retirement."""

    def __init__(self, rank: int, waves: int = 4, inflight: int = 3,
                 compute_s: float = 5e-5):
        super().__init__(rank)
        self.waves = waves
        self.inflight = inflight
        self.compute_s = compute_s

    def main(self, api):
        totals = []
        for wave in range(self.waves):
            slots = []
            for k in range(self.inflight):
                slot = yield from api.iallreduce(self.rank + wave + k, SUM)
                slots.append(slot)
            yield from api.compute(self.compute_s)
            for slot in slots:
                payload, _st = yield from api.wait(slot)
                totals.append(payload)
        return totals

    @staticmethod
    def expected(nranks: int, waves: int, inflight: int):
        base = nranks * (nranks - 1) // 2
        out = []
        for wave in range(waves):
            for k in range(inflight):
                out.append(base + nranks * (wave + k))
        return out


class CommChurn(MpiProgram):
    """Creates, uses, and frees communicators repeatedly — the workload
    behind the Section III-C restart comparison (active list vs full
    creation-log replay)."""

    def __init__(self, rank: int, generations: int = 4, compute_s: float = 5e-5):
        super().__init__(rank)
        self.generations = generations
        self.compute_s = compute_s

    def main(self, api):
        results = []
        keep = None
        for gen in range(self.generations):
            color = (api.rank + gen) % 2
            sub = yield from api.comm_split(color, key=api.rank)
            v = yield from api.allreduce(api.rank, SUM, comm=sub)
            results.append(v)
            yield from api.compute(self.compute_s)
            if keep is not None:
                yield from api.comm_free(keep)
            keep = sub
        return results


class ElasticBlockSum(MpiProgram):
    """Block-decomposed iterated sum whose answer is independent of the
    rank count — the elastic-restart proof workload.

    The global item array ``0..total_items-1`` is block-decomposed over
    the world; each iteration computes, splits the world into an
    even/odd subcommunicator (re-derived every iteration, so an elastic
    restart re-splits deterministically from the *new* world), reduces
    the local partial over the subcommunicator, then accumulates the
    world allreduce of the local partial into ``mem["acc"]``.  The
    accumulated total is decomposition-invariant (every item contributes
    once per iteration regardless of which rank holds it), so
    :meth:`expected` checks an elastic restart end-to-end.

    ``mem`` is updated immediately after the world allreduce, before the
    ``comm_free`` — both collectives, so the two-phase commit's horizon
    equalization parks every rank at the same instance and the images
    agree on ``iter``/``acc``, which :meth:`redecompose` asserts.
    """

    def __init__(self, rank: int, nranks: int, total_items: int = 64,
                 iters: int = 6, compute_s: float = 1e-4):
        super().__init__(rank)
        self.nranks = nranks
        self.total_items = total_items
        self.iters = iters
        self.compute_s = compute_s
        blocks = np.array_split(np.arange(total_items), nranks)
        self.mem["block"] = [int(x) for x in blocks[rank]]
        self.mem["acc"] = 0
        self.mem["iter"] = 0

    def main(self, api):
        for it in range(self.mem["iter"], self.iters):
            yield from api.compute(self.compute_s)
            local = sum(self.mem["block"]) * (it + 1)
            sub = yield from api.comm_split(api.rank % 2, key=api.rank)
            # subcommunicator reduction: exercises deterministic
            # re-splitting; its value is decomposition-dependent, so it
            # never enters the checkpointed accumulator
            yield from api.allreduce(local, SUM, comm=sub)
            total = yield from api.allreduce(local, SUM)
            self.mem["acc"] += total
            self.mem["iter"] = it + 1
            yield from api.comm_free(sub)
        return self.mem["acc"]

    @staticmethod
    def expected(total_items: int, iters: int) -> int:
        item_sum = total_items * (total_items - 1) // 2
        return item_sum * (iters * (iters + 1) // 2)

    @classmethod
    def redecompose(cls, states, new_nranks):
        """Concatenate the old blocks in rank order and re-split them
        contiguously over the new world."""
        from repro.errors import RestartError

        iters = {s["iter"] for s in states}
        accs = {s["acc"] for s in states}
        if len(iters) != 1 or len(accs) != 1:
            raise RestartError(
                "elastic restart needs every image at one collective "
                f"horizon; images disagree (iters={sorted(iters)}, "
                f"accs={sorted(accs)})"
            )
        acc, it = accs.pop(), iters.pop()
        items = [x for s in states for x in s["block"]]
        blocks = np.array_split(np.asarray(items), new_nranks)
        return [
            {"block": [int(x) for x in blocks[r]], "acc": acc, "iter": it}
            for r in range(new_nranks)
        ]


class StragglerCollective(MpiProgram):
    """One rank computes far longer than the rest before joining each
    collective — the Section III-J straggler scenario."""

    def __init__(self, rank: int, iters: int = 3, fast_s: float = 1e-4,
                 slow_s: float = 0.5, straggler: int = 0):
        super().__init__(rank)
        self.iters = iters
        self.fast_s = fast_s
        self.slow_s = slow_s
        self.straggler = straggler

    def main(self, api):
        total = 0
        for i in range(self.iters):
            dt = self.slow_s if api.rank == self.straggler else self.fast_s
            yield from api.compute(dt)
            total += yield from api.allreduce(1, SUM)
        return total
