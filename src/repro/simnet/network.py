"""The interconnect: injection, in-flight tracking, ordered delivery."""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.des.scheduler import Scheduler
from repro.hosts.machine import MachineSpec
from repro.simnet.message import Message

DeliveryFn = Callable[[Message], None]

#: a fault filter inspects a message at injection and returns None (let
#: it through), ``("drop",)`` (it never crosses the fabric) or
#: ``("delay", seconds)`` (extra transit time, e.g. a congested link)
FaultFilter = Callable[[Message], Optional[tuple]]


class NetworkStats:
    """Cumulative traffic counters (used by benches and Figure 4).

    Per-pair totals are kept alongside the global ones so that MANA's
    per-pair drain counters can be audited against what actually crossed
    the fabric: for every (src, dst), ``pair_bytes`` must equal the
    sender-side drain counter at a quiesced checkpoint.  A message is
    recorded exactly once, at injection — :meth:`record` refuses
    double-recording (the accounting-drift bug class where a retried
    injection inflates one side of the pair ledger).
    """

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.intranode_messages = 0
        self.internode_messages = 0
        self.pair_messages: Dict[Tuple[int, int], int] = defaultdict(int)
        self.pair_bytes: Dict[Tuple[int, int], int] = defaultdict(int)
        self._recorded_high = 0  # highest msg_id seen (ids are monotone)

    def record(self, msg: Message, intranode: bool) -> None:
        if msg.msg_id <= self._recorded_high:
            raise SimulationError(
                f"{msg!r} recorded twice: per-pair accounting would drift"
            )
        self._recorded_high = msg.msg_id
        self.messages += 1
        self.bytes += msg.nbytes
        pair = (msg.src, msg.dst)
        self.pair_messages[pair] += 1
        self.pair_bytes[pair] += msg.nbytes
        if intranode:
            self.intranode_messages += 1
        else:
            self.internode_messages += 1


class Network:
    """Point-to-point fabric with per-pair FIFO order and in-flight state.

    Delivery time for a message of ``n`` bytes between ranks on different
    nodes is ``latency + n / bandwidth``; same-node pairs use the faster
    intranode constants.  MPI's non-overtaking rule is enforced by
    clamping each arrival to be no earlier than the previous arrival on
    the same (src, dst) pair.

    A message is *in flight* from :meth:`inject` until the destination
    endpoint's delivery callback runs.  In-flight state is indexed two
    ways:

    * per destination rank, an insertion-ordered ``msg_id -> Message``
      dict.  Injection order is message-id order (:class:`NetworkStats`
      refuses a non-increasing id), so every query below returns
      messages in message-id order without sorting;
    * per ``(src, dst)`` pair, a deque used only for the FIFO head check
      at delivery.  A pair's key is deleted when its deque empties, so
      the map never holds more keys than there are messages in flight.

    The MANA drain itself never peeks at this state (it only uses MPI
    calls, as in the paper); the simulation-side invariants do: the
    post-drain check, the restart teardown and the deadlock detector.
    Query costs, with ``n`` messages in flight: :meth:`in_flight_count`
    is O(1); :meth:`app_in_flight` and :meth:`in_flight_bytes` with a
    destination are O(messages in flight to it); :meth:`in_flight_bytes`
    without one is O(n); :meth:`pending_messages` (and so
    :meth:`app_in_flight` without a destination) is a k-way merge,
    O(nranks + n log nranks).  None of them grows with the number of
    pairs that have ever communicated.
    """

    def __init__(self, sched: Scheduler, machine: MachineSpec, nranks: int):
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self._sched = sched
        self._machine = machine
        self.nranks = nranks
        # hot-path hoists: node lookup table and link constants (the
        # machine spec is immutable for the life of the network)
        self._node = [machine.node_of(r) for r in range(nranks)]
        self._intra_lat = machine.intranode_latency
        self._intra_bw = machine.intranode_bandwidth
        self._net_lat = machine.net_latency
        self._net_bw = machine.net_bandwidth
        self._tracer = sched.tracer
        self._endpoints: List[Optional[DeliveryFn]] = [None] * nranks
        self._last_arrival: Dict[Tuple[int, int], float] = {}
        #: per-destination in-flight index, msg_id -> Message in
        #: message-id order
        self._to_dst: List[Dict[int, Message]] = [{} for _ in range(nranks)]
        #: per-pair FIFO of in-flight messages; no empty deques are kept
        self._pair_fifo: Dict[Tuple[int, int], Deque[Message]] = {}
        self._in_flight_total = 0
        #: high-water mark of simultaneously in-flight messages; the
        #: drain asserts it returns to zero at every checkpoint
        self.in_flight_peak = 0
        self.stats = NetworkStats()
        self._sealed = False
        self._purged: set = set()
        #: messages eaten by an armed fault filter (never delivered)
        self.dropped_messages = 0
        self._fault_filter: Optional[FaultFilter] = None

    # ------------------------------------------------------------------
    def set_fault_filter(self, fn: Optional[FaultFilter]) -> None:
        """Arm (or disarm with None) a fault filter consulted at every
        injection.  The network never knows *why* a fault happens — the
        policy lives entirely in the caller (``repro.faults``), keeping
        this layer free of any upward dependency."""
        self._fault_filter = fn

    # ------------------------------------------------------------------
    def attach_endpoint(self, world_rank: int, deliver: DeliveryFn) -> None:
        """Register the delivery callback for a rank (the MPI engine)."""
        if not 0 <= world_rank < self.nranks:
            raise SimulationError(f"rank {world_rank} out of range")
        if self._endpoints[world_rank] is not None:
            raise SimulationError(f"endpoint for rank {world_rank} already attached")
        self._endpoints[world_rank] = deliver

    def seal(self) -> None:
        """Refuse all further injections (restart teardown guard)."""
        self._sealed = True

    # ------------------------------------------------------------------
    def transit_time(self, src: int, dst: int, nbytes: int) -> float:
        if self._node[src] == self._node[dst]:
            return self._intra_lat + nbytes / self._intra_bw
        return self._net_lat + nbytes / self._net_bw

    def inject(self, msg: Message) -> None:
        """Put a message into the fabric; delivery is scheduled, ordered."""
        if self._sealed:
            raise SimulationError("inject() on a sealed (torn down) network")
        src = msg.src
        dst = msg.dst
        if self._endpoints[dst] is None:
            raise SimulationError(f"no endpoint attached for rank {dst}")
        sched = self._sched
        now = sched.now
        msg.injected_at = now
        extra_delay = 0.0
        if self._fault_filter is not None:
            action = self._fault_filter(msg)
            if action is not None:
                if action[0] == "drop":
                    # lost on the wire: never recorded, never in flight
                    self.dropped_messages += 1
                    tr = self._tracer
                    if tr.enabled:
                        tr.emit(
                            "network", "fault_drop", rank=src,
                            dst=dst, msg_id=msg.msg_id,
                            ctx=msg.context_id, nbytes=msg.nbytes,
                        )
                    return
                if action[0] == "delay":
                    extra_delay = float(action[1])
                    tr = self._tracer
                    if tr.enabled:
                        tr.emit(
                            "network", "fault_delay", rank=src,
                            dst=dst, msg_id=msg.msg_id,
                            delay=extra_delay,
                        )
                else:
                    raise SimulationError(
                        f"unknown fault-filter action {action!r}"
                    )
        pair = (src, dst)
        nbytes = msg.nbytes
        intranode = self._node[src] == self._node[dst]
        if intranode:
            transit = self._intra_lat + nbytes / self._intra_bw
        else:
            transit = self._net_lat + nbytes / self._net_bw
        arrival = now + transit + extra_delay
        prev = self._last_arrival.get(pair, -1.0)
        if arrival <= prev:
            arrival = prev + 1e-12  # preserve per-pair FIFO with distinct times
        self._last_arrival[pair] = arrival
        # record first: a refused (re-used) id never enters the index
        self.stats.record(msg, intranode)
        fifo = self._pair_fifo.get(pair)
        if fifo is None:
            fifo = self._pair_fifo[pair] = deque()
        fifo.append(msg)
        self._to_dst[dst][msg.msg_id] = msg
        total = self._in_flight_total + 1
        self._in_flight_total = total
        if total > self.in_flight_peak:
            self.in_flight_peak = total
        sched.schedule_call_at(arrival, self._deliver, msg)
        tr = self._tracer
        if tr.enabled:
            tr.emit(
                "network", "inject", rank=src, dst=dst,
                msg_id=msg.msg_id, ctx=msg.context_id, tag=msg.tag,
                nbytes=nbytes, in_flight=total,
            )

    def _deliver(self, msg: Message) -> None:
        if self._purged and msg.msg_id in self._purged:
            self._purged.discard(msg.msg_id)
            return
        dst = msg.dst
        pair = (msg.src, dst)
        fifo = self._pair_fifo.get(pair)
        if not fifo or fifo[0] is not msg:
            raise SimulationError(
                f"FIFO violation delivering {msg!r}; head is "
                f"{fifo[0]!r}" if fifo else f"lost message {msg!r}"
            )
        fifo.popleft()
        if not fifo:
            del self._pair_fifo[pair]
        del self._to_dst[dst][msg.msg_id]
        total = self._in_flight_total - 1
        self._in_flight_total = total
        tr = self._tracer
        if tr.enabled:
            tr.emit(
                "network", "deliver", rank=dst, src=msg.src,
                msg_id=msg.msg_id, ctx=msg.context_id, tag=msg.tag,
                nbytes=msg.nbytes, in_flight=total,
            )
        endpoint = self._endpoints[dst]
        assert endpoint is not None
        endpoint(msg)

    # ------------------------------------------------------------------
    # in-flight queries: read the index (drain invariant, restart
    # teardown, deadlock detector, tests)
    # ------------------------------------------------------------------
    def in_flight_count(self) -> int:
        return self._in_flight_total

    def in_flight_bytes(
        self, src: Optional[int] = None, dst: Optional[int] = None
    ) -> int:
        if dst is not None:
            msgs = self._to_dst[dst].values()
            if src is None:
                return sum(m.nbytes for m in msgs)
            return sum(m.nbytes for m in msgs if m.src == src)
        return sum(
            m.nbytes
            for (s, _d), fifo in self._pair_fifo.items()
            if src is None or s == src
            for m in fifo
        )

    def pending_messages(self) -> List[Message]:
        """Every in-flight message, in message-id order (a merge of the
        already-ordered per-destination dicts)."""
        live = [d.values() for d in self._to_dst if d]
        return list(heapq.merge(*live, key=attrgetter("msg_id")))

    def app_in_flight(self, dst: Optional[int] = None) -> List[Message]:
        """In-flight messages on *application* communicator contexts
        (even context ids; odd ids are collective-internal traffic that
        the drain never sees, per the paper's Section III-B scope), in
        message-id order.  Optionally filtered to one destination rank,
        which reads only that rank's slice of the index."""
        msgs = (
            self.pending_messages() if dst is None
            else self._to_dst[dst].values()
        )
        return [m for m in msgs if m.context_id % 2 == 0]

    # ------------------------------------------------------------------
    # restart support: the fabric persists across a lower-half teardown;
    # only the dead library's state is dropped
    # ------------------------------------------------------------------
    def purge_in_flight(self) -> int:
        """Drop every in-flight message (closing the old lower half's
        connections).  Returns the number of messages dropped.  After a
        correct MANA drain only collective-internal messages can remain,
        and those are regenerated by replay — the restart engine asserts
        exactly that before calling this."""
        n = 0
        for d in self._to_dst:
            self._purged.update(d)
            n += len(d)
            d.clear()
        self._pair_fifo.clear()
        self._in_flight_total = 0
        return n

    def reset_endpoints(self) -> None:
        """Detach every endpoint so a fresh library can re-attach."""
        self._endpoints = [None] * self.nranks

    def assert_empty(self) -> None:
        """Raise if any message is still in flight (post-drain invariant)."""
        if self._in_flight_total:
            pend = ", ".join(repr(m) for m in self.pending_messages()[:8])
            raise SimulationError(
                f"network not empty: {self._in_flight_total} in flight ({pend} ...)"
            )
