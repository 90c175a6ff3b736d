"""The interconnect: injection, in-flight tracking, ordered delivery."""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.des.scheduler import Scheduler
from repro.hosts.machine import MachineSpec
from repro.simnet.message import Message

DeliveryFn = Callable[[Message], None]

#: a fault filter inspects a message at injection and returns None (let
#: it through), ``("drop",)`` (it never crosses the fabric) or
#: ``("delay", seconds)`` (extra transit time, e.g. a congested link)
FaultFilter = Callable[[Message], Optional[tuple]]


class _Link:
    """Per-``(src, dst)`` link record: everything the fabric keeps about
    one ordered pair of ranks.

    ``messages``/``bytes`` are the cumulative totals recorded at
    injection (the :class:`NetworkStats` per-pair ledger);
    ``delivered`` counts messages that left the fabric on this pair
    (delivered or purged), so it is the per-pair index the next
    delivery must carry; ``last_arrival`` is the clamp that keeps
    arrivals on the pair strictly increasing.  Three counters and a
    float per pair that has ever communicated; no per-pair container.
    """

    __slots__ = ("messages", "bytes", "delivered", "last_arrival")

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.delivered = 0
        self.last_arrival = -1.0


class _PairCounts(Mapping):
    """Read-only ``(src, dst) -> total`` view over the link records.

    Iterates the pairs that have carried at least one message; reading
    any other pair returns 0 without creating an entry."""

    __slots__ = ("_links", "_get")

    def __init__(self, links: Dict[Tuple[int, int], _Link], field: str):
        self._links = links
        self._get = attrgetter(field)

    def __getitem__(self, pair: Tuple[int, int]) -> int:
        link = self._links.get(pair)
        return 0 if link is None else self._get(link)

    def __contains__(self, pair: object) -> bool:
        link = self._links.get(pair)
        return link is not None and link.messages > 0

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return (pair for pair, link in self._links.items() if link.messages)

    def __len__(self) -> int:
        return sum(1 for link in self._links.values() if link.messages)


class NetworkStats:
    """Cumulative traffic counters (used by benches and Figure 4).

    Per-pair totals are kept alongside the global ones so that MANA's
    per-pair drain counters can be audited against what actually crossed
    the fabric: for every (src, dst), ``pair_bytes`` must equal the
    sender-side drain counter at a quiesced checkpoint.  The per-pair
    totals live in the fabric's link records (one :class:`_Link` per
    ``(src, dst)``, shared with :class:`Network`); ``pair_messages`` and
    ``pair_bytes`` are read-only views over them.  A message is
    recorded exactly once, at injection — :meth:`record` refuses
    double-recording (the accounting-drift bug class where a retried
    injection inflates one side of the pair ledger).
    """

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.intranode_messages = 0
        self.internode_messages = 0
        #: (src, dst) -> link record, shared with the owning Network
        self.links: Dict[Tuple[int, int], _Link] = {}
        self.pair_messages: Mapping[Tuple[int, int], int] = _PairCounts(
            self.links, "messages"
        )
        self.pair_bytes: Mapping[Tuple[int, int], int] = _PairCounts(
            self.links, "bytes"
        )
        self._recorded_high = 0  # highest msg_id seen (ids are monotone)

    def record(self, msg: Message, intranode: bool,
               link: Optional[_Link] = None) -> None:
        """Account one injected message; ``link`` is the pair's record
        when the caller already holds it."""
        if msg.msg_id <= self._recorded_high:
            raise SimulationError(
                f"{msg!r} recorded twice: per-pair accounting would drift"
            )
        self._recorded_high = msg.msg_id
        self.messages += 1
        nbytes = msg.nbytes
        self.bytes += nbytes
        if link is None:
            pair = (msg.src, msg.dst)
            link = self.links.get(pair)
            if link is None:
                link = self.links[pair] = _Link()
        link.messages += 1
        link.bytes += nbytes
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

    Each ``(src, dst)`` pair that has ever communicated owns one
    slotted link record (:class:`_Link`): its message/byte totals, its
    last arrival time, and how many of its messages have left the
    fabric.  :meth:`inject` and :meth:`_deliver` each do one lookup of
    it.  Injection stamps a message with its per-pair index
    (``Message.pair_seq``); delivery checks that the message carries the
    pair's next index, so any reordering on a pair raises a "FIFO
    violation" without a per-pair queue.

    A message is *in flight* from :meth:`inject` until the destination
    endpoint's delivery callback runs.  In-flight messages are indexed
    per destination rank, in an insertion-ordered ``msg_id -> Message``
    dict.  Injection order is message-id order (:class:`NetworkStats`
    refuses a non-increasing id), so every query below returns messages
    in message-id order without sorting.

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
        #: per-destination in-flight index, msg_id -> Message in
        #: message-id order
        self._to_dst: List[Dict[int, Message]] = [{} for _ in range(nranks)]
        self._in_flight_total = 0
        #: high-water mark of simultaneously in-flight messages; the
        #: drain asserts it returns to zero at every checkpoint
        self.in_flight_peak = 0
        self.stats = NetworkStats()
        #: (src, dst) -> link record (the same dict the stats read)
        self._links = self.stats.links
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
        link = self._links.get(pair)
        if link is None:
            link = self._links[pair] = _Link()
        prev = link.last_arrival
        if arrival <= prev:
            arrival = prev + 1e-12  # preserve per-pair FIFO with distinct times
        link.last_arrival = arrival
        msg.pair_seq = link.messages
        # record first: a refused (re-used) id never enters the index
        self.stats.record(msg, intranode, link)
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
        link = self._links[(msg.src, dst)]
        if msg.pair_seq != link.delivered:
            raise SimulationError(
                f"FIFO violation delivering {msg!r}: it is message "
                f"{msg.pair_seq} of its pair, expected {link.delivered}"
            )
        link.delivered += 1
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
            for d in self._to_dst
            for m in d.values()
            if src is None or m.src == src
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
        links = self._links
        for d in self._to_dst:
            for m in d.values():
                # every message the pair sent has now left the fabric
                link = links[(m.src, m.dst)]
                link.delivered = link.messages
            self._purged.update(d)
            n += len(d)
            d.clear()
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
