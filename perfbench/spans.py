"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of the simulator's layers from
the outside (``instrument``); nothing under ``src/`` is edited.  Each
wrapped call opens a span on a single stack (the simulator is one
thread of generator coroutines, so nesting on the stack is exactly the
call nesting).  A function that returns a generator -- a DES process
body, a drain, a pipeline call -- is re-wrapped so that every resume
slice is its own span: its time is the sum of its slices, never its
virtual lifetime.

Self time is a span's duration minus the time of the spans it directly
encloses.  Totals are kept per span name; individual spans (id, name,
start, end, parent, run id) are kept up to ``keep`` and written out by
``dump`` at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types


class SpanRecorder:
    """Span stack, per-name totals and a bounded list of raw spans."""

    def __init__(self, run_id: str, keep: int = 100_000):
        self.run_id = run_id
        self.keep = keep
        self.enabled = False
        self.totals = {}      # name -> [calls, slices, total_s, self_s]
        self.counters = {}    # name -> number (bytes put, bytes recovered)
        self.spans = []       # (id, name, start, end, parent)
        self.dropped = 0
        self._stack = []      # [id, name, start, child_s, parent]
        self._next_id = 0

    # -- span stack ------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        stack.append([self._next_id, name, time.perf_counter(), 0.0, parent])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0.0, 0.0]
        tot[1] += 1
        tot[2] += dur
        tot[3] += dur - child
        if len(self.spans) < self.keep:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    def _count_call(self, name: str) -> None:
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0.0, 0.0]
        tot[0] += 1

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- wrapping ----------------------------------------------------------
    def traced_gen(self, name: str, gen):
        """Drive ``gen`` as ``yield from`` would, one span per slice."""
        value = None
        exc = None
        while True:
            self._enter(name)
            try:
                if exc is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(exc)
            except StopIteration as stop:
                self._exit()
                return stop.value
            except BaseException:
                self._exit()
                raise
            self._exit()
            exc = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # noqa: BLE001 - forwarded into gen
                exc = e

    def wrap(self, name: str, fn, observe=None):
        """A wrapper timing ``fn`` as span ``name``.  ``observe(rec,
        result, args, kwargs)`` may feed counters from the call."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            rec._count_call(name)
            rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            if observe is not None:
                observe(rec, result, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return rec.traced_gen(name, result)
            return result

        return wrapper

    # -- reporting ---------------------------------------------------------
    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0.0, 0.0))[2]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0.0, 0.0))[3]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0.0, 0.0))[0]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t[3] for n, t in self.totals.items() if n.startswith(prefix))

    def dump(self, path) -> None:
        """Write every kept span (JSON lines) plus the per-name totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "run_id": self.run_id, "kept": len(self.spans),
                "dropped": self.dropped,
                "totals": {n: dict(zip(("calls", "slices", "total_s",
                                        "self_s"), t))
                           for n, t in sorted(self.totals.items())},
            }) + "\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent,
                                     self.run_id]) + "\n")


def _replace_everywhere(old, new) -> None:
    """Rebind every ``repro.*`` module global that names ``old`` (call
    sites that did ``from module import fn`` hold their own binding)."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("repro") or mod is None:
            continue
        d = getattr(mod, "__dict__", None)
        if not d:
            continue
        for key, val in list(d.items()):
            if val is old:
                d[key] = new


def _put_bytes(rec, _result, args, kwargs):
    # CheckpointStore.put(self, rank, epoch, blob, nbytes, ...)
    blob = args[3] if len(args) > 3 else kwargs["blob"]
    rec.add("storage.put_bytes", len(blob))


def _recover_bytes(rec, result, _args, _kwargs):
    if result.ok and result.blob is not None:
        rec.add("storage.recover_bytes", len(result.blob))


def instrument(rec: SpanRecorder) -> None:
    """Wrap the layer entry points the per-layer metrics are built from.

    Must run before any session is built, so every process body and
    bound method a session captures is already the wrapped one.
    """
    from repro.apps import kernels
    from repro.apps.dft_proxy import DftProxy
    from repro.apps.md_proxy import MdProxy
    from repro.apps.micro import TokenRing
    from repro.des.scheduler import Scheduler
    from repro.mana import checkpoint, drain, ir_bridge, restart, session
    from repro.mana.coordinator import Coordinator
    from repro.mana.pipeline.core import Pipeline
    from repro.mana.replay import ReplayLog
    from repro.simmpi.library import MpiLibrary
    from repro.simmpi.pt2pt import Endpoint
    from repro.simnet.network import Network
    from repro.simnet.oob import OobChannel
    from repro.storage.store import CheckpointStore
    from repro.util import serde

    methods = [
        # des: the dispatch loop; process bodies are glue (below)
        (Scheduler, "run", "des.run", None),
        # simnet
        (Network, "inject", "simnet.inject", None),
        (Network, "_deliver", "simnet.deliver", None),
        (Network, "pending_messages", "simnet.scan", None),
        (Network, "app_in_flight", "simnet.scan", None),
        (Network, "in_flight_count", "simnet.scan", None),
        (Network, "in_flight_bytes", "simnet.scan", None),
        (OobChannel, "send", "simnet.oob_send", None),
        # simmpi: the endpoint delivery path
        (Endpoint, "deliver", "simmpi.deliver", None),
        # mana
        (Pipeline, "call", "mana.pipeline", None),
        (Coordinator, "run", "mana.coordinator", None),
        (ReplayLog, "next", "mana.replay_next", None),
        (session.ManaSession, "save_checkpoint", "mana.image_save", None),
        (session.RecoveryOrchestrator, "_recover_until_stable",
         "mana.recovery", None),
        # storage
        (CheckpointStore, "put", "storage.put", _put_bytes),
        (CheckpointStore, "recover", "storage.recover", _recover_bytes),
        (CheckpointStore, "commit_epoch", "storage.commit", None),
        # apps: the rank programs this benchmark runs
        (MdProxy, "main", "apps.main", None),
        (DftProxy, "main", "apps.main", None),
        (TokenRing, "main", "apps.main", None),
    ]
    # every public MpiLibrary entry point is the simmpi layer
    for attr, val in list(vars(MpiLibrary).items()):
        if not attr.startswith("_") and isinstance(val, types.FunctionType):
            methods.append((MpiLibrary, attr, "simmpi." + attr, None))
    for cls, attr, name, observe in methods:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), observe))

    functions = [
        (checkpoint, "run_checkpoint_cycle", "mana.ckpt_cycle"),
        (checkpoint, "build_image", "mana.image_build"),
        (drain, "drain_alltoall", "mana.drain"),
        (drain, "drain_coordinator", "mana.drain"),
        (restart, "perform_restart", "mana.restart"),
        (session, "resume_from_checkpoint", "mana.image_load"),
        (ir_bridge, "compile_replay", "ir.compile"),
        (ir_bridge, "compile_image", "ir.compile"),
        (kernels, "lj_force_step", "apps.kernel"),
        (kernels, "scf_residual_step", "apps.kernel"),
        (serde, "dumps", "util.serde"),
        (serde, "loads", "util.serde"),
    ]
    for mod, attr, name in functions:
        old = getattr(mod, attr)
        _replace_everywhere(old, rec.wrap(name, old))

    # every DES process body: time inside a process that no layer span
    # covers is glue, not scheduler dispatch
    spawn = Scheduler.spawn

    def traced_spawn(self, gen, name, daemon=False):
        if rec.enabled:
            gen = rec.traced_gen("glue.proc", gen)
        return spawn(self, gen, name, daemon)

    Scheduler.spawn = traced_spawn
