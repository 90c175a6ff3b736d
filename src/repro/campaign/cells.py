"""Cell kinds: the registered runners a campaign can fan out.

A *cell* is one self-contained, seeded simulation (or a synthetic test
payload) identified entirely by its ``(kind, params)`` pair.  Runners
take the parameter dict plus the attempt index and return a
JSON-serializable result dict; they run inside crash-isolated worker
processes, so a runner that raises, hangs, or dies with SIGKILL costs
the campaign exactly one failed cell, never the campaign.

Determinism contract: a runner's result must be a pure function of
``(params, attempt)`` — no wall-clock values, no process-dependent
state — so that the same campaign run with 1 worker or 8, interrupted
or not, aggregates bit-identically.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, Dict

from repro.errors import RecoveryError
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import reference_run, run_scenario
from repro.faults.schedule import FaultSchedule
from repro.hosts import TESTBOX, TESTBOX_MN
from repro.mana.config import ManaConfig
from repro.mana.session import ManaSession
from repro.storage.policy import policy_by_name
from repro.util.hashing import stable_hash
from repro.util.rng import make_rng

CELL_KINDS: Dict[str, Callable[[dict, int], dict]] = {}


def cell_kind(name: str):
    def register(fn):
        CELL_KINDS[name] = fn
        return fn

    return register


def run_cell(kind: str, params: dict, attempt: int = 0) -> dict:
    """Execute one cell in the current process (the worker entry point)."""
    if kind not in CELL_KINDS:
        raise KeyError(
            f"unknown cell kind {kind!r}; known: {', '.join(CELL_KINDS)}"
        )
    return CELL_KINDS[kind](params, attempt)


# ----------------------------------------------------------------------
@cell_kind("synthetic")
def synthetic(params: dict, attempt: int) -> dict:
    """A cheap deterministic payload for tests and CI smokes.

    ``fail_mode`` turns the cell into a controlled failure: ``raise``
    throws, ``sigkill`` kills its own worker process (the crash the
    runner must isolate), ``hang`` sleeps past any timeout, ``flaky``
    SIGKILLs on the first attempt and succeeds on retry — exercising the
    bounded-retry path end to end.
    """
    seed = int(params.get("seed", 0))
    mode = params.get("fail_mode", "none")
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s:
        time.sleep(sleep_s)
    if mode == "raise":
        raise ValueError(f"synthetic cell failure (seed {seed})")
    if mode == "sigkill" or (mode == "flaky" and attempt == 0):
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        time.sleep(3600.0)
    h = stable_hash(f"synthetic:{seed}".encode())
    acc = 0.0
    for i in range(int(params.get("work", 100))):
        acc += ((h >> (i % 56)) & 0xFF) / 255.0
    return {"value": (h % 10**9) / 10**9, "acc": acc, "seed": seed}


# ----------------------------------------------------------------------
@cell_kind("scenario")
def scenario(params: dict, attempt: int) -> dict:
    """One named survivability scenario (repro.faults.scenarios)."""
    summary = run_scenario(params["scenario"], seed=int(params["seed"]),
                           nranks=int(params["nranks"]))
    summary["verdict"] = "ok" if summary["ok"] else "failed"
    return summary


# ----------------------------------------------------------------------
@cell_kind("fault_recovery")
def fault_recovery(params: dict, attempt: int) -> dict:
    """One point of the fault-recovery sweep: periodic checkpoints, one
    seeded-random kill after the first committed epoch.  The job must
    recover exactly once and reproduce the fault-free results."""
    nranks = int(params["nranks"])
    interval_frac = float(params["interval_frac"])
    seed = int(params["seed"])
    factory, expected, ref = reference_run(nranks)
    interval = ref.elapsed * interval_frac
    # calibrate: the faulted run is event-identical to this fault-free
    # run until the kill fires, so the first commit time is exact
    base = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.fault_tolerant()
    ).run(checkpoint_interval=interval)
    first_commit = base.committed_checkpoints[0]["completed_at"]
    tail = base.elapsed - first_commit
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    plan = FaultSchedule(seed=seed).random_kill(
        nranks, first_commit + 0.05 * tail, first_commit + 0.8 * tail
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(checkpoint_interval=interval)
    assert out.results == expected, "recovery changed the application output"
    assert len(out.recoveries) == 1, "expected exactly one recovery"
    kill = next(f for f in out.faults if f["kind"] == "kill_rank")
    return {
        "interval_frac": interval_frac,
        "interval": interval,
        "killed_rank": kill["rank"],
        "killed_at": kill["at"],
        "detection_latency": out.detections[0]["detected_at"] - kill["at"],
        "work_lost": out.recoveries[0]["work_lost"],
        "recovery_overhead": out.elapsed - base.elapsed,
        "checkpoints_committed": len(out.committed_checkpoints),
        "checkpoints_aborted": len(
            [r for r in out.checkpoints if r.get("aborted")]
        ),
        "elapsed": out.elapsed,
        "base_elapsed": base.elapsed,
        "ref_elapsed": ref.elapsed,
    }


# ----------------------------------------------------------------------
@cell_kind("storage_redundancy")
def storage_redundancy(params: dict, attempt: int) -> dict:
    """One point of the storage-redundancy sweep: periodic checkpoints
    under one redundancy policy, then a node loss after the first
    committed epoch.  An unrecoverable job is an expected negative
    result, not a cell failure: it reports ``survived == False`` with
    the recovery error's type (``local_only`` always; ``xor4`` when the
    victim shares a node with the group's parity block — see the
    campaign notes in EXPERIMENTS.md)."""
    nranks = int(params["nranks"])
    policy_name = params["policy"]
    interval_frac = float(params["interval_frac"])
    seed = int(params["seed"])
    factory, expected, ref = reference_run(nranks, TESTBOX_MN)
    cfg = ManaConfig.fault_tolerant().but(storage=policy_by_name(policy_name))
    interval = ref.elapsed * interval_frac
    # calibrate per policy: the faulted run is event-identical to this
    # fault-free run until the node dies, so the commit time is exact
    base = ManaSession(nranks, factory, TESTBOX_MN, cfg).run(
        checkpoint_interval=interval
    )
    assert base.results == expected
    committed = base.committed_checkpoints
    first_commit = committed[0]["completed_at"]
    fault_at = first_commit + 0.4 * (base.elapsed - first_commit)
    victim = seed % nranks
    node = TESTBOX_MN.node_of(victim)
    sess = ManaSession(nranks, factory, TESTBOX_MN, cfg)
    FaultInjector(sess, FaultSchedule(seed=seed).lose_node(node, fault_at)).arm()
    point = {
        "policy": policy_name,
        "interval_frac": interval_frac,
        "interval": interval,
        "victim": victim,
        "node": node,
        "fault_at": fault_at,
        "ckpt_overhead": base.elapsed - ref.elapsed,
        "ckpts_committed": len(committed),
        "overhead_per_ckpt": (base.elapsed - ref.elapsed) / len(committed),
        "copies_per_epoch": base.storage.get("copies_written", 0)
        // max(1, base.storage.get("epochs_committed", 1)),
    }
    try:
        out = sess.run(checkpoint_interval=interval)
    except RecoveryError as exc:
        # the node loss destroyed every copy the victim could restart
        # from: the negative result the sweep exists to show
        point.update(
            survived=False, recovered_epoch=None, epoch_fallbacks=None,
            work_lost=None, recovery_overhead=None, elapsed=None,
            error=type(exc).__name__,
        )
        return point
    assert out.results == expected, "recovery changed the application output"
    recovery = out.recoveries[0]
    point.update(
        survived=True,
        recovered_epoch=recovery["epoch"],
        epoch_fallbacks=recovery.get("epoch_fallbacks", 0),
        work_lost=recovery["work_lost"],
        recovery_overhead=out.elapsed - base.elapsed,
        elapsed=out.elapsed,
        error=None,
    )
    return point


# ----------------------------------------------------------------------
@cell_kind("chaos")
def chaos(params: dict, attempt: int) -> dict:
    """One crash-anywhere chaos point (repro.faults.chaos): inject one
    seeded fault right before the cell's injection event, then verify
    the terminal-state invariants.  A violated invariant raises (a
    failed cell); a typed job-lost outcome propagates as JobLostError,
    which the runner classifies as the reportable ``"lost"`` status with
    its work-lost accounting — degradation is a result, not a bug."""
    from repro.faults.chaos import run_chaos_cell

    return run_chaos_cell(params)


# ----------------------------------------------------------------------
@cell_kind("availability")
def availability(params: dict, attempt: int) -> dict:
    """One Monte-Carlo availability trial.

    A token-ring job checkpoints every ``interval_frac × T`` virtual
    seconds (T = fault-free runtime).  A failure time is drawn from an
    exponential distribution with mean ``mtbf_frac × T`` and a victim
    rank uniformly; the trial reports how much work the failure cost:

    * ``censored`` — the drawn failure lands after the job finished;
      nothing lost (the MTBF was survived outright).
    * ``recovered`` — automatic rollback-restart from the last durable
      epoch; ``work_lost`` is the rolled-back progress.
    * ``lost`` — the failure precedes the first durable checkpoint, so
      there is nothing to roll back to; the whole run to that point is
      forfeit (``work_lost = kill_at``).
    """
    nranks = int(params["nranks"])
    interval_frac = float(params["interval_frac"])
    mtbf_frac = float(params["mtbf_frac"])
    seed = int(params["seed"])
    factory, expected, ref = reference_run(nranks)
    interval = ref.elapsed * interval_frac
    mtbf = ref.elapsed * mtbf_frac
    base = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.fault_tolerant()
    ).run(checkpoint_interval=interval)

    rng = make_rng(seed, "campaign", "availability", mtbf_frac, interval_frac)
    kill_at = float(rng.exponential(mtbf))
    victim = int(rng.integers(nranks))
    point = {
        "interval": interval,
        "mtbf": mtbf,
        "kill_at": kill_at,
        "victim": victim,
        "base_elapsed": base.elapsed,
        "ref_elapsed": ref.elapsed,
    }
    if kill_at >= base.elapsed:
        point.update(outcome="censored", work_lost=0.0,
                     recovery_overhead=0.0, elapsed=base.elapsed)
        return point
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    FaultInjector(sess, FaultSchedule(seed=seed).kill_rank(victim, kill_at)).arm()
    try:
        out = sess.run(checkpoint_interval=interval)
    except RecoveryError:
        # nothing durable yet: every virtual second up to the crash is gone
        point.update(outcome="lost", work_lost=kill_at,
                     recovery_overhead=None, elapsed=None)
        return point
    assert out.results == expected, "recovery changed the application output"
    recovery = out.recoveries[0]
    point.update(
        outcome="recovered",
        work_lost=recovery["work_lost"],
        recovery_overhead=out.elapsed - base.elapsed,
        elapsed=out.elapsed,
    )
    return point
