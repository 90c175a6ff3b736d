"""The three benchmark workloads.

Each workload turns ``--seed`` into its inputs once (``__init__``) and
then runs ``iteration()`` repeatedly.  An iteration times its own
phases on the host clock, checks the program's outputs (raising
``GateError`` on a wrong result), and returns one sample: the universal
end-to-end figures every workload reports, the workload's own
issue-level figures (``extra``), and the layer counts taken from
``RunOutcome``.  Why each workload exists is in README.md.

The repro modules are imported lazily and always called through their
module (``session.ManaSession``), so the span recorder's wrappers,
installed after import, are the functions these calls reach.
"""

from __future__ import annotations

import statistics
import time

#: set-up takes a few ms, so an untraced iteration builds its sessions
#: this many times and keeps the median build time (and the last build)
SETUP_REPEATS = 5


class GateError(AssertionError):
    """A workload produced a wrong result or broke an invariant."""


def _gate(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _committed(records):
    return [r for r in records if not r.get("aborted") and not r.get("skipped")]


def _mpi_calls(out) -> int:
    return out.total_pt2pt_calls + out.total_collective_calls


def session_counts(out, sess) -> dict:
    """Layer counts of one MANA run, from its RunOutcome and session."""
    return {
        "des.events": sess.sched.events_run,
        "simnet.messages": out.network_messages,
        "simnet.bytes": out.network_bytes,
        "simmpi.lib_calls": sum(out.lib_calls.values()),
        "mana.wrapper_calls": sum(
            sum(s.wrapper_calls.values()) for s in out.rank_stats),
        "mana.image_bytes": sum(
            r["image_bytes_total"] for r in _committed(out.checkpoints)),
        "mana.quiesce_rounds": sum(
            r.get("release_rounds", 0) + r.get("drain_rounds", 0)
            for r in out.checkpoints),
        "mana.replayed_calls": sum(
            r.get("replayed_calls", 0) for r in sess.rt.reexec_records),
        "recovery.attempts": sum(r["attempts"] for r in out.recoveries),
        "oob.messages": out.oob_messages,
    }


def _add_counts(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0) + v


class Workload:
    """Shared iteration bookkeeping."""

    name = ""

    def __init__(self, seed: int, recorder=None):
        self.seed = seed
        self.recorder = recorder

    def _timed_setup(self, build):
        """``(last build, median build seconds)``.  A traced iteration
        builds once, so set-up spans are not multiplied."""
        rec = self.recorder
        repeats = 1 if rec is not None and rec.enabled else SETUP_REPEATS
        times = []
        for _ in range(repeats):
            out, dt = _timed(build)
            times.append(dt)
        return out, statistics.median(times)

    def _check_empty(self, sess) -> None:
        """The network must be empty at exit (benchmark glue, so the
        probe is kept out of the trace)."""
        rec = self.recorder
        was = rec is not None and rec.enabled
        if was:
            rec.enabled = False
        try:
            _gate(sess.network.in_flight_count() == 0,
                  f"{self.name}: network not empty at exit")
        finally:
            if was:
                rec.enabled = True

    def plain_config(self):
        """The MANA config of this workload's checkpoint-free run."""
        return self.config()

    def host_overhead(self) -> float:
        """Host seconds a checkpoint-free MANA run of this workload's
        application costs over a native run (``mana.host_overhead_s``)."""
        from repro.mana import session

        native, native_s = _timed(lambda: session.run_app_native(
            self.nranks, self.factory, self.machine))
        sess = session.ManaSession(self.nranks, self.factory, self.machine,
                                   self.plain_config())
        out, mana_s = _timed(sess.run)
        _gate(out.results == native.results,
              f"{self.name}: MANA results differ from native")
        return mana_s - native_s


class MdCkpt(Workload):
    """Fig. 3 path: the MD proxy under feature/2pc on Cori Haswell,
    uncheckpointed, then with evenly spaced checkpoint+restart rounds."""

    name = "md_ckpt"
    NRANKS = 128
    #: few steps: path_s is a difference of two runs, and the shorter the
    #: uncheckpointed run, the less of its noise the difference carries
    STEPS = 6
    ROUNDS = 3
    #: static per-rank compute skew (the proxy's default is 0.15): the
    #: seed draws it, and at 0.15 the uncheckpointed modeled runtime, the
    #: denominator of sim.overhead_pct, moves ~10% between seeds
    IMBALANCE = 0.05

    def __init__(self, seed: int, recorder=None):
        super().__init__(seed, recorder)
        from repro.apps.md_proxy import MdConfig, MdProxy
        from repro.hosts import CORI_HASWELL

        self.nranks = self.NRANKS
        self.machine = CORI_HASWELL
        self.md = MdConfig(nranks=self.NRANKS, steps=self.STEPS,
                           imbalance=self.IMBALANCE, seed=seed)
        md, machine = self.md, self.machine
        self.factory = lambda r: MdProxy(r, md, machine)

    def config(self):
        from repro.mana import ManaConfig

        return ManaConfig.feature_2pc()

    def iteration(self) -> dict:
        from repro.mana import session

        t_start = time.perf_counter()
        cfg = self.config()
        (plain, ckpt), setup = self._timed_setup(lambda: (
            session.ManaSession(self.nranks, self.factory, self.machine, cfg),
            session.ManaSession(self.nranks, self.factory, self.machine, cfg),
        ))
        base, base_s = _timed(plain.run)
        self._check_empty(plain)
        plans = [
            session.CheckpointPlan(
                at=base.elapsed * (i + 1) / (self.ROUNDS + 1),
                action="restart")
            for i in range(self.ROUNDS)
        ]
        out, ckpt_s = _timed(lambda: ckpt.run(checkpoints=plans))
        self._check_empty(ckpt)
        wall = time.perf_counter() - t_start

        _gate(out.results == base.results,
              "md_ckpt: checkpointed results differ from the uncheckpointed run")
        rounds = _committed(out.checkpoints)
        _gate(len(rounds) == self.ROUNDS and len(out.checkpoints) == self.ROUNDS,
              f"md_ckpt: {len(rounds)}/{self.ROUNDS} checkpoint rounds committed")
        _gate(all(r["restart_time"] > 0 for r in rounds),
              "md_ckpt: a round did not restart")

        sim_ckpt = sum(r["checkpoint_time"] for r in rounds) / self.ROUNDS
        sim_restart = sum(r["restart_time"] for r in rounds) / self.ROUNDS
        counts = session_counts(base, plain)
        _add_counts(counts, session_counts(out, ckpt))
        return {
            "setup_s": setup,
            "wall_s": wall,
            "mpi_calls": _mpi_calls(base) + _mpi_calls(out),
            "mpi_s": base_s + ckpt_s,
            "path_s": (ckpt_s - base_s) / self.ROUNDS,
            "sim.path_s": sim_ckpt + sim_restart,
            "sim.overhead_pct": 100.0 * (out.elapsed - base.elapsed)
            / base.elapsed,
            "extra": {
                "ckpt_round_s": ((ckpt_s - base_s) / self.ROUNDS, "s", "host"),
                "sim.ckpt_s": (sim_ckpt, "s", "sim"),
                "sim.restart_s": (sim_restart, "s", "sim"),
            },
            "counts": counts,
        }


class DftSteady(Workload):
    """Table II path: the DFT proxy on CaPOH, natively and under MANA
    master, no checkpoints."""

    name = "dft_steady"
    NRANKS = 128
    ITERATIONS = 3

    def __init__(self, seed: int, recorder=None):
        super().__init__(seed, recorder)
        from repro.apps.dft_proxy import DftConfig, DftProxy
        from repro.apps.workloads import workload
        from repro.hosts import CORI_HASWELL

        self.nranks = self.NRANKS
        self.machine = CORI_HASWELL
        self.dft = DftConfig(nranks=self.NRANKS, workload=workload("CaPOH"),
                             iterations=self.ITERATIONS, seed=seed)
        dft, machine = self.dft, self.machine
        self.factory = lambda r: DftProxy(r, dft, machine)

    def config(self):
        from repro.mana import ManaConfig

        return ManaConfig.master()

    def iteration(self) -> dict:
        from repro.mana import session

        t_start = time.perf_counter()
        native, native_s = _timed(lambda: session.run_app_native(
            self.nranks, self.factory, self.machine))
        cfg = self.config()
        sess, setup = self._timed_setup(lambda: session.ManaSession(
            self.nranks, self.factory, self.machine, cfg))
        out, mana_s = _timed(sess.run)
        self._check_empty(sess)
        wall = time.perf_counter() - t_start

        _gate(out.results == native.results,
              "dft_steady: MANA results differ from native")
        _gate(not out.checkpoints, "dft_steady: unexpected checkpoint")
        return {
            "setup_s": setup,
            "wall_s": wall,
            "mpi_calls": _mpi_calls(out),
            "mpi_s": mana_s,
            "path_s": mana_s,
            "sim.path_s": out.elapsed - native.elapsed,
            "sim.overhead_pct": 100.0 * (out.elapsed - native.elapsed)
            / native.elapsed,
            "extra": {
                "mana.host_overhead_s": (mana_s - native_s, "s", "host"),
            },
            "counts": session_counts(out, sess),
        }


class RingRecover(Workload):
    """Recovery and REEXEC path: TokenRing on the multi-node testbox.
    (a) fault_tolerant + partner storage with periodic checkpoints and
    one seeded kill after the last commit (automatic rollback + replay);
    (b) halt at 90%, save to a file, resume_from_checkpoint + run."""

    name = "ring_recover"
    NRANKS = 64
    LAPS = 80
    COMPUTE_S = 1e-4
    EPOCHS = 2
    HALT_FRAC = 0.9
    #: the kill lands in this slice of the gap between the last commit
    #: and the fault-free end (a narrow slice keeps work lost comparable
    #: across seeds; the seed picks the rank and the instant)
    KILL_WINDOW = (0.30, 0.31)
    #: the seed also draws the per-hop compute time from this range, so
    #: every virtual time of the run (not only the kill) is an input
    COMPUTE_JITTER = 0.02

    def __init__(self, seed: int, recorder=None):
        super().__init__(seed, recorder)
        import os

        from repro.apps.micro import TokenRing
        from repro.hosts import TESTBOX_MN
        from repro.util.rng import make_rng

        self.nranks = self.NRANKS
        self.machine = TESTBOX_MN
        laps = self.LAPS
        u = float(make_rng(seed, "perfbench", "ring-compute").uniform())
        compute_s = self.COMPUTE_S * (1.0 + self.COMPUTE_JITTER * u)
        self.factory = lambda r: TokenRing(r, laps=laps, compute_s=compute_s)
        self.expected = [TokenRing.expected(r, self.NRANKS, laps)
                         for r in range(self.NRANKS)]
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "out")
        os.makedirs(out_dir, exist_ok=True)
        self.image_path = os.path.join(
            out_dir, f"ring_recover-{seed}-{os.getpid()}.ckpt")
        self._calibration = None

    def config(self):
        from repro.mana import ManaConfig
        from repro.storage import StoragePolicy

        return ManaConfig.fault_tolerant().but(storage=StoragePolicy.partner())

    def plain_config(self):
        # halt under fault_tolerant() never drains: the heartbeat chain
        # keeps the event queue alive (README.md), so part (b) runs
        # feature/2pc with record-replay and no heartbeats
        from repro.mana import ManaConfig

        return ManaConfig.feature_2pc().but(record_replay=True)

    def calibrate(self) -> dict:
        """Fault-free reference times; they do not depend on the kill, so
        they are computed once per process."""
        if self._calibration is None:
            from repro.mana import session

            ref = session.ManaSession(self.nranks, self.factory, self.machine,
                                      self.plain_config()).run()
            _gate(ref.results == self.expected,
                  "ring_recover: reference run wrong")
            interval = ref.elapsed / (self.EPOCHS + 1)
            clean_sess = session.ManaSession(self.nranks, self.factory,
                                             self.machine, self.config())
            clean = clean_sess.run(checkpoint_interval=interval)
            _gate(clean.results == self.expected,
                  "ring_recover: fault-free periodic run wrong")
            commits = [r["completed_at"] for r in _committed(clean.checkpoints)]
            _gate(len(commits) == self.EPOCHS,
                  f"ring_recover: {len(commits)} epochs committed, "
                  f"expected {self.EPOCHS}")
            self._calibration = {
                "ref_elapsed": ref.elapsed,
                "interval": interval,
                "last_commit": commits[-1],
                "clean_elapsed": clean.elapsed,
            }
        return self._calibration

    def iteration(self) -> dict:
        import os

        from repro.faults import FaultInjector, FaultSchedule
        from repro.mana import session

        cal = self.calibrate()
        t_start = time.perf_counter()
        tail = cal["clean_elapsed"] - cal["last_commit"]
        lo, hi = self.KILL_WINDOW
        plan = FaultSchedule(seed=self.seed).random_kill(
            self.nranks, cal["last_commit"] + lo * tail,
            cal["last_commit"] + hi * tail)

        def build():
            ft = session.ManaSession(self.nranks, self.factory, self.machine,
                                     self.config())
            FaultInjector(ft, plan).arm()
            halt = session.ManaSession(self.nranks, self.factory,
                                       self.machine, self.plain_config())
            return ft, halt

        (ft, halt), setup = self._timed_setup(build)
        # (a) periodic checkpoints, one kill, automatic recovery
        out_a, recover_s = _timed(
            lambda: ft.run(checkpoint_interval=cal["interval"]))
        self._check_empty(ft)
        _gate(out_a.results == self.expected,
              "ring_recover: recovered run returned wrong tokens")
        _gate(len(out_a.recoveries) == 1,
              f"ring_recover: {len(out_a.recoveries)} recoveries, expected 1")
        kill = next(f for f in out_a.faults if f["kind"] == "kill_rank")
        rec = out_a.recoveries[0]

        # (b) halt, save, resume by re-execution
        halted, halt_s = _timed(lambda: halt.run(checkpoints=[
            session.CheckpointPlan(at=cal["ref_elapsed"] * self.HALT_FRAC,
                                   action="halt")]))
        _gate(len(_committed(halted.checkpoints)) == 1,
              "ring_recover: halt checkpoint did not commit")
        try:
            _nbytes, save_s = _timed(
                lambda: halt.save_checkpoint(self.image_path))
            resumed, load_s = self._timed_setup(
                lambda: session.resume_from_checkpoint(
                    self.image_path, self.factory, self.machine,
                    self.plain_config()))
        finally:
            if os.path.exists(self.image_path):
                os.unlink(self.image_path)
        t0 = time.perf_counter()
        out_b = resumed.run()
        run_b_s = time.perf_counter() - t0
        self._check_empty(resumed)
        _gate(out_b.results == self.expected,
              "ring_recover: resumed run returned wrong tokens")
        stamps = [r["wall_stamp"] for r in resumed.rt.reexec_records]
        _gate(len(stamps) == self.nranks,
              "ring_recover: not every rank left replay")
        wall = time.perf_counter() - t_start

        restart_s = load_s + run_b_s
        mttr = rec["recovered_at"] - kill["at"]
        counts = session_counts(out_a, ft)
        _add_counts(counts, session_counts(halted, halt))
        _add_counts(counts, session_counts(out_b, resumed))
        return {
            "setup_s": setup + load_s,
            "wall_s": wall,
            "mpi_calls": _mpi_calls(out_a) + _mpi_calls(halted)
            + _mpi_calls(out_b),
            "mpi_s": recover_s + halt_s + run_b_s,
            "path_s": recover_s + restart_s,
            "sim.path_s": mttr,
            "sim.overhead_pct": 100.0 * (out_a.elapsed - cal["clean_elapsed"])
            / cal["clean_elapsed"],
            "replay_s": max(stamps) - t0,
            "save_s": save_s,
            "load_s": load_s,
            "extra": {
                "recover_run_s": (recover_s, "s", "host"),
                "restart_s": (restart_s, "s", "host"),
                "sim.mttr_s": (mttr, "s", "sim"),
                "sim.work_lost_s": (rec["work_lost"], "s", "sim"),
                "sim.detect_s": (rec["detected_at"] - kill["at"], "s", "sim"),
            },
            "counts": counts,
        }


WORKLOADS = {w.name: w for w in (MdCkpt, DftSteady, RingRecover)}
