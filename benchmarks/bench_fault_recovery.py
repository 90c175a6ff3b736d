"""Survivability: work lost, detection latency, restart overhead.

The quantity that motivates checkpointing at all (Garg et al.'s MTBF
argument, and the production-reliability concerns of the NERSC paper):
when a rank dies, how much virtual time is lost, how quickly does the
coordinator notice, and what does the automatic rollback-restart cost —
as a function of checkpoint interval?

Setup: a token-ring workload on TESTBOX under ``ManaConfig.
fault_tolerant()`` with periodic checkpointing; for each interval a
seeded-random rank is killed after the first committed epoch (calibrated
against a fault-free run with the same interval, so the kill provably
lands after a durable image exists).  Every point asserts the job still
produces bit-identical results, and the whole sweep is run twice with
the same seed to assert the summary itself is deterministic.  Each
point is one ``fault_recovery`` campaign cell
(:mod:`repro.campaign.cells`), the same definition the
``fault-recovery`` campaign spec fans out; this script is the grid, the
table and the checks.

Expected shape: detection latency stays flat (the heartbeat timeout
sets it), while work lost and recovery overhead follow the distance from
the last commit to the kill.
"""

from repro.bench import BenchScale, current_scale, save_result, write_bench_json
from repro.campaign.cells import run_cell
from repro.util.tables import AsciiTable

#: checkpoint interval as a fraction of the fault-free runtime
INTERVAL_FRACS = (0.15, 0.25, 0.4)


def sweep(seed: int = 7) -> dict:
    """One ``fault_recovery`` campaign cell per interval, in-process."""
    nranks = 8 if current_scale() is BenchScale.FULL else 4
    return {
        "nranks": nranks,
        "seed": seed,
        "points": [
            run_cell("fault_recovery", {"nranks": nranks,
                                        "interval_frac": frac, "seed": seed})
            for frac in INTERVAL_FRACS
        ],
    }


def render(data) -> str:
    t = AsciiTable(
        ["ckpt interval (s)", "killed rank", "detect latency (s)",
         "work lost (s)", "recovery overhead (s)", "ckpts ok/aborted"],
        title=(
            "Fault recovery — work lost / detection latency / restart "
            f"overhead vs checkpoint interval ({data['nranks']} ranks, "
            f"seed {data['seed']})"
        ),
    )
    for p in data["points"]:
        t.add_row(
            [
                f"{p['interval']:.4f}",
                p["killed_rank"],
                f"{p['detection_latency']:.4f}",
                f"{p['work_lost']:.4f}",
                f"{p['recovery_overhead']:.4f}",
                f"{p['checkpoints_committed']}/{p['checkpoints_aborted']}",
            ]
        )
    return t.render()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="fault recovery sweep: work lost vs checkpoint interval"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", action="store_true",
        help="also write the machine-readable BENCH_faults.json",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path for --json (default: ./BENCH_faults.json)",
    )
    args = parser.parse_args(argv)
    data = sweep(seed=args.seed)
    print(render(data))
    if args.json:
        path = write_bench_json("faults", data, args.out)
        print(f"\nwrote {path}")
    return 0


def test_fault_recovery_sweep(once):
    data = once(sweep)
    # the acceptance bar: an identical same-seed re-run, bit for bit
    again = sweep()
    assert again == data, "fault sweep is not deterministic"
    save_result("fault_recovery", render(data), data)
    for p in data["points"]:
        assert p["detection_latency"] > 0
        assert p["work_lost"] > 0
        assert p["checkpoints_committed"] >= 1
    # tighter checkpoint intervals must not lose *more* work than the
    # loosest one — the whole reason to checkpoint more often
    by_frac = sorted(data["points"], key=lambda p: p["interval_frac"])
    assert by_frac[0]["work_lost"] <= by_frac[-1]["work_lost"] * 1.5


if __name__ == "__main__":
    raise SystemExit(main())
