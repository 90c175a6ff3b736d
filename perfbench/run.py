"""Same-host benchmark of the MANA simulator: three fixed workloads,
end-to-end metrics with tracing off, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload md_ckpt --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the simulator is imported from
``src/`` next to this directory, never from an installed package.  With
``--trace 0`` the workload repeats for ``--seconds`` (after one warm-up
iteration) and every end-to-end metric is the median over iterations.
With ``--trace 1`` untraced and traced iterations alternate for
``--seconds`` and the per-layer metrics are per traced iteration.

Every number is labelled ``host`` (wall time on this machine) or
``sim`` (modeled virtual time, identical for identical inputs).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the provenance
stamp and a readable table.  A wrong result fails the iteration (it is
counted, never aborts the run) and the exit status is then 1.  See
README.md for the workloads, the metric → layer → workload table, and
the predictions the traced run checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics: name -> (unit, clock).  Every workload reports
#: every one; README.md defines each per workload.  ``ref`` is the time
#: of the reference kernel measured just before the same iteration;
#: ``host@ref`` is host seconds scaled to ``REF_NOMINAL_S`` per ref.
END_TO_END = {
    "setup_s": ("s", "host@ref"),
    "wall_ref": ("ref", "host/ref"),
    "mpi_calls_per_ref": ("1/ref", "host/ref"),
    "path_ref": ("ref", "host/ref"),
    "peak_rss_mb": ("MB", "host"),
    "sim.path_s": ("s", "sim"),
    "sim.overhead_pct": ("%", "sim"),
}

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "des.events": "count",
    "des.events_per_s": "1/s",
    "des.self_s": "s",
    "simnet.scan_calls": "count",
    "simnet.scan_s": "s",
    "simnet.inject_s": "s",
    "simnet.messages": "count",
    "simnet.bytes": "bytes",
    "simmpi.lib_calls": "count",
    "simmpi.self_s": "s",
    "mana.wrapper_calls": "count",
    "mana.pipeline_s": "s",
    "mana.host_overhead_s": "s",
    "mana.drain_s": "s",
    "mana.image_build_s": "s",
    "mana.image_bytes": "bytes",
    "mana.quiesce_rounds": "count",
    "mana.restart_s": "s",
    "mana.replay_s": "s",
    "mana.replayed_calls": "count",
    "mana.image_save_s": "s",
    "mana.image_load_s": "s",
    "util.serde_s": "s",
    "ir.compile_calls": "count",
    "storage.put_s": "s",
    "storage.put_bytes": "bytes",
    "storage.recover_s": "s",
    "storage.recover_bytes": "bytes",
    "recovery.s": "s",
    "recovery.attempts": "count",
    "oob.messages": "count",
    "apps.kernel_s": "s",
    "other_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: layers whose span self times add up, with other_s, to the traced wall
LAYERS = ("des", "simnet", "simmpi", "mana", "storage", "ir", "apps", "util")

#: host seconds the reference kernel takes on the host this benchmark
#: was defined on (2-core x86, Python 3.11); setup_s is scaled to it
REF_NOMINAL_S = 0.04

#: the workload-choice claims the traced run checks: (workload or None
#: for every workload, metric) whose value must be exactly zero
BYPASS = (
    ("dft_steady", "simnet.scan_calls"),
    ("dft_steady", "mana.drain_s"),
    ("dft_steady", "storage.put_bytes"),
    (None, "ir.compile_calls"),
)


def source_hash() -> str:
    """Hash of the simulator sources: the checkout a driver runs in is
    not a git repository, so the git SHA alone cannot tell builds apart."""
    h = hashlib.blake2b(digest_size=8)
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def import_simulator() -> None:
    """Put ``src/`` first on the path and import ``repro`` from it, or
    exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


class _Event:
    __slots__ = ("t", "key")

    def __init__(self, t, key):
        self.t = t
        self.key = key


def _reference_kernel() -> int:
    """A fixed pure-Python job shaped like the simulator's hot path (a
    heap of slotted event objects, dict updates); it uses nothing from
    ``src/``, so no change to the program moves it."""
    queue, acc = [], {}
    for i in range(20_000):
        heapq.heappush(queue, (i * 7919 % 10007, i, _Event(i, i % 97)))
    while queue:
        t, _i, ev = heapq.heappop(queue)
        acc[ev.key] = acc.get(ev.key, 0) + t
    return len(acc)


def reference_s(repeats: int = 4) -> float:
    """Median host seconds of the reference kernel, right now.

    The shared host's speed moves by 10-20 % in regimes of tens of
    seconds; dividing an iteration's times by the reference measured
    just before it cancels most of that (README.md, Steadiness)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Attempt/failure accounting around workload iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn):
        self.attempted += 1
        gc.collect()
        try:
            return fn()
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def end_to_end(samples) -> dict:
    sims = {(s["sim.path_s"], s["sim.overhead_pct"]) for s in samples}
    if len(sims) > 1:
        raise AssertionError(
            f"virtual times differ between identical iterations: {sims}")
    return {
        "setup_s": REF_NOMINAL_S * statistics.median(
            [s["setup_s"] / s["ref_s"] for s in samples]),
        "wall_ref": statistics.median(
            [s["wall_s"] / s["ref_s"] for s in samples]),
        "mpi_calls_per_ref": statistics.median(
            [s["mpi_calls"] / s["mpi_s"] * s["ref_s"] for s in samples]),
        "path_ref": statistics.median(
            [s["path_s"] / s["ref_s"] for s in samples]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim.path_s": samples[0]["sim.path_s"],
        "sim.overhead_pct": samples[0]["sim.overhead_pct"],
    }


def per_layer(rec, traced, untraced, host_overhead) -> dict:
    n = len(traced)
    counts = traced[0]["counts"]
    traced_wall = sum(s["wall_s"] for s in traced)
    layer_self = sum(rec.layer_self(layer) for layer in LAYERS)
    return {
        "des.events": counts["des.events"],
        "des.events_per_s": counts["des.events"]
        / statistics.median([s["mpi_s"] for s in untraced]),
        "des.self_s": rec.layer_self("des") / n,
        "simnet.scan_calls": rec.calls("simnet.scan") / n,
        "simnet.scan_s": rec.self_time("simnet.scan") / n,
        "simnet.inject_s": rec.total("simnet.inject") / n,
        "simnet.messages": counts["simnet.messages"],
        "simnet.bytes": counts["simnet.bytes"],
        "simmpi.lib_calls": counts["simmpi.lib_calls"],
        "simmpi.self_s": rec.layer_self("simmpi") / n,
        "mana.wrapper_calls": counts["mana.wrapper_calls"],
        "mana.pipeline_s": rec.self_time("mana.pipeline") / n,
        "mana.host_overhead_s": host_overhead,
        "mana.drain_s": rec.total("mana.drain") / n,
        "mana.image_build_s": rec.total("mana.image_build") / n,
        "mana.image_bytes": counts["mana.image_bytes"],
        "mana.quiesce_rounds": counts["mana.quiesce_rounds"],
        "mana.restart_s": rec.total("mana.restart") / n,
        "mana.replay_s": statistics.median(
            [s.get("replay_s", 0.0) for s in traced]),
        "mana.replayed_calls": counts["mana.replayed_calls"],
        "mana.image_save_s": rec.total("mana.image_save") / n,
        "mana.image_load_s": rec.total("mana.image_load") / n,
        "util.serde_s": rec.total("util.serde") / n,
        "ir.compile_calls": rec.calls("ir.compile") / n,
        "storage.put_s": rec.total("storage.put") / n,
        "storage.put_bytes": rec.counters.get("storage.put_bytes", 0) / n,
        "storage.recover_s": rec.total("storage.recover") / n,
        "storage.recover_bytes":
            rec.counters.get("storage.recover_bytes", 0) / n,
        "recovery.s": rec.total("mana.recovery") / n,
        "recovery.attempts": counts["recovery.attempts"],
        "oob.messages": counts["oob.messages"],
        "apps.kernel_s": rec.total("apps.kernel") / n,
        "other_s": (traced_wall - layer_self) / n,
        "trace.overhead_s": statistics.median([s["wall_s"] for s in traced])
        - statistics.median([s["wall_s"] for s in untraced]),
        "trace.spans": sum(t[1] for t in rec.totals.values()) / n,
    }


def check_bypass(name: str, metrics: dict) -> list:
    return [
        f"{metric} = {metrics[metric]} on {name}, predicted 0"
        for wl, metric in BYPASS
        if (wl is None or wl == name) and metrics[metric] != 0
    ]


def declared_metrics(trace: bool):
    """The metric names BENCHMARK.json declares for this mode, if the
    file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_simulator()
    from spans import SpanRecorder, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    rec = None
    if args.trace:
        rec = SpanRecorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        instrument(rec)
    wl = WORKLOADS[args.workload](args.seed, rec)
    runner = Runner()

    from repro.bench.attribution import provenance

    prov = provenance(machine=wl.machine, seed=args.seed, cfg=wl.config())
    prov.update(workload=wl.name, source_hash=source_hash(),
                cpu_count=os.cpu_count(), python=platform.python_version(),
                platform=platform.platform())
    print("provenance " + json.dumps(prov, sort_keys=True))

    runner.attempt(wl.iteration)          # warm-up: lazy set-up, caches
    deadline = time.perf_counter() + args.seconds
    notes = []
    samples, traced, untraced = [], [], []
    metrics = {}
    if not args.trace:
        while not samples or time.perf_counter() < deadline:
            ref = reference_s()
            s = runner.attempt(wl.iteration)
            if s is not None:
                s["ref_s"] = ref
                samples.append(s)
            elif runner.failed > 3 and not samples:
                break
        if samples:
            try:
                metrics = end_to_end(samples)
            except AssertionError as exc:
                runner.failed += 1
                notes.append(str(exc))
    else:
        host_overhead = runner.attempt(wl.host_overhead)
        while not traced or time.perf_counter() < deadline:
            s = runner.attempt(wl.iteration)
            rec.enabled = True
            t = runner.attempt(wl.iteration)
            rec.enabled = False
            if s is not None:
                untraced.append(s)
            if t is not None:
                traced.append(t)
            if not (untraced and traced) and runner.failed > 3:
                break
        if traced and untraced and host_overhead is not None:
            metrics = per_layer(rec, traced, untraced, host_overhead)
            bad = check_bypass(wl.name, metrics)
            runner.failed += len(bad)
            notes += bad
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        rec.dump(os.path.join(out_dir, f"spans-{rec.run_id}.jsonl"))

    declared = declared_metrics(bool(args.trace))
    if metrics and declared is not None and declared != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ declared)} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    units = (PER_LAYER if args.trace
             else {k: u for k, (u, _c) in END_TO_END.items()})
    n = len(traced) if args.trace else len(samples)
    print(f"{wl.name}: seed {args.seed}, {n} measured iteration(s), "
          f"{runner.attempted} attempted, {runner.failed} failed")
    for name, value in metrics.items():
        clock = (END_TO_END[name][1] if name in END_TO_END
                 else "host" if units[name] in ("s", "1/s") else "")
        print(f"  {name:24s} {value:16.6g} {units[name]:6s} {clock}")
    if samples:
        print("  raw and workload figures (median over iterations):")
        figures = {
            "setup_s": ([s["setup_s"] for s in samples], "s", "host"),
            "wall_s": ([s["wall_s"] for s in samples], "s", "host"),
            "mpi_calls_per_s": ([s["mpi_calls"] / s["mpi_s"]
                                 for s in samples], "1/s", "host"),
            "path_s": ([s["path_s"] for s in samples], "s", "host"),
            "ref_s": ([s["ref_s"] for s in samples], "s", "host"),
        }
        for key, (_value, unit, clock) in samples[0]["extra"].items():
            figures[key] = ([s["extra"][key][0] for s in samples], unit, clock)
        for key, (vals, unit, clock) in figures.items():
            print(f"  {key:24s} {statistics.median(vals):16.6g} {unit:6s} "
                  f"{clock}  [min {min(vals):.6g}, max {max(vals):.6g}]")
    for note in notes:
        print(f"  FAILED: {note}")

    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
