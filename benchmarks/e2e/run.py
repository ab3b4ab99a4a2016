#!/usr/bin/env python3
"""The repo's benchmark: service workloads, measured from outside.

One run of one workload (what the PR driver calls)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced pass that yields the per-layer metrics, writes
``out/trace-<workload>.json`` and prints the latency-budget line.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

The whole suite (what a person runs; every workload, both passes, one table)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed N [--workload NAME] [--repeats R] [--out FILE]

exits non-zero if any submit failed or any result missed its oracle.

Load shape: closed loop, one client thread (two in ``sumcount_c2``), every
party on loopback in the agent processes the service spawns.  Per run: one
discarded warm-up session, then ``SESSIONS`` measured sessions that share
``--seconds`` equally, each open -> 1 cold submit -> warm submits of the same
compiled plan until its share is used up -> close.  Every timing is taken
together with the CPU time the hypervisor stole from the machine meanwhile;
the statistics are over the samples during which it stole none
(``steal_free``), per session, and a run reports the better quartile of its
sessions (``undisturbed``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{Path(__file__).name}: no src/repro under {ROOT}: nothing to benchmark")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import repro as cc  # noqa: E402
from repro.runtime.service import active_agent_processes  # noqa: E402

import contract  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, span  # noqa: E402

SESSIONS = 12
#: Warm submits per session at least, however slow the session's start was.
MIN_WARM = 2
WARMUP_WARM = 3
COMPILE_SAMPLES = 30
INPROC_SAMPLES = 7
ONESHOT_SAMPLES = 5
#: Warm submits in the traced pass at least: ten traced, ten untraced.
TRACE_MIN_WARM = 20
SUBMIT_TIMEOUT = 120.0
#: ``steal_free`` keeps at least this many samples, clean or not.
MIN_KEPT = 3
CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class Checker:
    """Counts submits attempted and failed; a wrong or leakier answer fails."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, result) -> None:
        """``result`` is a QueryResult, or None for a submit that raised."""
        self.attempted += 1
        problem = None
        if result is None:
            problem = "submit raised"
        elif not oracles.matches(result.outputs[self.workload.output], self.workload.expected):
            problem = "output differs from the oracle"
        elif result.leakage != self.reference.leakage:
            problem = "leakage differs from the in-process run"
        elif result.mpc_profile != self.reference.mpc_profile:
            problem = "mpc_profile differs from the in-process run"
        if problem is not None:
            self.failed += 1
            print(f"FAILED submit #{self.attempted}: {problem}", file=sys.stderr)


def _reference_child(conn, workload, compiled) -> None:
    runner = cc.QueryRunner(workload.parties, workload.inputs, workload.config, seed=workload.seed)
    conn.send(runner.run(compiled))
    conn.close()


def reference_run(workload, compiled):
    """The in-process run every service result is held against.

    It runs in a forked child so that its allocations (all parties' shares in
    one address space) do not count towards the coordinator's ``VmHWM``.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_reference_child, args=(sender, workload, compiled))
    child.start()
    sender.close()
    try:
        return receiver.recv()
    finally:
        child.join()


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's vCPUs so far.

    The sandbox is a small VM on a shared host.  When the host runs another
    tenant on one of its cores, the agents' lockstep rounds stall, and a
    query's wall time grows by just about the time stolen during it (measured:
    slope 1.00 on ``sumcount_small`` and 1.08 on ``credit_hybrid``).  That can
    go on for a quarter of a minute at a time, which no median within a run
    averages away; the kernel reports it as ``steal`` in ``/proc/stat``.
    """
    with open("/proc/stat", "rb") as stat:
        cpu = stat.readline().split()  # cpu user nice system idle iowait irq softirq steal
    return int(cpu[8]) / CLOCK_TICK


def steal_free(samples: list[tuple[float, float]]) -> list[float]:
    """The values of the ``(value, seconds stolen meanwhile)`` samples that
    were taken while nothing was stolen: measurements of the program, not of
    the host's other tenants.  Where fewer than ``MIN_KEPT`` are clean, the
    ``MIN_KEPT`` least-stolen, so that every run reports a value."""
    ordered = sorted(samples, key=lambda sample: sample[1])
    clean = sum(1 for _, stolen in ordered if stolen == 0)
    return [value for value, _ in ordered[:max(clean, MIN_KEPT)]]


def _spin(cpu: int, parent: int) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:  # not allowed here: better no spinner than one that competes
        return
    while os.getppid() == parent:  # outlives no parent, however the parent ends
        for _ in range(1_000_000):
            pass


@contextlib.contextmanager
def vcpus_kept_awake():
    """One idle-priority spinning process per CPU for as long as the block runs.

    An idle vCPU halts, and waking it is up to the host: on a busy host it
    takes several times longer, for a minute or two at a stretch, with nothing
    stolen on the books.  A query that is mostly agents waiting for each
    other's frames (``sumcount_small``) then reads anything from 8 to 16 ms.
    Spinners of the ``SCHED_IDLE`` class run only when a CPU has nothing else
    to do and give way at once, so the program keeps both CPUs and never finds
    one asleep (what ``idle=poll`` on the kernel command line would do): the
    same two minutes read 8 to 11 ms.
    """
    context = multiprocessing.get_context("fork")
    spinners = [context.Process(target=_spin, args=(cpu, os.getpid()), daemon=True)
                for cpu in sorted(os.sched_getaffinity(0))]
    for spinner in spinners:
        spinner.start()
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.join()


def time_compiles(workload, rec=None):
    """(``COMPILE_SAMPLES`` samples of ``compile_query`` in ms, a compiled plan)."""
    samples = []
    for _ in range(COMPILE_SAMPLES):
        with span(rec, "core.compile_query"):
            stolen = stolen_seconds()
            start = time.perf_counter()
            compiled = cc.compile_query(workload.context, workload.config)
            elapsed = time.perf_counter() - start
        samples.append((elapsed * 1e3, stolen_seconds() - stolen))
    return samples, compiled


class Warm(NamedTuple):
    """One warm submit of a closed-loop client."""
    traced: bool
    #: submit -> result.
    ms: float
    #: End of the client's previous submit -> end of this one.
    cycle_s: float
    #: CPU seconds stolen from the machine during the cycle.
    stolen: float
    result: object


def submit(session, compiled, rec, index):
    """One closed-loop request; returns (latency in ms, result or None)."""
    start = time.perf_counter()
    try:
        with span(rec, "service.submit_async", index):
            pending = session.submit_async(compiled)
        with span(rec, "service.result", index):
            result = pending.result(SUBMIT_TIMEOUT)
    except Exception:  # errors, timeouts and rejections all count as failed submits
        traceback.print_exc()
        result = None
    return (time.perf_counter() - start) * 1e3, result


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise KeyError("VmHWM")


def _cpu_seconds(pids: list[int]) -> float:
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / CLOCK_TICK


def _bytes_and_frames_sent(stats: dict) -> dict[str, tuple[int, int]]:
    return {
        party: (
            sum(peer["bytes_sent"] for peer in peers.values()),
            sum(peer["frames_sent"] for peer in peers.values()),
        )
        for party, peers in stats["wire"].items()
    }


def run_session(workload, compiled, checker, *, warm_until, min_warm, rec=None) -> dict:
    """open -> cold submit -> warm loop -> close; returns the session's samples.

    The warm loop runs until the clock reads ``warm_until`` and for at least
    ``min_warm`` submits per client.  With a recorder every other warm submit
    is traced, so traced and untraced latencies come from the same session
    under the same conditions.
    """
    with span(rec, "session"):
        with span(rec, "service.open_session"):
            stolen = stolen_seconds()
            start = time.perf_counter()
            session = workload.open_session()
            setup = (time.perf_counter() - start, stolen_seconds() - stolen)
        try:
            stolen = stolen_seconds()
            cold_ms, cold = submit(session, compiled, rec, 0)
            cold_sample = (cold_ms, stolen_seconds() - stolen)
            agent_pids = [p.pid for p in active_agent_processes()]
            pids = [os.getpid(), *agent_pids]
            sent_before = _bytes_and_frames_sent(session.stats)
            cpu_before = _cpu_seconds(pids)
            clients: list[list[Warm]] = [[] for _ in range(workload.clients)]

            def client(samples: list[Warm]) -> None:
                mark, stolen = time.perf_counter(), stolen_seconds()
                while len(samples) < min_warm or mark < warm_until:
                    traced = rec is not None and len(samples) % 2 == 0
                    ms, result = submit(
                        session, compiled, rec if traced else None, len(samples) + 1)
                    now, stolen_now = time.perf_counter(), stolen_seconds()
                    samples.append(Warm(traced, ms, now - mark, stolen_now - stolen, result))
                    mark, stolen = now, stolen_now

            threads = [threading.Thread(target=client, args=(s,)) for s in clients[1:]]
            for thread in threads:
                thread.start()
            client(clients[0])
            for thread in threads:
                thread.join()

            cpu_s = _cpu_seconds(pids) - cpu_before
            stats = session.stats
            sent_after = _bytes_and_frames_sent(stats)
            agent_hwm_kb = [_peak_rss_kb(pid) for pid in agent_pids]
            coordinator_hwm_kb = _peak_rss_kb(os.getpid())
        finally:
            with span(rec, "service.close"):
                start = time.perf_counter()
                session.close()
                teardown_s = time.perf_counter() - start

    checker.check(cold)
    warm = [sample for samples in clients for sample in samples]
    for sample in warm:
        checker.check(sample.result)
    deltas = [
        (sent_after[p][0] - sent_before[p][0], sent_after[p][1] - sent_before[p][1])
        for p in sent_after
    ]
    return {
        "setup": setup,
        "cold": cold_sample,
        "clients": clients,
        "wire_bytes_per_query": max(b for b, _ in deltas) / len(warm),
        "frames_per_query": max(f for _, f in deltas) / len(warm),
        "cpu_ms_per_query": cpu_s * 1e3 / len(warm),
        "peak_rss_mb": (coordinator_hwm_kb + sum(agent_hwm_kb)) / 1024,
        "agent_peak_rss_mb": max(agent_hwm_kb) / 1024,
        "teardown_s": teardown_s,
        "stats": stats,
    }


def untraced_latencies(sessions: list[dict]) -> list[float]:
    """Steal-free warm latencies (ms) of the untraced submits of ``sessions``."""
    return steal_free([(w.ms, w.stolen) for s in sessions for samples in s["clients"]
                       for w in samples if not w.traced])


def queries_per_second(session: dict) -> float:
    """Warm queries the session's closed-loop clients completed per second of
    steal-free loop time, summed over the clients."""
    rate = 0.0
    for samples in session["clients"]:
        cycles = steal_free([(w.cycle_s, w.stolen) for w in samples])
        rate += len(cycles) / sum(cycles)
    return rate


def undisturbed(values: list[float], better: str = "lower") -> float:
    """The quartile of ``values`` on their better side.

    Beyond what it steals, the host slows the whole VM by 1.2x to 1.5x for a
    minute or two at a time, several times an hour, and nothing in the guest
    says when.  Noise of that kind only ever adds time, which is why ``timeit``
    tells its users to take the minimum of their repeats; the quartile is the
    same idea with room for a freak sample.  A slowdown that covers up to three
    quarters of a run's sessions then leaves the run's value where it was.
    """
    low, _, high = statistics.quantiles(values, n=4)
    return low if better == "lower" else high


def end_to_end_pass(workload, seconds: float):
    """The untraced pass: every end-to-end metric of one workload."""
    compiled = cc.compile_query(workload.context, workload.config)
    checker = Checker(workload, reference_run(workload, compiled))
    checker.check(checker.reference)
    # First session in a process pays one-off costs (imports in the forked
    # agents, allocator growth) that no later session sees.
    run_session(workload, compiled, checker, warm_until=0.0, min_warm=WARMUP_WARM)
    sessions = []
    deadline = time.perf_counter() + seconds
    for i in range(SESSIONS):
        now = time.perf_counter()
        share = (deadline - now) / (SESSIONS - i)
        sessions.append(run_session(workload, compiled, checker,
                                    warm_until=now + share, min_warm=MIN_WARM))

    session_p50_ms = [statistics.median(untraced_latencies([s])) for s in sessions]
    session_rates = [queries_per_second(s) for s in sessions]
    metrics = {
        "setup_s": statistics.median(steal_free([s["setup"] for s in sessions])),
        "cold_query_ms": undisturbed(steal_free([s["cold"] for s in sessions])),
        "query_p50_ms": undisturbed(session_p50_ms),
        "queries_per_s": undisturbed(session_rates, "higher"),
        "wire_bytes_per_query": statistics.median(s["wire_bytes_per_query"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    warm = [w for s in sessions for samples in s["clients"] for w in samples]
    latencies = untraced_latencies(sessions)
    samples = {
        "sessions": SESSIONS,
        "warm_queries": len(warm),
        "steal_free_warm_queries": len(latencies),
        "stolen_s": sum(w.stolen for w in warm),
        "session_p50_ms": session_p50_ms,
        "session_queries_per_s": session_rates,
        "setup_s": [s["setup"] for s in sessions],
        "cold_query_ms": [s["cold"] for s in sessions],
        # The tail over the whole run, where it holds the samples for one; not
        # a bounded metric.
        "query_p90_ms": contract.percentile(latencies, 90)
        if len(latencies) >= contract.MIN_P90_SAMPLES else None,
    }
    return metrics, checker, samples


def traced_pass(workload, seconds: float):
    """The traced pass: every per-layer metric, the trace file, the budget line."""
    rec = SpanRecorder(workload.name)
    with span(rec, "run"):
        compiles, compiled = time_compiles(workload, rec)
        metrics = layers.core_counts(compiled)
        metrics["core.compile_ms"] = statistics.median(steal_free(compiles))
        metrics.update(layers.fingerprint(workload, rec))
        metrics.update(layers.wire_codec(workload, compiled, rec))
        metrics.update(layers.mesh_echo(workload, rec))
        metrics.update(layers.mpc_primitives(workload, rec))
        metrics.update(layers.exec_kernels(workload, rec))

        # A fresh runner per sample: mpc_profile accumulates across run() calls.
        inproc = []
        for _ in range(INPROC_SAMPLES):
            runner = cc.QueryRunner(
                workload.parties, workload.inputs, workload.config, seed=workload.seed)
            with span(rec, "executor.inproc"):
                start = time.perf_counter()
                reference = runner.run(compiled)
                inproc.append(time.perf_counter() - start)
        checker = Checker(workload, reference)
        checker.check(reference)

        oneshot = []
        for _ in range(ONESHOT_SAMPLES):
            coordinator = cc.SocketCoordinator(
                workload.parties, workload.inputs, workload.config, seed=workload.seed,
                security=workload.security)
            with span(rec, "coordinator.oneshot"):
                start = time.perf_counter()
                result = coordinator.run(compiled)
                oneshot.append(time.perf_counter() - start)
            checker.check(result)

        session = run_session(workload, compiled, checker, rec=rec,
                              warm_until=time.perf_counter() + seconds / 2,
                              min_warm=TRACE_MIN_WARM)

    profile = reference.mpc_profile
    stats = session["stats"]
    latency = stats["latency"]
    inproc_ms = statistics.median(inproc) * 1e3
    p50 = statistics.median(untraced_latencies([session]))
    # Neighbouring submits see the same machine state, so the median of the
    # paired differences (a traced submit, the client's next untraced one) is
    # steadier than the difference of two medians.
    pairs = [(t.ms - u.ms, t.stolen + u.stolen) for samples in session["clients"]
             for t, u in zip(samples[0::2], samples[1::2])]
    traced_extra_ms = statistics.median(steal_free(pairs))
    rounds = profile["wire_rounds"]
    rounds_ms = rounds * metrics["mesh.frame_rtt_us"] / 1e3
    megabytes = session["wire_bytes_per_query"] / layers.MB
    bytes_ms = 1e3 * megabytes * (
        1 / metrics["mesh.bulk_mb_s"]
        + 1 / metrics["wire.sharevec_encode_mb_s"]
        + 1 / metrics["wire.sharevec_decode_mb_s"]
    )
    unexplained_ms = p50 - (inproc_ms + rounds_ms + bytes_ms)
    metrics.update({
        "analytic_s": reference.simulated_seconds,
        "service.plan_cache_hit_rate": stats["plan_cache_hits"] / stats["queries"],
        "service.overhead_ms": p50 - inproc_ms,
        "service.overhead_ratio": p50 / inproc_ms,
        "service.unexplained_ms": unexplained_ms,
        "service.teardown_s": session["teardown_s"],
        "coordinator.oneshot_ms": statistics.median(oneshot) * 1e3,
        "gateway.queue_wait_p50_ms": latency["queue_wait_seconds"]["p50"] * 1e3,
        "gateway.execute_p50_ms": latency["execute_seconds"]["p50"] * 1e3,
        "wire.frames_per_query": session["frames_per_query"],
        "mesh.wire_rounds": rounds,
        "mesh.ms_per_round": (p50 - inproc_ms) / rounds,
        "executor.inproc_ms": inproc_ms,
        "mpc.multiplications": profile["multiplications"],
        "mpc.comparisons": profile["comparisons"],
        "mpc.analytic_rounds": profile["rounds"],
        "mpc.analytic_bytes": profile["bytes_sent"],
        "hybrid.leakage_events": len(reference.leakage.events),
        "proc.cpu_ms_per_query": session["cpu_ms_per_query"],
        "proc.agent_peak_rss_mb": session["agent_peak_rss_mb"],
        "trace.overhead_pct": traced_extra_ms / p50 * 100,
    })
    trace_file = OUT / f"trace-{workload.name}.json"
    rec.write_chrome_trace(trace_file)
    print(
        f"budget {workload.name}: query_p50_ms {p50:.3f} = executor.inproc_ms {inproc_ms:.3f}"
        f" + rounds*rtt {rounds}x{metrics['mesh.frame_rtt_us']:.1f}us={rounds_ms:.3f}"
        f" + bytes/rate {session['wire_bytes_per_query']:.0f}B={bytes_ms:.3f}"
        f" + service.unexplained_ms {unexplained_ms:.3f}"
        f"   [{len(rec.spans)} spans -> {trace_file.relative_to(ROOT)}]"
    )
    samples = {"warm_queries": sum(len(c) for c in session["clients"]),
               "traced_queries": len(pairs),
               "inproc_runs": INPROC_SAMPLES, "oneshot_runs": ONESHOT_SAMPLES}
    return metrics, checker, samples


def environment(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        sha = found.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": sha,
        "seed": seed,
    }


def run_one(args) -> int:
    """One workload, one pass: rows for people, then the JSON line for the driver."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        with vcpus_kept_awake():
            workload = workloads.build(args.workload, args.seed, scratch)
            if args.trace:
                metrics, checker, samples = traced_pass(workload, args.seconds)
                declared = contract.PER_LAYER
            else:
                metrics, checker, samples = end_to_end_pass(workload, args.seconds)
                declared = contract.END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(metrics) != {m.name for m in declared}:
        raise RuntimeError(f"measured and declared metrics differ: "
                           f"{sorted(set(metrics) ^ {m.name for m in declared})}")
    for m in declared:
        print(f"{args.workload:18s} {m.name:30s} {metrics[m.name]:>16.6g} {m.unit}")
    if samples.get("query_p90_ms") is not None:
        print(f"{args.workload:18s} {'query_p90_ms (not bounded)':30s} "
              f"{samples['query_p90_ms']:>16.6g} ms")
    failed_share = checker.failed / checker.attempted
    print(f"{args.workload:18s} {'failed_share':30s} {failed_share:>16.6g} ratio"
          f"  ({checker.failed} of {checker.attempted} submits)")
    record = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {**record, "samples": samples, "environment": environment(args.seed)}))
    print(json.dumps(record))
    return 0


def run_child(name: str, trace: int, seed: int, seconds: float) -> dict | None:
    """One ``run_one`` in a process of its own (its VmHWM must start clean);
    returns its record, or None if it crashed."""
    part = OUT / f"part-{name}-{trace}-{seed}.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(part)]
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    print(f"ran {name} trace={trace} seed={seed} in {time.perf_counter() - started:.1f} s",
          flush=True)
    if done.returncode != 0:
        print(done.stdout)
        return None
    for line in done.stdout.splitlines():
        if line.startswith("budget "):
            print(line, flush=True)
    record = json.loads(part.read_text())
    part.unlink()
    return record


def run_suite(args) -> int:
    """Every (or one) workload, both passes, ``--repeats`` seeds; one table."""
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else contract.ALL_WORKLOAD_NAMES
    seeds = [args.seed + i for i in range(args.repeats)]
    passes = [0, 1] if args.trace is None else [args.trace]
    results = {
        name: {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}, "samples": {}}
        for name in names
    }
    for name, entry in results.items():
        for trace in passes:
            kind = "per_layer" if trace else "end_to_end"
            # The traced pass has no bounded metric: one seed is enough.
            for seed in seeds[:1] if trace else seeds:
                record = run_child(name, trace, seed, args.seconds)
                if record is None:
                    return 2
                entry["attempted"] += record["attempted"]
                entry["failed"] += record["failed"]
                entry["samples"].setdefault(kind, []).append(record["samples"])
                for metric, measured in record["metrics"].items():
                    entry[kind].setdefault(
                        metric, {"unit": measured["unit"], "runs": []}
                    )["runs"].append(measured["value"])
    for entry in results.values():
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        for kind in ("end_to_end", "per_layer"):
            for metric in entry[kind].values():
                metric["value"] = statistics.median(metric["runs"])

    print_tables(results)
    document = {"environment": {**environment(args.seed), "seeds": seeds,
                                "seconds": args.seconds},
                "workloads": results}
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(document, indent=1))
    print(f"wrote {out}")
    return 1 if any(entry["failed"] for entry in results.values()) else 0


def print_tables(results: dict) -> None:
    names = list(results)
    if any(results[n]["end_to_end"] for n in names):
        columns = [(m.name, m.unit) for m in contract.END_TO_END]
        print("\nend to end (one row per workload)")
        print(f"{'workload':18s}" + "".join(f"{f'{n} [{u}]':>28s}" for n, u in columns)
              + f"{'failed_share [ratio]':>28s}")
        for name in names:
            e2e = results[name]["end_to_end"]
            print(f"{name:18s}" + "".join(f"{e2e[n]['value']:>28.6g}" for n, _ in columns)
                  + f"{results[name]['failed_share']:>28.6g}")
    if any(results[n]["per_layer"] for n in names):
        print("\nper layer (one column per workload)")
        print(f"{'metric [unit]':40s}" + "".join(f"{n:>18s}" for n in names))
        for m in contract.PER_LAYER:
            label = f"{m.name} [{m.unit}]"
            print(f"{label:40s}" + "".join(
                f"{results[n]['per_layer'][m.name]['value']:>18.6g}" for n in names))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=contract.ALL_WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                        help="length of the measured warm loops of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite only: end-to-end runs per workload, seeds N..N+R-1")
    parser.add_argument("--out", help="result file (suite: out/result-seedN.json)")
    args = parser.parse_args(argv)
    if args.workload is not None and args.trace is not None and args.repeats == 1:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
