"""Per-layer probes: each times calls into one layer through its public API.

Every probe returns ``{metric name: value}`` for the names in
``contract.PER_LAYER`` and records one span per timed call when a recorder
is passed.  Probe sizes follow the workload (share-vector frames at its total
row count, kernels at one party's row count), so a probe's number is the
layer's cost *in the regime that workload puts it in*.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import numpy as np

import repro as cc
from repro.exec import kernels
from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.secretshare import SecretSharingEngine, TripleDealer
from repro.runtime.mesh import bind_listener
from repro.runtime.service import plan_fingerprint
from repro.runtime.wire import (
    decode_payload,
    encode_payload,
    recv_frame,
    secure_client_socket,
    secure_server_socket,
    send_frame,
)

from spans import span

#: MPC primitives are probed at the workload's row count up to this cap
#: (hhi_pushdown shares ~9 rows per query, so 3M-element probes would only
#: measure the probe).
MPC_PROBE_MAX = 90_000
HYBRID_OPS = {"hybrid_join", "hybrid_aggregate", "public_join"}
MB = 1e6


def _median_seconds(rec, name: str, fn, repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls, one span each."""
    samples = []
    for _ in range(repeats):
        with span(rec, name):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def core_counts(compiled) -> dict:
    nodes = compiled.dag.topological()
    return {
        "core.dag_nodes": len(nodes),
        "core.mpc_nodes": sum(1 for n in nodes if n.is_mpc),
        "core.hybrid_nodes": sum(1 for n in nodes if n.op_name in HYBRID_OPS),
    }


def fingerprint(workload, rec) -> dict:
    """``plan_fingerprint`` is memoised on the plan, so each sample needs a
    freshly compiled one — which is what a cold submit pays."""
    samples = []
    for _ in range(7):
        fresh = cc.compile_query(workload.context, workload.config)
        with span(rec, "service.plan_fingerprint"):
            start = time.perf_counter()
            plan_fingerprint(fresh)
            samples.append(time.perf_counter() - start)
    return {"service.fingerprint_us": statistics.median(samples) * 1e6}


def wire_codec(workload, compiled, rec) -> dict:
    plan = encode_payload(compiled)
    # The shapes the mesh really sends: (seq, kind, query id, payload).
    share_vector = np.arange(workload.total_rows, dtype=np.uint64)
    bulk_frame = (7, "msg", 3, share_vector)
    bulk = encode_payload(bulk_frame)
    ctrl_frame = (7, "msg", 3, ("round", 12, 64))
    ctrl = encode_payload(ctrl_frame)
    bulk_reps = 3 if len(bulk) > 4 * MB else 200
    enc_bulk = _median_seconds(rec, "wire.encode_sharevec", lambda: encode_payload(bulk_frame), bulk_reps)
    dec_bulk = _median_seconds(rec, "wire.decode_sharevec", lambda: decode_payload(bulk), bulk_reps)
    return {
        "wire.plan_bytes": len(plan),
        "wire.plan_encode_us": _median_seconds(
            rec, "wire.encode_plan", lambda: encode_payload(compiled), 30) * 1e6,
        "wire.plan_decode_us": _median_seconds(
            rec, "wire.decode_plan", lambda: decode_payload(plan), 30) * 1e6,
        "wire.sharevec_encode_mb_s": len(bulk) / MB / enc_bulk,
        "wire.sharevec_decode_mb_s": len(bulk) / MB / dec_bulk,
        "wire.ctrl_encode_us": _median_seconds(
            rec, "wire.encode_ctrl", lambda: encode_payload(ctrl_frame), 2000) * 1e6,
        "wire.ctrl_decode_us": _median_seconds(
            rec, "wire.decode_ctrl", lambda: decode_payload(ctrl), 2000) * 1e6,
    }


def _echo_pair(security, parties: list[str]):
    """A connected loopback (client, server) socket pair on the workload's
    transport: plain TCP, or ``SecureSocket`` both ways under ``security``.
    Returns the pair and the client's connect(+handshake) wall time."""
    listener = bind_listener(10.0)
    accepted: list = []

    def accept() -> None:
        sock, _ = listener.accept()
        sock.settimeout(30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if security is not None:
            sock = secure_server_socket(sock, security.server_context(parties[1]))
        accepted.append(sock)

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    try:
        start = time.perf_counter()
        client = socket.create_connection(listener.getsockname(), timeout=30.0)
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if security is not None:
            client = secure_client_socket(client, security.client_context(parties[0]))
        elapsed = time.perf_counter() - start
    finally:
        acceptor.join()
        listener.close()
    return client, accepted[0], elapsed


def mesh_echo(workload, rec) -> dict:
    """Two-thread loopback echo with ``send_frame``/``recv_frame``: the cost
    of one mesh round trip (64 B) and of moving share vectors (1 MiB)."""
    security = workload.security
    handshakes = []
    for _ in range(5):
        with span(rec, "mesh.connect"):
            client, server, elapsed = _echo_pair(security, workload.parties)
        handshakes.append(elapsed)
        client.close()
        server.close()

    client, server, _ = _echo_pair(security, workload.parties)

    def echo() -> None:
        try:
            while True:
                frame = recv_frame(server)
                if frame is None:
                    return
                send_frame(server, frame)
        finally:
            server.close()

    echoer = threading.Thread(target=echo)
    echoer.start()
    try:
        def round_trip(frame):
            send_frame(client, frame)
            recv_frame(client)

        small = (7, "msg", 3, b"\0" * 64)
        big = (7, "msg", 3, np.zeros(1 << 17, dtype=np.uint64))  # 1 MiB
        for _ in range(50):
            round_trip(small)
        rtt = _median_seconds(rec, "mesh.echo_64B", lambda: round_trip(small), 1000)
        bulk = _median_seconds(rec, "mesh.echo_1MiB", lambda: round_trip(big), 30)
    finally:
        send_frame(client, None)
        echoer.join()
        client.close()
    return {
        "mesh.frame_rtt_us": rtt * 1e6,
        # Each echo moves the frame twice (there and back).
        "mesh.bulk_mb_s": 2 * (1 << 20) / MB / bulk,
        "mesh.tls_handshake_ms": statistics.median(handshakes) * 1e3,
    }


def mpc_primitives(workload, rec) -> dict:
    n = min(workload.total_rows, MPC_PROBE_MAX)
    parties = workload.parties
    engine = SecretSharingEngine(parties, seed=workload.seed)
    values = np.arange(n, dtype=np.int64)
    a = engine.input_vector(values, contributor=parties[0])
    b = engine.input_vector(values[::-1].copy(), contributor=parties[1])
    reps = 5 if n > 10_000 else 50

    def per_elem(name: str, fn) -> float:
        return _median_seconds(rec, name, fn, reps) / n * 1e9

    return {
        "mpc.share_ns_per_elem": per_elem(
            "mpc.input_vector", lambda: engine.input_vector(values, contributor=parties[0])),
        "mpc.open_ns_per_elem": per_elem("mpc.open", lambda: engine.open(a)),
        "mpc.mul_ns_per_elem": per_elem("mpc.mul", lambda: engine.mul(a, b)),
        "mpc.less_than_ns_per_elem": per_elem("mpc.less_than", lambda: engine.less_than(a, b)),
        "mpc.triple_deal_ns_per_elem": per_elem(
            "mpc.triples", lambda: TripleDealer(len(parties), workload.seed).triples(n)),
        "mpc.shuffle_ns_per_elem": per_elem(
            "mpc.oblivious_shuffle", lambda: oblivious_shuffle(engine, [a])),
    }


def exec_kernels(workload, rec) -> dict:
    n = workload.party_rows
    rng = np.random.default_rng(workload.seed)
    keys = rng.integers(0, max(n // 100, 3), n)
    values = rng.integers(0, 10_000, n)
    unique_keys = rng.permutation(n)
    reps = 3 if n > 100_000 else 50

    def group() -> None:
        order, starts, ends = kernels.group_slices(keys)
        kernels.segment_reduce(values[order], starts, ends, "sum")

    def per_row(name: str, fn) -> float:
        return _median_seconds(rec, name, fn, reps) / n * 1e9

    return {
        "exec.filter_ns_per_row": per_row(
            "exec.filter_flags", lambda: kernels.filter_flags(values, ">", 0)),
        "exec.group_ns_per_row": per_row("exec.group_reduce", group),
        # Every left row finds exactly one match: n rows in, n rows out.
        "exec.join_ns_per_row": per_row(
            "exec.hash_join", lambda: kernels.hash_join_indices(keys % n, unique_keys)),
        "exec.sort_ns_per_row": per_row("exec.sort", lambda: kernels.sort_indices(values)),
    }
