"""Mutual-TLS transport: happy path, fail-closed negatives, and differential.

A session configured with a :class:`~repro.core.config.TransportSecurity`
speaks mutually-authenticated TLS on every control and mesh socket.
These tests pin down the three properties that make that deployable:

* **identity** — wrong CA, expired certificates, and a party presenting
  another party's (valid!) certificate all fail *closed* with a structured
  error, never a hang, on both the initial handshake and a restart's;
* **transparency** — query results over TLS are byte-identical to the
  plaintext and simulated runtimes, including the MPC work/traffic profile;
* **recoverability** — supervised crash recovery (a kill, then every agent
  brought up again) works unchanged through secured sockets.

The differential anchor replays the full 50-plan corpus from
:mod:`tests.test_differential` through one warm TLS session.
"""

import shutil
import socket
import ssl
import threading
import time

import pytest

import repro as cc
from repro.core.config import (
    CompilationConfig,
    RestartPolicy,
    TransportSecurity,
)
from repro.core.dispatch import QueryRunner
from repro.runtime import mesh
from repro.runtime.service import AgentFailure
from repro.runtime import TransportError
from repro.runtime.wire import SecureSocket, WireError, recv_frame, send_frame

from test_query_service import PARTY_A, PARTY_B, two_party_query

NONCE = "f" * 32
#: A dialler's fresh link secret (64 hex digits).
SECRET = "c3" * 32


@pytest.fixture(scope="module")
def security(tmp_path_factory):
    """One throwaway CA + per-identity credentials shared by the module."""
    return TransportSecurity.dev(
        [PARTY_A, PARTY_B], tmp_path_factory.mktemp("tls-certs")
    )


def assert_tls_everywhere(session):
    """Every control link the pool holds must be a real TLS socket."""
    conns = session._pool._connections
    assert conns, "session has no agent connections"
    for party, sock in conns.items():
        assert isinstance(sock, SecureSocket), f"control link to {party} is plaintext"


# -- credential generation --------------------------------------------------------------------


class TestDevBundle:
    def test_dev_generates_ca_and_per_identity_credentials(self, tmp_path):
        sec = TransportSecurity.dev([PARTY_A, PARTY_B], tmp_path / "certs")
        assert (tmp_path / "certs" / "ca.crt").is_file()
        for name in (PARTY_A, PARTY_B, "coordinator"):
            cert, key = sec.credentials(name)
            assert cert.is_file() and key.is_file()
        sec.validate([PARTY_A, PARTY_B, sec.coordinator_name])
        with pytest.raises(ValueError, match="missing"):
            sec.validate(["never-issued.example"])

    def test_contexts_require_and_verify_peers(self, security):
        server = security.server_context(PARTY_A)
        client = security.client_context(PARTY_B)
        for context in (server, client):
            assert context.verify_mode is ssl.CERT_REQUIRED
            assert context.minimum_version >= ssl.TLSVersion.TLSv1_2
            assert context.options & ssl.OP_NO_RENEGOTIATION

    @pytest.mark.skipif(shutil.which("openssl") is None, reason="no openssl CLI")
    def test_openssl_fallback_generates_usable_credentials(self, tmp_path):
        sec = TransportSecurity(ca_cert=tmp_path / "ca.crt", cert_dir=tmp_path)
        sec._dev_openssl([PARTY_A, PARTY_B, "coordinator"], valid_days=2)
        sec.validate([PARTY_A, PARTY_B, "coordinator"])
        # The CLI-minted material must load into a real context.
        sec.server_context(PARTY_A)
        sec.client_context(PARTY_B)


# -- happy path -------------------------------------------------------------------------------


class TestTlsSession:
    def test_tls_session_byte_identical_to_simulated(self, security):
        ctx, inputs = two_party_query()
        config = CompilationConfig()
        compiled = cc.compile_query(ctx, config)
        simulated = QueryRunner([PARTY_A, PARTY_B], inputs, config, seed=3).run(compiled)
        with cc.QuerySession(
            [PARTY_A, PARTY_B], config=config, seed=3, security=security
        ) as session:
            assert_tls_everywhere(session)
            secured = session.submit(compiled, inputs=inputs)
        assert secured.outputs["out"] == simulated.outputs["out"]
        assert secured.mpc_profile == simulated.mpc_profile

    def test_tls_session_with_standing_inputs(self, security):
        """``open_session`` over TLS: inputs ship once in the session bundle."""
        ctx, inputs = two_party_query(agg_extra=True)
        config = CompilationConfig()
        compiled = cc.compile_query(ctx, config)
        simulated = QueryRunner([PARTY_A, PARTY_B], inputs, config, seed=5).run(compiled)
        with cc.open_session(
            inputs, config=config, seed=5, security=security
        ) as session:
            assert_tls_everywhere(session)
            secured = session.submit(compiled)
        assert secured.outputs["out"] == simulated.outputs["out"]
        assert secured.mpc_profile == simulated.mpc_profile


# -- fail-closed negatives --------------------------------------------------------------------


class TestTlsFailClosed:
    TIMEOUT = 20.0

    def _expect_structured_failure(self, security, match):
        _ctx, inputs = two_party_query()
        started = time.monotonic()
        with pytest.raises(AgentFailure, match=match):
            cc.open_session(inputs, timeout=self.TIMEOUT, security=security)
        # Fail closed means fail *promptly* — a structured error, not a
        # timeout-shaped hang.
        assert time.monotonic() - started < self.TIMEOUT

    def test_wrong_ca_fails_closed(self, security, tmp_path):
        """Valid certificates from a *different* CA are refused outright."""
        other = TransportSecurity.dev([PARTY_A, PARTY_B], tmp_path / "other-ca")
        mixed = TransportSecurity(
            ca_cert=other.ca_cert,  # verify against the wrong CA
            cert_dir=security.cert_dir,  # ...while presenting this session's certs
            coordinator_name=security.coordinator_name,
        )
        self._expect_structured_failure(mixed, match="handshake")

    def test_expired_certificate_fails_closed(self, tmp_path):
        pytest.importorskip("cryptography")
        sec = TransportSecurity.dev([PARTY_A, PARTY_B], tmp_path / "certs")
        sec.issue(PARTY_A, valid_days=-1)  # already expired
        self._expect_structured_failure(sec, match="handshake")

    def test_party_presenting_anothers_certificate_fails_closed(self, security):
        """A *valid* certificate for the wrong identity is impersonation:
        the hello's party id must match the TLS-authenticated CN."""
        beta_cert, beta_key = security.credentials(PARTY_B)
        stolen = TransportSecurity(
            ca_cert=security.ca_cert,
            cert_dir=security.cert_dir,
            certs={PARTY_A: beta_cert},
            keys={PARTY_A: beta_key},
            coordinator_name=security.coordinator_name,
        )
        self._expect_structured_failure(stolen, match="certificate authenticates")


@pytest.fixture(params=[0, 3], ids=["start", "restart"])
def epoch(request):
    """The epoch of the join: 0 at session start, above 0 at a restart."""
    return request.param


class TestRejoinHelloAuthentication:
    """The one mesh accept applies the same identity checks at session
    start and on the crash-recovery path."""

    def _run_accept(self, security, nonce, dialler, epoch, timeout=8.0):
        """Park an agent in the mesh join's accept for PARTY_B's hello at
        ``epoch`` for at most ``timeout`` seconds, run ``dialler(endpoint)``
        as the would-be PARTY_B, and return the exception (or socket) the
        accept produced."""
        listener = mesh.bind_listener(timeout=10.0)
        endpoint = listener.getsockname()
        outcome = {}

        def accept():
            try:
                outcome["sock"] = mesh.join_mesh(
                    PARTY_A, {}, {PARTY_B: epoch}, listener, epoch=0,
                    timeout=timeout, security=security, nonce=nonce,
                )[0][PARTY_B]
            except BaseException as exc:  # noqa: BLE001 - relayed to the test
                outcome["error"] = exc

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        try:
            dialler(endpoint)
        finally:
            thread.join(timeout=15.0)
            listener.close()
        assert not thread.is_alive(), "the join accept hung instead of failing closed"
        return outcome

    def _dial(self, endpoint, context, server_hostname, hello):
        raw = socket.create_connection(endpoint, timeout=8.0)
        try:
            sock = context.wrap_socket(raw, server_hostname=server_hostname)
        except (OSError, ssl.SSLError):
            raw.close()
            raise
        try:
            send_frame(sock, hello)
            # Hold the link open until the acceptor has judged the hello.
            sock.settimeout(8.0)
            try:
                recv_frame(sock)
            except (WireError, OSError):
                pass
        finally:
            sock.close()

    def test_rejoin_hello_with_wrong_nonce_is_rejected(self, security, epoch):
        """Right peer, right epoch, right certificate — wrong session nonce.
        This is a replayed hello from an earlier session: impersonation."""
        context = security.client_context(PARTY_B)

        def dialler(endpoint):
            try:
                self._dial(endpoint, context, PARTY_A,
                           ("join", PARTY_B, epoch, "0" * 32, SECRET))
            except (OSError, ssl.SSLError):
                pass

        outcome = self._run_accept(security, NONCE, dialler, epoch)
        assert isinstance(outcome.get("error"), TransportError)
        assert "nonce" in str(outcome["error"])

    def test_rejoin_hello_with_stolen_identity_is_rejected(self, security, epoch):
        """A dialler with PARTY_A's valid certificate claiming to be the
        crashed PARTY_B must be refused: CN and claimed party disagree."""
        context = security.client_context(PARTY_A)  # wrong identity's cert

        def dialler(endpoint):
            try:
                self._dial(endpoint, context, PARTY_A,
                           ("join", PARTY_B, epoch, NONCE, SECRET))
            except (OSError, ssl.SSLError):
                pass

        outcome = self._run_accept(security, NONCE, dialler, epoch)
        assert isinstance(outcome.get("error"), TransportError)
        assert "certificate" in str(outcome["error"])

    def test_unauthenticated_dialler_cannot_complete_the_handshake(self, security, epoch):
        """A plaintext (or otherwise CA-less) client can't even get a frame
        through: the accept drains the failed handshake and keeps waiting
        for the real PARTY_B, then times out cleanly."""

        def dialler(endpoint):
            raw = socket.create_connection(endpoint, timeout=5.0)
            try:
                raw.sendall(b"\x00\x00\x00\x04junk")
                time.sleep(0.2)
            finally:
                raw.close()

        # No hello ever arrives, so the accept runs out its whole timeout:
        # one second is enough to see the junk drained and the wait go on.
        outcome = self._run_accept(security, NONCE, dialler, epoch, timeout=1.0)
        error = outcome.get("error")
        assert isinstance(error, (TransportError, TimeoutError, OSError))
        assert "sock" not in outcome


# -- crash recovery over TLS ------------------------------------------------------------------


class TestTlsRecovery:
    def test_kill_and_rejoin_through_secured_sockets(self, security):
        """A supervised kill and the restart of every agent, all over mutual
        TLS, must converge to byte-identical results — the full recovery
        protocol runs on secured links."""
        from repro.runtime.faults import FaultPlan, KillFault

        ctx, inputs = two_party_query()
        config = CompilationConfig()
        compiled = cc.compile_query(ctx, config)
        simulated = QueryRunner([PARTY_A, PARTY_B], inputs, config, seed=3).run(compiled)
        faults = FaultPlan(kills=(KillFault(PARTY_B, at_query=2),))
        restart = RestartPolicy(
            backoff_seconds=0.05, max_backoff_seconds=0.5,
            heartbeat_interval_seconds=None, max_attempts=4,
        )
        with cc.QuerySession(
            [PARTY_A, PARTY_B], config=config, seed=3, security=security,
            faults=faults, restart=restart, timeout=60.0,
        ) as session:
            for _ in range(3):  # query 2 dies mid-stream and is retried
                result = session.submit(compiled, inputs=inputs, timeout=120)
                assert result.outputs["out"] == simulated.outputs["out"]
                assert result.mpc_profile == simulated.mpc_profile
            stats = session.stats
        assert stats["restarts"] >= 1, "the injected kill never fired"
        assert stats["retries_exhausted"] == 0


# -- differential anchor ----------------------------------------------------------------------


def test_fifty_plans_byte_identical_over_tls(tmp_path):
    """The full 50-plan differential corpus through ONE warm TLS session:
    every output table (including row order) and every MPC work/traffic
    profile must be byte-identical to the
    in-process simulated runtime.  This is the acceptance bar for the
    codec + TLS transport: securing the links changes *nothing* about
    query semantics or MPC accounting."""
    from test_differential import NUM_PLANS, SEED, build_query, generate_spec
    from test_differential import PARTY_A as DIFF_A, PARTY_B as DIFF_B

    certs = TransportSecurity.dev([DIFF_A, DIFF_B], tmp_path / "diff-certs")
    config = CompilationConfig()
    with cc.QuerySession(
        [DIFF_A, DIFF_B], config=config, seed=3, security=certs
    ) as session:
        assert_tls_everywhere(session)
        for plan in range(NUM_PLANS):
            spec = generate_spec(SEED + plan)
            ctx, inputs = build_query(spec)
            compiled = cc.compile_query(ctx, config)
            simulated = QueryRunner([DIFF_A, DIFF_B], inputs, config, seed=3).run(compiled)
            secured = session.submit(compiled, inputs=inputs)
            assert secured.outputs["out"] == simulated.outputs["out"], (
                f"plan {plan} (seed {spec['seed']}): TLS run is not byte-identical "
                f"to the simulated runtime"
            )
            assert secured.mpc_profile == simulated.mpc_profile, (
                f"plan {plan} (seed {spec['seed']}): MPC work/traffic profile "
                f"changed over TLS"
            )
        assert session.stats["queries"] == NUM_PLANS
