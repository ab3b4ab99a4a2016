"""Compilation and execution configuration.

The flags here correspond to the optimizations and consent decisions the
paper describes; disabling individual flags is how the ablation benchmarks
isolate the contribution of each transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - imported where a TLS context is built
    import ssl


@dataclass
class CompilationConfig:
    """Switches controlling the compiler's rewrite passes."""

    #: Apply the MPC-frontier push-down (splitting work into local
    #: pre-processing, §5.2).  Required for Figure 4 / 7b behaviour.
    enable_push_down: bool = True
    #: Apply the MPC-frontier push-up (cleartext post-processing of
    #: reversible leaf operators, §5.2).
    enable_push_up: bool = True
    #: Insert hybrid operators when trust annotations allow it (§5.3).
    enable_hybrid_operators: bool = True
    #: Eliminate redundant oblivious sorts (§5.4).
    enable_sort_elimination: bool = True
    #: Push sorts up through concat via an oblivious merge (§5.4, listed as
    #: future work in the paper; implemented here as an optional extension).
    enable_sort_pushup: bool = False
    #: Push-down transformations may change the cardinality of MPC inputs
    #: (e.g. a split aggregation reveals per-party distinct-key counts);
    #: the paper requires all parties to consent to such rewrites.
    consent_to_cardinality_leakage: bool = True
    #: Parties allowed to act as the selectively-trusted party.  ``None``
    #: means any annotated party may be chosen; at most one STP is ever used.
    allowed_stps: list[str] | None = None
    #: MPC target + price list, ``"sharemind"`` or ``"obliv-c"``: the system
    #: codegen emits MPC jobs for and the estimator prices them as — never a
    #: code path (the runtime runs its share engine only and refuses
    #: ``"obliv-c"``, see :meth:`require_executable`).
    mpc_backend: str = "sharemind"
    #: Cleartext target + price list, ``"python"`` or ``"spark"``: the system
    #: codegen emits local jobs for and the :mod:`repro.model.prices` list that
    #: prices the one engine's work tally and the estimator's row counts.
    cleartext_backend: str = "python"
    #: Disable the push-down of filters on private columns past the MPC
    #: frontier.  Matching SMCQL's (stricter) guarantee for the §7.4
    #: comparison requires setting this to False.
    push_down_private_filters: bool = True
    #: Extra per-relation row hints, keyed by relation name (overrides the
    #: default selectivity-based estimates used by the cost estimator).
    row_hints: dict[str, int] = field(default_factory=dict)
    #: Cleartext engine; ``"columnar"`` is the only one (the field survives
    #: because the benchmark harness still passes it).
    executor: str = "columnar"
    #: Host the runtime's mesh and control listeners bind and advertise to
    #: peers.  The loopback default keeps single-machine behaviour; set a
    #: routable address to run agents across real hosts — and pass a
    #: :class:`TransportSecurity` to ``open_session`` so the cross-host
    #: links are mutually authenticated TLS, not plaintext.
    bind_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        for name, allowed in _ALLOWED_VALUES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} {value!r}; allowed values: "
                    + ", ".join(repr(a) for a in allowed)
                )

    def require_executable(self) -> None:
        """Refuse a configuration the runtime models but does not execute."""
        if self.mpc_backend != "sharemind":
            raise ValueError(
                f"mpc_backend={self.mpc_backend!r} names a code-generation target "
                "and a price list, not an engine: the runtime executes MPC on the "
                "secret-sharing ('sharemind') engine only.  Price the plan with "
                "repro.PlanEstimator().estimate(compiled) instead of running it"
            )


#: The values each string-typed :class:`CompilationConfig` field accepts.
_ALLOWED_VALUES = {
    "cleartext_backend": ("python", "spark"),
    "mpc_backend": ("sharemind", "obliv-c"),
    "executor": ("columnar",),
}


@dataclass
class TransportSecurity:
    """Mutual-TLS material for every mesh, control, and rejoin link.

    A session configured with a ``TransportSecurity`` speaks TLS with
    *mutual* authentication on every socket: the coordinator and each party
    agent present a certificate issued by the session CA (:attr:`ca_cert`),
    and both sides require and verify the peer's certificate against that
    CA.  Identity is carried in the certificate's CN — ``server_context`` /
    ``client_context`` disable hostname checking because parties move
    between hosts; instead the runtime verifies the authenticated CN against
    the party id claimed in the (nonce-carrying) hello frame, so a peer
    cannot impersonate another party even after a crash and rejoin.

    Certificates and keys are resolved per identity name: an explicit entry
    in :attr:`certs` / :attr:`keys` wins, otherwise ``<cert_dir>/<name>.crt``
    and ``<cert_dir>/<name>.key``.  For development and tests,
    :meth:`dev` generates a throwaway CA plus per-identity credentials in a
    directory; production deployments provision real per-party certificates
    out of band and point the fields at them.
    """

    #: PEM file with the CA certificate every link verifies peers against.
    ca_cert: str | Path = ""
    #: Directory holding ``<name>.crt`` / ``<name>.key`` per identity.
    cert_dir: str | Path | None = None
    #: Per-identity certificate path overrides (win over :attr:`cert_dir`).
    certs: dict[str, str | Path] = field(default_factory=dict)
    #: Per-identity private-key path overrides (win over :attr:`cert_dir`).
    keys: dict[str, str | Path] = field(default_factory=dict)
    #: Identity name the coordinator authenticates as on control links.
    coordinator_name: str = "coordinator"

    def credentials(self, name: str) -> tuple[Path, Path]:
        """The (certificate, key) PEM paths for identity ``name``."""
        cert = self.certs.get(name)
        key = self.keys.get(name)
        if cert is None and self.cert_dir is not None:
            cert = Path(self.cert_dir) / f"{name}.crt"
        if key is None and self.cert_dir is not None:
            key = Path(self.cert_dir) / f"{name}.key"
        if cert is None or key is None:
            raise ValueError(
                f"TransportSecurity has no certificate/key for identity {name!r} "
                "(set cert_dir or per-identity certs/keys entries)"
            )
        return Path(cert), Path(key)

    def _context(self, name: str, *, server: bool) -> ssl.SSLContext:
        import ssl  # loaded by TLS deployments only, see repro.runtime.wire

        cert, key = self.credentials(name)
        context = ssl.SSLContext(
            ssl.PROTOCOL_TLS_SERVER if server else ssl.PROTOCOL_TLS_CLIENT
        )
        # Party identity is the certificate CN, verified explicitly against
        # the hello frame by the runtime; hostname checks would break the
        # moment a party migrates hosts or rejoins from a new address.
        context.check_hostname = False
        context.verify_mode = ssl.CERT_REQUIRED
        context.minimum_version = ssl.TLSVersion.TLSv1_2
        # One reader thread and locked writer threads share each socket;
        # renegotiation mid-stream would break that discipline.
        context.options |= ssl.OP_NO_RENEGOTIATION
        try:
            context.load_verify_locations(cafile=str(self.ca_cert))
            context.load_cert_chain(certfile=str(cert), keyfile=str(key))
        except (OSError, ssl.SSLError) as exc:
            raise ValueError(
                f"TransportSecurity could not load credentials for {name!r}: {exc}"
            ) from exc
        return context

    def server_context(self, name: str) -> ssl.SSLContext:
        """A mutually-authenticating server-side context for identity ``name``."""
        return self._context(name, server=True)

    def client_context(self, name: str) -> ssl.SSLContext:
        """A mutually-authenticating client-side context for identity ``name``."""
        return self._context(name, server=False)

    def validate(self, identities: list[str] | None = None) -> "TransportSecurity":
        """Check the CA and (optionally) each identity's material exists."""
        if not self.ca_cert or not Path(self.ca_cert).is_file():
            raise ValueError(f"TransportSecurity.ca_cert {self.ca_cert!r} is not a readable file")
        if not isinstance(self.coordinator_name, str) or not self.coordinator_name:
            raise ValueError("TransportSecurity.coordinator_name must be a non-empty string")
        for name in identities or ():
            cert, key = self.credentials(name)
            for path in (cert, key):
                if not path.is_file():
                    raise ValueError(
                        f"TransportSecurity credential {path} for identity {name!r} is missing"
                    )
        return self

    # -- development credential generation -------------------------------------------

    @staticmethod
    def dev(
        identities: list[str],
        directory: str | Path,
        *,
        coordinator_name: str = "coordinator",
        valid_days: int = 365,
    ) -> "TransportSecurity":
        """Generate a throwaway CA plus per-identity credentials in ``directory``.

        Every name in ``identities`` (plus ``coordinator_name``) gets a
        key pair and a CA-signed certificate with its name as CN.  Uses the
        ``cryptography`` package when available and falls back to the
        ``openssl`` CLI otherwise; raises :class:`RuntimeError` when neither
        is usable.  The CA key is kept in the directory so tests can
        :meth:`issue` additional (e.g. already-expired) certificates.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = list(dict.fromkeys(list(identities) + [coordinator_name]))
        security = TransportSecurity(
            ca_cert=directory / "ca.crt",
            cert_dir=directory,
            coordinator_name=coordinator_name,
        )
        try:
            security._dev_cryptography(names, valid_days)
        except ImportError:
            security._dev_openssl(names, valid_days)
        return security

    def issue(self, name: str, *, valid_days: int = 365) -> tuple[Path, Path]:
        """(Re-)issue a certificate for ``name`` signed by the dev CA.

        Requires the ``cryptography`` package and a ``ca.key`` next to
        :attr:`ca_cert` (both guaranteed by :meth:`dev`'s primary path).
        Negative ``valid_days`` mints an *already expired* certificate — the
        fixture the TLS failure tests use.
        """
        directory = Path(self.cert_dir if self.cert_dir is not None else Path(self.ca_cert).parent)
        self._issue_cryptography(directory, name, valid_days)
        return self.credentials(name)

    def _dev_cryptography(self, names: list[str], valid_days: int) -> None:
        import datetime as _dt

        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.x509.oid import NameOID

        directory = Path(self.cert_dir)  # type: ignore[arg-type]
        now = _dt.datetime.now(_dt.timezone.utc)
        ca_key = ec.generate_private_key(ec.SECP256R1())
        ca_name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "repro-dev-ca")])
        ca_cert = (
            x509.CertificateBuilder()
            .subject_name(ca_name)
            .issuer_name(ca_name)
            .public_key(ca_key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - _dt.timedelta(days=1))
            .not_valid_after(now + _dt.timedelta(days=max(valid_days, 1)))
            .add_extension(x509.BasicConstraints(ca=True, path_length=0), critical=True)
            .sign(ca_key, hashes.SHA256())
        )
        (directory / "ca.crt").write_bytes(ca_cert.public_bytes(serialization.Encoding.PEM))
        (directory / "ca.key").write_bytes(
            ca_key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption(),
            )
        )
        for name in names:
            self._issue_cryptography(directory, name, valid_days)

    def _issue_cryptography(self, directory: Path, name: str, valid_days: int) -> None:
        import datetime as _dt

        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.x509.oid import NameOID

        ca_cert = x509.load_pem_x509_certificate((directory / "ca.crt").read_bytes())
        ca_key = serialization.load_pem_private_key(
            (directory / "ca.key").read_bytes(), password=None
        )
        now = _dt.datetime.now(_dt.timezone.utc)
        key = ec.generate_private_key(ec.SECP256R1())
        not_after = now + _dt.timedelta(days=valid_days)
        cert = (
            x509.CertificateBuilder()
            .subject_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, name)]))
            .issuer_name(ca_cert.subject)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(min(now - _dt.timedelta(days=1), not_after - _dt.timedelta(days=1)))
            .not_valid_after(not_after)
            .add_extension(x509.BasicConstraints(ca=False, path_length=None), critical=True)
            .sign(ca_key, hashes.SHA256())
        )
        (directory / f"{name}.crt").write_bytes(cert.public_bytes(serialization.Encoding.PEM))
        (directory / f"{name}.key").write_bytes(
            key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption(),
            )
        )

    def _dev_openssl(self, names: list[str], valid_days: int) -> None:
        import shutil
        import subprocess

        if shutil.which("openssl") is None:
            raise RuntimeError(
                "TransportSecurity.dev needs either the 'cryptography' package "
                "or the 'openssl' CLI; neither is available"
            )
        directory = Path(self.cert_dir)  # type: ignore[arg-type]
        days = str(max(valid_days, 1))

        def run(*argv: str) -> None:
            subprocess.run(argv, check=True, capture_output=True, cwd=directory)

        run("openssl", "ecparam", "-name", "prime256v1", "-genkey", "-noout",
            "-out", "ca.key")
        run("openssl", "req", "-x509", "-new", "-key", "ca.key", "-sha256",
            "-days", days, "-subj", "/CN=repro-dev-ca", "-out", "ca.crt")
        for name in names:
            run("openssl", "ecparam", "-name", "prime256v1", "-genkey", "-noout",
                "-out", f"{name}.key")
            run("openssl", "req", "-new", "-key", f"{name}.key",
                "-subj", f"/CN={name}", "-out", f"{name}.csr")
            run("openssl", "x509", "-req", "-in", f"{name}.csr", "-CA", "ca.crt",
                "-CAkey", "ca.key", "-CAcreateserial", "-days", days, "-sha256",
                "-out", f"{name}.crt")
            (directory / f"{name}.csr").unlink(missing_ok=True)


@dataclass
class RestartPolicy:
    """How the service runtime supervises and restarts crashed party agents.

    Passing a policy to :func:`repro.runtime.service.open_session` turns on
    the :class:`~repro.runtime.supervisor.AgentSupervisor`: an agent process
    that dies (control-link EOF, or missed heartbeats when
    :attr:`heartbeat_interval_seconds` is set) is restarted with exponential
    backoff, re-joined to the surviving agents' TCP mesh, and re-armed with
    the session's standing inputs — instead of the crash breaking the whole
    session.  A party that keeps dying exhausts its *restart budget*
    (:attr:`max_restarts` deaths within :attr:`window_seconds`) and escalates
    to a permanent failure: the session breaks with a structured
    :class:`~repro.runtime.pool.AgentFailure` carrying the attempt
    history.
    """

    #: Restart budget: deaths of one party tolerated within
    #: :attr:`window_seconds` before the failure is declared permanent.
    max_restarts: int = 5
    #: Sliding window (seconds) the restart budget is counted over.
    window_seconds: float = 60.0
    #: Backoff before the first restart attempt (seconds); doubled per
    #: consecutive attempt for the same party up to
    #: :attr:`max_backoff_seconds`.
    backoff_seconds: float = 0.05
    #: Multiplier applied to the backoff after each consecutive restart.
    backoff_multiplier: float = 2.0
    #: Upper bound on the per-attempt backoff (seconds).
    max_backoff_seconds: float = 5.0
    #: Interval between supervisor heartbeat pings on each control link.
    #: ``None`` disables heartbeats (death is then detected only via
    #: control-link EOF — a crashed process, not a wedged one).
    heartbeat_interval_seconds: float | None = 1.0
    #: Consecutive missed heartbeats after which a silent agent is declared
    #: dead and its process killed (triggering the restart path).
    heartbeat_misses: int = 5

    def validate(self) -> "RestartPolicy":
        if not isinstance(self.max_restarts, int) or self.max_restarts < 1:
            raise ValueError(f"RestartPolicy.max_restarts must be an int >= 1, got {self.max_restarts!r}")
        for name in ("window_seconds", "backoff_seconds", "max_backoff_seconds"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ValueError(f"RestartPolicy.{name} must be a number >= 0, got {value!r}")
        if not isinstance(self.backoff_multiplier, (int, float)) or self.backoff_multiplier < 1:
            raise ValueError(
                f"RestartPolicy.backoff_multiplier must be a number >= 1, got {self.backoff_multiplier!r}"
            )
        if self.heartbeat_interval_seconds is not None and (
            not isinstance(self.heartbeat_interval_seconds, (int, float))
            or isinstance(self.heartbeat_interval_seconds, bool)
            or self.heartbeat_interval_seconds <= 0
        ):
            raise ValueError(
                "RestartPolicy.heartbeat_interval_seconds must be a number > 0 or None, "
                f"got {self.heartbeat_interval_seconds!r}"
            )
        if not isinstance(self.heartbeat_misses, int) or self.heartbeat_misses < 1:
            raise ValueError(
                f"RestartPolicy.heartbeat_misses must be an int >= 1, got {self.heartbeat_misses!r}"
            )
        return self


@dataclass
class RetryPolicy:
    """How the gateway retries queries that failed for *infrastructure*
    reasons (an agent crash mid-query, a mesh link death or timeout).

    Queries are pure functions of (plan, inputs, seed), so replaying one is
    always safe: a retried query re-executes from scratch on the recovered
    mesh and produces byte-identical results.  Only infrastructure failures
    are retried — a query that raised a real error (``SecurityError``, a bad
    plan, an engine bug) fails immediately on every attempt count.
    """

    #: Total attempts per query (1 = no retry).
    max_attempts: int = 3
    #: Also retry queries whose *primary* error is a transport-level failure
    #: reported by a live agent (e.g. a mesh timeout after a dropped frame),
    #: not just coordinator-detected agent crashes.
    retry_transport_errors: bool = True
    #: Backoff before the first retry (seconds), doubled per attempt.
    backoff_seconds: float = 0.05
    #: Multiplier applied to the backoff after each retry.
    backoff_multiplier: float = 2.0
    #: Upper bound on the per-retry backoff (seconds).
    max_backoff_seconds: float = 2.0

    def validate(self) -> "RetryPolicy":
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(f"RetryPolicy.max_attempts must be an int >= 1, got {self.max_attempts!r}")
        for name in ("backoff_seconds", "max_backoff_seconds"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ValueError(f"RetryPolicy.{name} must be a number >= 0, got {value!r}")
        if not isinstance(self.backoff_multiplier, (int, float)) or self.backoff_multiplier < 1:
            raise ValueError(
                f"RetryPolicy.backoff_multiplier must be a number >= 1, got {self.backoff_multiplier!r}"
            )
        return self


@dataclass
class GatewayConfig:
    """Admission-control and fair-scheduling limits of a query session.

    The query gateway (:mod:`repro.runtime.gateway`) fronts every standing
    session: queries are dispatched to the agent mesh while capacity lasts,
    queued while limits allow, and *shed* with an explicit
    :class:`~repro.runtime.gateway.QueryRejected` beyond that — under
    overload an analyst gets an immediate, retryable error instead of an
    unbounded queue silently growing behind everyone's backs.

    Every limit is optional: ``None`` means "no limit at that axis", and the
    all-``None`` default reproduces the pre-gateway behaviour (dispatch up
    to the agents' worker capacity, buffer the rest without bound).
    """

    #: Queries dispatched to the agents concurrently.  ``None`` mirrors the
    #: session's agent worker capacity (``max_workers``) so queueing starts
    #: exactly where the agents would start queueing internally.
    max_in_flight: int | None = None
    #: Total queries waiting in the gateway across all analysts; one more
    #: submission is shed with ``QueryRejected``.  ``None`` = unbounded.
    max_queue_depth: int | None = None
    #: Waiting queries per analyst principal.  ``None`` = unbounded.
    max_queue_per_analyst: int | None = None
    #: Dispatched queries per analyst principal — a fairness floor: one hot
    #: analyst cannot occupy every agent worker slot.  ``None`` = unbounded.
    max_in_flight_per_analyst: int | None = None
    #: Weighted round-robin weights per analyst principal (default weight
    #: applies to analysts not named here).  Dispatch opportunities are
    #: distributed proportionally to weight when queries are queued.
    analyst_weights: dict[str, int] = field(default_factory=dict)
    #: Weight of analysts absent from :attr:`analyst_weights`.
    default_weight: int = 1

    def validate(self) -> "GatewayConfig":
        for name in (
            "max_in_flight",
            "max_queue_depth",
            "max_queue_per_analyst",
            "max_in_flight_per_analyst",
        ):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValueError(f"GatewayConfig.{name} must be an int >= 1 or None, got {value!r}")
        if not isinstance(self.default_weight, int) or self.default_weight < 1:
            raise ValueError(f"GatewayConfig.default_weight must be an int >= 1, got {self.default_weight!r}")
        for analyst, weight in self.analyst_weights.items():
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"GatewayConfig.analyst_weights[{analyst!r}] must be an int >= 1, got {weight!r}"
                )
        return self
