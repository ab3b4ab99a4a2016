"""Compilation and execution configuration.

The flags here correspond to the optimizations and consent decisions the
paper describes; disabling individual flags is how the ablation benchmarks
isolate the contribution of each transformation.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - imported where a TLS context is built
    import ssl


def _is_count(value) -> bool:
    """An ``int`` that is not a ``bool``: ``True`` counts nothing."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    #: Disable the push-down of filters on private columns past the MPC
    #: frontier.  Matching SMCQL's (stricter) guarantee for the §7.4
    #: comparison requires setting this to False.
    push_down_private_filters: bool = True
    #: Cleartext engine; ``"columnar"`` is the only one (the field survives
    #: because the benchmark harness still passes it).
    executor: str = "columnar"

    def __post_init__(self) -> None:
        for name in _SWITCHES:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"CompilationConfig.{name} must be a bool, got {value!r}")
        stps = self.allowed_stps
        if stps is not None and (
            isinstance(stps, str)
            or not isinstance(stps, Collection)
            or not all(isinstance(party, str) for party in stps)
        ):
            # A bare string would be matched by substring: every party whose
            # name is part of it would become an eligible STP.
            raise ValueError(
                "CompilationConfig.allowed_stps must be None or a collection of party "
                f"names, got {stps!r}"
            )
        if self.executor != "columnar":
            raise ValueError(f"unknown executor {self.executor!r}; allowed values: 'columnar'")


#: The on/off fields of :class:`CompilationConfig`.
_SWITCHES = tuple(f.name for f in fields(CompilationConfig) if f.type == "bool")


@dataclass
class TransportSecurity:
    """Mutual-TLS material for every mesh and control link.

    A session configured with a ``TransportSecurity`` speaks TLS with
    *mutual* authentication on every socket: the coordinator and each party
    agent present a certificate issued by the session CA (:attr:`ca_cert`),
    and both sides require and verify the peer's certificate against that
    CA.  Identity is carried in the certificate's CN — ``server_context`` /
    ``client_context`` disable hostname checking because parties move
    between hosts; instead the runtime verifies the authenticated CN against
    the party id claimed in the (nonce-carrying) hello frame, so a peer
    cannot impersonate another party, at session start or when a restart
    brings the agents up again.

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
        # moment a party migrates hosts or comes back up on a new address.
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
    :attr:`heartbeat_interval_seconds` is set) triggers a restart after an
    exponential backoff: every agent is brought up again, as at session
    start, with the session's standing inputs — instead of the crash
    breaking the whole session.  Every death reported before a restart
    starts is recovered by that one restart, but each counts against its
    own party's budget.  A party that keeps dying exhausts its *restart
    budget* (:attr:`max_restarts` deaths within :attr:`window_seconds`) and
    escalates to a permanent failure: the session breaks with a structured
    :class:`~repro.runtime.pool.AgentFailure` carrying the attempt
    history.

    A supervised session also replays the queries a crash or a transport
    error interrupted, once the agents are up again, up to
    :attr:`max_attempts` tries per query.  Queries are pure functions of
    (plan, inputs, seed), so a replay returns byte-identical results; a
    query that raised a real error (``SecurityError``, a bad plan, an engine
    bug) fails at once.
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
    #: Upper bound on the per-attempt backoff (seconds).
    max_backoff_seconds: float = 5.0
    #: Interval between supervisor heartbeat pings on each control link.
    #: ``None`` disables heartbeats (death is then detected only via
    #: control-link EOF — a crashed process, not a wedged one).
    heartbeat_interval_seconds: float | None = 1.0
    #: Consecutive missed heartbeats after which a silent agent is declared
    #: dead and its process killed (triggering the restart path).
    heartbeat_misses: int = 5
    #: Tries per query a crash or a transport error interrupts (1 = no
    #: replay: the first failure surfaces).
    max_attempts: int = 3

    def validate(self) -> "RestartPolicy":
        for name in ("max_restarts", "max_attempts"):
            value = getattr(self, name)
            if not _is_count(value) or value < 1:
                raise ValueError(f"RestartPolicy.{name} must be an int >= 1, got {value!r}")
        for name in ("window_seconds", "backoff_seconds", "max_backoff_seconds"):
            value = getattr(self, name)
            if not _is_number(value) or value < 0:
                raise ValueError(f"RestartPolicy.{name} must be a number >= 0, got {value!r}")
        interval = self.heartbeat_interval_seconds
        if interval is not None and (not _is_number(interval) or interval <= 0):
            raise ValueError(
                f"RestartPolicy.heartbeat_interval_seconds must be a number > 0 or None, got {interval!r}"
            )
        if not _is_count(self.heartbeat_misses) or self.heartbeat_misses < 1:
            raise ValueError(
                f"RestartPolicy.heartbeat_misses must be an int >= 1, got {self.heartbeat_misses!r}"
            )
        return self
