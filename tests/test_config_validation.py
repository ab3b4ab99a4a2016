"""Configuration objects refuse values of the wrong type at construction or
validation, instead of acting on them."""

import pytest

import repro as cc
from repro.core.config import CompilationConfig, RestartPolicy
from repro.model.estimator import EstimatorParams
from repro.runtime.pool import active_agent_processes

#: ``(class, field, value)``: a bool where a count, a number or a mapping of
#: counts is meant (``True == 1``, so a range check alone passes it), or a
#: non-bool where a switch is meant.
WRONG_TYPES = [
    (RestartPolicy, "max_restarts", True),
    (RestartPolicy, "heartbeat_misses", True),
    (RestartPolicy, "max_attempts", True),
    (EstimatorParams, "filter_selectivity", True),
    (EstimatorParams, "distinct_fraction", True),
    (EstimatorParams, "join_selectivity", True),
    (EstimatorParams, "row_overrides", {"r": True}),
    (EstimatorParams, "timeout_seconds", True),
]


@pytest.mark.parametrize(
    "cls, field, value", WRONG_TYPES, ids=[f"{c.__name__}.{f}" for c, f, _ in WRONG_TYPES]
)
def test_a_value_of_the_wrong_type_is_refused(cls, field, value):
    """Policies are checked by ``validate()``, estimator parameters at
    construction."""
    with pytest.raises(ValueError, match=field):
        config = cls(**{field: value})
        if hasattr(config, "validate"):
            config.validate()


#: ``(option, value)``: a ``QuerySession`` option out of its range or of the
#: wrong type.  ``True`` would open a session with a 1 s timeout, ``0`` start
#: agents whose sockets fail, and ``-1`` raise the socket's own error, which
#: names no option; so would a listener address that is not a host string.
SESSION_OPTIONS = [
    ("timeout", True),
    ("timeout", 0),
    ("timeout", -1),
    ("timeout", "60"),
    ("timeout", None),
    ("idle_timeout", True),
    ("idle_timeout", 0),
    ("idle_timeout", -1),
    ("max_workers", True),
    ("max_workers", 0),
    ("max_workers", "many"),
    ("max_queue_depth", True),
    ("max_queue_depth", 0),
    ("max_queue_depth", -1),
    ("max_queue_depth", 1.5),
    ("max_queue_depth", "4"),
    ("bind_host", ""),
    ("bind_host", None),
    ("bind_host", 127),
    ("bind_host", b"127.0.0.1"),
    ("bind_host", ("127.0.0.1", 0)),
]


@pytest.mark.parametrize(
    "option, value", SESSION_OPTIONS, ids=[f"{o}={v!r}" for o, v in SESSION_OPTIONS]
)
def test_a_session_refuses_a_bad_option_before_it_spawns(option, value):
    with pytest.raises(ValueError, match=f"^{option} must be"):
        cc.QuerySession(["a.example", "b.example"], **{option: value})
    assert active_agent_processes() == []


SWITCHES = [
    "enable_push_down",
    "enable_push_up",
    "enable_hybrid_operators",
    "enable_sort_elimination",
    "enable_sort_pushup",
    "consent_to_cardinality_leakage",
    "push_down_private_filters",
]


@pytest.mark.parametrize("switch", SWITCHES)
def test_compilation_switches_are_bools(switch):
    CompilationConfig(**{switch: False})
    for value in (0, 1, "no", None):
        with pytest.raises(ValueError, match=switch):
            CompilationConfig(**{switch: value})


def test_allowed_stps_is_a_collection_of_party_names():
    """``("mpc.ftc.gov")`` is a string, not a one-tuple: matched by
    substring, it would make any party named ``"mpc"`` or ``"ftc"`` an
    eligible STP."""
    for stps in (None, [], ["mpc.ftc.gov"], ("a.example", "b.example"), {"a.example"}):
        CompilationConfig(allowed_stps=stps)
    for stps in ("mpc.ftc.gov", ["mpc.ftc.gov", 3], [cc.Party("mpc.ftc.gov")], 7):
        with pytest.raises(ValueError, match="allowed_stps"):
            CompilationConfig(allowed_stps=stps)
