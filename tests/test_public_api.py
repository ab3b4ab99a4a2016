"""The import surface: every exported name resolves.

``repro.runtime`` resolves its names lazily from a module/attribute table,
so a module split or rename that forgets the table breaks nothing at import
time — only at first use.  These tests turn that into a tier-1 failure.
"""

import importlib

import pytest

import repro
import repro.core
import repro.runtime


@pytest.mark.parametrize("package", [repro, repro.core, repro.runtime])
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"{package.__name__}.__all__ names that do not resolve: {missing}"


#: What ``benchmarks/e2e`` imports or calls by name.  The benchmark's files
#: may not change with the code they measure, so the names are pinned here:
#: dropping one fails the test suite, not the benchmark pipeline.
BENCHMARK_IMPORTS = {
    "repro": ["QueryRunner", "SocketCoordinator", "QuerySession"],
    "repro.runtime.service": ["plan_fingerprint", "active_agent_processes"],
    "repro.runtime.mesh": ["bind_listener"],
    "repro.runtime.wire": [
        "decode_payload",
        "encode_payload",
        "recv_frame",
        "secure_client_socket",
        "secure_server_socket",
        "send_frame",
    ],
    "repro.mpc.secretshare": ["SecretSharingEngine", "TripleDealer"],
    "repro.mpc.oblivious": ["oblivious_shuffle"],
    "repro.exec": ["kernels"],
}


@pytest.mark.parametrize("module_name", sorted(BENCHMARK_IMPORTS))
def test_names_the_benchmark_harness_imports(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in BENCHMARK_IMPORTS[module_name] if not hasattr(module, name)]
    assert not missing, f"{module_name} no longer provides {missing}"
