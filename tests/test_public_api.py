"""The import surface: every exported name resolves, and the modules that
execute a plan import no analytic model and exactly one engine per job.

``repro.runtime`` resolves its names lazily from a module/attribute table,
so a module split or rename that forgets the table breaks nothing at import
time — only at first use.  These tests turn that into a tier-1 failure.
"""

import ast
import importlib
import pathlib
import re

import pytest

import repro
import repro.core
import repro.mpc
import repro.runtime
from repro.model.counters import CostMeter


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


# -- the import graph: execution never reaches the analytic models -------------------------

SRC = pathlib.Path(repro.__file__).parent
#: Everything that runs when a plan executes.
EXECUTION_FILES = sorted(
    [
        *SRC.glob("runtime/*.py"),
        *SRC.glob("exec/*.py"),
        *SRC.glob("hybrid/*.py"),
        *(
            SRC / "mpc" / f"{name}.py"
            for name in ("secretshare", "protocols", "oblivious", "sharemind", "network")
        ),
    ]
)
#: Modules that only price plans (Fig. 1/4-7); nothing that executes may import
#: them.  Execution takes the counters, the step meters and the price lists it
#: is priced with from ``repro.model`` — never a whole-operator formula, which
#: would make the executed-equals-estimated test a tautology.
ANALYTIC_MODULES = re.compile(r"repro\.(model\.(estimator|operators)|baselines)(\.|$)")
#: Garbled-circuit / ObliVM models and constants of ``repro.model.prices``.
ANALYTIC_NAMES = re.compile(r"(?i)garbled|oblivm|obliv_?c|^GATES_PER_|^BYTES_PER_|^VALUE_BITS$")
#: How a module or class announces itself as a cleartext engine.
ENGINE_MODULES = re.compile(r"repro\.cleartext(\.|$)|(^|\.)\w*engine\w*$")
ENGINE_CLASSES = re.compile(r"\w+Backend$")


def imports_of(path: pathlib.Path) -> list[tuple[str, str]]:
    """Every ``(module, name)`` the file imports, function-level imports included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module or "", alias.name) for alias in node.names]
    return found


def test_execution_modules_exist():
    assert all(path.exists() for path in EXECUTION_FILES)
    assert {"executor.py", "engine.py", "hybrid_agg.py", "sharemind.py"} <= {
        path.name for path in EXECUTION_FILES
    }


@pytest.mark.parametrize("path", EXECUTION_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_execution_never_imports_an_analytic_model(path):
    """"Analytic and measured are never conflated" as a property of the
    import graph: no executing module reaches the estimator, the SMCQL
    baseline or a garbled-circuit / ObliVM cost model."""
    for module, name in imports_of(path):
        qualified = f"{module}.{name}" if name else module
        assert not ANALYTIC_MODULES.search(qualified), f"{path.name} imports {qualified}"
        assert not ANALYTIC_NAMES.search(name), f"{path.name} imports {qualified}"


MODEL_FILES = sorted(SRC.glob("model/*.py"))


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.name)
def test_the_cost_model_depends_on_core_and_data_only(path):
    for module, _name in imports_of(path):
        assert not re.match(r"repro\.(runtime|mpc|exec|hybrid)(\.|$)", module), (
            f"model/{path.name} imports {module}"
        )


def test_the_cost_model_has_one_home():
    assert {p.name for p in MODEL_FILES} == {
        "__init__.py", "counters.py", "steps.py", "operators.py", "prices.py", "estimator.py"
    }
    for gone in ("mpc/runtime.py", "mpc/estimates.py", "exec/costs.py", "core/estimator.py"):
        assert not (SRC / gone).exists(), gone
    moved = {"CostMeter", "NetworkStats", "SharemindCostModel", "GarbledCostModel", "PlanEstimator"}
    for package in (repro.core, repro.mpc, repro.runtime):
        assert not moved & set(package.__all__), package.__name__


# -- one formula per protocol step: execution charges, it does not count inline ---------------

COUNTERS = set(CostMeter().counts())
#: The engine primitives that carry real traffic or do real share arithmetic
#: keep their one counter increment; every analytic step goes through
#: ``engine.charge`` with a ``repro.model.steps`` meter.
CARRYING_PRIMITIVES = {
    "input_vectors", "_open_to_all", "open_flags", "reveal_to_many", "mul", "_linear", "scale",
}
CHARGING_FILES = sorted(
    [
        *SRC.glob("hybrid/*.py"),
        *(SRC / "mpc" / f"{n}.py" for n in ("oblivious", "protocols", "sharemind", "secretshare")),
    ]
)


def counter_writes(path: pathlib.Path) -> dict[str, list[str]]:
    """``{function: [counter, ...]}`` for every (augmented) assignment to an
    attribute named like a ``CostMeter`` / ``NetworkStats`` counter."""
    found: dict[str, list[str]] = {}
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            targets = (
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else node.targets if isinstance(node, ast.Assign) else []
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in COUNTERS:
                    found.setdefault(func.name, []).append(target.attr)
    return found


@pytest.mark.parametrize("path", CHARGING_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_inline_charges_outside_the_carrying_primitives(path):
    writes = counter_writes(path)
    if path.name == "secretshare.py":
        assert set(writes) == CARRYING_PRIMITIVES
        assert all(len(counters) == 1 for counters in writes.values()), writes
    else:
        assert not writes, f"{path.name} counts inline instead of engine.charge: {writes}"


def test_execution_knows_one_cleartext_engine_and_one_mpc_backend():
    modules, classes = set(), set()
    for path in EXECUTION_FILES:
        for module, name in imports_of(path):
            if ENGINE_MODULES.search(module) or ENGINE_MODULES.search(f"{module}.{name}"):
                modules.add(module)
            if ENGINE_CLASSES.match(name):
                classes.add(name)
    assert modules == {"repro.exec.engine"}
    assert classes == {"ColumnarBackend", "SharemindBackend"}


def test_deleted_engines_stay_deleted():
    assert not (SRC / "cleartext").exists()
    assert not (SRC / "mpc" / "garbled.py").exists()
    assert not {"OblivCBackend", "CircuitMemoryError"} & set(repro.mpc.__all__)
    for doc in (repro.__doc__, repro.mpc.__doc__):
        assert "garbled-circuit backend" not in doc and "repro.cleartext" not in doc


# -- one home for the relational building blocks -------------------------------------------

#: Every module of ``repro.hybrid`` that runs a protocol over shares.
HYBRID_PROTOCOLS = sorted(
    path for path in SRC.glob("hybrid/*.py") if path.name not in ("__init__.py", "stp.py")
)
#: Where the hybrid protocols may take share-level building blocks from.
BUILDING_BLOCK_HOMES = {"repro.mpc.protocols", "repro.mpc.oblivious"}


def calls_in(func: ast.AST) -> list[str]:
    """Names of everything ``func`` calls, in source order (``a.b()`` → ``b``)."""
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return [
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        for node in calls
    ]


#: The engine calls that open a vector to every party.
OPENINGS = {"open", "open_many", "open_flags"}


def shuffle_open_functions(path: pathlib.Path) -> list[str]:
    """Functions that write out the shuffle → open-flags → compact tail."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, ast.FunctionDef):
            calls = calls_in(func)
            after_shuffle = calls[calls.index("oblivious_shuffle"):] if "oblivious_shuffle" in calls else []
            if OPENINGS & set(after_shuffle):
                found.append(func.name)
    return found


def test_hybrid_protocols_compose_the_share_engines_building_blocks():
    assert {p.name for p in HYBRID_PROTOCOLS} == {
        "hybrid_agg.py", "hybrid_join.py", "public_join.py"
    }
    for path in HYBRID_PROTOCOLS:
        mpc_imports = {
            module for module, _ in imports_of(path)
            if module.startswith("repro.mpc") and module != "repro.mpc.sharemind"
        }
        assert mpc_imports and mpc_imports <= BUILDING_BLOCK_HOMES, path.name
        assert not shuffle_open_functions(path), path.name
        tree = ast.parse(path.read_text())
        helpers = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        ]
        assert not helpers, f"{path.name} keeps a private copy: {helpers}"
    assert shuffle_open_functions(SRC / "mpc" / "protocols.py") == ["compact"]
    # ... whose flags are opened in Z_2 — no full-width opening is left in it.
    (compact,) = [
        node for node in ast.walk(ast.parse((SRC / "mpc" / "protocols.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "compact"
    ]
    assert OPENINGS & set(calls_in(compact)) == {"open_flags"}


def test_no_relation_crosses_one_column_per_round():
    """The single-vector names are wrappers for single vectors: nothing under
    ``src/`` calls one in a loop or comprehension (a round per column)."""
    single = {"input_vector", "open", "env_open", "reveal_to", "reveal_replicated"}
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    for path in sorted(SRC.rglob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if isinstance(loop, loops):
                assert not single & set(calls_in(loop)), f"{path.name}:{loop.lineno}"
    engine = ast.parse((SRC / "mpc" / "secretshare.py").read_text())
    defined = {n.name for n in ast.walk(engine) if isinstance(n, ast.FunctionDef)}
    assert {"input_vectors", "open_many", "reveal_many", "reveal_to_many", "env_open_many"} <= defined
    assert not {"reveal_to", "reveal_replicated"} & defined


def test_hybrid_aggregate_has_no_per_row_loop():
    tree = ast.parse((SRC / "hybrid" / "hybrid_agg.py").read_text())
    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not loops
    assert "mul" not in calls_in(tree)


# -- one mover, one report, one plan ---------------------------------------------------------

#: What carries a relation across a party / MPC boundary.
CROSSING_CALLS = {"send_table", "receive_table", "broadcast_table", "reveal_to", "ingest_remote"}


def test_every_relation_crosses_a_boundary_in_one_function():
    """``PlanExecutor._fetch`` is the only function of the executor that
    moves a relation between loci, and nothing there opens an MPC relation
    to everyone (``.reveal(``)."""
    tree = ast.parse((SRC / "runtime" / "executor.py").read_text())
    movers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and CROSSING_CALLS & set(calls_in(func))
    }
    assert movers == {"_fetch"}
    assert CROSSING_CALLS <= set(calls_in(tree))
    assert "reveal" not in calls_in(tree)
    for gone in (
        "_execute_collect", "_execute_local_node", "_assist_remote_local",
        "_as_mpc_handle", "_as_local_handle", "_reset_leakage",
    ):
        assert gone not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_there_is_one_leakage_report():
    for path in SRC.rglob("*.py"):
        assert "joint_leakage" not in path.read_text(), path
    differential = (SRC.parent.parent / "tests" / "test_differential.py").read_text()
    compare = differential[differential.index("def assert_byte_identical"):]
    compare = compare[: compare.index("\n\n\n")]
    assert "result.leakage.events == reference.leakage.events" in compare
    assert "sorted" not in compare and "runtime" not in compare


def _three_party_query():
    with repro.QueryContext() as q:
        parties = [repro.Party(name) for name in ("a.example", "b.example", "c.example")]
        columns = [repro.Column("k", repro.INT), repro.Column("v", repro.INT)]
        tables = [repro.new_table(f"t{i}", columns, at=p) for i, p in enumerate(parties)]
        repro.concat(tables).aggregate(group=["k"], aggs={"s": repro.SUM("v")}).collect(
            "out", to=parties[:1]
        )
    return q


def test_the_plan_that_ships_is_the_dag_that_runs():
    """Sub-plans and generated jobs are views derived on access: they are
    neither shipped nor hashed, so looking at them cannot change the plan's
    fingerprint."""
    from repro.runtime.service import plan_fingerprint
    from repro.runtime.wire import encode_payload

    query = _three_party_query()
    untouched, inspected = repro.compile_query(query), repro.compile_query(query)
    assert inspected.explain() and inspected.jobs and inspected.subplans
    assert set(vars(inspected)) == {"dag", "config", "report"}
    assert encode_payload(inspected) == encode_payload(untouched)
    assert plan_fingerprint(inspected) == plan_fingerprint(untouched)
    for name in (b"GeneratedJob", b"SubPlan"):
        assert name not in encode_payload(untouched)
    assert [job.index for job in untouched.jobs] == [sp.index for sp in untouched.subplans]
