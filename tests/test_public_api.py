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

import numpy as np
import pytest

import repro
import repro.core
import repro.mpc
import repro.runtime
from repro.model import prices
from repro.model.counters import CostMeter
from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.secretshare import SecretSharingEngine, TripleDealer
from repro.queries import credit_card_regulation_query
from repro.workloads.credit import CreditWorkload


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


def test_the_calls_the_benchmark_harness_makes():
    """What the harness's traced pass calls, run on a few rows: the MPC
    primitive probe of ``benchmarks/e2e/layers.py`` and the in-process run
    of ``run.py`` that every service result is held against.

    The probe drives an all-local ``SecretSharingEngine`` (every party's
    slice in one process) directly.  The benchmark's files may not change
    with the code they measure, so that engine has to stay until the
    benchmark itself moves the probe; without this test only a CI smoke row
    would notice a broken call."""
    parties = ["p0", "p1", "p2"]
    engine = SecretSharingEngine(parties, seed=1)
    values = np.arange(8, dtype=np.int64)
    a = engine.input_vector(values, contributor=parties[0])
    b = engine.input_vector(values[::-1].copy(), contributor=parties[1])
    assert engine.open(a).tolist() == values.tolist()
    assert engine.open(engine.mul(a, b)).tolist() == (values * values[::-1]).tolist()
    assert engine.open(engine.less_than(a, b)).tolist() == (values < values[::-1]).tolist()
    (shuffled,) = oblivious_shuffle(engine, [a])
    assert sorted(engine.open(shuffled).tolist()) == values.tolist()
    triple = TripleDealer(len(parties), 1).triples(8)
    assert [len(share) for share in triple.c_shares] == [8] * len(parties)

    spec = credit_card_regulation_query(rows_demographics=12, rows_per_agency=12)
    demographics, agencies = CreditWorkload(seed=1).generate(12, 12, 2)
    regulator, *banks = spec.parties
    inputs = {regulator: {"demographics": demographics}}
    inputs.update({bank: {f"scores_{i}": agencies[i]} for i, bank in enumerate(banks)})
    compiled = repro.compile_query(spec.context)
    result = repro.QueryRunner(spec.parties, inputs, compiled.config, seed=1).run(compiled)
    for counter in ("wire_rounds", "multiplications", "comparisons", "rounds", "bytes_sent"):
        assert result.mpc_profile[counter] >= 0, counter
    assert result.mpc_profile["wire_rounds"] > 0
    assert result.leakage.events


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
#: is priced with from ``repro.model``; the estimator runs execution's code,
#: never the other way round.
ANALYTIC_MODULES = re.compile(r"repro\.(model\.estimator|baselines)(\.|$)")
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


@pytest.mark.parametrize("path", sorted(SRC.glob("mpc/*.py")), ids=lambda p: p.name)
def test_the_mpc_substrate_never_imports_the_runtime(path):
    """A round is carried on whatever channel its network is given: the
    substrate below the runtime never reaches up into it."""
    for module, name in imports_of(path):
        qualified = f"{module}.{name}" if name else module
        assert not re.match(r"repro\.runtime(\.|$)", qualified), f"mpc/{path.name} imports {qualified}"


MODEL_FILES = sorted(SRC.glob("model/*.py"))


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.name)
def test_the_cost_model_depends_on_core_and_data_only(path):
    """Counts, step formulas and prices sit below execution.  The estimator
    alone reaches up, and only for the shape engines, the executor it runs
    on them instead of a formula of its own, and the leakage report that
    run returns."""
    for module, name in imports_of(path):
        runs_execution = module in ("repro.mpc.shape", "repro.hybrid.stp") or (module, name) == (
            "repro.runtime.executor", "PlanExecutor"
        )
        if path.name == "estimator.py" and runs_execution:
            continue
        assert not re.match(r"repro\.(runtime|mpc|exec|hybrid)(\.|$)", module), (
            f"model/{path.name} imports {module}"
        )


def test_the_cost_model_has_one_home():
    assert {p.name for p in MODEL_FILES} == {
        "__init__.py", "counters.py", "steps.py", "prices.py", "estimator.py"
    }
    for gone in ("mpc/runtime.py", "mpc/estimates.py", "exec/costs.py", "core/estimator.py"):
        assert not (SRC / gone).exists(), gone
    moved = {"CostMeter", "NetworkStats", "SharemindCostModel", "GarbledCostModel", "PlanEstimator"}
    for package in (repro.core, repro.mpc, repro.runtime):
        assert not moved & set(package.__all__), package.__name__
    # Executions count and ``repro.model.prices.price`` prices: nothing in the
    # runtime reaches for a price list, and an executor holds none.
    for path in SRC.glob("runtime/*.py"):
        for module, name in imports_of(path):
            qualified = f"{module}.{name}" if name else module
            assert not qualified.startswith("repro.model.prices"), (path.name, qualified)
    schema = repro.Schema([repro.ColumnDef("k"), repro.ColumnDef("v")])
    parties = ["a.example", "b.example", "c.example"]
    inputs = {
        party: {f"t{i}": repro.Table(schema, [np.arange(3), np.arange(3)])}
        for i, party in enumerate(parties)
    }
    runner = repro.QueryRunner(parties, inputs)
    runner.run(repro.compile_query(_three_party_query()))
    price_lists = tuple(
        value for name, value in vars(prices).items() if name.endswith("CostModel")
    )
    for held in (runner, runner.mpc_backend):
        for name in dir(held):
            assert "price" not in name and "cost_model" not in name, name
            assert not isinstance(getattr(held, name), price_lists), name


# -- one formula per protocol step: execution charges, it does not count inline ---------------

COUNTERS = set(CostMeter().counts())
#: The engine primitives that carry real traffic or do real share arithmetic
#: keep their one counter increment; every analytic step goes through
#: ``engine.charge`` with a ``repro.model.steps`` meter.
CARRYING_PRIMITIVES = {
    "open_many", "open_flags", "reveal_to_many", "mul", "_linear", "scale",
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
#: The calls that start a shuffle: the whole protocol, or drawing its joint
#: permutation to reshare rows under by hand.
SHUFFLE_STARTS = {"oblivious_shuffle", "permutation"}


def shuffle_open_functions(path: pathlib.Path) -> list[str]:
    """Functions that write out the shuffle → open-flags → compact tail."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, ast.FunctionDef):
            calls = calls_in(func)
            starts = [i for i, name in enumerate(calls) if name in SHUFFLE_STARTS]
            if starts and OPENINGS & set(calls[starts[0]:]):
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


def sort_calls(path: pathlib.Path) -> list[int]:
    """Lines of ``path`` that call ``argsort``, ``lexsort`` or ``np.sort``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            if attr in ("argsort", "lexsort") or (
                attr == "sort" and isinstance(owner, ast.Name) and owner.id in ("np", "numpy")
            ):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("mpc/*.py")), ids=lambda p: p.name)
def test_the_mpc_environment_orders_with_the_one_stable_order(path):
    """``repro.exec.kernels.stable_order`` is the one stable order of the MPC
    environment, the STP and the cleartext engine: nothing under
    ``repro/mpc`` sorts by itself."""
    assert not sort_calls(path), f"mpc/{path.name} sorts at lines {sort_calls(path)}"


def test_the_sort_fence_sees_a_sort():
    assert sort_calls(SRC / "exec" / "kernels.py")


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
    assert {"input_vectors", "open_many", "reveal_to_many", "env_open_many"} <= defined
    assert not {"reveal_to", "reveal_replicated", "reveal_many"} & defined


def test_hybrid_aggregate_has_no_per_row_loop():
    tree = ast.parse((SRC / "hybrid" / "hybrid_agg.py").read_text())
    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not loops
    assert "mul" not in calls_in(tree)


# -- one mover, one report, one plan ---------------------------------------------------------

#: What carries a relation across a party / MPC boundary: the crossing
#: rounds and the rebuilding of what they deliver, the opening to one party
#: and the ingest of a peer's relation.
CROSSING_CALLS = {
    "round", "_row_count", "_table_received", "reveal_to", "ingest_remote",
}


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
    """The plan is its DAG, config and report: ``explain()`` stores nothing
    on it, so explaining a plan cannot change what ships or its
    fingerprint."""
    from repro.runtime.service import plan_fingerprint
    from repro.runtime.wire import encode_payload

    query = _three_party_query()
    untouched, inspected = repro.compile_query(query), repro.compile_query(query)
    shipped = encode_payload(inspected)
    assert inspected.explain()
    assert set(vars(inspected)) == {"dag", "config", "report"}
    assert encode_payload(inspected) == shipped == encode_payload(untouched)
    assert plan_fingerprint(inspected) == plan_fingerprint(untouched)


def test_the_wire_codec_is_a_closed_schema():
    """Decoding resolves no name and imports nothing: ``wire.py`` has no
    import machinery, no reference table, and builds objects without their
    constructors only where the record registry rebuilds a plan's nodes."""
    source = (SRC / "runtime" / "wire.py").read_text()
    for banned in (r"importlib", r"sys\.modules", r"__import__", r"\bmemo\b", r"_T_REF"):
        assert not re.search(banned, source), banned
    assert {module for module, _name in imports_of(SRC / "runtime" / "wire.py")} <= {
        "__future__", "dataclasses", "functools", "socket", "struct", "sys", "threading", "typing",
        "numpy", "ssl", "repro.core", "repro.core.compiler", "repro.core.config",
        "repro.core.dag", "repro.core.relation", "repro.data.schema", "repro.data.table",
        "repro.hybrid.stp", "repro.runtime.executor", "repro.runtime.faults",
        "repro.runtime.mesh", "repro.runtime.pool", "repro.mpc.network",
    }
    tree = ast.parse(source)
    constructs_bare = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "__new__" for n in ast.walk(func))
    }
    assert constructs_bare == {"_dag"}
    (registry,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Registry"]
    assert "_dag" in {n.name for n in registry.body if isinstance(n, ast.FunctionDef)}


# -- one arithmetic operator, one typing rule ------------------------------------------------

ORACLE_ENGINE = SRC.parent.parent / "tests" / "oracle_engine.py"


def engine_classes() -> list[tuple[str, ast.ClassDef]]:
    """Every ``*Backend`` class under ``src/`` plus the oracle engine's."""
    found = []
    for path in [*SRC.rglob("*.py"), ORACLE_ENGINE]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and ENGINE_CLASSES.match(node.name):
                found.append((path.name, node))
    return found


def test_map_is_the_one_arithmetic_operator():
    import repro.core.operators as operators

    assert not {"Multiply", "Divide"} & set(vars(operators))
    assert operators.DISTRIBUTIVE_OPS.count(operators.Map) == 1
    engines = engine_classes()
    assert {cls.name for _, cls in engines} == {
        "ColumnarBackend", "SharemindBackend", "PythonBackend", "ShapeBackend",
        "ShapeColumnarBackend",
    }
    for path, cls in engines:
        methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        # The shape backends inherit the operators of the engines they shape.
        bases = {getattr(base, "id", "") for base in cls.bases}
        inherits = bases in ({"SharemindBackend"}, {"ColumnarBackend"})
        assert "arith" in methods or inherits, f"{path}:{cls.name}"
        assert not {"multiply", "divide"} & methods, f"{path}:{cls.name}"


def test_the_fixed_point_typing_rule_has_one_definition():
    """Whether an operand is carried in fixed point (a FLOAT column, a
    fractional scalar) is decided in one function; everything that types,
    executes arithmetic imports it (the estimator prices it by executing
    ``mpc/protocols.py`` on shapes)."""
    rules = []
    for path in SRC.rglob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                attrs = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
                if {"is_integer", "FLOAT"} <= attrs:
                    rules.append(f"{path.relative_to(SRC)}:{func.name}")
    assert rules == ["data/schema.py:arithmetic_typing"]
    for module in ("core/lang.py", "mpc/protocols.py"):
        assert ("repro.data.schema", "arithmetic_typing") in imports_of(SRC / module), module
