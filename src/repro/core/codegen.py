"""Per-backend code generation (compilation stage 6, part 2).

The original Conclave emits Python/PySpark scripts for cleartext sub-plans
and SecreC (Sharemind) or Obliv-C source for MPC sub-plans, then hands them
to per-party agents for execution.  The reproduction's backends are driven
in-process, so the artefact that matters is the :class:`GeneratedJob`: the
ordered list of operator steps a backend must run, plus a faithful textual
rendering of the code Conclave would have produced (useful for inspection,
documentation, and the codegen tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CompilationConfig
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    Distinct,
    Filter,
    HybridAggregate,
    HybridJoin,
    Join,
    Limit,
    Map,
    Merge,
    OpNode,
    Project,
    PublicJoin,
    SortBy,
)
from repro.core.partition import SubPlan


@dataclass
class GeneratedJob:
    """One executable job produced by code generation."""

    index: int
    #: ``"python"``, ``"spark"``, ``"sharemind"`` or ``"obliv-c"``.
    backend: str
    #: Executing party for cleartext jobs, ``"joint"`` for MPC jobs.
    party: str
    #: Operator nodes, in execution order.
    steps: list[OpNode] = field(default_factory=list)
    #: Relations this job reads from other jobs.
    inputs: list[str] = field(default_factory=list)
    #: Relations this job publishes for later jobs / as query outputs.
    outputs: list[str] = field(default_factory=list)
    #: Generated source text for inspection.
    source: str = ""

    def __repr__(self) -> str:
        return f"GeneratedJob(#{self.index}, {self.backend}@{self.party}, steps={len(self.steps)})"


def generate_jobs(subplans: list[SubPlan], config: CompilationConfig) -> list[GeneratedJob]:
    """Generate one job per sub-plan for the configured backends."""
    jobs = []
    for sp in subplans:
        backend = config.mpc_backend if sp.kind == "mpc" else config.cleartext_backend
        job = GeneratedJob(
            index=sp.index,
            backend=backend,
            party=sp.party,
            steps=list(sp.nodes),
            inputs=sp.input_relations(),
            outputs=sp.output_relations(),
        )
        job.source = render_source(job)
        jobs.append(job)
    return jobs


def render_source(job: GeneratedJob) -> str:
    """Render a job as backend-flavoured source text."""
    if job.backend == "spark":
        return _render_spark(job)
    if job.backend == "sharemind":
        return _render_secrec(job)
    if job.backend == "obliv-c":
        return _render_oblivc(job)
    return _render_python(job)


# -- cleartext renderers -----------------------------------------------------------------------


def _render_python(job: GeneratedJob) -> str:
    lines = [
        f"# generated sequential Python job #{job.index} for party {job.party}",
        "from repro.data.csvio import read_csv, write_csv",
        "",
    ]
    for rel in job.inputs:
        lines.append(f"{_var(rel)} = read_csv('{rel}.csv')")
    for node in job.steps:
        lines.append(_python_statement(node))
    for rel in job.outputs:
        lines.append(f"write_csv({_var(rel)}, '{rel}.csv')")
    return "\n".join(lines)


def _render_spark(job: GeneratedJob) -> str:
    lines = [
        f"# generated PySpark job #{job.index} for party {job.party}",
        "from pyspark.sql import SparkSession",
        f"spark = SparkSession.builder.appName('conclave_job_{job.index}').getOrCreate()",
        "",
    ]
    for rel in job.inputs:
        lines.append(f"{_var(rel)} = spark.read.csv('{rel}.csv', header=True)")
    for node in job.steps:
        lines.append(_spark_statement(node))
    for rel in job.outputs:
        lines.append(f"{_var(rel)}.write.csv('{rel}.csv', header=True)")
    return "\n".join(lines)


def _python_statement(node: OpNode) -> str:
    out = _var(node.out_rel.name)
    if isinstance(node, Create):
        return f"{out} = read_csv('{node.out_rel.name}.csv')"
    args = [_var(p.out_rel.name) for p in node.parents]
    if isinstance(node, Concat):
        return f"{out} = {args[0]}.concat({', '.join(args[1:])})"
    if isinstance(node, Project):
        return f"{out} = {args[0]}.project({node.columns!r})"
    if isinstance(node, Filter):
        return f"{out} = {args[0]}.filter({node.column!r}, {node.op!r}, {node.value!r})"
    if isinstance(node, (HybridAggregate, Aggregate)):
        group = [node.group_col] if node.group_col else []
        return (
            f"{out} = {args[0]}.aggregate({group!r}, {node.agg_col!r}, "
            f"{node.func!r}, {node.out_name!r})"
        )
    if isinstance(node, Map):
        return f"{out} = {args[0]}.arithmetic({node.out_name!r}, {node.left!r}, {node.op!r}, {node.right!r})"
    if isinstance(node, Compare):
        return f"{out} = {args[0]}.compare({node.out_name!r}, {node.left!r}, {node.op!r}, {node.right!r})"
    if isinstance(node, BoolOp):
        return f"{out} = {args[0]}.bool_op({node.out_name!r}, {node.op!r}, {node.operands!r})"
    if isinstance(node, (HybridJoin, PublicJoin, Join)):
        return f"{out} = {args[0]}.join({args[1]}, [{node.left_on!r}], [{node.right_on!r}])"
    if isinstance(node, Merge):
        return f"{out} = merge_sorted([{', '.join(args)}], {node.column!r})"
    if isinstance(node, SortBy):
        return f"{out} = {args[0]}.sort_by([{node.column!r}])"
    if isinstance(node, Distinct):
        return f"{out} = {args[0]}.distinct({node.columns!r})"
    if isinstance(node, Limit):
        return f"{out} = {args[0]}.limit({node.n})"
    if isinstance(node, Collect):
        return f"{out} = {args[0]}  # revealed to {', '.join(node.recipients)}"
    return f"{out} = {args[0]}  # {node.op_name}"


def _spark_statement(node: OpNode) -> str:
    out = _var(node.out_rel.name)
    args = [_var(p.out_rel.name) for p in node.parents]
    if isinstance(node, Create):
        return f"{out} = spark.read.csv('{node.out_rel.name}.csv', header=True)"
    if isinstance(node, Concat):
        expr = args[0]
        for a in args[1:]:
            expr += f".union({a})"
        return f"{out} = {expr}"
    if isinstance(node, Project):
        return f"{out} = {args[0]}.select({', '.join(repr(c) for c in node.columns)})"
    if isinstance(node, Filter):
        return f"{out} = {args[0]}.where('{node.column} {node.op} {node.value}')"
    if isinstance(node, (HybridAggregate, Aggregate)):
        if node.group_col:
            return (
                f"{out} = {args[0]}.groupBy({node.group_col!r})"
                f".agg({{'{node.agg_col or '*'}': '{node.func}'}})"
            )
        return f"{out} = {args[0]}.agg({{'{node.agg_col or '*'}': '{node.func}'}})"
    if isinstance(node, Map):
        return f"{out} = {args[0]}.withColumn({node.out_name!r}, col({node.left!r}) {node.op} {_lit(node.right)})"
    if isinstance(node, Compare):
        return (
            f"{out} = {args[0]}.withColumn({node.out_name!r}, "
            f"(col({node.left!r}) {node.op} {_lit(node.right)}).cast('int'))"
        )
    if isinstance(node, BoolOp):
        if node.op == "not":
            expr = f"~col({node.operands[0]!r})"
        else:
            glue = " & " if node.op == "and" else " | "
            expr = glue.join(f"col({c!r})" for c in node.operands)
        return f"{out} = {args[0]}.withColumn({node.out_name!r}, ({expr}).cast('int'))"
    if isinstance(node, (HybridJoin, PublicJoin, Join)):
        return (
            f"{out} = {args[0]}.join({args[1]}, "
            f"{args[0]}['{node.left_on}'] == {args[1]}['{node.right_on}'])"
        )
    if isinstance(node, Merge):
        expr = args[0]
        for a in args[1:]:
            expr += f".union({a})"
        return f"{out} = {expr}.orderBy({node.column!r})"
    if isinstance(node, SortBy):
        return f"{out} = {args[0]}.orderBy({node.column!r})"
    if isinstance(node, Distinct):
        return f"{out} = {args[0]}.select({', '.join(repr(c) for c in node.columns)}).distinct()"
    if isinstance(node, Limit):
        return f"{out} = {args[0]}.limit({node.n})"
    if isinstance(node, Collect):
        return f"{out} = {args[0]}  # revealed to {', '.join(node.recipients)}"
    return f"{out} = {args[0]}  # {node.op_name}"


# -- MPC renderers --------------------------------------------------------------------------------


def _render_secrec(job: GeneratedJob) -> str:
    lines = [
        f"// generated SecreC-style program for MPC job #{job.index}",
        "import shared3p;",
        "domain pd_shared3p shared3p;",
        "",
        "void main() {",
    ]
    for rel in job.inputs:
        lines.append(f"    pd_shared3p int64 [[2]] {_var(rel)} = argument(\"{rel}\");")
    for node in job.steps:
        lines.append("    " + _secrec_statement(node))
    for rel in job.outputs:
        lines.append(f"    publish(\"{rel}\", {_var(rel)});")
    lines.append("}")
    return "\n".join(lines)


#: The SecreC column primitive of each ``Map`` operator.
_SECREC_ARITHMETIC = {"+": "addColumn", "-": "subColumn", "*": "mulColumn", "/": "divColumn"}


def _secrec_statement(node: OpNode) -> str:
    out = _var(node.out_rel.name)
    args = [_var(p.out_rel.name) for p in node.parents]
    if isinstance(node, Concat):
        return f"pd_shared3p int64 [[2]] {out} = cat({', '.join(args)});"
    if isinstance(node, Project):
        return f"pd_shared3p int64 [[2]] {out} = project({args[0]}, {node.columns});"
    if isinstance(node, Filter):
        return f"pd_shared3p int64 [[2]] {out} = obliviousFilter({args[0]}, \"{node.column} {node.op} {node.value}\");"
    if isinstance(node, HybridAggregate):
        return (
            f"pd_shared3p int64 [[2]] {out} = hybridAggregate({args[0]}, \"{node.group_col}\", "
            f"\"{node.func}\", /* stp = {node.stp} */);"
        )
    if isinstance(node, Aggregate):
        return (
            f"pd_shared3p int64 [[2]] {out} = sortingAggregate({args[0]}, \"{node.group_col}\", "
            f"\"{node.func}\", presorted={str(node.presorted).lower()});"
        )
    if isinstance(node, HybridJoin):
        return f"pd_shared3p int64 [[2]] {out} = hybridJoin({args[0]}, {args[1]}, /* stp = {node.stp} */);"
    if isinstance(node, PublicJoin):
        return f"pd_shared3p int64 [[2]] {out} = publicJoin({args[0]}, {args[1]}, /* host = {node.host} */);"
    if isinstance(node, Join):
        return f"pd_shared3p int64 [[2]] {out} = cartesianJoin({args[0]}, {args[1]});"
    if isinstance(node, Map):
        fn = _SECREC_ARITHMETIC[node.op]
        return f"pd_shared3p int64 [[2]] {out} = {fn}({args[0]}, \"{node.left}\", {_lit(node.right)});"
    if isinstance(node, Compare):
        return (
            f"pd_shared3p int64 [[2]] {out} = cmpColumn({args[0]}, "
            f"\"{node.left} {node.op} {node.right}\");"
        )
    if isinstance(node, BoolOp):
        operands = ", ".join(f'"{c}"' for c in node.operands)
        return f"pd_shared3p int64 [[2]] {out} = boolColumns({args[0]}, \"{node.op}\", {{{operands}}});"
    if isinstance(node, Merge):
        return f"pd_shared3p int64 [[2]] {out} = obliviousMerge({{{', '.join(args)}}}, \"{node.column}\");"
    if isinstance(node, SortBy):
        return f"pd_shared3p int64 [[2]] {out} = obliviousSort({args[0]}, \"{node.column}\");"
    if isinstance(node, Distinct):
        return f"pd_shared3p int64 [[2]] {out} = obliviousDistinct({args[0]}, {node.columns});"
    if isinstance(node, Limit):
        return f"pd_shared3p int64 [[2]] {out} = head({args[0]}, {node.n});"
    if isinstance(node, Collect):
        return f"pd_shared3p int64 [[2]] {out} = {args[0]}; // declassified to {', '.join(node.recipients)}"
    return f"pd_shared3p int64 [[2]] {out} = {args[0]}; // {node.op_name}"


def _render_oblivc(job: GeneratedJob) -> str:
    lines = [
        f"// generated Obliv-C-style program for MPC job #{job.index}",
        "#include <obliv.oh>",
        "",
        "void conclaveMain(void *args) {",
    ]
    for rel in job.inputs:
        lines.append(f"    obliv int64 *{_var(rel)} = feedOblivInputs(\"{rel}\");")
    for node in job.steps:
        lines.append("    " + _secrec_statement(node).replace("pd_shared3p int64 [[2]]", "obliv int64 *"))
    for rel in job.outputs:
        lines.append(f"    revealOblivArray(\"{rel}\", {_var(rel)});")
    lines.append("}")
    return "\n".join(lines)


# -- helpers --------------------------------------------------------------------------------------


def _var(relation_name: str) -> str:
    return relation_name.replace("-", "_").replace(".", "_")


def _lit(value) -> str:
    return repr(value) if isinstance(value, str) else str(value)
