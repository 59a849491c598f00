"""The one lint run: per-module rules, flow passes and model rules.

:func:`lint_all` parses every ``.py`` file once
(:func:`repro.lint.flow.symbols.parse_paths`), runs each rule of
:data:`repro.lint.rules.ALL_RULES` over every tree, honouring per-line
suppressions (``# lint: ok=AST003``), and hands the same trees to the flow
passes (:func:`repro.lint.flow.engine.analyze`).  When no paths are given
it lints the installed package and also instantiates the three paper LP
builders (Figures 2-4) on a small deterministic cluster/workload and runs
:func:`repro.lint.model.lint_lips_model` on each — so ``python -m repro
lint`` checks that the *shipped* formulations are well-posed, without ever
calling a solver.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.findings import Finding, Severity, suppressed_rules
from repro.lint.flow.engine import FlowReport, analyze
from repro.lint.flow.symbols import ModuleInfo, parse_paths, symbol_table
from repro.lint.rules import ALL_RULES, Rule


def _check_tree(
    tree: ast.Module,
    lines: Sequence[str],
    filename: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the per-module rules over one parsed module."""
    findings: List[Finding] = []
    for rule in rules if rules is not None else ALL_RULES:
        for lineno, message in rule.check(tree):
            line_text = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
            if rule.id in suppressed_rules(line_text):
                continue
            findings.append(
                Finding(
                    rule=rule.id,
                    severity=Severity.WARNING,
                    message=message,
                    location=filename,
                    line=lineno,
                )
            )
    return findings


def _check_modules(
    modules: Iterable[ModuleInfo], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    return [
        finding
        for info in modules
        for finding in _check_tree(info.tree, info.source_lines, str(info.path), rules)
    ]


def lint_source(
    source: str, filename: str = "<string>", rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run the per-module rules over one module's source text."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            Finding(
                rule="AST999",
                severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}",
                location=filename,
                line=exc.lineno,
            )
        ]
    return _check_tree(tree, source.splitlines(), filename, rules)


def lint_paths(
    paths: Iterable[Path], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run the per-module rules over every ``.py`` file under ``paths``."""
    modules, findings = parse_paths(paths)
    return findings + _check_modules(modules, rules)


def default_source_paths() -> List[Path]:
    """The repo's own package source — what ``python -m repro lint`` checks."""
    import repro

    return [Path(repro.__file__).resolve().parent]


# -- model lint over the shipped formulations --------------------------------


def _reference_input():
    """A small deterministic SchedulingInput exercising every model feature.

    Two zones, three machines (one cheap), three data jobs + one input-less
    job — enough to populate every constraint family of Figures 2-4.
    """
    from repro.cluster.builder import ClusterBuilder
    from repro.cluster.topology import Topology
    from repro.core.model import SchedulingInput
    from repro.workload.job import DataObject, Job, Workload

    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), default_uptime=10_000.0)
    b.add_machine("a0", ecu=2.0, cpu_cost=5.0e-5, zone="za")
    b.add_machine("a1", ecu=2.0, cpu_cost=5.0e-5, zone="za")
    b.add_machine("b0", ecu=5.0, cpu_cost=1.0e-5, zone="zb")
    cluster = b.build()
    data = [
        DataObject(data_id=0, name="d0", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="d1", size_mb=384.0, origin_store=1),
        DataObject(data_id=2, name="d2", size_mb=128.0, origin_store=2),
    ]
    jobs = [
        Job(job_id=0, name="scan", tcp=20.0 / 64.0, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="count", tcp=90.0 / 64.0, data_ids=[1], num_tasks=6),
        Job(job_id=2, name="grep", tcp=37.0 / 64.0, data_ids=[2], num_tasks=4),
        Job(job_id=3, name="pi", tcp=0.0, num_tasks=4, cpu_seconds_noinput=400.0),
    ]
    return SchedulingInput.from_parts(cluster, Workload(jobs=jobs, data=data))


def lint_repo_models() -> List[Finding]:
    """Statically lint the three paper LP builders on a reference input."""
    from repro.core.assembly import ModelAssembler
    from repro.core.simple_task import identity_placement
    from repro.lint.model import lint_lips_model

    inp = _reference_input()
    findings: List[Finding] = []

    assembler = ModelAssembler(inp, include_xd=False, fixed_placement=identity_placement(inp))
    asm = assembler.build()
    asm.name = "simple-task"
    findings.extend(lint_lips_model(assembler, asm, "simple-task"))

    assembler = ModelAssembler(inp, include_xd=True)
    asm = assembler.build()
    asm.name = "co-offline"
    findings.extend(lint_lips_model(assembler, asm, "co-offline"))

    assembler = ModelAssembler(
        inp, include_xd=True, horizon=600.0, include_fake=True, epoch_bandwidth=True
    )
    asm = assembler.build()
    asm.name = "co-online"
    findings.extend(lint_lips_model(assembler, asm, "co-online"))

    return findings


def lint_all(paths: Optional[Iterable[Path]] = None) -> FlowReport:
    """Everything ``python -m repro lint`` runs, each file parsed once.

    With ``paths`` the per-module rules and the flow passes cover those
    files; without, they cover the installed package and the model rules
    lint the three shipped formulations too.
    """
    modules, findings = parse_paths(paths if paths is not None else default_source_paths())
    findings += _check_modules(modules)
    report = analyze(symbol_table(modules))
    findings += report.findings
    if paths is None:
        findings += lint_repo_models()
    report.findings = sorted(findings, key=lambda f: (f.location or "", f.line or 0, f.rule))
    return report
