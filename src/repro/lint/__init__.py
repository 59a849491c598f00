"""Static analysis for the LiPS reproduction: ``repro.lint``.

One run, three kinds of rule, one finding vocabulary
(:mod:`repro.lint.findings`):

* :mod:`repro.lint.rules` — per-module AST rules (``AST001``–``AST004``)
  over scheduler/simulator source;
* :mod:`repro.lint.flow` — whole-program passes (``FLOW001``/``002``/
  ``103``/``201``) over a symbol table and call graph built from the same
  parsed trees;
* :mod:`repro.lint.model` — a structural linter over LP models
  (``LM…``/``LIPS…`` rules) that catches malformed formulations without
  running a solver.

:func:`lint_all` (:mod:`repro.lint.runner`) drives all three.  CLI:
``python -m repro lint [PATH…] [--format text|json]``; the model rules run
when no PATH is given.
"""

from __future__ import annotations

from repro.lint.findings import Finding, Severity, errors, render_text
from repro.lint.model import ModelProfile, lint_lips, lint_lips_model, lint_model
from repro.lint.runner import lint_all, lint_paths, lint_repo_models, lint_source

__all__ = [
    "Finding",
    "ModelProfile",
    "Severity",
    "errors",
    "lint_all",
    "lint_lips",
    "lint_lips_model",
    "lint_model",
    "lint_paths",
    "lint_repo_models",
    "lint_source",
    "render_text",
]
