"""Developer tooling: shared check reporting and the detlint analyzer.

Everything under ``repro.devtools`` is tooling *about* the codebase, not
part of the simulation itself: the shared :class:`~repro.devtools.reporting.Finding`
/ exit-code conventions every repository checker speaks, the library
backends of the ``scripts/check_*.py`` CI shims
(:mod:`~repro.devtools.docscheck`, :mod:`~repro.devtools.studycheck`),
and the :mod:`~repro.devtools.staticcheck` package — ``detlint``, the
AST-based determinism analyzer run by ``python -m repro lint``.

Nothing here is imported by the simulation packages; the devtools layer
depends on them (it parses and cross-checks their sources), never the
other way around.
"""

from repro.devtools.reporting import Finding, exit_code, print_findings, report

__all__ = ["Finding", "exit_code", "print_findings", "report"]
