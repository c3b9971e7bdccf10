"""Single source of the package version.

Lives in its own module (instead of ``repro/__init__``) so that deep
submodules — notably the study/record machinery, which stamps every
:class:`~repro.orchestration.study.RunRecord` with the version that
produced it — can import the version without importing the top-level
package mid-initialisation.  ``pyproject.toml`` reads the literal below
as the distribution's version, so it must stay a plain string.
"""

__version__ = "17.0.0"
