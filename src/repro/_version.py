"""Single source of the package version.

Lives in its own module (instead of ``repro/__init__``) so that deep
submodules — notably the study/record machinery, which stamps every
:class:`~repro.orchestration.study.RunRecord` with the version that
produced it — can import the version without importing the top-level
package mid-initialisation.
"""

__version__ = "11.0.0"
