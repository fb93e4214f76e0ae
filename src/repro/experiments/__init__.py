"""Experiment drivers: one module per paper figure/table.

``EXPERIMENTS`` maps experiment ids to callables (every argument
defaulted) returning an
:class:`~repro.experiments.common.ExperimentResult` whose
``experiment_id`` is that id; ``benchmarks/figures.py`` and the
``examples/reproduce_figure.py`` script both dispatch through it.  It
lives in :mod:`repro.experiments.registry`, imported on first use: a
package that imported every driver would import ``serving`` before
``python -m repro.experiments.serving`` runs it again as ``__main__``.
"""

from repro.experiments.common import PAPER_REFERENCE, ExperimentResult


def __getattr__(name: str):
    if name == "EXPERIMENTS":
        from repro.experiments.registry import EXPERIMENTS
        return EXPERIMENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "PAPER_REFERENCE",
]
