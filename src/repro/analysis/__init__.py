"""Experiment regeneration: every table and figure of the paper.

* :mod:`repro.analysis.cache` — memoises benchmark runs so that figures
  sharing the same runs (e.g. Figures 3/4/5 all come from the Workload R
  sweep) execute each configuration once.  A memo is given a runner,
  never a result store.
* :mod:`repro.analysis.figures` — one builder per paper artefact
  (``table1``, ``fig3`` ... ``fig20``), each returning a
  :class:`~repro.analysis.figures.FigureData` with the same series the
  paper plots.
* :mod:`repro.analysis.expectations` — the qualitative claims the paper
  makes about each figure, as checkable predicates.
* :mod:`repro.analysis.report` — ASCII rendering of figure data.
* :mod:`repro.analysis.sweep` — ``SweepSpec`` → ``run_sweep`` →
  ``SweepResult`` for studies beyond the paper's figures.  Import it by
  its full name: it runs its batch through :mod:`repro.orchestrator`,
  which imports this package, so it is not re-exported here.
"""

from repro.analysis.cache import ResultCache
from repro.analysis.figures import FIGURES, FigureData
from repro.analysis.expectations import check_expectations

__all__ = [
    "FIGURES",
    "FigureData",
    "ResultCache",
    "check_expectations",
]
