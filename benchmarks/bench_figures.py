"""Table 1 and Figures 3-20 (see DESIGN.md experiment index).

One test per artefact, parametrised over the figure registry in its own
order, so a figure added to ``FIGURES`` is benched without a new file::

    pytest "benchmarks/bench_figures.py::test_figure[fig3]" --benchmark-only
"""

import pytest

from benchmarks.conftest import regenerate
from repro.analysis.figures import FIGURES


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure(figure_id, benchmark, store, profile):
    """Regenerate one artefact and assert the paper's qualitative claims."""
    regenerate(figure_id, benchmark, store, profile)
