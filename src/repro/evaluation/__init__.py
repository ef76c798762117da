"""Regeneration of every table and figure in the paper's evaluation (§IV).

- :mod:`repro.evaluation.tables` — Table II (PRESENT-80 design areas) and
  Table III (S-box layer areas);
- :mod:`repro.evaluation.figures` — Fig. 4 (SIFA bias, naïve vs ours) and
  Fig. 5 (identical-fault DFA, naïve vs ours) data series;
- :mod:`repro.evaluation.report` — plain-text rendering in the paper's
  layout (tables and ASCII histograms).

Every function returns plain data (dataclasses over numpy arrays) so the
benchmarks can both print the paper-style artefact and assert its shape.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "Figure4Data",
    "Figure5Data",
    "Table2Row",
    "Table3Row",
    "figure4",
    "figure5",
    "render_histogram",
    "render_table",
    "table2",
    "table3",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "figure4": "repro.evaluation.figures",
        "Figure4Data": "repro.evaluation.figures",
        "figure5": "repro.evaluation.figures",
        "Figure5Data": "repro.evaluation.figures",
        "render_histogram": "repro.evaluation.report",
        "render_table": "repro.evaluation.report",
        "table2": "repro.evaluation.tables",
        "Table2Row": "repro.evaluation.tables",
        "table3": "repro.evaluation.tables",
        "Table3Row": "repro.evaluation.tables",
    },
)
