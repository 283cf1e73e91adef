"""Exporting regenerated figures as machine-readable artefacts.

Figure data can be written to JSON (for plotting with any external tool)
or CSV (one row per point).  The JSON layout is stable:

.. code-block:: json

    {
      "figure_id": "fig3",
      "title": "Throughput for Workload R",
      "x_label": "Number of Nodes",
      "y_label": "Throughput (Operations/sec)",
      "log_y": false,
      "series": {"cassandra": [[1, 25860.7], [4, 72156.8]]},
      "notes": []
    }
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from repro.analysis.figures import FigureData
from repro.analysis.provenance import stamp

__all__ = ["figure_to_json", "figure_to_csv", "write_figure",
           "load_figure"]


def figure_to_json(data: FigureData, config=None, seed=None) -> str:
    """The figure as a JSON document.

    Every export carries a ``provenance`` stamp (package version, plus
    the config hash and seed when the producing configuration is
    passed), so artefacts stay traceable across runs and refactors.
    """
    payload = {
        "figure_id": data.figure_id,
        "title": data.title,
        "x_label": data.x_label,
        "y_label": data.y_label,
        "log_y": data.log_y,
        "series": {name: [[x, y] for x, y in points]
                   for name, points in data.series.items()},
        "notes": list(data.notes),
    }
    return json.dumps(stamp(payload, config, seed), indent=2)


def figure_to_csv(data: FigureData) -> str:
    """The figure as CSV: ``series,x,y`` rows with a header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["series", data.x_label, data.y_label])
    for name, points in data.series.items():
        for x, y in points:
            writer.writerow([name, x, y])
    return buffer.getvalue()


def write_figure(data: FigureData, directory: str | Path,
                 formats: tuple[str, ...] = ("json", "csv"),
                 config=None, seed=None) -> list[Path]:
    """Write the figure under ``directory``; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = directory / f"{data.figure_id}.json"
        path.write_text(figure_to_json(data, config=config, seed=seed))
        written.append(path)
    if "csv" in formats:
        path = directory / f"{data.figure_id}.csv"
        path.write_text(figure_to_csv(data))
        written.append(path)
    return written


def load_figure(path: str | Path) -> FigureData:
    """Read a figure back from its JSON export."""
    payload = json.loads(Path(path).read_text())
    return FigureData(
        figure_id=payload["figure_id"],
        title=payload["title"],
        x_label=payload["x_label"],
        y_label=payload["y_label"],
        log_y=payload.get("log_y", False),
        series={name: [(float(x), float(y)) for x, y in points]
                for name, points in payload["series"].items()},
        notes=list(payload.get("notes", [])),
    )
