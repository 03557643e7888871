"""File formats: iteration history, design vectors, interface and VTK export.

Everything is plain text. Floats are written with 17 significant digits so a
written-and-reread value is bitwise identical to the original.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .driver import HistoryRecord
from .enrich import CUT, MATERIAL, EnrichedModel
from .errors import ConfigError

_FLOAT = "%.17g"


@contextmanager
def _writing(path, **kw):
    """Text file opened for writing; an OSError becomes a ConfigError that
    names the path."""
    try:
        with Path(path).open("w", **kw) as fh:
            yield fh
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def write_history(path, records) -> None:
    with _writing(path, newline="") as fh:
        w = csv.DictWriter(fh, [f.name for f in fields(HistoryRecord)])
        w.writeheader()
        for r in records:
            row = {k: getattr(r, k) for k in w.fieldnames}
            w.writerow({k: _FLOAT % v if isinstance(v, float) else v
                        for k, v in row.items()})


def write_design(path, design: np.ndarray) -> None:
    """One design coefficient per line."""
    with _writing(path) as fh:
        np.savetxt(fh, design, fmt=_FLOAT, header="design", comments="")


def read_design(path) -> np.ndarray:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read design {path}: {err}") from None
    if not lines or lines[0].strip() != "design":
        raise ConfigError(f"{path} is not a design file")
    try:
        values = np.array([float(line) for line in lines[1:] if line.strip()])
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: design values must be finite")
    return values


def write_contour(path, model: EnrichedModel) -> None:
    """Material-boundary polyline segments, one cut parent per line.

    Each line holds ``x1 y1 x2 y2``: the straight interface segment joining
    the parent's two edge-intersection points.
    """
    segments = model.enr_coords[model.parent_slots].reshape(-1, 4)
    with _writing(path) as fh:
        np.savetxt(fh, segments, fmt=" ".join([_FLOAT] * 4))


def write_vtk(path, model: EnrichedModel, title: str = "igtop design") -> None:
    """Legacy ASCII VTK unstructured grid of the resolved geometry.

    Uncut elements are exported as-is; each cut parent is replaced by its
    three interface-conforming integration triangles. A cell scalar marks
    the phase (1 material, 0 void).
    """
    mesh = model.mesh
    points = np.vstack([mesh.nodes, model.enr_coords])
    uncut = model.element_state != CUT
    cells = np.vstack([mesh.elements[uncut], model.tiles.vertex_ids])
    phase = np.concatenate([model.element_state[uncut] == MATERIAL,
                            model.tiles.material])

    with _writing(path) as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title.replace("\n", " ")[:255] + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(points)} double\n")
        np.savetxt(fh, points, fmt=f"{_FLOAT} {_FLOAT} 0")
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        np.savetxt(fh, cells, fmt="3 %d %d %d")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        fh.write("5\n" * len(cells))
        fh.write(f"CELL_DATA {len(cells)}\n")
        fh.write("SCALARS material int 1\nLOOKUP_TABLE default\n")
        np.savetxt(fh, phase, fmt="%d")
