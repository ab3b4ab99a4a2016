"""Columnar vectorized execution engine.

The subsystem has three layers:

* :mod:`repro.exec.batch` — :class:`ColumnBatch`, the mask-carrying
  columnar data representation;
* :mod:`repro.exec.kernels` — pure NumPy kernels (vectorized compare /
  bool / map, mask filters, hash join, scatter-reduce group-by), bit-identical
  to the ``Table`` reference methods;
* :mod:`repro.exec.engine` — :class:`ColumnarBackend`, the one cleartext
  engine, built from those kernels; it tallies its work, and
  :mod:`repro.model.prices` prices the tally.

See ``docs/executor.md``.
"""

from __future__ import annotations

from repro.exec.batch import ColumnBatch
from repro.exec.engine import ColumnarBackend

__all__ = [
    "ColumnBatch",
    "ColumnarBackend",
]

