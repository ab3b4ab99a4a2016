"""Columnar vectorized execution engine.

The subsystem has three layers:

* :mod:`repro.exec.batch` — :class:`ColumnBatch`, the mask-carrying
  columnar data representation;
* :mod:`repro.exec.kernels` — pure NumPy kernels (vectorized compare /
  bool / map, mask filters, hash join, sort-based group-by), bit-identical
  to the row engine's ``Table`` methods;
* :mod:`repro.exec.engine` — :class:`ColumnarBackend`, the cleartext
  engine built from those kernels (same interface as ``PythonBackend``).

``CompilationConfig.executor`` is the one way to pick the engine; see
``docs/executor.md``.
"""

from __future__ import annotations

from repro.exec.batch import ColumnBatch
from repro.exec.engine import ColumnarBackend, ColumnarCostModel

__all__ = [
    "ColumnBatch",
    "ColumnarBackend",
    "ColumnarCostModel",
]

