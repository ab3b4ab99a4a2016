"""Independent references for the three benchmark queries.

Written against NumPy arrays and dicts only — no ``repro`` operator, engine
or ``Table`` method computes an expected value here, so a bug shared by the
compiler and its own ``reference_*`` helpers cannot hide.  An oracle returns
``(column names, rows)``; :func:`matches` compares a returned table against
it by column *name*, ignoring row order, with a relative float tolerance.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

#: Relative tolerance on float cells (integer cells compare exactly).
REL_TOL = 1e-6

#: The MPC backend carries fractions as 6-decimal fixed point (docs/: divisions
#: round to it, products of two fractions truncate to it).  The HHI is a sum
#: of squared fractions, so its oracle has to model the format: an exact float
#: HHI differs from the system's by a few 1e-6, i.e. by more than REL_TOL.
FIXED_POINT = 1_000_000

Expected = tuple[list[str], list[tuple]]


def hhi(trips: list[tuple[np.ndarray, np.ndarray]]) -> Expected:
    """Herfindahl-Hirschman index over per-party ``(companyID, price)`` columns."""
    company = np.concatenate([c for c, _ in trips])
    price = np.concatenate([p for _, p in trips])
    paid = price > 0
    ids, inverse = np.unique(company[paid], return_inverse=True)
    # Float sums of integer prices are exact far beyond any market here (2**53).
    revenue = np.bincount(inverse, weights=price[paid], minlength=len(ids)).astype(np.int64)
    market = int(revenue.sum())
    squared = 0
    for total in revenue.tolist():
        share = round(total / market * FIXED_POINT)
        squared += share * share // FIXED_POINT
    return ["hhi"], [(squared / FIXED_POINT,)]


def avg_score_by_zip(
    demographics: tuple[np.ndarray, np.ndarray],
    agencies: list[tuple[np.ndarray, np.ndarray]],
) -> Expected:
    """Per-ZIP total, count and average credit score of the card holders the
    regulator knows (inner join on ssn; an ssn held by two agencies counts twice)."""
    zip_of = dict(zip(demographics[0].tolist(), demographics[1].tolist()))
    total: dict[int, int] = defaultdict(int)
    count: dict[int, int] = defaultdict(int)
    for ssns, scores in agencies:
        for ssn, score in zip(ssns.tolist(), scores.tolist()):
            zip_code = zip_of.get(ssn)
            if zip_code is not None:
                total[zip_code] += score
                count[zip_code] += 1
    rows = [(z, total[z], count[z], total[z] / count[z]) for z in total]
    return ["zip", "total", "cnt", "avg_score"], rows


def sum_count_by_key(parts: list[tuple[np.ndarray, np.ndarray]]) -> Expected:
    """Per-key sum and row count over the union of per-party ``(k, v)`` columns."""
    total: dict[int, int] = defaultdict(int)
    count: dict[int, int] = defaultdict(int)
    for keys, values in parts:
        for k, v in zip(keys.tolist(), values.tolist()):
            total[k] += v
            count[k] += 1
    return ["k", "s", "n"], [(k, total[k], count[k]) for k in total]


def _cell_equal(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(float(got), want, rel_tol=REL_TOL, abs_tol=0.0)
    return got == want


def matches(table, expected: Expected) -> bool:
    """Whether ``table`` (a ``repro`` Table) holds exactly the expected rows.

    Columns are matched by name (extra or missing columns fail), rows are
    compared as sorted multisets so the MPC backend's shuffles do not matter.
    """
    names, want_rows = expected
    if sorted(table.schema.names) != sorted(names):
        return False
    columns = [table.column(name).tolist() for name in names]
    got_rows = sorted(zip(*columns))
    want_rows = sorted(want_rows)
    if len(got_rows) != len(want_rows):
        return False
    return all(
        _cell_equal(g, w)
        for got, want in zip(got_rows, want_rows)
        for g, w in zip(got, want)
    )
