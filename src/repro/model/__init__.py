"""The cost model: one definition of every count and every price.

The reproduction cannot run the paper's testbed, so the engines *count* the
work they perform and a price list converts the counts into simulated
seconds.  Everything that defines a count or a price lives here, in layers
that only look downwards:

================  =======================================================
``counters``       what is counted: ``CostMeter`` / ``NetworkStats`` for
                   the share engine, ``CleartextWork`` for the cleartext one
``steps``          the one formula of every analytic protocol step — what
                   the share engine charges (``engine.charge(<step>_meter(...))``)
``prices``         the price lists (Sharemind, Obliv-C, ObliVM, Python, Spark)
                   and ``price``, the one function that prices a run's tally
``estimator``      ``PlanEstimator``: one run of the executor on row counts
================  =======================================================

There is no list of an operator's steps here, and no cleartext or crossing
formula: the estimator runs the whole plan — the executor itself, over the
engines of :mod:`repro.mpc.shape`, whose relations carry only a row count —
so an estimated and an executed plan can disagree about row counts only
(``tests/test_estimates.py``).  ``counters``, ``steps`` and ``prices``
depend on :mod:`repro.core` and :mod:`repro.data` only; executing modules
import them, never ``estimator``, and the estimator reaches up only for the
shape engines, the executor and the leakage report it returns
(``tests/test_public_api.py``) — which is also why nothing is imported
here: the estimator needs the compiler, whose runtime needs the counters.
"""
