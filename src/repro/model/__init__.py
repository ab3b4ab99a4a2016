"""The cost model: one definition of every count and every price.

The reproduction cannot run the paper's testbed, so the engines *count* the
work they perform and a price list converts the counts into simulated
seconds.  Everything that defines a count or a price lives here, in layers
that only look downwards:

================  =======================================================
``counters``       what is counted: ``CostMeter`` / ``NetworkStats`` for
                   the share engine, ``CleartextWork`` for the cleartext one
``steps``          the one formula of every protocol step — what the share
                   engine charges (``engine.charge(<step>_meter(...))``)
``operators``      the relational operators, composed from the steps in
                   the order :mod:`repro.mpc.protocols` runs them
``prices``         the price lists: Sharemind, Obliv-C, ObliVM, Python, Spark
``estimator``      ``PlanEstimator``: operator meters x row estimates x prices
================  =======================================================

An estimated and an executed plan can therefore disagree about row counts
only, never about a formula (``tests/test_estimates.py``).  The package
depends on :mod:`repro.core` and :mod:`repro.data` only; executing modules
import ``counters``, ``steps`` and their price lists, never ``operators`` or
``estimator`` (``tests/test_public_api.py``) — which is also why nothing is
imported here: the estimator needs the compiler, whose runtime needs the
counters.
"""
