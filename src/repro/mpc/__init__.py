"""MPC substrate.

This package implements, from scratch, the secure-computation substrate the
Conclave prototype drives externally:

* :mod:`repro.mpc.secretshare` — additive secret sharing over Z_2^64 with
  Beaver-triple multiplication (the arithmetic core of a Sharemind-style
  three-party backend).
* :mod:`repro.mpc.network` — a simulated party-to-party network that counts
  messages, bytes and communication rounds.
* :mod:`repro.mpc.oblivious` — oblivious sub-protocols: shuffle, bitonic
  sort, Laud-style oblivious indexing, and oblivious merge.
* :mod:`repro.mpc.protocols` — oblivious relational operators (project,
  filter, Cartesian-product join, Jónsson-style sort-based aggregation)
  executed over secret-shared tables.
* :mod:`repro.mpc.sharemind` — the Sharemind-like three-party MPC backend
  facade the plan executor drives.

What the substrate counts, and what each protocol step is charged, is
defined in :mod:`repro.model` (``counters``, ``steps``).
"""

from repro.mpc.secretshare import AdditiveSharing, SharedVector
from repro.mpc.network import Network
from repro.mpc.sharemind import SharemindBackend

__all__ = [
    "AdditiveSharing",
    "SharedVector",
    "Network",
    "SharemindBackend",
]
