"""Workload generators and trace replay (evaluation Section 4).

The paper evaluates with microbenchmarks plus trace replay of real
applications.  We generate traces with the distributional properties the
paper states (see DESIGN.md for the substitution table) and replay them
through any of the three systems' client stubs:

- :mod:`repro.workloads.smallfile` — Figure 9/10 small-file ops
- :mod:`repro.workloads.bulk` — Figure 11/13 bulkread/bulkwrite
- :mod:`repro.workloads.btio` — NPB BTIO class-B I/O pattern (Figure 12)
- :mod:`repro.workloads.psm` — parallel Protein Sequence Matching
  (Figures 12 and 15)
- :mod:`repro.workloads.crawler` — Ask Jeeves crawler (Figure 14)

A hand-built trace is a :class:`Trace` filled with ``Trace.add``.
"""

from repro.workloads.replay import ReplayStats, replay
from repro.workloads.trace import Trace, TraceRecord

__all__ = ["Trace", "TraceRecord", "ReplayStats", "replay"]
