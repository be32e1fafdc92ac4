"""Monitoring, diagnosis and maintenance utilities.

The paper's prototype shipped "system monitoring, diagnosis and
maintenance utilities" alongside the core (Section 4).  This package is
that toolbox for the simulated cluster: :mod:`repro.tools.inspector` —
replica maps, consistency audits, orphan detection, balance reports.
"""

from repro.tools.inspector import ClusterInspector

__all__ = ["ClusterInspector"]
