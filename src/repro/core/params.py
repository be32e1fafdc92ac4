"""What a Sorrento deployment varies.

The rule: a field is here iff some file other than this one sets it — an
experiment, a benchmark driver, an ablation or a test.  A value nothing
sets (the paper's fixed numbers, the substrate's calibration charges of
DESIGN.md §1) is a named constant in the module whose model it
calibrates, read directly: ``core/migration.py`` (trigger and α),
``core/location.py`` (purge age, the provider daemon's CPU charges,
client location cache), ``core/locality.py``, ``core/placement.py``,
``core/layout.py`` (``ATTACH_MAX``), ``core/namespace.py``,
``core/client/{io,versioning,stub,router}.py``, and
``runtime/service.py`` (``RPC_DEADLINE``).
``tests/test_architecture.py`` fails on a field nothing sets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SorrentoParams:
    """Deployment-wide configuration knobs."""

    # --- membership (Section 3.3) ---
    heartbeat_interval: float = 1.0          # announcement period
    # death after 5 missed intervals: DEATH_FACTOR in membership.py (paper)

    # --- data location (Section 3.4) ---
    refresh_cycle: float = 900.0             # paper: 15 minutes
    join_refresh_delay_max: float = 20.0     # paper: random delay <= 20 s
    ring_vnodes: int = 64

    # --- versioning (Section 3.5) ---
    shadow_ttl: float = 300.0                # shadow expiration window
    keep_versions: int = 2                   # consolidation retention
    commit_grant_ttl: float = 5.0            # namespace commit-lock expiry

    # --- replication (Section 3.6) ---
    default_degree: int = 1
    eager_propagation: bool = False          # paper default: lazy
    repair_delay: float = 20.0               # grace before re-replication
    repair_cooldown: float = 30.0            # per-(segment,target) backoff
    repair_grace: float = 25.0               # entry maturity before degree
    #                                          repair (avoids acting on a
    #                                          partially-refreshed view)
    repair_bandwidth: float = 4e6            # per-node average repair rate
    #                                          (bytes/s): keeps recovery
    #                                          traffic from starving clients

    # --- placement & migration (Section 3.7) ---
    default_alpha: float = 0.5               # paper
    migration_interval: float = 60.0         # paper: decision every minute
    home_boost_enabled: bool = True
    segment_affinity: float = 0.85           # probability a growing file's
    #                                          next segment stays with the
    #                                          previous one (keeps a file's
    #                                          data together; migration is
    #                                          the corrective force)

    # --- locality-driven policy (Section 3.7.2) ---
    locality_min_samples: int = 20

    # --- provider storage engine (page cache + disk scheduler) ---
    cache_bytes: int = 0                     # per-provider page-cache size;
    #                                          0 disables the engine entirely
    #                                          (the seed's raw-disk path, kept
    #                                          as the default so recorded
    #                                          goldens stay bit-identical)
    writeback: bool = True                   # ack writes from cache; False =
    #                                          write-through (cache reads only)
