"""All Sorrento tunables in one place.

Values marked "paper" are stated in the text; the rest are calibration
constants for the simulated substrate (documented in DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.policy import RPC_DEADLINE, CallPolicy

MB = 1 << 20


@dataclass
class SorrentoParams:
    """Deployment-wide configuration knobs."""

    # --- membership (Section 3.3) ---
    heartbeat_interval: float = 1.0          # announcement period
    # death after 5 missed intervals: DEATH_FACTOR in membership.py (paper)

    # --- data location (Section 3.4) ---
    refresh_cycle: float = 900.0             # paper: 15 minutes
    join_refresh_delay_max: float = 20.0     # paper: random delay <= 20 s
    purge_age_factor: float = 2.5            # purge entries older than
    #                                          factor x refresh_cycle
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
    migrate_alpha_io: float = 0.8            # paper: hot migration
    migrate_alpha_space: float = 0.3         # paper: cold migration
    migration_interval: float = 60.0         # paper: decision every minute
    migration_top_fraction: float = 0.10     # paper: highest 10%
    migration_sigma: float = 3.0             # paper: mean + 3 sigma
    small_segment_bytes: int = 64 * 1024     # home-host 3N boost threshold
    home_boost_enabled: bool = True
    migrations_per_round: int = 4            # segments moved per decision
    segment_affinity: float = 0.85           # probability a growing file's
    #                                          next segment stays with the
    #                                          previous one (keeps a file's
    #                                          data together; migration is
    #                                          the corrective force)

    # --- locality-driven policy (Section 3.7.2) ---
    locality_threshold: float = 0.6          # must be > 0.5 (paper)
    locality_history: int = 1000             # accesses kept per segment (paper)
    locality_segments: int = 1000            # segments tracked (paper)
    locality_min_samples: int = 20

    # --- attached small files (Section 3.2) ---
    attach_max: int = 60 * 1024              # paper: 60 KB

    # --- client caching & vectored I/O ---
    loc_cache_enabled: bool = True           # per-client location cache
    loc_cache_ttl: float = 30.0              # owner/version entry lifetime
    loc_cache_capacity: int = 4096           # entries per client
    meta_cache_enabled: bool = True          # index-segment metadata,
    #                                          version-gated (exact match
    #                                          against the namespace entry)
    meta_cache_ttl: float = 60.0
    meta_cache_capacity: int = 256
    vectored_io: bool = True                 # one seg_read_vec/seg_write_vec
    #                                          per owner instead of one RPC
    #                                          per layout piece

    # --- namespace sharding (routed metadata API) ---
    ns_shard_vnodes: int = 16                # vnodes/shard on the prefix ring
    #                                          (client snapshot and the
    #                                          authoritative map must agree)
    ns_route_cache_ttl: float = 30.0         # client prefix->shard routes,
    ns_route_cache_capacity: int = 4096      # keyed by (epoch, prefix)
    ns_redirect_limit: int = 4               # EWRONGSHARD hops before the
    #                                          error surfaces to the app

    # --- provider storage engine (page cache + disk scheduler) ---
    cache_bytes: int = 0                     # per-provider page-cache size;
    #                                          0 disables the engine entirely
    #                                          (the seed's raw-disk path, kept
    #                                          as the default so recorded
    #                                          goldens stay bit-identical)
    page_size: int = 16 * 1024               # cache page granularity
    writeback: bool = True                   # ack writes from cache; False =
    #                                          write-through (cache reads only)
    flush_interval: float = 0.5              # background flusher period
    dirty_watermark: float = 0.25            # dirty fraction that wakes the
    #                                          flusher early
    readahead_pages: int = 2                 # extra pages on sequential miss

    # --- calibration: CPU charges (reference-GHz-seconds) ---
    ns_op_cpu: float = 6e-4                  # ~1300 ops/s on a Cluster A node
    provider_op_cpu: float = 3e-4            # per request, user-level daemon
    provider_byte_cpu: float = 2e-8          # per byte through the daemon
    client_op_cpu: float = 1e-4              # client stub bookkeeping

    # --- namespace durability ---
    ns_checkpoint_interval: float = 300.0

    # --- RPC behaviour ---
    rpc_timeout: float = RPC_DEADLINE        # paper: Figure 13's 5 s deadline
    open_rtts: int = 2                       # paper: 2 TCP roundtrips to open
    close_rtts: int = 3                      # paper: 3 TCP roundtrips to close

    def rpc_policy(self, attempts: int = 1, backoff: float = 0.0) -> CallPolicy:
        """The deployment's call policy for the service runtime."""
        return CallPolicy(timeout=self.rpc_timeout, attempts=attempts,
                          backoff=backoff)
