"""Load-aware data placement (Section 3.7.1).

Provider selection is randomized and weight-proportional.  A candidate's
weight combines its *load factor* and *storage factor*:

    f_l = min{10, 1/l - 1}
    f_s = min{10, log2(S / s)}
    w   = f_l^alpha * f_s^(1 - alpha)

with ``l`` the provider's CPU+I/O-wait load, ``S`` its available space,
``s`` the segment size, and ``alpha`` the favoritism knob (0 = all about
space, 1 = all about load).  The home-host optimization multiplies the
home host's weight by 3N for small segments (Section 3.7.2).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.membership import ProviderInfo

FACTOR_CAP = 10.0
SMALL_SEGMENT_BYTES = 64 * 1024   # home-host 3N boost applies up to here
_MIN_LOAD = 1e-4


def weights(
    candidates: Dict[str, ProviderInfo],
    seg_size: int,
    alpha: float,
    exclude: Optional[Iterable[str]] = None,
    home_host: Optional[str] = None,
    home_boost: float = 0.0,
) -> Tuple[List[str], List[float]]:
    """``(hosts, weights)`` of the candidates not excluded, in order: the
    module formula inline, f_l clamped to [0, 10], f_s 0 when the segment
    does not fit, 0^0 taken as 1 so alpha=0/1 ignores the dead factor.
    A bad ``seg_size`` or ``alpha`` raises at the first candidate."""
    excluded = set(exclude or ())
    hosts, out = [], []
    for host, info in candidates.items():
        if host in excluded:
            continue
        load = max(_MIN_LOAD, min(1.0, info.load))
        f_l = max(0.0, min(FACTOR_CAP, 1.0 / load - 1.0))
        if seg_size <= 0:
            raise ValueError("segment size must be positive")
        available = info.available
        f_s = 0.0 if available < seg_size else \
            min(FACTOR_CAP, math.log2(available / seg_size))
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        wl = f_l ** alpha if not (f_l == 0.0 and alpha == 0.0) else 1.0
        ws = f_s ** (1.0 - alpha) if not (f_s == 0.0 and alpha == 1.0) \
            else 1.0
        # Both factors at the cap can round one ulp past it.
        w = min(wl * ws, FACTOR_CAP)
        if host == home_host and home_boost > 0:
            w *= home_boost
        hosts.append(host)
        out.append(w)
    return hosts, out


def choose_provider(
    rng: random.Random,
    candidates: Dict[str, ProviderInfo],
    seg_size: int,
    alpha: float,
    exclude: Optional[Iterable[str]] = None,
    home_host: Optional[str] = None,
    home_boost: float = 0.0,
) -> Optional[str]:
    """Pick one provider, probability proportional to weight.

    ``exclude`` removes existing replica holders ("to increase data
    survivability ... store replicas of a segment on different
    providers").  ``home_boost`` multiplies the home host's weight
    (use 3N for small segments).  Returns None when no candidate fits.
    """
    hosts, ws = weights(candidates, seg_size, alpha, exclude, home_host,
                        home_boost)
    if not hosts:
        return None
    total = sum(ws)
    if total <= 0.0:
        # Everything overloaded/full by the formula: last resort, uniform
        # among candidates that can physically hold the segment.
        fitting = [h for h in hosts if candidates[h].available >= seg_size]
        return rng.choice(fitting) if fitting else None
    pick = rng.random() * total
    acc = 0.0
    for host, w in zip(hosts, ws):
        acc += w
        if pick <= acc:
            return host
    return hosts[-1]
