"""Browser models.

Reimplements the coalescing behaviours the paper verified by source
inspection and testing (§2.3):

* :class:`ChromiumPolicy` -- IP-based coalescing against the single
  *connected* address only;
* :class:`FirefoxPolicy` -- IP-based coalescing with transitivity over
  the cached *available* address set, plus ORIGIN-frame support (the
  only browser with it);
* :class:`IdealOriginPolicy` -- the §6.8 recommendation: trust
  certificate + ORIGIN without re-querying DNS.

The :class:`BrowserEngine` loads :class:`~repro.web.page.WebPage`
dependency graphs over the simulated network and emits HAR archives,
playing the role WebPageTest + Chrome played in §3.1.
"""

from repro.browser.policy import (
    CoalescingPolicy,
    ConnectionFacts,
    ChromiumPolicy,
    FirefoxPolicy,
    IdealOriginPolicy,
    NoCoalescingPolicy,
    POLICY_FACTORIES,
    policy_by_name,
)
from repro.browser.pool import (
    ConnectionPool,
    PoolStats,
)
from repro.browser.cache import BrowserCache
from repro.browser.engine import BrowserContext, BrowserEngine

__all__ = [
    "CoalescingPolicy",
    "ConnectionFacts",
    "ChromiumPolicy",
    "FirefoxPolicy",
    "IdealOriginPolicy",
    "NoCoalescingPolicy",
    "POLICY_FACTORIES",
    "policy_by_name",
    "ConnectionPool",
    "PoolStats",
    "BrowserCache",
    "BrowserContext",
    "BrowserEngine",
]
