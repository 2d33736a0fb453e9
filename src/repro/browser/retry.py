"""The unified retry/backoff policy for the browser engine.

One :class:`RetryPolicy` covers every failure class the engine ever
re-dials, so there is exactly one retry code path:

* **overload refusals** -- the edge answered the handshake with
  ``GOAWAY ENHANCE_YOUR_CALM`` (the traffic capacity model, which
  retries on the default linear backoff).
* **connection loss** -- a mid-flight teardown killed the transport
  under the request (injected faults, middlebox RSTs).  Off by
  default (``retry_connection_loss=False`` keeps the pre-chaos
  behaviour: the loss surfaces as a failed request); the chaos runner
  turns it on so blast-radius runs measure recovery, not just damage.

Backoff is deterministic: attempt ``n`` waits
``base * multiplier**(n-1)`` (``multiplier=1.0`` degenerates to the
legacy linear ``base * n`` schedule) plus an optional jitter drawn
from a dedicated seeded generator -- never from the context RNG that
drives TLS-version and speculative-connection draws, so enabling
retries cannot perturb an unrelated decision stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) the engine re-dials a failed request."""

    #: Retries allowed per request *per failure class* (overload
    #: GOAWAY and connection loss count separately, as the legacy
    #: GOAWAY path did).  0 disables retries.
    max_retries: int = 0
    #: Base delay before the first retry.
    backoff_base_ms: float = 120.0
    #: Growth factor between attempts.  1.0 reproduces the legacy
    #: linear schedule (``base * attempt``); 2.0 is classic
    #: exponential backoff.
    backoff_multiplier: float = 1.0
    #: Uniform jitter added on top of the deterministic delay, drawn
    #: from the engine's dedicated retry RNG.  0 disables the draw
    #: entirely (no generator state is consumed).
    jitter_ms: float = 0.0
    #: Whether mid-flight connection loss is retried at all.
    retry_connection_loss: bool = False
    #: Wall-clock (simulated) budget per request, measured from the
    #: fetch start; a retry that would begin past the budget is not
    #: attempted.  0 means unlimited.
    budget_ms: float = 0.0

    def backoff_ms(self, attempt: int,
                   rng: Optional[np.random.Generator] = None) -> float:
        """Delay before retry ``attempt`` (1-based)."""
        if self.backoff_multiplier == 1.0:
            delay = self.backoff_base_ms * attempt
        else:
            delay = (self.backoff_base_ms
                     * self.backoff_multiplier ** (attempt - 1))
        if self.jitter_ms > 0 and rng is not None:
            delay += float(rng.random()) * self.jitter_ms
        return delay

    def allows(self, attempt: int) -> bool:
        """Whether retry ``attempt`` (1-based) is within the limit."""
        return attempt <= self.max_retries

    def within_budget(self, elapsed_ms: float) -> bool:
        return self.budget_ms <= 0 or elapsed_ms < self.budget_ms


#: The chaos run's default retry policy (``repro chaos`` without retry
#: flags): two deterministic exponential retries with a little seeded
#: jitter, loss retries on.  Defined here rather than in
#: :mod:`repro.chaos` so the CLI can take its argparse defaults from
#: these fields without importing the chaos package at start-up.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_retries=2,
    backoff_base_ms=120.0,
    backoff_multiplier=2.0,
    jitter_ms=40.0,
    retry_connection_loss=True,
    budget_ms=0.0,
)
