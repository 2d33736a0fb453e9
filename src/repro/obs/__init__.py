"""``repro.obs`` -- the run ledger: durable observability across runs.

Where :mod:`repro.telemetry` answers "what happened inside this run",
this package answers "how does this run compare to every other run":

* :mod:`~repro.obs.phases` decomposes every request into the latency
  phases the paper's credibility rests on (DNS -> connect -> TLS ->
  TTFB -> page-complete), keyed by policy x protocol x cohort;
* :mod:`~repro.obs.ledger` writes one canonical, shard-deterministic
  run record per invocation (config fingerprint, seed, git describe,
  phase histograms, headline paper metrics, SLO verdicts);
* :mod:`~repro.obs.slo` parses the declarative ``slo.toml`` gate file
  and evaluates it against a record;
* :mod:`~repro.obs.report` renders a record as an ASCII or Markdown
  dashboard (``repro report``);
* :mod:`~repro.obs.compare` produces per-metric regression verdicts
  between two records with noise-floor thresholds (``repro compare``,
  exit 0 clean / 1 regressed / 2 incomparable -- CI-gateable);
* :mod:`~repro.obs.heartbeat` is the live stderr progress line for
  long runs (rate-limited, off when stderr is not a TTY).

Everything rides the existing telemetry plumbing (simulated clock,
the registry's shard-order ``absorb``), so instrumented runs stay
byte-identical across ``--jobs``.

Only the dependency-free phase recorder is re-exported here; import
the other modules directly (they pull in dataset/analysis layers).
"""

from repro.obs.phases import (  # noqa: F401
    NULL_PHASES,
    PHASES,
    PhaseRecorder,
)

__all__ = ["NULL_PHASES", "PHASES", "PhaseRecorder"]
