"""Static verification of compiled plans and the serving concurrency lint.

The runtime replays liveness-pooled, precision-cast plans — loaded from
disk artifacts — into three serving tiers.  Every one of those
transformations (buffer pooling, elementwise fusion,
workspace carving, artifact deserialisation) can silently corrupt results
if a single invariant slips, and the only dynamic guard is a one-row
parity spot check on first serve.  This package turns the invariants into
machine-checked proofs:

* :func:`verify_spec` / :func:`verify_plan` — the plan analyses, run over
  a :class:`~repro.runtime.engine.PlanSpec` (no execution):
  lifetime/use-after-release checking, dtype-flow audit,
  fusion legality, and workspace-carving layout (see
  :mod:`repro.runtime.verify.plan` for the rule catalogue);
* :func:`verify_store` — audit every artifact in an
  :class:`~repro.runtime.ArtifactStore`, one report per plan;
* :func:`lint_paths` — the AST concurrency lint over serving code: lock
  acquisition order, blocking calls under locks, process spawn-safety
  (see :mod:`repro.runtime.verify.lint`);
* ``python -m repro.runtime.verify <artifact-dir|checkpoint>`` — the CLI
  that audits a whole store (or a checkpoint's artifact sidecar) and
  reports per-plan verdicts; ``--lint <path>`` runs the serving lint.

Setting :data:`VERIFY_ENV_VAR` (``REPRO_RUNTIME_VERIFY=1``) engages the
plan analyses at the two trust boundaries: every fresh compile
(:class:`~repro.runtime.CompiledModel` raises :class:`VerifyError` on a
finding — a compiler bug must never serve) and every artifact read from
disk (:meth:`~repro.runtime.ArtifactStore.load` rejects the artifact with
an :class:`~repro.runtime.ArtifactError`, so callers fall back to a fresh,
verified compile).  Verification is a one-time, per-plan cost at compile
or load — nothing runs on the request hot path.

All findings are structured :class:`Diagnostic` records (rule id, step
indices, byte ranges), never asserts.
"""

from __future__ import annotations

import os

from .lint import (
    CANONICAL_LOCK_ORDER,
    LINT_RULES,
    lint_paths,
    lint_source,
)
from .plan import (
    PLAN_RULES,
    Diagnostic,
    VerifyError,
    VerifyReport,
    storage_layout,
    verify_plan,
    verify_spec,
    verify_store,
)

__all__ = [
    "CANONICAL_LOCK_ORDER",
    "Diagnostic",
    "LINT_RULES",
    "PLAN_RULES",
    "VERIFY_ENV_VAR",
    "VerifyError",
    "VerifyReport",
    "lint_paths",
    "lint_source",
    "storage_layout",
    "verify_enabled",
    "verify_plan",
    "verify_spec",
    "verify_store",
]

#: Environment variable engaging plan verification at compile and artifact
#: load ("1"/"true"/"yes"/"on" enable; unset or anything else disables).
VERIFY_ENV_VAR = "REPRO_RUNTIME_VERIFY"


def verify_enabled() -> bool:
    """Whether the ``REPRO_RUNTIME_VERIFY`` gate is switched on."""
    return os.environ.get(VERIFY_ENV_VAR, "").strip().lower() in ("1", "true", "yes", "on")
