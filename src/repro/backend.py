"""Scalar/vector backend selection for the hot-loop implementations.

Three of the steady-state hot loops — the labeling rounds of block
construction, the live circuit-reservation ledger and the per-probe
routing-decision engine — exist in two byte-identical implementations: a
pure-Python *scalar* reference loop and a numpy-vectorized *vector*
engine.  The vector engine is the default; the scalar path is kept as the
parity oracle (the randomized parity tests assert identical statuses,
block extents, reserved-link sets and probe decisions) and as the
benchmark baseline.  Both run on the same numpy-backed state — numpy is a
runtime dependency of the package either way.

The ``REPRO_BACKEND`` environment variable (``vector`` or ``scalar``) is
the one switch, and :func:`resolve_backend` its one reader; unset, the
backend is ``vector``.  A sweep's worker processes inherit the variable,
and the sweep pins the parent's choice into each shard it dispatches.  An
unknown value raises :class:`ValueError` naming the variable and the
allowed backends instead of silently running some default; the CLI
reports it as a usage error before any command runs.
"""

from __future__ import annotations

import os

VECTOR = "vector"
SCALAR = "scalar"
_BACKENDS = (VECTOR, SCALAR)

#: Environment variable selecting the backend.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend() -> str:
    """The selected backend: ``$REPRO_BACKEND``, normalized, else ``vector``."""
    value = os.environ.get(ENV_VAR)
    if value is None:
        return VECTOR
    name = value.strip().lower()
    if name not in _BACKENDS:
        raise ValueError(
            f"{ENV_VAR}={value!r} is not a known backend; "
            f"choose from {', '.join(_BACKENDS)}"
        )
    return name
