"""Content-addressed on-disk cache for experiment-cell results.

A sweep service sees the same cells over and over: overlapping grids, a
re-run after an interrupt, the same load curve requested by two users.
Every cell is a pure function of its parameters and its deterministic
``cell_seed``, so its result can be addressed by *content*: a stable
SHA-256 fingerprint over the cell's identity (every parameter that can
change the outcome, including the seed), the hot-loop backend and the
package version.  Anything that could alter a metric changes the
fingerprint; the grid *position* (``cell.index``) deliberately does not,
so overlapping sweeps with different grid layouts share entries.

Entries are one JSON file each, written atomically (a temp file private
to the writing process and thread, then :func:`os.replace`) as the cell's
result lands — an interrupted sweep leaves only whole entries behind and
resumes from them, and concurrent writers of one entry never collide.  An
entry holds its fingerprint and the cell's metrics, and a lookup reads
only those two fields, so the entries of earlier builds (which also
recorded the cell identity, backend, format and version) still hit.  A
corrupted or truncated entry, or one with a metric that is not a JSON
number, is treated as a miss and recomputed, never trusted and never
fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import __version__ as PACKAGE_VERSION
from repro.backend import resolve_backend
from repro.experiments.spec import ExperimentCell

#: Bump when the on-disk entry layout or the metric semantics change in a
#: way the fingerprint's other components would not capture.
#: v2: cell identity covers the dynamic fault workload (``fault_rate`` /
#: ``repair_after``) and throughput rows may carry fault/SLO columns.
CACHE_FORMAT = 2

#: Environment variable naming the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-mesh``."""
    value = os.environ.get(ENV_CACHE_DIR)
    if value:
        return Path(value).expanduser()
    return Path("~/.cache/repro-mesh").expanduser()


#: The hashed text's encoder: compact, sorted keys.  ``json.dumps`` with
#: options builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The exact types a cached metric may have (``bool`` is an ``int``
#: subclass, so an entry holding ``true`` is not served).
_METRIC_TYPES = frozenset((int, float))


def _frame() -> Tuple[str, str]:
    """The hashed text around the cell identity, as ``(head, tail)``.

    An address hashes the compact sorted-key JSON of
    ``{"format", "backend", "version", "cell"}``: the entry format, the
    live backend and the package version, and the cell identity.  Only the
    cell varies within one cache, so the rest is rendered once.
    """
    context = {
        "format": CACHE_FORMAT,
        "backend": resolve_backend(),
        "version": PACKAGE_VERSION,
        "cell": None,
    }
    head, tail = _ENCODER.encode(context).split('"cell":null')
    return head + '"cell":', tail


def _fingerprint(cell: ExperimentCell, frame: Tuple[str, str]) -> str:
    text = frame[0] + _ENCODER.encode(cell.identity()) + frame[1]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_fingerprint(cell: ExperimentCell) -> str:
    """Stable content address of one cell's result.

    Hashes the cell identity (:meth:`ExperimentCell.identity` — every
    result-determining parameter plus the ``cell_seed``, grid position
    excluded), the live backend and the package version, so a backend
    switch or a release invalidates every entry instead of silently
    serving stale numbers.
    """
    return _fingerprint(cell, _frame())


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that existed but were unreadable/corrupt (counted *also* as
    #: misses — the cell is recomputed and the entry rewritten).
    invalid: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, int]:
        """Flat payload for sweep telemetry (lookups/hit_rate derivable)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
        }


@dataclass
class ResultCache:
    """Content-addressed result store under one directory.

    Instances are used from the *parent* process only — workers return
    results and the parent persists them.  Several instances may share one
    directory (the service gives each job its own): no locking is needed
    beyond the atomic per-entry replace of a per-writer temp file.
    """

    root: Union[str, Path] = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Read once, when the cache is built: its entries are addressed as
        # cell_fingerprint addressed them then, and a lookup reads no
        # environment.
        self._frame = _frame()

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    def fingerprint(self, cell: ExperimentCell) -> str:
        return _fingerprint(cell, self._frame)

    def path_for(self, cell: ExperimentCell) -> Path:
        """Entry path: two-level fan-out keeps directories small."""
        return Path(self._entry(self.fingerprint(cell)))

    def _entry(self, fp: str) -> str:
        """The entry path of fingerprint ``fp``, as a string: a warm sweep
        looks up every cell, and pathlib's joins cost more than opening and
        reading the entry."""
        return f"{self.root}{os.sep}{fp[:2]}{os.sep}{fp}.json"

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def get(self, cell: ExperimentCell) -> Optional[Dict[str, float]]:
        """The cached metrics of ``cell``, or ``None`` on a miss.

        A present-but-broken entry (truncated write from a killed process,
        disk corruption, by-hand edits) is *never* trusted and *never*
        fatal: it counts as ``invalid`` and as a miss, and the caller
        recomputes the cell, overwriting the entry.
        """
        fp = self.fingerprint(cell)
        try:
            with open(self._entry(fp), "rb", buffering=0) as handle:
                data = handle.read()
            payload = json.loads(data.decode("utf-8"))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        # Only the fingerprint and the metrics are read: an entry an older
        # build wrote, with its backend, cell, format and version fields,
        # hits like a lean one.  JSON object keys are always strings.
        metrics = payload.get("metrics") if type(payload) is dict else None
        if (
            type(metrics) is not dict
            or payload.get("fingerprint") != fp
            or not _METRIC_TYPES.issuperset(map(type, metrics.values()))
        ):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return metrics

    def put(self, cell: ExperimentCell, metrics: Dict[str, float]) -> Path:
        """Persist one cell's metrics atomically; returns the entry path.

        The temp file lives next to the final path so :func:`os.replace`
        stays a same-filesystem atomic rename; a crash mid-write leaves
        only the temp file (ignored by lookups) behind.  Its name carries
        the process and thread id, so two writers of one entry (two
        service jobs over overlapping specs, say) each rename their own
        file and the last rename wins with a whole entry.
        """
        fp = self.fingerprint(cell)
        path = self._entry(fp)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        payload = {"fingerprint": fp, "metrics": metrics}
        tmp = f"{directory}{os.sep}{fp}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        self.stats.writes += 1
        return Path(path)
