"""Live mutation subsystem: transactional writes over a serving dataset.

The :mod:`repro.live` package makes a frozen, read-optimised deployment
mutation-aware without giving up its read paths: committed transactions
patch delta overlays over the CSR data graph and the inverted index
(:mod:`~repro.live.delta_graph`, :mod:`~repro.live.delta_index`),
dirty-subject tracking (:mod:`~repro.live.dirty`) downgrades cache
invalidation from "every subject in the table" to exactly the Object
Summaries whose join trees reach a touched tuple, and registered
continual queries (:mod:`~repro.live.watch`) are re-ranked only when a
commit's token footprint overlaps theirs.  :class:`LiveState` ties the
pieces together under a :class:`ReadWriteLock` whose contract — readers
see pre- or post-commit state, never a torn middle — is what the hammer
suite pins.
"""

from repro.live.delta_graph import LiveAdjacency, LiveDataGraph
from repro.live.delta_index import LiveInvertedIndex, row_tokens
from repro.live.dirty import dirty_subjects
from repro.live.locks import ReadWriteLock
from repro.live.state import APPLY_FAULT_SITE, LiveCommit, LiveState
from repro.live.watch import MAX_NOTIFICATIONS, Watch, WatchRegistry

__all__ = [
    "APPLY_FAULT_SITE",
    "LiveAdjacency",
    "LiveCommit",
    "LiveDataGraph",
    "LiveInvertedIndex",
    "LiveState",
    "MAX_NOTIFICATIONS",
    "ReadWriteLock",
    "Watch",
    "WatchRegistry",
    "dirty_subjects",
    "row_tokens",
]
