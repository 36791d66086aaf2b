"""CAP result cache (paper §3.3, S7).

"We store the name of the dataset, parameters, and CAPs (i.e., a set of
sets of sensors) to the database. Before computing CAPs by MISCELA, our
system searches for CAPs with the same parameters and the name of the
dataset" — implemented as one JSON document per (dataset, parameters)
pair in the document store, keyed by the content hash from
:meth:`repro.core.types.MiscelaParams.cache_key`.

"For efficient interactive analysis" the cache keeps one in-memory slot:
the decoded, sorted CAPs of the last entry put or read, under its key. A
hit on that entry is served from the slot without touching the document,
and the slot also keeps answers derived from those CAPs (``clicks``: the
API's per-sensor map-click answers). :meth:`CapCache.drop` is the one
place that empties the slot and every derived answer: ``put`` and a get
of another entry replace it, and ``invalidate``, a miss and a re-upload
drop it, so a cold mine never runs while an old result is held.
"""
from __future__ import annotations

from dataclasses import asdict

from repro.core.types import CAP, MiscelaParams
from repro.store.docstore import DocumentStore

_COLLECTION = "cap_results"


class CapCache:
    """Cache of mining results keyed by (dataset name, parameters)."""

    def __init__(self, docs: DocumentStore):
        self.docs = docs
        self.hits = 0
        self.misses = 0
        self.drop()

    def drop(self) -> None:
        """Empty the slot and every answer derived from it (a re-upload
        calls this too)."""
        self._hold(None, ())

    def _hold(self, key: str | None, caps) -> None:
        """The one place the slot changes: new CAPs, no derived answers."""
        self._key = key
        self._caps: tuple[CAP, ...] = tuple(caps)
        self.clicks: dict[str, dict[str, list[str]]] = {}

    def get(self, dataset: str, params: MiscelaParams) -> list[CAP] | None:
        """The cached CAPs, sorted by sensors, as a new list; None on a
        miss, which also empties the slot."""
        key = params.cache_key(dataset)
        if key != self._key:
            self.drop()
            doc = self.docs.get(_COLLECTION, key)
            if doc is None:
                self.misses += 1
                return None
            self._hold(key, (CAP.from_doc(d) for d in doc["caps"]))
        self.hits += 1
        return list(self._caps)

    def put(self, dataset: str, params: MiscelaParams, caps: list[CAP]) -> str:
        """Store ``caps``; the slot then holds them."""
        self.drop()
        key = params.cache_key(dataset)
        ordered = sorted(caps, key=lambda c: c.sensors)
        doc_id = self.docs.insert(
            _COLLECTION,
            {
                "dataset": dataset,
                "params": asdict(params),
                "caps": [c.to_doc() for c in ordered],
            },
            doc_id=key,
        )
        self._hold(key, ordered)
        return doc_id

    def invalidate(self, dataset: str, params: MiscelaParams) -> bool:
        self.drop()
        return self.docs.delete(_COLLECTION, params.cache_key(dataset))
