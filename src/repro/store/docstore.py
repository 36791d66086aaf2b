"""Filesystem JSON document store — the MongoDB substitute (S4).

The paper stores datasets and CAP results in MongoDB because "MISCELA
returns a set of sets of sensors ... its format is JSON. Since RDBMS is
not suitable for MISCELA outputs, we select MongoDB" (§3.4). The
operations MISCELA-V actually needs are schemaless insert and
equality-filtered find — provided here as one directory per collection
with one JSON file per document. Atomicity is per-document via
write-to-temp + rename, which is all a single-node demo server needs.
A collection name is a directory and a document id a file name, so
names and ids outside ``[A-Za-z0-9_-]+`` raise ``ValueError`` before
any file is touched.
"""
from __future__ import annotations

import json
import os
import re
import uuid
from pathlib import Path
from typing import Iterator

# a collection name or document id becomes a path part: anything else could leave the store
_DOC_ID = re.compile(r"[A-Za-z0-9_-]+")


class DocumentStore:
    """A tiny document database: named collections of JSON documents."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _collection(self, name: str) -> Path:
        if not _DOC_ID.fullmatch(name):
            raise ValueError(f"bad collection name: {name!r}")
        path = self.root / name
        path.mkdir(exist_ok=True)
        return path

    def _path(self, collection: str, doc_id: str) -> Path:
        if not _DOC_ID.fullmatch(doc_id):
            raise ValueError(f"bad document id: {doc_id!r}")
        return self._collection(collection) / f"{doc_id}.json"

    def insert(self, collection: str, doc: dict, doc_id: str | None = None) -> str:
        """Insert (or overwrite) a document; returns its id."""
        doc_id = doc_id or uuid.uuid4().hex
        path = self._path(collection, doc_id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
        return doc_id

    def get(self, collection: str, doc_id: str) -> dict | None:
        path = self._path(collection, doc_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def find(self, collection: str, **equals) -> Iterator[dict]:
        """All documents whose top-level fields equal ``equals``."""
        for path in sorted(self._collection(collection).glob("*.json")):
            doc = json.loads(path.read_text())
            if all(doc.get(k) == v for k, v in equals.items()):
                yield doc

    def delete(self, collection: str, doc_id: str) -> bool:
        path = self._path(collection, doc_id)
        if path.exists():
            path.unlink()
            return True
        return False

    def count(self, collection: str) -> int:
        return len(list(self._collection(collection).glob("*.json")))
