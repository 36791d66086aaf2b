"""Dataset store: named datasets persisted as parquet + a metadata
document, so "we can use the dataset without re-uploading by specifying
the dataset name" (paper §3.2).
"""
from __future__ import annotations

import re
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession

from repro.smartcity.schema import LOCATIONS_SCHEMA, READINGS_SCHEMA
from repro.store.docstore import DocumentStore

# a dataset name becomes a directory under data/ and a document id
_NAME = re.compile(r"[A-Za-z0-9_-]+")


class DatasetStore:
    """Named (readings, locations) pairs on the local filesystem.

    Readings/locations are parquet directories; attributes and upload
    metadata live in the ``datasets`` collection of the document store.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.docs = DocumentStore(self.root / "docs")

    def _base(self, name: str) -> Path:
        if not _NAME.fullmatch(name):
            raise ValueError(f"bad dataset name: {name!r}")
        return self.root / "data" / name

    def save(
        self,
        name: str,
        readings: DataFrame,
        locations: DataFrame,
        attributes: list[str],
        meta: dict | None = None,
    ) -> None:
        base = self._base(name)
        readings.write.mode("overwrite").parquet(str(base / "readings"))
        locations.write.mode("overwrite").parquet(str(base / "locations"))
        self.docs.insert(
            "datasets",
            {"name": name, "attributes": attributes, "meta": meta or {}},
            doc_id=name,
        )

    def exists(self, name: str) -> bool:
        return self.docs.get("datasets", name) is not None

    def names(self) -> list[str]:
        return sorted(d["name"] for d in self.docs.find("datasets"))

    def _doc(self, name: str) -> dict:
        doc = self.docs.get("datasets", name)
        if doc is None:
            raise KeyError(f"dataset {name!r} not uploaded")
        return doc

    def load(self, spark: SparkSession, name: str) -> tuple[DataFrame, DataFrame, dict]:
        """→ (readings, locations, metadata doc). Raises KeyError if
        absent and ValueError if ``name`` is not a valid dataset name."""
        base = self._base(name)
        doc = self._doc(name)
        # the §3.2 schemas are fixed: reading them from the parquet
        # footers would cost a Spark job per relation on every load
        return (
            spark.read.schema(READINGS_SCHEMA).parquet(str(base / "readings")),
            spark.read.schema(LOCATIONS_SCHEMA).parquet(str(base / "locations")),
            doc,
        )

    def load_locations(self, spark: SparkSession, name: str) -> DataFrame:
        """The locations relation alone, for views that need no readings;
        raises like :meth:`load`."""
        base = self._base(name)
        self._doc(name)
        return spark.read.schema(LOCATIONS_SCHEMA).parquet(str(base / "locations"))
