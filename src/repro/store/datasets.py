"""Dataset store: named datasets persisted as parquet + a metadata
document, so "we can use the dataset without re-uploading by specifying
the dataset name" (paper §3.2).
"""
from __future__ import annotations

import os
import re
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession

from repro.smartcity.schema import LOCATIONS_ARROW, LOCATIONS_SCHEMA, READINGS_ARROW, READINGS_SCHEMA
from repro.store.docstore import DocumentStore

# a dataset name becomes a directory under data/ and a document id
_NAME = re.compile(r"[A-Za-z0-9_-]+")


class DatasetStore:
    """Named (readings, locations) pairs on the local filesystem.

    Readings and locations are one parquet file each, written with
    pyarrow; attributes and upload metadata live in the ``datasets``
    collection of the document store.
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
        readings: pd.DataFrame,
        locations: pd.DataFrame,
        attributes: list[str],
        meta: dict | None = None,
    ) -> None:
        """Store validated relations under ``name``, cast to the column
        types of :mod:`repro.smartcity.schema`. Each file is written
        beside the old one and then moved over it, so a write that fails
        leaves the dataset stored before it whole."""
        base = self._base(name)
        base.mkdir(parents=True, exist_ok=True)
        staged = []
        try:
            for relation, pdf, schema in (("readings", readings, READINGS_ARROW),
                                          ("locations", locations, LOCATIONS_ARROW)):
                tmp = base / f".{relation}.parquet.tmp"
                staged.append((tmp, base / f"{relation}.parquet"))
                pq.write_table(pa.Table.from_pandas(pdf[schema.names], schema=schema,
                                                    preserve_index=False), tmp)
            for tmp, path in staged:
                os.replace(tmp, path)
        finally:
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
        self.docs.insert(
            "datasets",
            {"name": name, "attributes": attributes, "meta": meta or {}},
            doc_id=name,
        )

    def exists(self, name: str) -> bool:
        return self.docs.get("datasets", name) is not None

    def names(self) -> list[str]:
        return sorted(d["name"] for d in self.docs.find("datasets"))

    def files(self, name: str) -> tuple[Path, Path, dict]:
        """→ (readings file, locations file, metadata doc). Raises
        KeyError if absent and ValueError if ``name`` is not a valid
        dataset name."""
        base = self._base(name)
        doc = self.docs.get("datasets", name)
        if doc is None:
            raise KeyError(f"dataset {name!r} not uploaded")
        return base / "readings.parquet", base / "locations.parquet", doc

    def load(self, spark: SparkSession, name: str) -> tuple[DataFrame, DataFrame, dict]:
        """→ (readings, locations, metadata doc) as Spark frames over
        :meth:`files`; raises like it."""
        readings, locations, doc = self.files(name)
        # the §3.2 schemas are fixed: reading them from the parquet
        # footers would cost a Spark job per relation on every load
        return (
            spark.read.schema(READINGS_SCHEMA).parquet(str(readings)),
            spark.read.schema(LOCATIONS_SCHEMA).parquet(str(locations)),
            doc,
        )
