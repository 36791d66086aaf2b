"""The program's names and call shapes that ``perfbench/`` relies on.

The benchmark reaches into the program from outside: a name it calls
that is renamed, or a call shape that no longer binds, turns its
per-layer metrics into ``null`` or stops the run. These checks need no
Spark session: they import each name and bind the benchmark's
arguments to its signature.
"""
import importlib
import inspect

import pytest

X = object()  # stands in for any argument value

CALLS = [
    # (module, attribute path, positional args, keyword args)
    ("repro.core.segmentation", "smooth_readings", (X, X), {}),
    ("repro.core.segmentation", "normalize_series", (X,), {}),
    ("repro.core.segmentation", "segment_series", (X, X), {}),
    ("repro.core.evolving", "extract_evolving", (X, X), {}),
    ("repro.core.evolving", "active_sensors", (X, X), {}),
    ("repro.core.spatial", "neighbor_edges", (X, X), {}),
    ("repro.core.coevolution", "coevolving_edges", (X, X, X), {"same_direction": X}),
    ("repro.core.components", "connected_components", (X, X), {}),
    ("repro.core.search", "search_component", (X, X, X, X, X), {"component": X}),
    ("repro.core.types", "SearchStats", (), {}),
    ("repro.server.api", "mine_caps", (X, X, X, X), {}),
    ("repro.server.api", "rows_to_caps", (X,), {}),
    ("repro.server.api", "MiscelaApi", (X, X), {}),
    ("repro.server.api", "MiscelaApi.upload", (X, X, X), {}),
    ("repro.server.api", "MiscelaApi.mine", (X, X, X), {}),
    ("repro.server.api", "MiscelaApi.correlated_sensors", (X, X, X, X), {}),
    ("repro.server.api", "MiscelaApi.timeseries_payload", (X, X, X, X, X), {}),
    ("repro.store.cache", "CapCache.get", (X, X, X), {}),
    ("repro.store.cache", "CapCache.put", (X, X, X, X), {}),
    ("repro.store.cache", "CapCache.invalidate", (X, X, X), {}),
    ("repro.store.datasets", "DatasetStore.load", (X, X, X), {}),
    ("repro.smartcity.schema", "write_csv_bundle", (X, X, X, X, X, X), {}),
    ("repro.smartcity.generator", "santander", (X,), {"scale": X, "seed": X}),
    ("repro.smartcity.generator", "china6", (X,), {"scale": X, "seed": X}),
]


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,path,args,kwargs", CALLS,
                         ids=[f"{m}.{p}" for m, p, _, _ in CALLS])
def test_call_shape_binds(module, path, args, kwargs):
    # methods are looked up on the class, so ``self`` is the first arg
    inspect.signature(_resolve(module, path)).bind(*args, **kwargs)


def test_mine_response_fields():
    from repro.server.api import MineResponse

    fields = set(inspect.signature(MineResponse).parameters)
    assert fields >= {"caps", "from_cache", "timings", "stats"}


def test_mining_artifacts_caps_and_timings():
    from repro.core.miscela import MiningArtifacts

    fields = set(inspect.signature(MiningArtifacts).parameters)
    assert fields >= {"caps", "timings", "stats"}
