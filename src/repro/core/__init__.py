"""CAP mining core — the paper's primary contribution (MISCELA).

Layout mirrors MISCELA's four steps (paper §2.2):

1. :mod:`repro.core.segmentation` — linear segmentation noise filter.
2. :mod:`repro.core.evolving`     — evolving-timestamp extraction (ε)
   and the gather of each active sensor's evolving timestamps.
3. :mod:`repro.core.spatial` + :mod:`repro.core.coevolution` — η-neighbor
   graph and the pairwise supports that keep only co-evolving edges;
   :mod:`repro.core.components` — spatially connected sensor sets
   (union-find over those edges, on the driver).
4. :mod:`repro.core.search`       — per-component CAP search with
   anti-monotone support pruning.

:mod:`repro.core.miscela` wires the steps into :func:`mine_caps`, the one
mining entry point: steps 1–2 in Spark, then one gather of the evolving
timestamps, and steps 3–4 on the driver. Its ``prune_support`` /
``naive_spatial`` switches give Table 4's unpruned comparators.
"""
from repro.core.types import CAP, MiscelaParams  # noqa: F401
from repro.core.miscela import mine_caps  # noqa: F401
