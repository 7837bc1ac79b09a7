"""Feature encoding: raw control-flow features to numeric vectors.

Branch-taken and loop-iteration counters map directly to columns.  Call
sites are categorical — "each unique address represents a different control
flow" (paper §3.3) — so every (site, address) pair observed during
profiling becomes a one-hot column indicating whether that address was
called.  Addresses never seen during profiling encode as all-zeros for
their site, the honest behaviour of a fixed one-hot vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.programs.instrument import FeatureSite
from repro.programs.interpreter import RawFeatures

__all__ = ["FeatureColumn", "FeatureEncoder"]


@dataclass(frozen=True)
class FeatureColumn:
    """One column of the encoded feature matrix.

    Attributes:
        name: Human-readable column name (``site`` or ``site@address``).
        site: The control site this column derives from.
        kind: "branch", "loop", or "call".
        address: The one-hot address for call columns, ``None`` otherwise.
    """

    name: str
    site: str
    kind: str
    address: int | None = None


class FeatureEncoder:
    """Fits a column vocabulary from profiling data, then encodes vectors.

    The encoder is immutable once fitted; at run time encoding must be
    cheap and must not grow the vocabulary (the model was trained against
    a fixed set of columns).
    """

    def __init__(self, sites: Sequence[FeatureSite]):
        if not sites:
            raise ValueError("FeatureEncoder requires at least one site")
        labels = [s.site for s in sites]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate site labels in schema")
        self._sites = tuple(sites)
        self._columns: tuple[FeatureColumn, ...] | None = None
        # Per column: (site, call address, whether it is a call column),
        # what encode() reads for each column of every job.
        self._plan: tuple[tuple[str, int | None, bool], ...] | None = None

    @property
    def columns(self) -> tuple[FeatureColumn, ...]:
        self._require_fitted()
        assert self._columns is not None
        return self._columns

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @classmethod
    def from_columns(
        cls,
        sites: Sequence[FeatureSite],
        columns: Sequence[FeatureColumn],
    ) -> "FeatureEncoder":
        """Rebuild an already-fitted encoder (controller persistence)."""
        encoder = cls(sites)
        known = {s.site for s in sites}
        for column in columns:
            if column.site not in known:
                raise ValueError(
                    f"column {column.name!r} references unknown site"
                )
        encoder._set_columns(columns)
        return encoder

    def fit(self, samples: Iterable[RawFeatures]) -> "FeatureEncoder":
        """Build the column vocabulary from profiled feature records.

        Counter sites always get a column (a counter that never fires is a
        legitimate all-zero feature).  Call sites get one column per
        distinct address observed anywhere in ``samples``.
        """
        samples = list(samples)
        addresses: dict[str, set[int]] = {
            s.site: set() for s in self._sites if s.kind == "call"
        }
        for raw in samples:
            for site, addrs in raw.call_addresses.items():
                if site in addresses:
                    addresses[site].update(addrs)
        columns: list[FeatureColumn] = []
        for site in self._sites:
            if site.kind == "call":
                for address in sorted(addresses[site.site]):
                    columns.append(
                        FeatureColumn(
                            name=f"{site.site}@{address}",
                            site=site.site,
                            kind="call",
                            address=address,
                        )
                    )
            else:
                columns.append(
                    FeatureColumn(name=site.site, site=site.site, kind=site.kind)
                )
        self._set_columns(columns)
        return self

    def _set_columns(self, columns: Sequence[FeatureColumn]) -> None:
        self._columns = tuple(columns)
        self._plan = tuple(
            (column.site, column.address, column.kind == "call")
            for column in self._columns
        )

    def encode(self, raw: RawFeatures) -> np.ndarray:
        """Encode one feature record as a float vector."""
        plan = self._plan
        if plan is None:
            self._require_fitted()
        counters = raw.counters
        calls = raw.call_addresses
        return np.array(
            [
                (1.0 if address in calls.get(site, ()) else 0.0)
                if is_call
                else counters.get(site, 0.0)
                for site, address, is_call in plan
            ],
            dtype=float,
        )

    def encode_matrix(self, samples: Sequence[RawFeatures]) -> np.ndarray:
        """Encode many records as an (n_samples, n_columns) matrix."""
        self._require_fitted()
        if not samples:
            return np.zeros((0, self.n_columns))
        return np.stack([self.encode(raw) for raw in samples])

    def sites_for_columns(self, mask: Sequence[bool]) -> frozenset[str]:
        """Site labels behind the selected (True) columns.

        This is the bridge from model sparsity back to program slicing:
        the sites behind zero-coefficient columns need not be computed by
        the prediction slice (paper §3.3/§4.2 "feature selection").
        """
        self._require_fitted()
        if len(mask) != self.n_columns:
            raise ValueError(
                f"mask length {len(mask)} != column count {self.n_columns}"
            )
        return frozenset(
            column.site
            for column, selected in zip(self.columns, mask)
            if selected
        )

    def _require_fitted(self) -> None:
        if self._columns is None:
            raise RuntimeError("FeatureEncoder used before fit()")
