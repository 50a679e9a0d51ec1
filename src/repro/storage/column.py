"""A typed, numpy-backed column with optional dictionary encoding.

Numeric columns store values directly; string columns are dictionary-encoded
(int32 codes plus a value dictionary), mirroring how columnar warehouses store
low-cardinality strings.  All estimators operate on the *encoded* numeric view
(:attr:`Column.values`), so predicates over strings are evaluated on codes
after translating literals through the dictionary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.types import ColumnType


class Column:
    """One column of a table.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    ctype:
        Database type of the column.
    values:
        Numeric payload. For ``STRING`` columns these are dictionary codes.
    dictionary:
        For ``STRING`` columns, the list mapping code -> string.
    """

    def __init__(
        self,
        name: str,
        ctype: ColumnType,
        values: np.ndarray,
        dictionary: Sequence[str] | None = None,
    ):
        if ctype is ColumnType.STRING and dictionary is None:
            raise SchemaError(f"string column {name!r} requires a dictionary")
        if ctype is not ColumnType.STRING and dictionary is not None:
            raise SchemaError(f"non-string column {name!r} must not have a dictionary")
        self.name = name
        self.ctype = ctype
        self.values = np.asarray(values)
        if self.values.ndim != 1:
            raise SchemaError(f"column {name!r} payload must be 1-D")
        self.dictionary: tuple[str, ...] | None = (
            tuple(dictionary) if dictionary is not None else None
        )
        if self.dictionary is not None and len(self.values):
            top = int(self.values.max())
            if top >= len(self.dictionary):
                raise SchemaError(
                    f"column {name!r} has code {top} outside dictionary of "
                    f"size {len(self.dictionary)}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(cls, name: str, strings: Iterable[str]) -> "Column":
        """Dictionary-encode an iterable of strings."""
        materialized = list(strings)
        uniques = sorted(set(materialized))
        code_of = {s: i for i, s in enumerate(uniques)}
        codes = np.fromiter(
            (code_of[s] for s in materialized), dtype=np.int32, count=len(materialized)
        )
        return cls(name, ColumnType.STRING, codes, dictionary=uniques)

    @classmethod
    def from_ints(cls, name: str, values: Iterable[int]) -> "Column":
        return cls(name, ColumnType.INT, np.asarray(list(values), dtype=np.int64))

    @classmethod
    def from_floats(cls, name: str, values: Iterable[float]) -> "Column":
        return cls(name, ColumnType.FLOAT, np.asarray(list(values), dtype=np.float64))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def nbytes(self) -> int:
        """Approximate storage footprint, used by the I/O cost model."""
        base = int(self.values.nbytes)
        if self.dictionary is not None:
            base += sum(len(s) for s in self.dictionary)
        return base

    def distinct_count(self) -> int:
        """Exact NDV of the column (ground truth for NDV experiments)."""
        if len(self) == 0:
            return 0
        return int(np.unique(self.values).size)

    def encode_literal(self, literal: object) -> float:
        """Translate a query literal into the column's numeric domain.

        For string columns, unknown literals map to ``-1`` (a code that never
        occurs) so equality predicates on unseen values select nothing, which
        matches warehouse behaviour.
        """
        if self.ctype is ColumnType.STRING:
            assert self.dictionary is not None
            if not isinstance(literal, str):
                raise SchemaError(
                    f"column {self.name!r} is a string column; literal "
                    f"{literal!r} is not a string"
                )
            # Dictionary is sorted, so binary search preserves ordering
            # semantics for range predicates on strings too.
            idx = np.searchsorted(np.asarray(self.dictionary), literal)
            if idx < len(self.dictionary) and self.dictionary[int(idx)] == literal:
                return float(idx)
            return float(idx) - 0.5  # between codes: correct for ranges, miss for =
        return float(literal)  # type: ignore[arg-type]

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with rows gathered at ``indices``."""
        return Column(
            self.name, self.ctype, self.values[indices], dictionary=self.dictionary
        )

    # ------------------------------------------------------------------
    # Mutation (functional: returns a new column)
    # ------------------------------------------------------------------
    def append(self, values: "np.ndarray | Sequence[object]") -> "Column":
        """Return a new column with ``values`` appended.

        Numeric columns accept any numeric array (cast to the column's
        dtype).  String columns accept raw strings; values outside the
        current dictionary force a dictionary rebuild, in which case the
        *existing* codes are remapped so the dictionary stays sorted (the
        invariant :meth:`encode_literal`'s binary search relies on).
        """
        if self.ctype is ColumnType.STRING:
            assert self.dictionary is not None
            incoming = list(values)
            for item in incoming:
                if not isinstance(item, str):
                    raise SchemaError(
                        f"string column {self.name!r} append takes strings; "
                        f"got {item!r}"
                    )
            known = set(self.dictionary)
            if all(item in known for item in incoming):
                code_of = {s: i for i, s in enumerate(self.dictionary)}
                codes = np.fromiter(
                    (code_of[s] for s in incoming),
                    dtype=self.values.dtype,
                    count=len(incoming),
                )
                return Column(
                    self.name,
                    ColumnType.STRING,
                    np.concatenate([self.values, codes]),
                    dictionary=self.dictionary,
                )
            uniques = sorted(known | set(incoming))
            code_of = {s: i for i, s in enumerate(uniques)}
            remap = np.asarray(
                [code_of[s] for s in self.dictionary], dtype=self.values.dtype
            )
            codes = np.fromiter(
                (code_of[s] for s in incoming),
                dtype=self.values.dtype,
                count=len(incoming),
            )
            return Column(
                self.name,
                ColumnType.STRING,
                np.concatenate([remap[self.values], codes]),
                dictionary=uniques,
            )
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise SchemaError(f"column {self.name!r} append payload must be 1-D")
        if not np.issubdtype(arr.dtype, np.number):
            raise SchemaError(
                f"numeric column {self.name!r} append takes a numeric array; "
                f"got dtype {arr.dtype}"
            )
        return Column(
            self.name,
            self.ctype,
            np.concatenate([self.values, arr.astype(self.values.dtype)]),
        )
