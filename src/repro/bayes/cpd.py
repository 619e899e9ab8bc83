"""Tabular conditional probability distributions."""

from __future__ import annotations

import numpy as np

from repro.bayes.factor import Factor
from repro.bayes.variables import Variable
from repro.errors import ModelError


class TabularCPD:
    """``P(child | parents)`` as a table.

    ``table`` has shape ``(child_card, *parent_cards)``; every column
    (fixing the parents) must sum to 1.
    """

    __slots__ = ("_child", "_parents", "_table")

    def __init__(
        self,
        child: Variable,
        parents: "tuple[Variable, ...] | list[Variable]",
        table: np.ndarray,
    ) -> None:
        parents = tuple(parents)
        names = [child.name] + [p.name for p in parents]
        if len(set(names)) != len(names):
            raise ModelError(f"CPD scope has duplicate variables: {names}")
        array = np.asarray(table, dtype=np.float64)
        expected = (child.cardinality,) + tuple(p.cardinality for p in parents)
        if array.shape != expected:
            raise ModelError(
                f"CPD table shape {array.shape} does not match "
                f"(child, *parents) cardinalities {expected}"
            )
        if np.any(array < 0):
            raise ModelError(f"CPD for {child.name!r} has negative entries")
        sums = array.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-8):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ModelError(
                f"CPD for {child.name!r} has columns not summing to 1 "
                f"(worst deviation {worst:.3g})"
            )
        self._child = child
        self._parents = parents
        self._table = array
        self._table.setflags(write=False)

    @property
    def child(self) -> Variable:
        return self._child

    @property
    def parents(self) -> "tuple[Variable, ...]":
        return self._parents

    @property
    def table(self) -> np.ndarray:
        return self._table

    def __repr__(self) -> str:
        parent_names = [p.name for p in self._parents]
        return f"TabularCPD({self._child.name!r} | {parent_names})"

    def to_factor(self) -> Factor:
        """The CPD as a factor over ``(child, *parents)``."""
        return Factor((self._child,) + self._parents, self._table)

    def column(self, parent_states: "dict[str, int | str]") -> np.ndarray:
        """Distribution over the child for one full parent assignment."""
        index: list = [slice(None)]
        for p in self._parents:
            if p.name not in parent_states:
                raise ModelError(f"missing parent state for {p.name!r}")
            value = parent_states[p.name]
            index.append(p.index_of(value) if isinstance(value, str) else int(value))
        return self._table[tuple(index)]

    @staticmethod
    def uniform(child: Variable, parents: "tuple[Variable, ...]" = ()) -> "TabularCPD":
        """A CPD assigning equal mass to every child state."""
        shape = (child.cardinality,) + tuple(p.cardinality for p in parents)
        table = np.full(shape, 1.0 / child.cardinality)
        return TabularCPD(child, parents, table)
