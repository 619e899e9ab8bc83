"""Tabular CPDs."""

import numpy as np
import pytest

from repro.bayes.cpd import TabularCPD
from repro.bayes.variables import Variable
from repro.errors import ModelError

CHILD = Variable("child", ("c0", "c1"))
P1 = Variable("p1", ("a", "b"))
P2 = Variable("p2", ("x", "y", "z"))


def test_valid_cpd_roundtrip():
    table = np.array([[0.3, 0.9], [0.7, 0.1]])
    cpd = TabularCPD(CHILD, (P1,), table)
    assert cpd.child == CHILD
    assert cpd.parents == (P1,)
    factor = cpd.to_factor()
    assert factor.scope_names == ("child", "p1")


def test_columns_must_sum_to_one():
    with pytest.raises(ModelError, match="sum"):
        TabularCPD(CHILD, (P1,), np.array([[0.3, 0.9], [0.6, 0.1]]))


def test_negative_entries_rejected():
    with pytest.raises(ModelError):
        TabularCPD(CHILD, (), np.array([1.5, -0.5]))


def test_shape_mismatch_rejected():
    with pytest.raises(ModelError):
        TabularCPD(CHILD, (P1,), np.array([0.5, 0.5]))


def test_duplicate_scope_rejected():
    with pytest.raises(ModelError):
        TabularCPD(CHILD, (CHILD,), np.full((2, 2), 0.5))


def test_column_lookup():
    table = np.zeros((2, 2, 3))
    table[0] = 0.25
    table[1] = 0.75
    cpd = TabularCPD(CHILD, (P1, P2), table)
    column = cpd.column({"p1": "b", "p2": 2})
    assert column.tolist() == [0.25, 0.75]
    with pytest.raises(ModelError):
        cpd.column({"p1": 0})


def test_uniform_helper():
    cpd = TabularCPD.uniform(CHILD, (P2,))
    assert cpd.table.shape == (2, 3)
    assert np.allclose(cpd.table, 0.5)


def test_table_read_only():
    cpd = TabularCPD.uniform(CHILD)
    with pytest.raises(ValueError):
        cpd.table[0] = 0.9
