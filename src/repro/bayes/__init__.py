"""A compact discrete Bayesian-network engine (pgmpy substitute).

Implements exactly the machinery the paper's §4 needs — discrete factors,
tabular CPDs, DAG validation, exact inference by variable elimination
(the oracle the closed-form pose likelihood is pinned against), and a
two-slice dynamic Bayesian network with forward filtering and Viterbi
decoding — with no dependency beyond numpy.
"""

from repro.bayes.variables import Variable
from repro.bayes.factor import Factor
from repro.bayes.cpd import TabularCPD
from repro.bayes.network import BayesianNetwork
from repro.bayes.elimination import VariableElimination
from repro.bayes.dbn import TwoSliceDBN

__all__ = [
    "Variable",
    "Factor",
    "TabularCPD",
    "BayesianNetwork",
    "VariableElimination",
    "TwoSliceDBN",
]
