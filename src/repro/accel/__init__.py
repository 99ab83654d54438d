"""Vectorized/incremental kernels behind the Remp hot paths.

Each kernel is the only product path for its stage and is byte-identical
to the paper-faithful reference it replaced.  Those references survive
only as test oracles (:mod:`repro.accel.reference`); the accel
equivalence suite and the stream/partition byte-equality oracles pin
the contract.  Each kernel times its stage (``kernel.*``) with
:func:`repro.obs.timed`, into the active run scope.
"""

from repro.accel.candidates import intern_signatures, score_candidates
from repro.accel.dominance import any_strict_dominator
from repro.accel.er_graph import accel_groups, relation_adjacency
from repro.accel.literals import LiteralScorer
from repro.accel.marginals import exact_marginal_map, matching_plan
from repro.accel.propagation import IncrementalPropagator

__all__ = [
    "IncrementalPropagator",
    "LiteralScorer",
    "accel_groups",
    "any_strict_dominator",
    "exact_marginal_map",
    "intern_signatures",
    "matching_plan",
    "relation_adjacency",
    "score_candidates",
]
