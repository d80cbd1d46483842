"""Deterministic finite tree automata: runs, boolean ops, model conversion."""

from repro.automata.dfta import AutomatonError, DFTA, State, make_dfta
from repro.automata.from_model import (
    automata_to_model,
    herbrand_relation_member,
    model_to_automata,
    model_to_automaton,
    shared_transitions,
)
from repro.automata.nfta import (
    NFTA,
    determinize,
    from_dfta,
    union_dfta,
    union_nfta,
)
from repro.automata.ops import (
    complement,
    complete,
    dense_complete,
    dense_product,
    difference,
    equivalent,
    intersection,
    minimize_1d,
    product,
    subset,
    symmetric_difference,
    trim,
    union,
)

__all__ = [
    "AutomatonError",
    "DFTA",
    "NFTA",
    "determinize",
    "from_dfta",
    "union_dfta",
    "union_nfta",
    "State",
    "automata_to_model",
    "complement",
    "complete",
    "dense_complete",
    "dense_product",
    "difference",
    "equivalent",
    "herbrand_relation_member",
    "intersection",
    "make_dfta",
    "minimize_1d",
    "model_to_automata",
    "model_to_automaton",
    "product",
    "shared_transitions",
    "subset",
    "symmetric_difference",
    "trim",
    "union",
]
