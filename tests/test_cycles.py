"""The calls of the derive path leave no reference cycle.

Each walk on that path keeps its per-call state in arguments, or in one
object made per call, and no nested function refers to itself.  So what a
call allocates is freed by reference counting when the call returns, and
none of it waits for the cycle collector.  A closure that calls itself
refers to its own cell, which makes one cycle per call: the
`derivation_from_json`, `dual_derivation` and `sense` of a derivation
each left one or more.
"""

import gc

from l2int.derivation import validate
from l2int.duality import dual_derivation
from l2int.meaning import canonical_variable_form, sense
from l2int.textio import derivation_from_json, derivation_to_json
from l2int.typecheck import check
from conftest import load_golden
from test_typecheck import _seeded

# Per call, what it does with one loaded derivation.  `infer_principal` is
# left out: the `syntax.metavars_of` that letters its scheme still walks
# through a closure that calls itself, as `syntax.alpha_key` and
# `syntax.substitute` do, and leaves one cycle per call.
CALLS = {
    "validate": lambda d: validate(d),
    "check": lambda d: check(d.concl.basis, d.concl.pol, d.concl.term, d.concl.type),
    "dual_derivation twice": lambda d: dual_derivation(dual_derivation(d)),
    "sense": lambda d: sense(d),
    "canonical_variable_form": lambda d: canonical_variable_form(d.concl.term),
    "derivation_to_json": lambda d: derivation_to_json(d),
}


def test_the_derive_path_leaves_no_cyclic_garbage():
    texts = [derivation_to_json(d) for d in load_golden() + _seeded(200, {})]
    gc.collect()
    gc.disable()
    try:
        ds = [derivation_from_json(text) for text in texts]
        assert gc.collect() == 0, "derivation_from_json"
        for name, call in CALLS.items():
            for d in ds:
                call(d)
            assert gc.collect() == 0, name
    finally:
        gc.enable()
