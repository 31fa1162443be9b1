"""Mutants of library functions, and the relations that kill them.

Each row names a function, one exact line of its source, the line that
replaces it, and the (suite, relation) pairs that must fail under the
mutant.  The old line must occur exactly once.  Most rows mutate a
function that builds its image unchecked, so a fault in it must surface as
a failed relation; the closed-form reflection's row shows that a check
whose operand other relations share still compares two routes.  The suite
runs to the end without an exception, and every kept witness replays the
failure on its own and passes on the library as written.
"""

import inspect
import textwrap

import pytest

from pathcrystal import bkinf, geom, iso, tropical
from pathcrystal.lattice import make_shape, point_from_json
from pathcrystal.suites import run_suite

MUTANTS = {
    # the column-(i+1) half of a unit step lands in the next row
    "kashiwara-next-row": (
        bkinf, "kashiwara",
        "entries[(row, i + 1)] -= step",
        "entries[(row + 1, i + 1)] = entries.get((row + 1, i + 1), 0) - step",
        [("iso", "step-intertwine"), ("weyl", "array-closed-form")],
    ),
    # the first moved row of each moved column m passes one unit to column m+1
    "trop-e-out-of-column": (
        tropical, "trop_e",
        "entries[key] += num - den",
        "first = key == column[0]; entries[key] += num - den - first; "
        "entries[key[0], key[1] + 1] = entries.get((key[0], key[1] + 1), 0) + first",
        [("iso", "step-intertwine")],
    ),
    # the closed-form reflection at i = 2 starts its row factors from the first one squared;
    # weyl shares each reflection among its relations, and the closed form must still see it
    "weyl-s-one-index": (
        geom, "weyl_s",
        "fvals = list(accumulate(steps, sr.mul, initial=first))",
        "fvals = list(accumulate(steps, sr.mul, "
        "initial=sr.mul(first, first) if i == 2 else first))",
        [("weyl", "geometric-closed-form")],
    ),
}

# a relation's check at a witness's point and parameters
REPLAY = {
    "step-intertwine": lambda x, w: (
        iso.omega(tropical.trop_e(x, w["i"], w["d"]))
        == bkinf.bk_e_steps(iso.omega(x), w["i"], w["d"])
    ),
    "geometric-closed-form": lambda x, w: geom.weyl_s(x, w["i"]) == geom.weyl_s_def(x, w["i"]),
    "array-closed-form": lambda b, w: (
        bkinf.weyl_s_tilde(b, w["i"]) == bkinf.bk_e_steps(b, w["i"], -bkinf.wt(b, w["i"]))
    ),
}


def replays(relation, witness):
    """The relation's verdict, read from the witness alone."""
    return REPLAY[relation](point_from_json(witness["point"]), witness)


def mutant(module, name, old, new):
    """``module.name`` recompiled with the one line ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, "the old line must occur exactly once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_relations_and_the_witnesses_replay(name, monkeypatch):
    module, function, old, new, killers = MUTANTS[name]
    shape = make_shape(5, 3)
    monkeypatch.setattr(module, function, mutant(module, function, old, new))
    kept = []
    for suite, relation in killers:
        check = {c.name: c for c in run_suite(suite, shape, 2, 1)}[relation]
        assert check.fails > 0, (suite, relation)
        for witness in check.witnesses:
            assert not replays(relation, witness)
            kept.append((relation, witness))
    monkeypatch.undo()
    assert kept and all(replays(relation, witness) for relation, witness in kept)
