"""Equations (7)–(9) as a fold equal the materialising spec, bit for bit.

:class:`repro.db.cost.CardinalityPreference` composes each fragment's key
from its children's ``(cost, ReducedSz, reducing variables)`` states, and
:meth:`repro.db.cost.CardinalityCostModel.decomposition_cost` walks the
materialised decomposition: it stays the executable spec.  Over the six
benchmark queries (ConCov at the registry width, top-10 ranking) at scales
0.3 and 1:

* every fragment Algorithm 2 or the enumerator evaluates has a composed key
  ``==`` the spec's cost of the materialised fragment — exact float
  equality, because the fold adds the same terms in the same order;
* ``optimal`` and ``enumerate`` return byte-identical payloads under the
  fold and under the spec ``CostPreference(model.decomposition_cost)``;
* on a small query built for it, the top 100 agree with the spec only
  because the enumerator classes options by ``(ReducedSz, reducing
  variables − C)``: classing by ``∩ S``, or without ReducedSz, reorders
  them.
"""

import json

import pytest

from repro.core.candidate_bags import SoftBagGenerator
from repro.core.certify import decomposition_to_payload
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.enumerate import CTDEnumerator
from repro.core.preferences import CostPreference
from repro.db.cost import CardinalityPreference, make_cost_preference
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.workloads.registry import benchmark_queries

CASES = [
    pytest.param(entry, scale, id=f"{entry.name}-{scale}")
    for entry in benchmark_queries()
    for scale in (0.3, 1)
]


def solve(hypergraph, bags, width, preference):
    """Payloads of the optimum and the top 10, and the two evaluators."""
    constraint = ConnectedCoverConstraint(hypergraph, width)
    solver = ConstrainedCTDSolver(hypergraph, bags, constraint, preference)
    optimum = solver.solve()
    enumerator = CTDEnumerator(
        hypergraph, bags, constraint=constraint, preference=preference
    )
    top = enumerator.enumerate(limit=10)
    payloads = json.dumps([decomposition_to_payload(d) for d in [optimum, *top]])
    return payloads, (solver.core.evaluator, enumerator.core.evaluator)


@pytest.mark.parametrize("entry,scale", CASES)
def test_fold_matches_the_spec(entry, scale):
    database, query = entry.load(scale=scale)
    hypergraph = query.hypergraph()
    bags = SoftBagGenerator(hypergraph, entry.width).candidate_bags()
    fold = make_cost_preference("cardinalities", query, database)
    assert isinstance(fold, CardinalityPreference)
    model = fold.model

    payloads, evaluators = solve(hypergraph, bags, entry.width, fold)
    keyed = 0
    for evaluator in evaluators:
        for fragment, (key, _) in evaluator._state.items():
            assert key == model.decomposition_cost(evaluator.materialise(fragment))
            keyed += 1
    assert keyed >= 10

    spec = CostPreference(model.decomposition_cost)
    assert solve(hypergraph, bags, entry.width, spec)[0] == payloads


#: A query whose Equation (7)-(9) ranking needs the interface ``(ReducedSz,
#: reducing variables − C)``: ``(variables, primary key, rows)`` per atom.
#: The cover atom ``a0(w, u, v)`` puts ``v`` among the reducing variables of
#: bags without ``v``, so classing options by ``∩ S`` merges options that an
#: ancestor holding ``v`` tells apart, and the top 100 come out of order.
WITNESS_ATOMS = (
    (
        ("w", "u", "v"),
        "c0",
        [
            (0, 0, 10), (1, 1, 6), (2, 4, 21), (3, 0, 13), (4, 9, 23), (5, 5, 8),
            (6, 0, 18), (7, 0, 21), (8, 9, 28), (9, 5, 13), (10, 9, 5), (11, 24, 9),
            (12, 5, 12), (13, 7, 24), (14, 4, 8), (15, 0, 20), (16, 2, 9), (17, 9, 19),
            (18, 0, 1), (19, 4, 9), (20, 2, 12), (21, 6, 4), (22, 5, 24), (23, 6, 21),
            (24, 7, 6), (25, 13, 23), (26, 0, 27), (28, 16, 20), (29, 12, 2), (30, 20, 14),
        ],
    ),
    (
        ("u", "c"),
        "c1",
        [(0, 0), (0, 2), (0, 5), (0, 7), (0, 8), (1, 1), (1, 6), (1, 9), (2, 10),
         (2, 11), (2, 12), (3, 4), (5, 3)],
    ),
    (
        ("v", "h"),
        None,
        [(1, 8), (2, 5), (3, 4), (4, 10), (5, 9), (7, 0), (7, 11), (11, 6), (12, 5), (12, 10)],
    ),
    (("c", "d"), "c0", [(i, 0) for i in range(4)]),
    (("u", "h"), "c1", [(0, i) for i in range(7)]),
    (("u", "w", "h"), "c0", [(i, 0, 0) for i in range(4)]),
    (("h", "w"), None, [(i, j) for i in range(4) for j in range(4)]),
    (
        ("c", "u"),
        "c0",
        [(2, 30), (3, 10), (7, 2), (10, 9), (11, 28), (13, 2), (20, 12), (23, 28), (27, 11)],
    ),
)


def witness_query():
    database = Database()
    atoms = []
    for index, (variables, primary_key, rows) in enumerate(WITNESS_ATOMS):
        attributes = tuple(f"c{i}" for i in range(len(variables)))
        database.create_table(f"R{index}", attributes, rows, primary_key=primary_key)
        atoms.append(Atom(f"a{index}", f"R{index}", attributes, variables))
    return database, ConjunctiveQuery(atoms=atoms, name="interface-witness")


def _blocks_read_by_ancestors(model, decompositions):
    """``(S, C) -> [(ReducedSz, reducing variables, ancestor vertices)]``."""
    options = {}
    for decomposition in decompositions:
        bag = decomposition.bag

        def walk(node, above):
            for child in node.children:
                subtree = [bag(x) for x in decomposition.tree.preorder(child)]
                component = frozenset().union(*subtree) - bag(node)
                variables = frozenset().union(*map(model.reducing_variables, subtree))
                reduced = model.reduced_size(decomposition, child)
                options.setdefault((bag(node), component), []).append(
                    (reduced, variables, above | bag(node))
                )
                walk(child, above | bag(node))

        walk(decomposition.tree.root, frozenset())
    return options


def test_the_interface_keeps_what_an_ancestor_reads():
    database, query = witness_query()
    hypergraph = query.hypergraph()
    bags = SoftBagGenerator(hypergraph, 2).candidate_bags()
    fold = make_cost_preference("cardinalities", query, database)
    constraint = ConnectedCoverConstraint(hypergraph, 2)

    def top(preference):
        enumerator = CTDEnumerator(
            hypergraph, bags, constraint=constraint, preference=preference
        )
        return enumerator.enumerate(limit=100)

    ranked = top(fold)
    spec = CostPreference(fold.model.decomposition_cost)
    assert len(ranked) == 100
    assert json.dumps([decomposition_to_payload(d) for d in ranked]) == json.dumps(
        [decomposition_to_payload(d) for d in top(spec)]
    )
    # Two options of one block (S, C) agree on ReducedSz and on their
    # reducing variables ∩ S, and differ on one outside S ∪ C that an
    # ancestor bag holds: ∩ S would put them in one class.
    blocks = _blocks_read_by_ancestors(fold.model, ranked)
    witnesses = [
        variable
        for (head, component), options in blocks.items()
        for reduced, variables, above in options
        for other_reduced, other, other_above in options
        if reduced == other_reduced and variables & head == other & head
        for variable in (variables ^ other) - head - component
        if variable in above | other_above
    ]
    assert witnesses
