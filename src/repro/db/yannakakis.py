"""Yannakakis' algorithm over a (candidate) tree decomposition.

Decomposition-guided query evaluation works in three stages (Section 1 and 7
of the paper, following the SQL-rewriting line of work it builds on):

1. *Local joins*: for every decomposition node ``u``, materialise the bag
   relation ``J_u`` — the join of the node's λ-cover atoms projected onto the
   bag — and enforce every query atom at some node whose bag contains all of
   its variables.  An enforced atom's variables are a subset of the bag, so
   ``J_u`` is the projection of the join of cover *and* enforced atoms, and
   the join is run filter-first: atoms contained in another are semi-joined
   into it, the rest joined in the order the database's cardinality
   estimator picks (the baseline executor's greedy order), projection last.
   This turns the cyclic query into an acyclic one over the ``J_u``.
2. *Full reducer*: Yannakakis' bottom-up and top-down semi-join passes.
   A MIN/MAX aggregate needs only the first: the tree is re-rooted at a
   node containing the aggregated variable, and after the leaf-to-root pass
   every tuple left *at the root* participates in at least one answer.
3. *Answer extraction*: MIN/MAX aggregates are read off that root; after the
   full reducer every remaining tuple of every node participates in at least
   one answer, so the full join result (for COUNT and row output) is a
   root-to-leaf fold along tree edges: each bag joins a result that already
   contains its parent, which keeps every intermediate a projection of the
   answer — never larger than the answer itself.

The executor runs the decomposition it is given, node for node (callers key
``node_sizes`` by their own node ids); merging bags that are contained in a
neighbour's (:meth:`TreeDecomposition.contracted`) is the front door's job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.core.covers import least_connected_covers, minimum_edge_cover
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.relation import Relation, WorkCounter
from repro.runtime.budget import Budget, BudgetExceeded, SolveOutcome, completed_outcome

Bag = FrozenSet[Vertex]


class BudgetedWorkCounter(WorkCounter):
    """A :class:`WorkCounter` that charges every increment to a budget.

    This makes the engine's own work measure (tuples read + written) the
    budget's work unit: every relational operator already records through
    the counter, so a single hook governs all of Yannakakis execution.
    ``charge`` also reads the clock (operators are chunky), so deadlines
    are honoured operator-by-operator.
    """

    def __init__(self, budget: Budget):
        super().__init__()
        self.budget = budget

    def record(self, read: int, written: int) -> None:
        super().record(read, written)
        self.budget.charge(read + written)


def atom_relation(database: Database, atom: Atom) -> Relation:
    """The atom's relation renamed to query variables and projected to them.

    A variable repeated within the atom (``R(x, x)`` — e.g. a WHERE clause
    that transitively equates two columns of the same table occurrence) is
    a selection: only rows where those columns agree participate, and one
    representative column carries the variable.

    Selection and projection (the *scan*) depend only on the relation and
    the atom's sorted attribute groups, so they run once per database
    (:meth:`Database.derived`), shared by ``R(x, y)``, ``R(y, x)`` and every
    alias of ``R``; per call only the O(1) ``rename`` to the atom's
    variables and column order runs.  No work is charged.
    """
    by_variable: Dict[str, List[str]] = {}
    for attribute, variable in zip(atom.attributes, atom.variables):
        by_variable.setdefault(variable, []).append(attribute)
    groups = tuple(sorted(tuple(sorted(attrs)) for attrs in by_variable.values()))

    def scan() -> Relation:
        relation = database.relation(atom.relation)
        duplicated = [group for group in groups if len(group) > 1]
        if duplicated:
            relation = relation.select(
                lambda row: all(len({row[a] for a in group}) == 1 for group in duplicated)
            )
        return relation.project([group[0] for group in groups])

    # Each variable's column in the scan, in the atom's variable order.
    columns = {min(attrs): v for v, attrs in by_variable.items()}
    return database.derived(("scan", atom.relation, groups), scan).rename(
        atom.alias, columns, order=list(columns)
    )


def bag_cover(hypergraph: Hypergraph, bag: Bag) -> Tuple[str, ...]:
    """The λ-cover (atom aliases) Yannakakis joins for ``bag``.

    The query layer's one cover decision: the executor plans with it and
    the cost models of :mod:`repro.db.cost` cost it, so Eq. 5–9 cost
    exactly the joins execution builds.  The answer depends on the
    hypergraph alone, so it is memoised on it (``Hypergraph._covers``):
    bags repeat across nodes, across the decompositions one query ranks
    and — the query hypergraph being interned per shape — across requests,
    while the search re-enumerates from scratch on every call.
    """
    covers = hypergraph._covers
    if covers is None:
        covers = hypergraph._covers = {}
    cover = covers.get(bag)
    if cover is None:
        cover = covers[bag] = _search_cover(hypergraph, bag)
    return cover


def choose_cover(hypergraph: Hypergraph, bag: Bag) -> List[str]:
    """Pick a λ-cover (list of atom aliases) for a bag (:func:`bag_cover`).

    Prefers a connected cover of minimal size when one exists (matching the
    ConCov constraint's intent); falls back to a minimum cover otherwise.
    """
    return list(bag_cover(hypergraph, frozenset(bag)))


def _search_cover(hypergraph: Hypergraph, bag: Bag) -> Tuple[str, ...]:
    if not bag:
        return ()
    connected = least_connected_covers(hypergraph, bag)
    if connected:
        best = min(connected, key=lambda cover: (len(cover), [e.name for e in cover]))
        return tuple(edge.name for edge in best)
    limit = hypergraph.num_edges()
    cover = minimum_edge_cover(hypergraph, bag, upper_bound=limit)
    if cover is None:
        raise ValueError(f"bag {sorted(map(str, bag))} has no edge cover of size <= {limit}")
    return tuple(edge.name for edge in cover)


@dataclass
class NodePlan:
    """Execution plan entry for one decomposition node."""

    node: TreeNode
    bag: Bag
    cover: List[str]
    enforced_atoms: List[str] = field(default_factory=list)


@dataclass
class YannakakisRun:
    """The outcome of one query execution — the query layer's one record.

    Decomposition-guided runs fill every field; the baseline executor's
    hash-join plan has no nodes, so its size maps stay empty.
    ``outcome.partial`` marks a run a budget cut short: ``result`` is then
    ``None`` (never a silently wrong partial answer) and the size maps
    cover only the stages that completed.  ``reduced_sizes`` holds the bag
    sizes after the semi-join passes that ran: the full reducer for COUNT
    and row output, only the leaf-to-root pass (towards the node the
    aggregate is read from) for MIN/MAX without a materialised result.
    ``max_intermediate`` is the largest relation the run built: every bag
    relation and the output of every natural join issued (the cover joins
    of stage 1 and each step of the stage 3 fold, whose sizes are kept in
    order in ``fold_sizes``).
    """

    result: object
    counter: WorkCounter
    wall_time: float = 0.0
    node_sizes: Dict[int, int] = field(default_factory=dict)
    reduced_sizes: Dict[int, int] = field(default_factory=dict)
    max_intermediate: int = 0
    outcome: SolveOutcome = completed_outcome()
    fold_sizes: List[int] = field(default_factory=list)

    @property
    def work(self) -> int:
        return self.counter.total


def governed_run(
    budget: Optional[Budget], stages: Callable[[WorkCounter], YannakakisRun]
) -> YannakakisRun:
    """Run ``stages`` on a work counter and stamp its wall time and outcome.

    With a ``budget``, work is metered in the engine's own units (tuples
    read + written, via :class:`BudgetedWorkCounter`) and the deadline is
    checked per operator.  An exhausted run returns ``result=None`` with
    the honest partial counters — never a wrong partial answer — and
    ``outcome`` says why it stopped.
    """
    counter = WorkCounter() if budget is None else BudgetedWorkCounter(budget)
    start = time.perf_counter()
    try:
        run = stages(counter)
    except BudgetExceeded:
        run = YannakakisRun(result=None, counter=counter)
    except KeyboardInterrupt:
        if budget is None:
            raise
        budget.mark_interrupted()
        run = YannakakisRun(result=None, counter=counter)
    run.wall_time = time.perf_counter() - start
    run.outcome = (
        completed_outcome(work=counter.total, elapsed=run.wall_time)
        if budget is None
        else budget.outcome()
    )
    return run


class YannakakisExecutor:
    """Executes a conjunctive query through a tree decomposition."""

    def __init__(self, database: Database, query: ConjunctiveQuery):
        self.database = database
        self.query = query
        self.hypergraph = query.hypergraph()
        self._last_plan: Optional[Tuple[TreeDecomposition, List[NodePlan]]] = None

    # -- planning -----------------------------------------------------------------

    def cover_of(self, bag: Bag) -> Tuple[str, ...]:
        """The λ-cover the executor joins for ``bag``: :func:`bag_cover` on
        the query hypergraph, read from the memo that hypergraph carries —
        shared by every request of the same query shape and by the cost
        models over it."""
        return bag_cover(self.hypergraph, bag)

    def plan(self, decomposition: TreeDecomposition) -> List[NodePlan]:
        """Assign covers and atom enforcement to decomposition nodes.

        The executor remembers the plan of the decomposition it planned
        last, so ``plan(d)`` followed by ``execute(d)`` plans once.
        """
        nodes = decomposition.tree.nodes()
        plans = [
            NodePlan(
                node=node,
                bag=decomposition.bag(node),
                cover=list(self.cover_of(decomposition.bag(node))),
            )
            for node in nodes
        ]
        variables_of = {
            atom.alias: frozenset(atom.variables) for atom in self.query.atoms
        }
        for alias, variables in variables_of.items():
            target = None
            for plan in plans:
                if variables <= plan.bag:
                    target = plan
                    break
            if target is None:
                raise ValueError(
                    f"decomposition does not cover atom {alias!r}; not a valid TD "
                    "of the query hypergraph"
                )
            # The target bag already contains all atom variables, so the atom
            # is satisfied by the local join exactly when it is part of the
            # cover; anything else must be enforced with a semi-join.
            if alias not in target.cover:
                target.enforced_atoms.append(alias)
        self._last_plan = (decomposition, plans)
        return plans

    # -- execution ------------------------------------------------------------------

    def execute(
        self,
        decomposition: TreeDecomposition,
        materialize_result: bool = False,
        budget: Optional[Budget] = None,
    ) -> YannakakisRun:
        """Run the three stages and return the aggregate (or materialised)
        result, governed by ``budget`` as :func:`governed_run` describes."""
        return governed_run(
            budget,
            lambda counter: self._execute_stages(
                decomposition, materialize_result, counter
            ),
        )

    def _execute_stages(
        self,
        decomposition: TreeDecomposition,
        materialize_result: bool,
        counter: WorkCounter,
    ) -> YannakakisRun:
        last = self._last_plan
        plans = (
            last[1]
            if last is not None and last[0] is decomposition
            else self.plan(decomposition)
        )
        bag_relations: Dict[int, Relation] = {}
        node_sizes: Dict[int, int] = {}
        # Output size of every natural join issued, per stage.
        cover_join_sizes: List[int] = []
        fold_sizes: List[int] = []

        # Stage 1: local joins.
        for plan in plans:
            relation = self._materialize_bag(plan, counter, cover_join_sizes)
            bag_relations[plan.node.node_id] = relation
            node_sizes[plan.node.node_id] = len(relation)

        tree = decomposition.tree
        aggregate = self.query.aggregate
        if (
            aggregate is not None
            and aggregate[0].upper() in ("MIN", "MAX")
            and not materialize_result
        ):
            # Stage 2, leaf-to-root pass only, towards the first node that
            # holds the aggregated variable; stage 3 reads the aggregate there.
            variable = aggregate[1]
            root = next((p.node for p in plans if variable in p.bag), None)
            if root is None:
                raise ValueError(
                    f"aggregate variable {variable!r} does not occur in any bag"
                )
            for node, parent in reversed(_edges_from(root)):
                bag_relations[parent.node_id] = bag_relations[
                    parent.node_id
                ].semijoin(bag_relations[node.node_id], counter)
            result: object = bag_relations[root.node_id].aggregate(*aggregate)
        else:
            # Stage 2a: bottom-up semi-joins.
            for node in tree.postorder():
                for child in node.children:
                    bag_relations[node.node_id] = bag_relations[
                        node.node_id
                    ].semijoin(bag_relations[child.node_id], counter)
            # Stage 2b: top-down semi-joins.
            for node in tree.preorder():
                for child in node.children:
                    bag_relations[child.node_id] = bag_relations[
                        child.node_id
                    ].semijoin(bag_relations[node.node_id], counter)
            # Stage 3: answer extraction.
            result_relation = self._materialize_join(
                tree, bag_relations, counter, fold_sizes
            )
            result = (
                result_relation
                if aggregate is None
                else result_relation.aggregate(*aggregate)
            )
        reduced_sizes = {
            node_id: len(relation) for node_id, relation in bag_relations.items()
        }
        return YannakakisRun(
            result=result,
            counter=counter,
            node_sizes=node_sizes,
            reduced_sizes=reduced_sizes,
            max_intermediate=max(
                [*node_sizes.values(), *cover_join_sizes, *fold_sizes], default=0
            ),
            fold_sizes=fold_sizes,
        )

    # -- helpers --------------------------------------------------------------------

    def _materialize_bag(
        self, plan: NodePlan, counter: WorkCounter, join_sizes: List[int]
    ) -> Relation:
        """``J_u = π_bag(⋈ cover) ⋉ enforced``, filter-first.

        Every enforced atom's variables lie in the bag, so ``J_u`` is also
        ``π_bag(⋈ (cover ∪ enforced))`` and the members may be combined in
        any order: a member whose variables lie within another member's is
        semi-joined into it before any join runs, the rest are joined in the
        estimator's greedy order (an operand that brings no new attribute
        is a semi-join), and the projection onto the bag comes last.
        """
        if not plan.cover:
            bag_attributes = sorted(map(str, plan.bag))
            return self.database.new_relation(
                f"J{plan.node.node_id}",
                bag_attributes,
                [()] if not bag_attributes else [],
            )
        relations = {
            alias: atom_relation(self.database, self.query.atom(alias))
            for alias in plan.cover + plan.enforced_atoms
        }
        variables = {alias: set(r.attributes) for alias, r in relations.items()}
        # Widest first (stable), so whatever contains a member comes before it.
        kept: List[str] = []
        for alias in sorted(relations, key=lambda alias: -len(variables[alias])):
            host = next((k for k in kept if variables[alias] <= variables[k]), None)
            if host is None:
                kept.append(alias)
            else:
                relations[host] = relations[host].semijoin(relations[alias], counter)
        order = self.database.estimator.greedy_join_order(
            [self.query.atom(alias) for alias in kept]
        )
        relation = relations[order[0].alias]
        for atom in order[1:]:
            operand = relations[atom.alias]
            if set(operand.attributes) <= set(relation.attributes):
                relation = relation.semijoin(operand, counter)
            else:
                relation = relation.natural_join(operand, counter)
                join_sizes.append(len(relation))
        return relation.project(
            [a for a in relation.attributes if a in plan.bag], counter
        )

    def _materialize_join(
        self,
        tree,
        bag_relations: Dict[int, Relation],
        counter: WorkCounter,
        join_sizes: List[int],
    ) -> Relation:
        """Join the (fully reduced) bag relations along tree edges.

        Root-to-leaf: every bag joins a result that already holds its
        parent, so each intermediate is the projection of the answer onto
        the variables seen so far and never exceeds the answer.
        """
        nodes = tree.nodes()
        result = bag_relations[nodes[0].node_id]
        for node in nodes[1:]:
            result = result.natural_join(bag_relations[node.node_id], counter)
            join_sizes.append(len(result))
        return result


def _edges_from(root: TreeNode) -> List[Tuple[TreeNode, TreeNode]]:
    """The tree's ``(node, parent)`` edges when re-rooted at ``root``.

    Parents come before their children (pre-order from ``root``, the tree
    taken as undirected), so the reversed list is a leaf-to-root schedule.
    """
    edges: List[Tuple[TreeNode, TreeNode]] = []
    stack: List[Tuple[TreeNode, Optional[TreeNode]]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            edges.append((node, parent))
        neighbours = node.children + ([] if node.parent is None else [node.parent])
        stack.extend((n, node) for n in reversed(neighbours) if n is not parent)
    return edges

