"""The interned query hypergraph: the intern key never decides.

:meth:`ConjunctiveQuery.hypergraph` returns one shared :class:`Hypergraph`
per edge spec (alias and deduplicated variables per atom, in atom order),
and the bitset tables, canonical form, acyclicity verdict and λ-covers
memoised on it then live as long as the shape does.  These tests hold the
key to exactly the spec: equal texts share, any name or order change does
not, a memoised cover is the cover a fresh hypergraph computes, and
evicting a shape changes no plan and no answer.
"""

import pytest

from repro.db import query as query_module
from repro.db.frontdoor import plan_query, run_query
from repro.db.query import ConjunctiveQuery, atom
from repro.db.sqlish import parse_select_query
from repro.db.yannakakis import bag_cover, choose_cover
from repro.hypergraph.hypergraph import Hypergraph
from repro.workloads.hetionet import HETIONET_QUERY_SQL
from repro.workloads.joblite import JOBLITE_QUERY_SQL
from repro.workloads.lsqb import QLB_SQL
from repro.workloads.registry import workload_entries
from repro.workloads.tpcds import QDS_SQL

SQL_TEXTS = (
    ("q_ds", "tpcds", QDS_SQL),
    *((name, "hetionet", sql) for name, sql in HETIONET_QUERY_SQL.items()),
    ("q_lb", "lsqb", QLB_SQL),
    *((name, "joblite", sql) for name, sql in sorted(JOBLITE_QUERY_SQL.items())),
)


@pytest.fixture(scope="module")
def databases():
    return {name: entry.load(scale=0.2) for name, entry in workload_entries().items()}


def _query(atoms, name="query"):
    return ConjunctiveQuery(
        [atom(alias, relation, bindings) for alias, relation, bindings in atoms],
        name=name,
    )


PATH = (
    ("r", "R", {"a": "x", "b": "y"}),
    ("s", "S", {"b": "y", "c": "z"}),
)


def test_sixteen_texts_cover_the_query_benchmark():
    assert len(SQL_TEXTS) == 16


def test_two_parses_of_one_text_share_the_hypergraph(databases):
    for name, dataset, sql in SQL_TEXTS:
        first = parse_select_query(sql, databases[dataset], name=name)
        second = parse_select_query(sql, databases[dataset], name=name)
        assert first is not second
        assert first.hypergraph() is second.hypergraph(), name


def test_one_alias_one_variable_or_the_atom_order_is_another_shape():
    base = _query(PATH).hypergraph()
    assert _query(PATH).hypergraph() is base
    renamed_alias = _query((("r2", "R", {"a": "x", "b": "y"}), PATH[1]))
    renamed_variable = _query((PATH[0], ("s", "S", {"b": "y", "c": "w"})))
    reordered = _query(PATH[::-1])
    for other in (renamed_alias, renamed_variable, reordered):
        assert other.hypergraph() is not base
    # The relation and attribute names are not part of the shape.
    assert _query((("r", "T", {"u": "x", "v": "y"}), PATH[1])).hypergraph() is base


def test_equal_edge_families_under_other_aliases_never_share_covers():
    first = _query(
        (
            ("r", "R", {"a": "x", "b": "y"}),
            ("s", "S", {"b": "y", "c": "z"}),
            ("t", "T", {"c": "z", "d": "x"}),
        )
    )
    second = _query(
        (
            ("t", "R", {"a": "x", "b": "y"}),
            ("r", "S", {"b": "y", "c": "z"}),
            ("s", "T", {"c": "z", "d": "x"}),
        )
    )
    first_hypergraph, second_hypergraph = first.hypergraph(), second.hypergraph()
    # Hypergraph equality ignores edge names; the intern key must not.
    assert first_hypergraph == second_hypergraph
    assert first_hypergraph is not second_hypergraph
    for bag in (frozenset("xy"), frozenset("yz"), frozenset("xyz")):
        own = bag_cover(first_hypergraph, bag)
        other = bag_cover(second_hypergraph, bag)
        for query, cover in ((first, own), (second, other)):
            covered = set()
            for alias in cover:
                covered.update(query.atom(alias).variables)
            assert bag <= covered
    assert bag_cover(first_hypergraph, frozenset("xy")) == ("r",)
    assert bag_cover(second_hypergraph, frozenset("xy")) == ("t",)


def test_memoised_covers_equal_a_fresh_search_on_every_plan_bag(databases):
    for name, dataset, sql in SQL_TEXTS:
        plan = plan_query(sql, databases[dataset], name=name, cache=None)
        hypergraph = plan.hypergraph
        assert hypergraph is plan.query.hypergraph()
        assert plan.node_plans, name
        for node_plan in plan.node_plans:
            fresh = Hypergraph(
                {edge.name: edge.vertices for edge in hypergraph.edges}
            )
            assert fresh._covers is None
            expected = choose_cover(fresh, node_plan.bag)
            assert choose_cover(hypergraph, node_plan.bag) == expected, name
            assert node_plan.cover == expected, name
            assert hypergraph._covers[node_plan.bag] == tuple(expected)


def test_evicting_shapes_changes_no_plan_and_no_answer(databases, monkeypatch, tmp_path):
    from repro.core.cache import DecompositionCache

    texts = [text for text in SQL_TEXTS if text[0] in ("q_ds", "jl04")]
    store = DecompositionCache(str(tmp_path / "ctd"))

    def round_of_runs():
        runs = []
        for name, dataset, sql in texts:
            result = run_query(sql, databases[dataset], name=name, cache=store)
            runs.append((result, result.plan.hypergraph))
        return runs

    round_of_runs()  # stores both CTDs
    kept = round_of_runs()
    def outputs(runs):
        return [
            (result.plan.describe(), result.value, result.execution_work)
            for result, _ in runs
        ]

    reference = outputs(kept)
    monkeypatch.setattr(query_module, "INTERNED_SHAPES", 1)
    monkeypatch.setattr(query_module, "_INTERNED", {})
    for _ in range(2):
        runs = round_of_runs()
        assert len(query_module._INTERNED) == 1
        assert outputs(runs) == reference
        assert [result.provenance for result, _ in runs] == ["cache", "cache"]
        # Each request evicted the other shape, so every one re-derived it.
        for (_, hypergraph), (_, before) in zip(runs, kept):
            assert hypergraph is not before
            assert hypergraph == before
        kept = runs
