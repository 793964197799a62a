"""Shared fixtures for the test suite."""

import pytest

from repro.hypergraph.library import (
    cycle_hypergraph,
    four_cycle_query,
    hypergraph_h2,
    hypergraph_h3,
    hypergraph_h3_prime,
    triangle_hypergraph,
)
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery


@pytest.fixture
def h2():
    return hypergraph_h2()


@pytest.fixture
def h3():
    return hypergraph_h3()


@pytest.fixture
def h3_prime():
    return hypergraph_h3_prime()


@pytest.fixture
def triangle():
    return triangle_hypergraph()


@pytest.fixture
def four_cycle():
    return four_cycle_query()


@pytest.fixture
def c5():
    return cycle_hypergraph(5)


@pytest.fixture
def triangle_database():
    """A tiny database for the triangle query R(x,y), S(y,z), T(z,x)."""
    database = Database()
    database.create_table("R", ["a", "b"], [(1, 1), (1, 2), (2, 3), (3, 1), (4, 4)])
    database.create_table("S", ["b", "c"], [(1, 2), (2, 3), (3, 1), (4, 4), (2, 2)])
    database.create_table("T", ["c", "a"], [(2, 1), (3, 2), (1, 3), (4, 4), (3, 1)])
    return database


@pytest.fixture
def triangle_query():
    """The triangle query over the ``triangle_database`` fixture."""
    return ConjunctiveQuery(
        atoms=[
            Atom("R", "R", ("a", "b"), ("x", "y")),
            Atom("S", "S", ("b", "c"), ("y", "z")),
            Atom("T", "T", ("c", "a"), ("z", "x")),
        ],
        aggregate=("COUNT", "x"),
        name="triangle",
    )


def brute_force_triangle_count(database):
    """Reference result for the triangle fixture query (nested loops)."""
    r = database.relation("R").rows
    s = database.relation("S").rows
    t = database.relation("T").rows
    count = 0
    for (x, y) in r:
        for (y2, z) in s:
            if y2 != y:
                continue
            for (z2, x2) in t:
                if z2 == z and x2 == x:
                    count += 1
    return count
