"""An in-memory relational substrate.

The paper's experiments run SQL join queries on PostgreSQL, both directly
(the baseline) and through a Yannakakis-style rewriting guided by a candidate
tree decomposition.  This package replaces PostgreSQL with a small, fully
deterministic relational engine:

* :class:`repro.db.Relation` / :class:`repro.db.Database` — named in-memory
  relations over dictionary-encoded numpy code columns (the database owns the
  :class:`repro.db.ValueInterner`), with vectorised joins, semi-joins,
  projections and aggregation, plus operation counters so experiments can
  report deterministic work measures alongside wall-clock time; the seed
  tuple-at-a-time engine survives as :class:`repro.db.ReferenceRelation` in
  :mod:`repro.db.reference`, the executable spec the columnar kernel is
  property-tested against;
* :class:`repro.db.ConjunctiveQuery` — join queries as sets of atoms, with
  hypergraph extraction (every atom becomes a hyperedge named by its alias);
* :mod:`repro.db.sqlish` — a parser for the simple SELECT/FROM/WHERE equijoin
  SQL dialect the paper's benchmark queries are written in;
* :mod:`repro.db.stats` — table statistics and a textbook cardinality
  estimator (independence assumption), playing the role of the DBMS's
  optimiser estimates;
* :mod:`repro.db.yannakakis` — Yannakakis' algorithm over a decomposition
  (:class:`repro.db.YannakakisExecutor`), the λ-cover each bag joins, and
  :class:`repro.db.YannakakisRun`, the one execution record;
* :mod:`repro.db.executor` — the greedy pairwise-join baseline standing in
  for the DBMS's own plan;
* :mod:`repro.db.cost` — the two cost functions of Appendix C.2, built as
  preferences by :func:`repro.db.make_cost_preference`.
"""

from repro.db.interner import ValueInterner
from repro.db.relation import Relation, WorkCounter
from repro.db.reference import ReferenceRelation, as_reference_database
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.sqlish import parse_select_query
from repro.db.stats import CardinalityEstimator, TableStatistics
from repro.db.yannakakis import YannakakisExecutor, YannakakisRun
from repro.db.executor import BaselineExecutor
from repro.db.cost import make_cost_preference

__all__ = [
    "Relation",
    "WorkCounter",
    "ValueInterner",
    "ReferenceRelation",
    "as_reference_database",
    "Database",
    "Atom",
    "ConjunctiveQuery",
    "parse_select_query",
    "TableStatistics",
    "CardinalityEstimator",
    "YannakakisExecutor",
    "YannakakisRun",
    "BaselineExecutor",
    "make_cost_preference",
]
