"""JOB-lite: an IMDb-shaped join-benchmark workload for the query front door.

A miniature of the Join Order Benchmark (JOB): nine tables following the
IMDb schema shape (``title``, ``cast_info``, ``movie_companies``, ...)
and ten aggregate join queries ``jl01`` .. ``jl10`` expressed as SQL text
and parsed through :func:`repro.db.sqlish.parse_select_query` — this is
the first workload whose queries enter the system the way user traffic
does, through the front door, rather than as hand-built
:class:`~repro.db.query.ConjunctiveQuery` objects.

The queries deliberately exercise the whole supported dialect: implicit
comma joins with unqualified columns, explicit ``JOIN .. ON`` chains,
``INNER JOIN``, quoted identifiers, and a self-join of ``movie_link``
through distinct aliases.  Three queries (``jl04``, ``jl08``, ``jl10``)
are cyclic through *non-key* joins over a small shared category domain
(gender/country/info-type all range over the same few codes, like JOB's
``info_type``/``kind_id`` columns), so they need width-2 decompositions
and fan out heavily — the regime where decomposition choice matters.

Generation follows the other workloads: deterministic PCG64 chunks
ingested through the columnar fast path, so a fixed ``(scale, seed)``
yields byte-identical code columns in any process.  Foreign keys are hub-skewed: 10% of movies receive
60% of the references, mirroring IMDb's blockbuster skew.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.db.sqlish import parse_select_query
from repro.workloads.ingest import ChunkedTableBuilder, chunk_sizes

#: Bump when generated data changes for a fixed ``(scale, seed)``.
GENERATOR_VERSION = 1

#: How many distinct category codes gender/country/info-type share.  The
#: non-key joins of the cyclic queries equate columns over this domain, so
#: a small domain means heavy fan-out.
CATEGORY_DOMAIN = 12

#: ``table -> (attributes, primary_key)`` of everything the generator builds.
JOBLITE_SCHEMA: Dict[str, Tuple[Sequence[str], Optional[str]]] = {
    "title": (("t_id", "t_kind", "t_year"), "t_id"),
    "company_name": (("cn_id", "cn_country"), "cn_id"),
    "movie_companies": (("mc_movie", "mc_company", "mc_note"), None),
    "name": (("n_id", "n_gender"), "n_id"),
    "cast_info": (("ci_movie", "ci_person", "ci_role"), None),
    "keyword": (("k_id", "k_class"), "k_id"),
    "movie_keyword": (("mk_movie", "mk_keyword"), None),
    "movie_info": (("mi_movie", "mi_type", "mi_value"), None),
    "movie_link": (("ml_movie", "ml_linked", "ml_type"), None),
}

#: The ten JOB-lite queries, in the dialect of :mod:`repro.db.sqlish`.
JOBLITE_QUERY_SQL: Dict[str, str] = {
    # Production-company star: implicit joins, unqualified columns.
    "jl01": """
        SELECT MIN(t_year)
        FROM title, movie_companies, company_name
        WHERE t_id = mc_movie AND mc_company = cn_id
    """,
    # Cast chain via explicit JOIN .. ON.
    "jl02": """
        SELECT COUNT(n_id)
        FROM name
        JOIN cast_info ON name.n_id = cast_info.ci_person
        JOIN title ON cast_info.ci_movie = title.t_id
    """,
    # Keyword + info star on the movie id.
    "jl03": """
        SELECT MIN(k_id)
        FROM title, movie_keyword, keyword, movie_info
        WHERE t_id = mk_movie AND mk_keyword = k_id AND mi_movie = t_id
    """,
    # Cyclic: movie-person-gender/country-company-movie cycle (width 2).
    "jl04": """
        SELECT MIN(t_year)
        FROM title, cast_info, name, movie_companies, company_name
        WHERE t_id = ci_movie AND ci_person = n_id
              AND t_id = mc_movie AND mc_company = cn_id
              AND n_gender = cn_country
    """,
    # movie_link self-join through distinct aliases.
    "jl05": """
        SELECT COUNT(t_id)
        FROM movie_link AS l1
        JOIN movie_link AS l2 ON l1.ml_linked = l2.ml_movie
        JOIN title ON l2.ml_linked = title.t_id
    """,
    # Quoted identifiers and INNER JOIN.
    "jl06": """
        SELECT MAX("t_year")
        FROM "title" INNER JOIN "movie_info"
             ON "title"."t_id" = "movie_info"."mi_movie"
    """,
    # Company-to-linked-movie chain.
    "jl07": """
        SELECT MIN(cn_id)
        FROM company_name, movie_companies, movie_link AS l, title
        WHERE cn_id = mc_company AND mc_movie = l.ml_movie
              AND l.ml_linked = t_id
    """,
    # Cyclic: keyword-class/info-type triangle (width 2).
    "jl08": """
        SELECT COUNT(mk_keyword)
        FROM movie_keyword, keyword, movie_info, title
        WHERE mk_keyword = k_id AND mk_movie = mi_movie
              AND k_class = mi_type AND mi_movie = t_id
    """,
    # Wide acyclic star over six tables.
    "jl09": """
        SELECT MIN(t_year)
        FROM title, movie_companies, company_name, cast_info, name, movie_info
        WHERE t_id = mc_movie AND mc_company = cn_id
              AND t_id = ci_movie AND ci_person = n_id
              AND t_id = mi_movie
    """,
    # Cyclic: movie-person-gender/info-value square (width 2).
    "jl10": """
        SELECT COUNT(ci_person)
        FROM title, cast_info, name, movie_info
        WHERE t_id = ci_movie AND ci_person = n_id
              AND t_id = mi_movie AND n_gender = mi_value
    """,
}

#: Least width of each query's hypergraph (verified by the golden tests
#: against a soft-width search): the cyclic queries need 2, the rest are
#: acyclic.
JOBLITE_QUERY_WIDTHS: Dict[str, int] = {
    "jl01": 1,
    "jl02": 1,
    "jl03": 1,
    "jl04": 2,
    "jl05": 1,
    "jl06": 1,
    "jl07": 1,
    "jl08": 2,
    "jl09": 1,
    "jl10": 2,
}


def _categories(rng: np.random.Generator, count: int) -> np.ndarray:
    """60% of codes cluster in [0, 4), the rest spread over the domain."""
    clustered = rng.random(count) < 0.6
    narrow = rng.integers(0, 4, count)
    wide = rng.integers(0, CATEGORY_DOMAIN, count)
    return np.where(clustered, narrow, wide)


def _skewed_ids(rng: np.random.Generator, count: int, domain: int) -> np.ndarray:
    """Hub-skewed foreign keys: 10% of ids draw 60% of the references."""
    hubs = max(1, domain // 10)
    to_hub = rng.random(count) < 0.6
    hub_refs = rng.integers(0, hubs, count)
    flat_refs = rng.integers(0, domain, count)
    return np.where(to_hub, hub_refs, flat_refs)


def build_joblite_database(scale: float = 1.0, seed: Optional[int] = 17) -> Database:
    """Generate the synthetic IMDb-shaped database.

    ``scale`` multiplies all table sizes (clamped to small minimums so the
    joins stay non-trivial at any scale); the category columns keep their
    fixed small domain, so fan-out *grows* with scale — as in the real JOB,
    bigger data makes decomposition choice matter more, not less.
    """
    rng = np.random.default_rng(seed)
    database = Database()

    num_titles = max(20, int(400 * scale))
    num_companies = max(6, int(60 * scale))
    num_names = max(20, int(500 * scale))
    num_keywords = max(8, int(80 * scale))
    num_movie_companies = max(40, int(1200 * scale))
    num_cast_info = max(40, int(1600 * scale))
    num_movie_keyword = max(40, int(1200 * scale))
    num_movie_info = max(40, int(1000 * scale))
    num_movie_link = max(20, int(300 * scale))

    title = ChunkedTableBuilder(*_table_args("title"))
    for step in chunk_sizes(num_titles):
        start = len(title)
        title.append(
            [
                np.arange(start, start + step, dtype=np.int64),
                _categories(rng, step),
                rng.integers(1950, 2020, step),
            ]
        )
    title.ingest(database)

    company = ChunkedTableBuilder(*_table_args("company_name"))
    for step in chunk_sizes(num_companies):
        start = len(company)
        company.append(
            [
                np.arange(start, start + step, dtype=np.int64),
                _categories(rng, step),
            ]
        )
    company.ingest(database)

    person = ChunkedTableBuilder(*_table_args("name"))
    for step in chunk_sizes(num_names):
        start = len(person)
        person.append(
            [
                np.arange(start, start + step, dtype=np.int64),
                _categories(rng, step),
            ]
        )
    person.ingest(database)

    keyword = ChunkedTableBuilder(*_table_args("keyword"))
    for step in chunk_sizes(num_keywords):
        start = len(keyword)
        keyword.append(
            [
                np.arange(start, start + step, dtype=np.int64),
                _categories(rng, step),
            ]
        )
    keyword.ingest(database)

    movie_companies = ChunkedTableBuilder(*_table_args("movie_companies"))
    for step in chunk_sizes(num_movie_companies):
        movie_companies.append(
            [
                _skewed_ids(rng, step, num_titles),
                rng.integers(0, num_companies, step),
                _categories(rng, step),
            ]
        )
    movie_companies.ingest(database)

    cast_info = ChunkedTableBuilder(*_table_args("cast_info"))
    for step in chunk_sizes(num_cast_info):
        cast_info.append(
            [
                _skewed_ids(rng, step, num_titles),
                rng.integers(0, num_names, step),
                _categories(rng, step),
            ]
        )
    cast_info.ingest(database)

    movie_keyword = ChunkedTableBuilder(*_table_args("movie_keyword"))
    for step in chunk_sizes(num_movie_keyword):
        movie_keyword.append(
            [
                _skewed_ids(rng, step, num_titles),
                rng.integers(0, num_keywords, step),
            ]
        )
    movie_keyword.ingest(database)

    movie_info = ChunkedTableBuilder(*_table_args("movie_info"))
    for step in chunk_sizes(num_movie_info):
        movie_info.append(
            [
                _skewed_ids(rng, step, num_titles),
                _categories(rng, step),
                _categories(rng, step),
            ]
        )
    movie_info.ingest(database)

    movie_link = ChunkedTableBuilder(*_table_args("movie_link"))
    for step in chunk_sizes(num_movie_link):
        movie_link.append(
            [
                _skewed_ids(rng, step, num_titles),
                _skewed_ids(rng, step, num_titles),
                _categories(rng, step),
            ]
        )
    movie_link.ingest(database)
    return database


def _table_args(name: str):
    attributes, primary_key = JOBLITE_SCHEMA[name]
    return name, attributes, primary_key


def joblite_query(database: Database, name: str) -> ConjunctiveQuery:
    """One JOB-lite query (``jl01`` .. ``jl10``) resolved against ``database``."""
    try:
        sql = JOBLITE_QUERY_SQL[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown JOB-lite query {name!r}; known: {sorted(JOBLITE_QUERY_SQL)}"
        ) from exc
    return parse_select_query(sql, database, name=name)
