"""End-to-end smoke test of the query front door (used by CI).

Drives ``repro query`` the way a user would — SQL text and named
JOB-lite queries — cold and warm against a real on-disk decomposition
cache, and checks the trust model at the API level:

1. a cold run solves, stores and answers; the warm run answers
   *byte-identically* but sources its CTD from the cache (provenance
   flips, nothing else changes),
2. the cache store reports a hit and the hit was re-certified rather
   than trusted blindly (a poisoned entry is rejected and transparently
   re-solved to the same answer),
3. SQL-text and named-query entry points agree, and malformed SQL is a
   one-line diagnostic with exit code 2,
4. the executed plan has the shape the paper's bound needs: no bag
   contained in a neighbouring bag, and row output costs a small multiple
   of input + output rows,
5. atom scans are computed once per database: a repeated query adds no
   entry to the database's memo and returns byte-identical rows.
"""

import io
import json
import re
import sys
import tempfile

from repro.cli import main as cli_main
from repro.core.cache import DecompositionCache
from repro.db.frontdoor import run_query
from repro.workloads.joblite import (
    JOBLITE_QUERY_SQL,
    build_joblite_database,
    joblite_query,
)

QUERIES = ["jl02", "jl08"]


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def run_cli(arguments):
    out = io.StringIO()
    code = cli_main(arguments, out=out)
    return code, out.getvalue()


def check_cold_warm_cli(tmp: str) -> None:
    for name in QUERIES:
        argv = ["query", "--name", name, "--cache", tmp]
        cold_code, cold = run_cli(argv)
        warm_code, warm = run_cli(argv)
        if cold_code != 0 or warm_code != 0:
            fail(f"{name}: query exited {cold_code}/{warm_code}, expected 0/0")
        if "provenance=solve" not in cold:
            fail(f"{name}: cold run did not report provenance=solve:\n{cold}")
        if "provenance=cache" not in warm:
            fail(f"{name}: warm run did not report provenance=cache:\n{warm}")
        if cold.replace("provenance=solve", "provenance=cache") != warm:
            fail(f"{name}: warm output differs beyond provenance:\n{cold}\n{warm}")
        print(f"{name}: warm run byte-identical, CTD served from cache")


def check_sql_entry_matches_named(tmp: str) -> None:
    name = QUERIES[0]
    _, by_name = run_cli(["query", "--name", name, "--cache", tmp])
    _, by_sql = run_cli(
        ["query", "--sql", JOBLITE_QUERY_SQL[name], "--cache", tmp]
    )
    name_answer = by_name.splitlines()[0]
    sql_answer = by_sql.splitlines()[0]
    if name_answer != sql_answer:
        fail(f"SQL and named entry disagree: {sql_answer!r} vs {name_answer!r}")
    print(f"SQL text and named entry agree: {sql_answer}")


def check_recertification(tmp: str) -> None:
    database = build_joblite_database(scale=1.0)
    query = joblite_query(database, QUERIES[0])
    store = DecompositionCache(tmp)
    reference = run_query(query, database, cache=store)
    hits_before = store.stats.hits
    warm = run_query(query, database, cache=store)
    if warm.provenance != "cache" or store.stats.hits <= hits_before:
        fail("warm API run did not hit the decomposition cache")
    # Poison every entry; re-certification must reject and re-solve.
    for info in store.entries():
        with open(info.path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("decompositions"):
            record["decompositions"] = [{"bags": [[0]], "parents": [None]}]
        with open(info.path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    healed = run_query(query, database, cache=store)
    if store.stats.rejected < 1:
        fail("poisoned cache entry was not rejected at re-certification")
    if healed.provenance != "solve" or healed.value != reference.value:
        fail(
            "poisoned cache changed the answer: "
            f"{healed.provenance} {healed.value} vs {reference.value}"
        )
    print("cache hits re-certified; poisoned entry rejected and re-solved")


def check_plan_shape() -> None:
    database = build_joblite_database(scale=1.0)
    for name in QUERIES:
        result = run_query(joblite_query(database, name), database, cache=None)
        for plan in result.plan.node_plans:
            for child in plan.node.children:
                bag = result.plan.decomposition.bag(child)
                if bag <= plan.bag or plan.bag <= bag:
                    fail(f"{name}: bag {sorted(bag)} and its parent are nested")
    select_all = re.sub(
        r"SELECT\s+\w+\(\w+\)", "SELECT *", JOBLITE_QUERY_SQL[QUERIES[0]], count=1
    )
    result = run_query(select_all, database, cache=None)
    query = result.plan.query
    if query.aggregate is not None or not result.rows:
        fail(f"{QUERIES[0]}: SELECT * variant did not produce rows")
    input_rows = sum(len(database.relation(a.relation)) for a in query.atoms)
    bound = 10 * (input_rows + len(result.rows))
    if result.execution_work >= bound:
        fail(
            f"{QUERIES[0]} SELECT *: execution_work {result.execution_work} "
            f">= 10 x (input {input_rows} + output {len(result.rows)})"
        )
    print(
        f"plan shape: no nested neighbouring bags; {QUERIES[0]} SELECT * work "
        f"{result.execution_work} < {bound}"
    )


def check_scan_memo() -> None:
    database = build_joblite_database(scale=1.0)
    sql = re.sub(
        r"SELECT\s+\w+\(\w+\)", "SELECT *", JOBLITE_QUERY_SQL[QUERIES[0]], count=1
    )
    first = run_query(sql, database, cache=None)
    entries = len(database._derived)
    second = run_query(sql, database, cache=None)
    if not entries or len(database._derived) != entries:
        fail(f"database memo grew on a repeated query: {entries} -> {len(database._derived)}")
    if repr(second.rows).encode() != repr(first.rows).encode():
        fail(f"{QUERIES[0]} SELECT *: repeated run returned different rows")
    print(
        f"database memo (estimator + scans): {entries} entries after one run, "
        "unchanged by a second; "
        f"{len(first.rows)} rows byte-identical"
    )


def check_errors() -> None:
    code, output = run_cli(["query", "--sql", "SELEKT 1", "--no-cache"])
    if code != 2 or not output.startswith("error:"):
        fail(f"malformed SQL: expected one-line error and exit 2, got {code}")
    code, _ = run_cli(["query", "--name", "jl02", "--sql", "SELECT *"])
    if code != 2:
        fail("conflicting --name/--sql did not exit 2")
    print("CLI: malformed SQL and conflicting sources exit 2")


def main() -> None:
    with tempfile.TemporaryDirectory() as cli_tmp:
        check_cold_warm_cli(cli_tmp)
        check_sql_entry_matches_named(cli_tmp)
    with tempfile.TemporaryDirectory() as api_tmp:
        check_recertification(api_tmp)
    check_plan_shape()
    check_scan_memo()
    check_errors()
    print("OK: query front door smoke passed")


if __name__ == "__main__":
    main()
