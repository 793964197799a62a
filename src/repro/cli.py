"""Command-line interface.

The CLI mirrors how the published decomposition tools (detkdecomp,
BalancedGo, the paper's own prototype) are driven: hypergraphs come in as
HyperBench-format text files, widths and decompositions go out as text.

Usage (also available as ``python -m repro``)::

    python -m repro width QUERY.hg --measure shw -k 3
    python -m repro decompose QUERY.hg -k 2 --concov --timeout 30
    python -m repro enumerate QUERY.hg -k 2 --limit 5 --max-work 1000000
    python -m repro stats QUERY.hg
    python -m repro query --sql "SELECT MIN(t_year) FROM title, movie_companies ..."
    python -m repro query --name jl04 --explain
    python -m repro experiment q_hto3 --limit 5
    python -m repro reproduce
    python -m repro batch --queries q_hto q_hto2 --timeout 30 --workers 2
    python -m repro cache list
    python -m repro cache clean

Every solving verb builds one canonical :class:`repro.core.solve.SolveRequest`
and routes it through :func:`repro.core.solve.execute` — the same front
door the experiment harness and the supervised batch runtime use.  Solved
decompositions are persisted in an on-disk cache keyed by the hypergraph's
canonical (isomorphism-invariant) fingerprint, so repeated shapes across
runs are served from disk (after re-certification) instead of re-solved;
``repro cache list``/``clean`` inspect and reset that cache, and
``REPRO_CTD_CACHE``/``REPRO_CTD_CACHE_OFF`` relocate or disable it.

Resource governance: the solving verbs (``width``, ``decompose``,
``enumerate``, ``experiment``) accept ``--timeout SECONDS`` and
``--max-work N``.  A governed run prints a one-line ``outcome:`` status
and maps it to the exit code: 0 for ``complete``, 124 for ``deadline``
(as ``timeout(1)``), 125 for ``budget_exhausted``, 130 for
``interrupted`` (Ctrl-C).  Results printed by a non-complete run are
anytime results: valid as far as they go, not necessarily the full
answer.  ``width`` names every flag its measure does not read in one
``note:`` line.  ``reproduce`` takes no flags: it checks the paper's
claims at scale 1.0 and prints ``docs/REPRODUCTION.md``.

``batch`` runs a set of benchmark queries under the supervised batch
runtime (worker processes, hard timeouts, retries with a degradation
ladder, independent result certification) with a durable checkpoint
ledger: re-running the same batch resumes, skipping certified completed
tasks.  Exit codes: 0 all ok, 1 some task failed, 130 interrupted.

Expected user-level failures (missing or unparseable files, unknown
names, a corrupt ledger) are reported as a one-line ``error: ...`` with
exit code 2 via the :class:`repro.runtime.errors.ReproError` taxonomy, and
out-of-range flags are rejected by argparse (exit 2) — tracebacks are
reserved for actual bugs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.hypergraph.io import parse_hyperbench
from repro.hypergraph.stats import hypergraph_statistics


def _load_hypergraph(path: str):
    from repro.runtime.errors import UserError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UserError(f"cannot read hypergraph file {path!r}: {exc}") from exc
    try:
        return parse_hyperbench(text)
    except ValueError as exc:
        raise UserError(f"cannot parse hypergraph file {path!r}: {exc}") from exc


def _registry_lookup(function, *args, **kwargs):
    """Call a registry lookup; an unknown name is a :class:`UserError`."""
    from repro.runtime.errors import UserError

    try:
        return function(*args, **kwargs)
    except KeyError as exc:
        raise UserError(str(exc.args[0]) if exc.args else str(exc)) from exc


# -- shared flags -----------------------------------------------------------


def _at_least(cast, minimum, *, strict: bool = False):
    """An argparse ``type=`` parsing ``cast`` and rejecting values below
    ``minimum`` (or equal to it, when ``strict``), so a bad flag is a usage
    error (exit 2) naming the flag, not a traceback from deep inside."""

    def parse(text: str):
        value = cast(text)  # a ValueError is argparse's "invalid int value"
        if not (value > minimum if strict else value >= minimum):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {bound} {minimum}, got {text}")
        return value

    parse.__name__ = cast.__name__
    return parse


_POSITIVE_INT = _at_least(int, 1)
_NON_NEGATIVE_INT = _at_least(int, 0)
_POSITIVE_FLOAT = _at_least(float, 0, strict=True)
_NON_NEGATIVE_FLOAT = _at_least(float, 0)


def _hypergraph_arguments(parser, *, decomposing: bool = False) -> None:
    """The hypergraph file positional; with ``decomposing``, also the
    required ``-k/--width`` and ``--concov``."""
    parser.add_argument("hypergraph", help="HyperBench-format hypergraph file")
    if decomposing:
        parser.add_argument("-k", "--width", type=_POSITIVE_INT, required=True)
        parser.add_argument(
            "--concov", action="store_true", help="require connected covers"
        )


def _data_arguments(parser, scale: float) -> None:
    """``--scale`` and ``--seed`` of the generated benchmark data."""
    parser.add_argument("--scale", type=_POSITIVE_FLOAT, default=scale)
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )


def _cache_argument(parser) -> None:
    """``--cache DIR``: where the persistent decomposition cache lives."""
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="decomposition cache directory (default: $REPRO_CTD_CACHE)",
    )


def _budget_arguments(parser) -> None:
    """Attach ``--timeout`` / ``--max-work`` to a governed verb."""
    parser.add_argument(
        "--timeout",
        type=_NON_NEGATIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; stopping yields the anytime result and exit code 124",
    )
    parser.add_argument(
        "--max-work",
        type=_NON_NEGATIVE_INT,
        default=None,
        dest="max_work",
        metavar="N",
        help="work-unit cap; stopping yields the anytime result and exit code 125",
    )


def _make_budget(args):
    """A Budget from the verb's --timeout/--max-work flags, or ``None``."""
    if args.timeout is None and args.max_work is None:
        return None
    from repro.runtime.budget import Budget

    return Budget(deadline=args.timeout, max_work=args.max_work)


def _finish(budget, out, ok: int = 0) -> int:
    """Print the outcome line of a governed run and pick the exit code.

    Ungoverned runs stay silent and keep the handler's own code; governed
    runs report their :class:`SolveOutcome` and map any early stop to the
    status' distinct exit code.
    """
    if budget is None:
        return ok
    outcome = budget.outcome()
    print(outcome.describe(), file=out)
    return outcome.exit_code if outcome.partial else ok


def _print_decomposition(decomposition, out) -> None:
    def walk(node, depth=0):
        bag = ", ".join(sorted(map(str, decomposition.bag(node))))
        print("  " * depth + f"[{bag}]", file=out)
        for child in node.children:
            walk(child, depth + 1)

    walk(decomposition.tree.root)


#: The ``width`` flags (by dest) each measure does not read: ghw solves at
#: its own Lemma 6 iteration count, hw and tw are unbounded baselines, and
#: tw's min-fill heuristic takes no width bound either.
_IGNORED_WIDTH_FLAGS = {
    "shw": (),
    "ghw": ("iterations",),
    "hw": ("iterations", "timeout", "max_work"),
    "tw": ("max_k", "iterations", "timeout", "max_work"),
}


def _cmd_width(args, out) -> int:
    hypergraph = _load_hypergraph(args.hypergraph)
    limit = args.max_k if args.max_k is not None else max(1, hypergraph.num_edges())
    ignored = [
        "-k" if dest == "max_k" else "--" + dest.replace("_", "-")
        for dest in _IGNORED_WIDTH_FLAGS[args.measure]
        if getattr(args, dest) is not None
    ]
    if ignored:
        print(f"note: --measure {args.measure} ignores {', '.join(ignored)}", file=out)
    if args.measure in ("shw", "ghw"):
        from repro.baselines.ghw import ghw_iterations
        from repro.core.solve import SolveRequest, execute

        budget = _make_budget(args)
        soft = args.measure == "shw"
        result = execute(
            SolveRequest(
                hypergraph=hypergraph,
                mode="soft-width",
                width=args.max_k,
                iterations=(args.iterations or 0) if soft else ghw_iterations(hypergraph),
            ),
            budget=budget,
        )
        if not result.decided:
            if budget is not None and budget.exhausted:
                print("width undetermined: run stopped early", file=out)
                return _finish(budget, out)
            kind = "soft" if soft else "generalized hypertree"
            print(f"no {kind} decomposition of width <= {limit}", file=out)
            return 1
        print(f"{args.measure} = {result.width}", file=out)
        return _finish(budget, out)
    if args.measure == "hw":
        from repro.baselines.detkdecomp import hypertree_width

        try:
            width = hypertree_width(hypergraph, max_k=args.max_k)
        except ValueError:
            print(f"no hypertree decomposition of width <= {limit}", file=out)
            return 1
    else:
        from repro.baselines.treewidth import treewidth_min_fill

        width = treewidth_min_fill(hypergraph)
    print(f"{args.measure} = {width}", file=out)
    return 0


def _cmd_decompose(args, out) -> int:
    hypergraph = _load_hypergraph(args.hypergraph)
    from repro.core.solve import SolveRequest, execute

    budget = _make_budget(args)
    # Unconstrained: Algorithm 1 (mode "decide"); --concov asks the same
    # block DP for a ConCov-compliant CTD (mode "optimal").
    result = execute(
        SolveRequest(
            hypergraph=hypergraph,
            mode="optimal" if args.concov else "decide",
            width=args.width,
            constraint="concov" if args.concov else None,
        ),
        budget=budget,
    )
    if result.decomposition is None:
        label = "ConCov-shw" if args.concov else "shw"
        qualifier = (
            "run stopped early, result inconclusive: "
            if budget is not None and budget.exhausted
            else "no decomposition of "
        )
        print(f"{qualifier}{label} width <= {args.width}", file=out)
        return _finish(budget, out, ok=1)
    _print_decomposition(result.decomposition, out)
    return _finish(budget, out)


def _cmd_enumerate(args, out) -> int:
    hypergraph = _load_hypergraph(args.hypergraph)
    from repro.core.solve import SolveRequest, execute

    budget = _make_budget(args)
    result = execute(
        SolveRequest(
            hypergraph=hypergraph,
            mode="enumerate",
            width=args.width,
            constraint="concov" if args.concov else None,
            preference="nodecount",
            limit=args.limit,
        ),
        budget=budget,
    )
    count = 0
    for count, decomposition in enumerate(result.decompositions, start=1):
        print(f"# decomposition {count}", file=out)
        _print_decomposition(decomposition, out)
    if count == 0:
        if budget is not None and budget.exhausted:
            print("run stopped early before the first decomposition", file=out)
        else:
            print(f"no decomposition of width <= {args.width}", file=out)
    return _finish(budget, out, ok=0 if count else 1)


def _cmd_stats(args, out) -> int:
    hypergraph = _load_hypergraph(args.hypergraph)
    for key, value in hypergraph_statistics(hypergraph).items():
        print(f"{key}: {value}", file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    from repro.experiments.figures import evaluation_rows
    from repro.experiments.harness import QueryExperiment
    from repro.experiments.report import format_table
    from repro.workloads.registry import benchmark_query

    entry = benchmark_query(args.query)
    budget = _make_budget(args)
    experiment = QueryExperiment.from_benchmark(
        entry, scale=args.scale, seed=args.seed, dump_path=args.dump, budget=budget
    )
    decompositions, elapsed = experiment.ranked_decompositions(limit=args.limit)
    rows = evaluation_rows(experiment.evaluate(decompositions))
    baseline = experiment.baseline()
    if baseline.outcome.partial:
        baseline_line = f"Baseline: not completed ({baseline.outcome.status}), work={baseline.work}"
    else:
        baseline_line = f"Baseline: work={baseline.work}, result={baseline.result}"
    print(
        f"{entry.name}: top-{len(rows)} ConCov-shw {entry.width} decompositions "
        f"(enumerated in {elapsed * 1000:.1f} ms)\n",
        format_table(rows, ["rank", "cost_cardinalities", "cost_estimates", "work", "result"]),
        f"\n{baseline_line}",
        sep="\n",
        file=out,
    )
    return _finish(budget, out)


def _cmd_query(args, out) -> int:
    from repro.db.frontdoor import plan_query, run_query
    from repro.runtime.errors import UserError

    selected = [s for s in (args.sql, args.file, args.name) if s]
    if len(selected) != 1:
        raise UserError("exactly one of --sql, --file or --name is required")

    if args.name is not None:
        from repro.workloads.registry import benchmark_query

        entry = _registry_lookup(benchmark_query, args.name)
        database, source = entry.load(scale=args.scale, seed=args.seed)
        query_name = args.name
    else:
        from repro.workloads.registry import workload_entry

        if args.sql is not None:
            source = args.sql
        else:
            try:
                with open(args.file, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise UserError(
                    f"cannot read query file {args.file!r}: {exc}"
                ) from exc
        workload = _registry_lookup(workload_entry, args.workload)
        database = workload.load(scale=args.scale, seed=args.seed)
        query_name = "query"

    cache = None if args.no_cache else (args.cache or "auto")
    budget = _make_budget(args)
    if args.explain:
        plan = plan_query(
            source,
            database,
            width=args.width,
            name=query_name,
            cache=cache,
            budget=budget,
        )
        print(plan.describe(), file=out)
        return _finish(budget, out, ok=0 if plan.decomposition is not None else 1)

    result = run_query(
        source,
        database,
        width=args.width,
        name=query_name,
        cache=cache,
        budget=budget,
    )
    if result.rows is None:
        print("result: none (run stopped early)", file=out)
    elif result.plan.query.aggregate is not None:
        print(f"{result.columns[0]} = {result.value}", file=out)
    else:
        print("\t".join(result.columns), file=out)
        for row in result.rows:
            print("\t".join(str(value) for value in row), file=out)
        print(f"{len(result.rows)} row(s)", file=out)
    print(
        f"width={result.width} provenance={result.provenance} "
        f"solve_work={result.solve_work} execution_work={result.execution_work}",
        file=out,
    )
    return _finish(budget, out)


def _cmd_reproduce(args, out) -> int:
    from repro.experiments.figures import reproduction

    print(reproduction(), file=out)
    return 0


# -- supervised batch runtime ----------------------------------------------


def default_ledger_path(tasks) -> str:
    """A deterministic per-batch ledger path under ``workloads/.batches``.

    Derived from the task fingerprints, so the same batch invocation maps
    to the same ledger file — which is what makes bare re-runs resume.
    """
    import hashlib

    from repro.runtime.checkpoint import task_fingerprint

    digest = hashlib.sha256(
        ",".join(sorted(task_fingerprint(task) for task in tasks)).encode("utf-8")
    ).hexdigest()[:12]
    return os.path.join("workloads", ".batches", f"batch-{digest}.jsonl")


def _cmd_batch(args, out) -> int:
    from repro.experiments.harness import BatchCertifier, batch_task_specs
    from repro.runtime.checkpoint import BatchLedger
    from repro.runtime.supervisor import RetryPolicy, Supervisor

    tasks = _registry_lookup(
        batch_task_specs,
        queries=args.queries or None,
        scale=args.scale,
        seed=args.seed,
        deadline=args.timeout,
        max_work=args.max_work,
    )
    ledger = None
    ledger_path = None
    if not args.no_ledger:
        ledger_path = args.ledger or default_ledger_path(tasks)
        if args.fresh and os.path.exists(ledger_path):
            os.unlink(ledger_path)
        ledger = BatchLedger(ledger_path)
    supervisor = Supervisor(
        certifier=BatchCertifier(),
        max_workers=args.workers,
        hard_timeout=args.task_timeout,
        retry=RetryPolicy(max_attempts=args.retries),
    )
    report = supervisor.run(tasks, ledger=ledger)
    print(report.describe(), file=out)
    if ledger_path is not None:
        print(f"ledger: {ledger_path}", file=out)
    return report.exit_code


# -- decomposition cache management ------------------------------------------


def _ctd_cache(args):
    from repro.core.cache import DecompositionCache

    return DecompositionCache(args.cache or "")


def _summarise_kind(kind: str) -> str:
    """One compact human-readable token for a request-kind JSON string."""
    import json

    try:
        spec = json.loads(kind)
    except (TypeError, ValueError):
        return "unreadable"
    parts = [f"mode={spec.get('mode')}", f"k={spec.get('width')}"]
    if spec.get("iterations"):
        parts.append(f"i={spec['iterations']}")
    if spec.get("constraint"):
        parts.append(str(spec["constraint"]))
    if spec.get("preference"):
        parts.append(str(spec["preference"]))
    if spec.get("limit", 1) != 1:
        parts.append(f"limit={spec['limit']}")
    if spec.get("data_key"):
        parts.append(f"data={spec['data_key']}")
    return " ".join(parts)


def _cmd_cache_list(args, out) -> int:
    cache = _ctd_cache(args)
    infos = cache.entries()
    quarantined = cache.quarantined()
    if not infos and not quarantined:
        print(f"no cache entries under {cache.directory}", file=out)
        return 0
    for info in infos:
        if not info.readable:
            print(
                f"{os.path.basename(info.path)}  UNREADABLE "
                f"({info.size_bytes} B)",
                file=out,
            )
            continue
        print(
            f"{info.fingerprint[:16]}  {_summarise_kind(info.kind):<40} "
            f"width={info.width} decompositions={info.decompositions} "
            f"{info.size_bytes / 1024:.1f} KiB",
            file=out,
        )
    for path in quarantined:
        print(f"quarantined: {os.path.basename(path)}", file=out)
    print(
        f"{len(infos)} entr{'y' if len(infos) == 1 else 'ies'}, "
        f"{len(quarantined)} quarantined, "
        f"{cache.size_bytes() / 1024:.1f} KiB total",
        file=out,
    )
    return 0


def _cmd_cache_clean(args, out) -> int:
    cache = _ctd_cache(args)
    removed = cache.clean()
    print(f"removed {removed} cache file(s) from {cache.directory}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Soft and constrained hypertree decompositions (PODS 2025 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    width = subparsers.add_parser("width", help="compute a width measure of a hypergraph")
    _hypergraph_arguments(width)
    width.add_argument("--measure", choices=["shw", "hw", "ghw", "tw"], default="shw")
    width.add_argument("-k", "--max-k", type=_POSITIVE_INT, default=None, dest="max_k")
    width.add_argument(
        "--iterations", type=_NON_NEGATIVE_INT, default=None, help="shw_i iteration level, default 0"
    )
    _budget_arguments(width)
    width.set_defaults(handler=_cmd_width)

    decompose = subparsers.add_parser("decompose", help="compute a soft decomposition")
    _hypergraph_arguments(decompose, decomposing=True)
    _budget_arguments(decompose)
    decompose.set_defaults(handler=_cmd_decompose)

    enumerate_parser = subparsers.add_parser(
        "enumerate", help="enumerate ranked soft decompositions"
    )
    _hypergraph_arguments(enumerate_parser, decomposing=True)
    enumerate_parser.add_argument(
        "--limit", type=_POSITIVE_INT, default=5, help="how many decompositions to print"
    )
    _budget_arguments(enumerate_parser)
    enumerate_parser.set_defaults(handler=_cmd_enumerate)

    stats = subparsers.add_parser("stats", help="structural statistics of a hypergraph")
    _hypergraph_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    query = subparsers.add_parser(
        "query",
        help="run a SQL query through the front door: parse, cached CTD, Yannakakis",
    )
    query.add_argument("--sql", default=None, metavar="TEXT", help="SQL query text")
    query.add_argument(
        "--file", default=None, metavar="PATH", help="file containing the SQL query"
    )
    query.add_argument(
        "--name",
        default=None,
        metavar="QUERY",
        help="a registered benchmark query (q_ds .. q_lb, jl01 .. jl10)",
    )
    query.add_argument(
        "--workload",
        default="joblite",
        metavar="DATASET",
        help="dataset --sql/--file queries run against (default: joblite)",
    )
    _data_arguments(query, scale=1.0)
    query.add_argument(
        "--width",
        type=_POSITIVE_INT,
        default=None,
        metavar="K",
        help="decompose at exactly width K (default: least-width search)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the decomposition and execution plan without executing",
    )
    _cache_argument(query)
    query.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="skip the persistent decomposition cache",
    )
    _budget_arguments(query)
    query.set_defaults(handler=_cmd_query)

    experiment = subparsers.add_parser(
        "experiment", help="run one benchmark query end to end"
    )
    experiment.add_argument(
        "query",
        choices=["q_ds", "q_hto", "q_hto2", "q_hto3", "q_hto4", "q_lb"]
        + [f"jl{i:02d}" for i in range(1, 11)],
    )
    _data_arguments(experiment, scale=0.5)
    experiment.add_argument("--limit", type=_POSITIVE_INT, default=5)
    experiment.add_argument(
        "--dump",
        default=None,
        metavar="DIR",
        help="load real dump files from DIR instead of generating",
    )
    _budget_arguments(experiment)
    experiment.set_defaults(handler=_cmd_experiment)

    subparsers.add_parser(
        "reproduce", help="check the paper's claims at scale 1 and print docs/REPRODUCTION.md"
    ).set_defaults(handler=_cmd_reproduce)

    batch = subparsers.add_parser(
        "batch",
        help="run benchmark queries under the supervised batch runtime",
    )
    batch.add_argument(
        "--queries",
        nargs="*",
        default=None,
        metavar="QUERY",
        help="benchmark query names (default: all six)",
    )
    _data_arguments(batch, scale=0.5)
    _budget_arguments(batch)
    batch.add_argument(
        "--task-timeout",
        type=_POSITIVE_FLOAT,
        default=300.0,
        dest="task_timeout",
        metavar="SECONDS",
        help="hard wall-clock allowance per attempt; overrunning workers are killed",
    )
    batch.add_argument(
        "--workers", type=_POSITIVE_INT, default=1, help="concurrent worker processes"
    )
    batch.add_argument(
        "--retries",
        type=_POSITIVE_INT,
        default=2,
        help="attempts per degradation level before descending",
    )
    batch.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="checkpoint ledger path (default: derived, under workloads/.batches)",
    )
    batch.add_argument(
        "--no-ledger",
        action="store_true",
        dest="no_ledger",
        help="run without a checkpoint ledger (no resume)",
    )
    batch.add_argument(
        "--fresh",
        action="store_true",
        help="delete an existing ledger instead of resuming from it",
    )
    batch.set_defaults(handler=_cmd_batch)

    cache_parser = subparsers.add_parser(
        "cache", help="manage the persistent decomposition cache"
    )
    cache_commands = cache_parser.add_subparsers(dest="cache_command", required=True)

    cache_list = cache_commands.add_parser("list", help="list cached decompositions")
    _cache_argument(cache_list)
    cache_list.set_defaults(handler=_cmd_cache_list)

    cache_clean = cache_commands.add_parser(
        "clean", help="delete cached decompositions and quarantined entries"
    )
    _cache_argument(cache_clean)
    cache_clean.set_defaults(handler=_cmd_cache_clean)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code.

    A Ctrl-C that escapes the governed solvers (e.g. during parsing or an
    ungoverned verb) still exits with the conventional 130 instead of a
    traceback; governed verbs convert it to an ``interrupted`` outcome with
    their partial results before it ever reaches here.
    """
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.runtime.errors import ReproError

    try:
        return args.handler(args, out)
    except ReproError as exc:
        # The expected-failure taxonomy: one structured line, typed exit
        # code, no traceback.
        print(f"error: {exc}", file=out)
        return exc.exit_code
    except FileNotFoundError as exc:
        # A missing input file at the CLI boundary is a user error even
        # when it surfaces from deep inside a loader.
        print(f"error: file not found: {exc.filename or exc}", file=out)
        return 2
    except KeyboardInterrupt:
        from repro.runtime.budget import EXIT_CODES, STATUS_INTERRUPTED

        print("interrupted", file=out)
        return EXIT_CODES[STATUS_INTERRUPTED]


if __name__ == "__main__":
    raise SystemExit(main())
