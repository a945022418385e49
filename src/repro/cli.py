"""Command-line interface: size-l OS keyword search over the demo databases.

Usage (after ``pip install -e .``)::

    python -m repro query --database dblp --keywords Faloutsos --l 15
    python -m repro query --database tpch --keywords "Supplier#000001" --l 10
    python -m repro query --database dblp --keywords Faloutsos --backend database
    python -m repro precompute --database dblp --out snap.d --table author
    python -m repro query --database dblp --keywords Faloutsos \\
        --source complete --snapshot snap.d
    python -m repro serve --database dblp --snapshot snap.d --port 8077
    python -m repro gds --database dblp --subject author
    python -m repro analyze --database dblp --subject author --max-l 25
    python -m repro load-dblp --xml dblp.xml --out dblp.sqlite --limit 5000
    python -m repro query --db dblp.sqlite --keywords Faloutsos --l 15

``query`` runs the paper's end-to-end pipeline (Examples 3-5), streaming
each result as its size-l OS is computed; ``precompute`` generates
complete OSs offline and writes a :mod:`repro.persist` snapshot that
``query --snapshot`` warm-starts from; ``serve`` exposes the same
pipeline over HTTP (:mod:`repro.service`); ``gds`` prints the annotated,
θ-pruned G_DS (Figure 2/12); ``analyze`` runs the Section-7
optimal-family analysis (nesting/stability across l).

Every subcommand resolves its dataset through one shared loader
(:func:`_load_session`) — the dataset flags are declared once on a parent
parser and built once per invocation.  ``--db PATH.sqlite`` swaps the
synthetic dataset for a real one previously imported (``load-dblp`` or
:func:`repro.storage.export_database`); ``--pool-bytes`` serves the data
graph through a bounded buffer pool instead of fully resident.  Exit
codes are pinned:

* ``0`` — success;
* ``1`` — the command ran but found nothing (no matching data subjects);
* ``2`` — usage or validation errors (argparse, bad options, snapshot
  rejection, unknown tables...).

``--algorithm`` and ``--backend`` choices derive from
:mod:`repro.core.registry`, so plugins registered via
``register_algorithm`` / ``register_backend`` before the parser is built
appear automatically.

The CLI builds the synthetic databases on the fly (deterministic under
``--seed``); wiring a custom database means using the library API directly
(see README quickstart).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import Sequence

from repro.core.analysis import nesting_profile, optimal_family, stability_profile
from repro.core.builder import NAMED_DATASETS, EngineBuilder
from repro.core.options import QueryOptions
from repro.core.registry import algorithm_names, backend_names
from repro.errors import ReproError, ServiceError
from repro.session import Session

#: Pinned exit codes (asserted by tests/test_cli.py).
EXIT_OK = 0
EXIT_NO_RESULTS = 1
EXIT_ERROR = 2


def _load_session(args: argparse.Namespace, *, cache_size: int = 64) -> Session:
    """The one shared dataset loader behind every subcommand.

    Builds the named dataset once (deterministic under ``--seed`` /
    ``--scale``) and wraps it in a Session; a ``--snapshot`` directory,
    when the subcommand defines the flag, is opened, validated, and
    attached (library errors propagate to :func:`main`, which maps them
    to exit code 2).
    """
    snapshot = None
    if getattr(args, "snapshot", None) is not None:
        # Opened (and checksum-verified) BEFORE the dataset is synthesised:
        # a typo'd path or corrupt snapshot fails in milliseconds instead
        # of after the most expensive step of the invocation.
        from repro.persist.snapshot import Snapshot

        snapshot = Snapshot.open(
            args.snapshot, verify=not getattr(args, "no_verify", False)
        )
    if getattr(args, "db", None) is not None:
        # A real imported dataset: --db replaces synthesis entirely, so
        # --seed/--scale are inert here.  A missing or corrupt file raises
        # StorageError, which main() maps to the pinned exit code 2.
        from repro.storage import open_dataset

        builder = EngineBuilder.from_dataset(open_dataset(args.db))
    else:
        builder = EngineBuilder.named(
            args.database, seed=args.seed, scale=args.scale
        )
    if snapshot is not None:
        builder.with_snapshot(snapshot)
    if getattr(args, "pool_bytes", None) is not None:
        builder.with_buffer_pool(args.pool_bytes)
    return builder.build_session(cache_size=cache_size)


def _dataset_label(args: argparse.Namespace) -> str:
    """What to call the served dataset: the --db file's stem, else the
    named database."""
    if getattr(args, "db", None) is not None:
        return Path(args.db).stem
    return args.database


def _cmd_query(args: argparse.Namespace) -> int:
    options = QueryOptions(
        l=args.l,
        algorithm=args.algorithm,
        source=args.source,
        backend=args.backend,
        max_results=args.max_results,
    ).normalized()
    session = _load_session(args)
    rank = 0
    for entry in session.iter_keyword_query(args.keywords, options=options):
        rank += 1
        print(
            f"--- result {rank}: {entry.match.table} "
            f"(Im(t_DS)={entry.match.importance:.2f}, "
            f"Im(S)={entry.result.importance:.2f}, "
            f"|OS|={entry.result.stats.initial_os_size}) ---"
        )
        print(entry.result.render())
        print()
    if rank == 0:
        print("no matching data subjects")
        return EXIT_NO_RESULTS
    if args.snapshot is not None:
        stats = session.cache_stats()
        print(
            f"[snapshot] disk hits: {stats.disk_hits}, "
            f"disk misses: {stats.disk_misses}"
        )
    return EXIT_OK


def _install_graceful_shutdown(server: object) -> None:
    """SIGTERM/SIGINT stop the serving loop cleanly (exit 0, not a dump).

    The handler runs *on* the thread inside ``serve_forever`` and
    ``shutdown()`` blocks until that loop exits, so the call is handed to
    a helper thread.  Outside the main thread (in-process test harnesses)
    signal handlers cannot be installed; that is fine — those callers
    stop the server directly.
    """

    def _terminate(signum: int, _frame: object) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()  # type: ignore[attr-defined]

    try:
        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)
    except ValueError:  # not the main thread
        pass


def _serve_loop(server: object, args: argparse.Namespace, banner: str) -> int:
    """The shared serve lifecycle: banner, ready file, signals, loop."""
    print(banner, flush=True)
    if args.ready_file is not None:
        # smoke-test hook: the bound (possibly ephemeral) URL, readable by
        # the process that launched us
        args.ready_file.write_text(server.url + "\n", encoding="utf-8")  # type: ignore[attr-defined]
    _install_graceful_shutdown(server)
    try:
        if args.serve_seconds is not None:
            shutdown = threading.Timer(args.serve_seconds, server.shutdown)  # type: ignore[attr-defined]
            shutdown.daemon = True
            shutdown.start()
        server.serve_forever()  # type: ignore[attr-defined]
    except KeyboardInterrupt:
        pass  # a clean operator stop, not an error
    return EXIT_OK


def _middleware_config(args: argparse.Namespace) -> "object | None":
    """The serve flags as one :class:`MiddlewareConfig` (None = disarmed).

    Both topologies build their pipeline from this same object, so
    ``--shards 1`` and ``--shards 8`` enforce identical policy at their
    edge.
    """
    from repro.service.middleware import MiddlewareConfig

    if (
        args.auth_token_file is None
        and args.rate_limit is None
        and args.rate_burst is None
        and args.max_concurrent is None
        and args.access_log is None
    ):
        return None
    return MiddlewareConfig(
        auth_token_file=args.auth_token_file,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        max_concurrent=args.max_concurrent,
        access_log=None if args.access_log is None else str(args.access_log),
    )


def _serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: the multi-process cluster path."""
    from repro.cluster import Cluster, DatasetSpec

    spec = DatasetSpec(
        name=args.database,
        database=args.database,
        seed=args.seed,
        scale=args.scale,
        snapshot=None if args.snapshot is None else str(args.snapshot),
        verify=not args.no_verify,
    )
    # hop access-log lines go to the same file as the edge's (atomic
    # appends, stamped with the shard); stderr-mode edge logs keep hop
    # logging off — N workers interleaving one terminal helps no one
    hop_log = ""
    if args.access_log is not None and str(args.access_log) != "-":
        hop_log = str(args.access_log)
    cluster = Cluster(
        [spec],
        args.shards,
        cache_size=args.cache_size,
        access_log=hop_log,
    )
    cluster.start()
    try:
        try:
            server = cluster.create_http_server(
                host=args.host,
                port=args.port,
                verbose=args.verbose,
                middleware=_middleware_config(args),
            )
        except ServiceError as exc:  # bad middleware config (e.g. token file)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except OSError as exc:
            print(
                f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr
            )
            return EXIT_ERROR
        banner = (
            f"serving {args.database} on {server.url} "
            f"({args.shards} shards, consistent-hash routed)"
        )
        try:
            return _serve_loop(server, args, banner)
        finally:
            server.server_close()
    finally:
        cluster.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP front end over the shared loader's Session.

    The dataset (and optional snapshot) resolve through the exact same
    :func:`_load_session` path as ``query`` — no serve-only dataset-flag
    drift — then get registered as one :class:`~repro.service.Deployment`
    entry named after the database.

    ``--shards N`` (N > 1) swaps the in-process dispatcher for the
    :mod:`repro.cluster` worker pool: N subprocesses each build (or
    snapshot-attach) the dataset, the front end routes by consistent
    hashing, and SIGTERM drains everything in order.
    """
    if args.shards > 1:
        if args.db is not None:
            # DatasetSpec describes a dataset workers can synthesise
            # independently; a SQLite file has no such recipe yet.
            raise ReproError(
                "--db cannot be combined with --shards > 1; serve an "
                "imported dataset from a single process"
            )
        return _serve_cluster(args)
    from repro.service import Deployment, create_server

    name = _dataset_label(args)
    session = _load_session(args, cache_size=args.cache_size)
    deployment = Deployment().add_session(name, session)
    try:
        server = create_server(
            deployment,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            middleware=_middleware_config(args),
        )
    except ServiceError as exc:  # bad middleware config (e.g. token file)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        # busy port, privileged port, unresolvable host: a usage error
        # (exit 2), not a bare traceback — and never exit 1, which the
        # pinned contract reserves for "ran but found nothing"
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return _serve_loop(server, args, f"serving {name} on {server.url}")
    finally:
        server.server_close()


def _cmd_precompute(args: argparse.Namespace) -> int:
    from repro.persist.precompute import precompute_snapshot, select_subjects

    session = _load_session(args)
    subjects = select_subjects(
        session.engine,
        table=args.table,
        row_ids=args.ids,
        top_keywords=args.top_keywords,
    )
    report = precompute_snapshot(
        session.engine,
        subjects,
        args.out,
        overwrite=args.overwrite,
    )
    print(
        f"snapshot written: {report.path}\n"
        f"  subjects: {report.subjects}\n"
        f"  tree nodes: {report.tree_nodes}\n"
        f"  size: {report.size_bytes / 1024:.1f} KiB\n"
        f"  precompute time: {report.seconds:.2f}s"
    )
    return EXIT_OK


def _cmd_load_dblp(args: argparse.Namespace) -> int:
    from repro.storage import load_dblp_xml

    report = load_dblp_xml(
        args.xml, args.out, limit=args.limit, overwrite=args.overwrite
    )
    print(
        f"loaded {report.path}\n"
        f"  papers: {report.papers}  authors: {report.authors}  "
        f"conferences: {report.conferences}\n"
        f"  writes: {report.writes}  cites: {report.cites}  "
        f"(skipped records: {report.skipped}, "
        f"unresolved citations: {report.unresolved_citations})\n"
        f"  total tuples: {report.total_tuples}"
    )
    return EXIT_OK


def _cmd_gds(args: argparse.Namespace) -> int:
    session = _load_session(args)
    print(session.engine.gds_for(args.subject).render())
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    session = _load_session(args)
    engine = session.engine
    matches = engine.searcher.search(args.keywords) if args.keywords else None
    if matches:
        rds_table, row_id = matches[0].table, matches[0].row_id
    else:
        rds_table, row_id = args.subject, 0
    tree = session.complete_os(rds_table, row_id)
    family = optimal_family(tree, args.max_l)
    nesting = nesting_profile(family)
    stability = stability_profile(family)
    print(f"subject: {rds_table}#{row_id}  |OS| = {tree.size}")
    print(
        f"optimal family l=1..{args.max_l}: "
        f"nested pairs {nesting.nested_fraction * 100:.1f}% "
        f"(breaks at l = {nesting.breaks or 'none'})"
    )
    print(
        f"mean consecutive Jaccard = {stability.mean_jaccard:.3f}; "
        f"core = {stability.core_size} tuples, union = {stability.union_size} "
        f"(vs Σl = {sum(range(1, args.max_l + 1))} without sharing)"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Size-l Object Summaries for Relational Keyword Search "
        "(VLDB 2011) - reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=7, help="dataset seed")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset size multiplier"
    )
    # Declared once, inherited by every subcommand (the shared loader's
    # contract: any parsed namespace carries the dataset selection).
    dataset_parent = argparse.ArgumentParser(add_help=False)
    dataset_parent.add_argument(
        "--database", choices=NAMED_DATASETS, default="dblp"
    )
    dataset_parent.add_argument(
        "--db",
        default=None,
        metavar="PATH.sqlite",
        help="serve a real imported dataset from this SQLite file "
        "(see load-dblp) instead of synthesising --database; a missing "
        "or corrupt file exits 2",
    )
    dataset_parent.add_argument(
        "--pool-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="serve the data graph through a buffer pool of this capacity "
        "instead of fully resident (page hit/miss/eviction counters "
        "appear in /v1/metrics)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser(
        "query", parents=[dataset_parent], help="run a size-l OS keyword query"
    )
    query.add_argument("--keywords", nargs="+", required=True)
    query.add_argument("--l", dest="l", type=int, default=10)
    query.add_argument(
        "--algorithm", choices=algorithm_names(), default="top_path"
    )
    query.add_argument("--source", choices=("complete", "prelim"), default="prelim")
    query.add_argument(
        "--backend",
        choices=backend_names(),
        default="datagraph",
        help="OS-generation backend (registry-extensible)",
    )
    query.add_argument("--max-results", type=int, default=3)
    query.add_argument(
        "--snapshot",
        default=None,
        metavar="DIR",
        help="warm-start from a precomputed snapshot directory (see the "
        "precompute subcommand); rejected with a clear error when it "
        "does not match the dataset",
    )
    query.add_argument(
        "--no-verify",
        action="store_true",
        help="skip per-file checksum verification of --snapshot (attach "
        "becomes O(1) instead of O(snapshot bytes); the manifest "
        "self-checksum and dataset fingerprint are still checked)",
    )
    query.set_defaults(func=_cmd_query)

    precompute = sub.add_parser(
        "precompute",
        parents=[dataset_parent],
        help="generate complete OSs offline into a snapshot directory",
    )
    precompute.add_argument(
        "--out", required=True, metavar="DIR", help="snapshot directory to write"
    )
    precompute.add_argument(
        "--table", default=None, help="precompute every subject of this R_DS table"
    )
    precompute.add_argument(
        "--ids",
        type=int,
        nargs="+",
        default=None,
        metavar="ROW",
        help="explicit row ids (requires --table)",
    )
    precompute.add_argument(
        "--top-keywords",
        type=int,
        default=None,
        metavar="K",
        help="precompute the K subjects the most frequent keywords resolve to",
    )
    precompute.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing snapshot at --out",
    )
    precompute.set_defaults(func=_cmd_precompute)

    serve = sub.add_parser(
        "serve",
        parents=[dataset_parent],
        help="serve size-l OS queries over HTTP (see README: Serving over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8077,
        help="TCP port (0 binds an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="serve from N worker subprocesses behind a consistent-hash "
        "router (1 = classic single-process serving)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=64,
        metavar="SUBJECTS",
        help="per-process complete-OS cache capacity (with --shards N the "
        "cluster holds N disjoint partitions of this size)",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        metavar="DIR",
        help="warm-start the served dataset from a precomputed snapshot "
        "(also enables /v1/admin/reload hot swaps)",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip per-file checksum verification of --snapshot",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )
    serve.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        metavar="S",
        help="shut down cleanly after S seconds (smoke tests; default: forever)",
    )
    serve.add_argument(
        "--ready-file",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the bound URL to PATH once listening (smoke tests)",
    )
    serve.add_argument(
        "--auth-token-file",
        type=Path,
        default=None,
        metavar="PATH",
        help="require 'Authorization: Bearer <token>' matching a line of "
        "PATH ('principal:token' or bare token per line); rejects with "
        "the pinned 401 (default: no authentication)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="per-client token-bucket admission rate in requests/second; "
        "over-rate requests get the pinned 429 with Retry-After "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=int,
        default=None,
        metavar="N",
        help="token-bucket capacity (default: 2x the ceiled --rate-limit)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help="per-client in-flight request cap; excess requests get the "
        "pinned 429 (default: unlimited)",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append one JSON line per request to PATH ('-' = stderr); "
        "with --shards N, workers also append per-hop lines stamped "
        "with their shard (default: off)",
    )
    serve.set_defaults(func=_cmd_serve)

    load_dblp = sub.add_parser(
        "load-dblp",
        help="stream a DBLP XML dump into a SQLite dataset file",
    )
    load_dblp.add_argument(
        "--xml",
        required=True,
        metavar="PATH",
        help="DBLP XML dump (the public dblp.xml or any subset of it)",
    )
    load_dblp.add_argument(
        "--out",
        required=True,
        metavar="PATH.sqlite",
        help="SQLite dataset file to write (usable via --db afterwards)",
    )
    load_dblp.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after N accepted papers (CI-sized samples of the real "
        "dump; default: load everything)",
    )
    load_dblp.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing file at --out",
    )
    load_dblp.set_defaults(func=_cmd_load_dblp)

    gds = sub.add_parser(
        "gds", parents=[dataset_parent], help="print an annotated G_DS"
    )
    gds.add_argument("--subject", required=True, help="R_DS table name")
    gds.set_defaults(func=_cmd_gds)

    analyze = sub.add_parser(
        "analyze",
        parents=[dataset_parent],
        help="analyse the space of optimal size-l OSs (Section 7)",
    )
    analyze.add_argument("--subject", default="author", help="R_DS table name")
    analyze.add_argument("--keywords", nargs="*", help="pick the subject by keywords")
    analyze.add_argument("--max-l", type=int, default=20)
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # One uniform mapping: every library-level failure (bad options,
        # unknown tables, snapshot rejection...) is a usage error — same
        # exit code argparse uses — with the message on stderr.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
