"""repro — a full reproduction of "Size-l Object Summaries for Relational
Keyword Search" (Fakas, Cai, Mamoulis; PVLDB 5(3), 2011).

The library implements the paper's complete stack from scratch:

* an embedded relational engine (:mod:`repro.db`),
* schema graphs and G_DS treealization with affinity (:mod:`repro.schema_graph`),
* global ObjectRank / ValueRank tuple importance (:mod:`repro.ranking`),
* the tuple-level data graph index (:mod:`repro.datagraph`),
* Object Summary generation and the size-l algorithms — optimal DP,
  Bottom-Up Pruning, Update Top-Path-l, prelim-l OS generation
  (:mod:`repro.core`),
* keyword search (:mod:`repro.search`),
* synthetic DBLP and TPC-H datasets (:mod:`repro.datasets`),
* the Section-6 experiment harness (:mod:`repro.evaluation`),
* an offline-precompute + mmap snapshot persistence tier
  (:mod:`repro.persist`), and
* a service layer — typed wire protocol, multi-dataset
  :class:`~repro.service.Deployment` registry, and the ``repro serve``
  HTTP front end (:mod:`repro.service`).

Quickstart::

    from repro import QueryOptions, Session
    from repro.datasets.dblp import small_dblp

    session = Session.from_dataset(small_dblp())
    for entry in session.iter_keyword_query("Faloutsos", options=QueryOptions(l=15)):
        print(entry.result.render())

See README.md for the full API tour (typed options, registries, builder)
and the old→new migration table.
"""

from repro.core import (
    Algorithm,
    Backend,
    CacheStats,
    EngineBuilder,
    FlatOS,
    KeywordResult,
    ObjectSummary,
    OSNode,
    QueryOptions,
    ResultStats,
    SizeLEngine,
    SizeLResult,
    Source,
    SummaryCache,
    algorithm_names,
    backend_names,
    bottom_up_size_l,
    brute_force_size_l,
    generate_os,
    generate_os_flat,
    generate_prelim_os,
    optimal_size_l,
    register_algorithm,
    register_backend,
    top_path_size_l,
)
from repro.session import Session
from repro.service import Deployment
from repro.persist import (
    Snapshot,
    precompute_snapshot,
    select_subjects,
    write_snapshot,
)
from repro.db import Column, ColumnType, Database, ForeignKey, TableSchema
from repro.ranking import (
    ImportanceStore,
    compute_objectrank,
    compute_pagerank,
    compute_valuerank,
)
from repro.schema_graph import GDS, ManualAffinityModel, SchemaGraph, build_gds
from repro.storage import (
    BufferPool,
    export_database,
    import_database,
    load_dblp_xml,
    open_dataset,
)

__version__ = "1.2.0"

__all__ = [
    "ObjectSummary",
    "OSNode",
    "FlatOS",
    "SizeLEngine",
    "SizeLResult",
    "Session",
    "Deployment",
    "SummaryCache",
    "CacheStats",
    "KeywordResult",
    "EngineBuilder",
    "QueryOptions",
    "ResultStats",
    "Algorithm",
    "Source",
    "Backend",
    "register_algorithm",
    "register_backend",
    "algorithm_names",
    "backend_names",
    "bottom_up_size_l",
    "brute_force_size_l",
    "generate_os",
    "generate_os_flat",
    "generate_prelim_os",
    "optimal_size_l",
    "top_path_size_l",
    "Snapshot",
    "precompute_snapshot",
    "select_subjects",
    "write_snapshot",
    "Column",
    "ColumnType",
    "Database",
    "ForeignKey",
    "TableSchema",
    "ImportanceStore",
    "compute_objectrank",
    "compute_pagerank",
    "compute_valuerank",
    "GDS",
    "ManualAffinityModel",
    "SchemaGraph",
    "build_gds",
    "BufferPool",
    "export_database",
    "import_database",
    "load_dblp_xml",
    "open_dataset",
    "__version__",
]
