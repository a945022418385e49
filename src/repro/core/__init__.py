"""The paper's primary contribution: Object Summaries and size-l OSs.

Modules:

* :mod:`repro.core.os_tree` — the columnar OS (:class:`FlatOS`, one row
  per tuple occurrence), its :class:`ObjectSummary` render view, and
  size-l results;
* :mod:`repro.core.generation` — Algorithm 5 (complete OS generation) over
  two backends: the in-memory data graph and direct database queries;
* :mod:`repro.core.dp` — Algorithm 1, the optimal dynamic program;
* :mod:`repro.core.bottom_up` — Algorithm 2, Bottom-Up Pruning;
* :mod:`repro.core.top_path` — Algorithm 3, Update Top-Path-l (naive and
  s(v)-optimised variants);
* :mod:`repro.core.prelim` — Algorithm 4, prelim-l OS generation with
  Avoidance Conditions 1 and 2;
* :mod:`repro.core.brute_force` — literal exponential optimum (test oracle);
* :mod:`repro.core.registry` — open algorithm/backend registries (plugins);
* :mod:`repro.core.options` — typed query options (:class:`QueryOptions`,
  the :class:`Algorithm`/:class:`Source`/:class:`Backend` enums,
  :class:`ResultStats`);
* :mod:`repro.core.engine` — the public query engine: keyword → size-l OSs;
* :mod:`repro.core.builder` — :class:`EngineBuilder`, the single
  construction path for engines and sessions;
* :mod:`repro.core.snippet` — word/attribute-budget summaries (Section 7
  future work);
* :mod:`repro.core.topk` — ranking of result OS sets (Section 7 future work);
* :mod:`repro.core.analysis` — the space of optimal size-l OSs across l
  (Section 7 future work);
* :mod:`repro.core.cache` — pre-computation/caching of OSs and size-l
  results (Section 7 future work).
"""

from repro.core.os_tree import FlatOS, OSNode, ObjectSummary, SizeLResult
from repro.core.generation import (
    DataGraphBackend,
    DatabaseBackend,
    GenerationBackend,
    generate_os,
    generate_os_flat,
)
from repro.core.dp import optimal_size_l
from repro.core.bottom_up import bottom_up_size_l
from repro.core.top_path import top_path_size_l
from repro.core.prelim import PrelimStats, generate_prelim_os
from repro.core.brute_force import brute_force_size_l
from repro.core.registry import (
    ALGORITHM_REGISTRY,
    BACKEND_REGISTRY,
    Registry,
    algorithm_names,
    backend_names,
    get_algorithm,
    get_backend_factory,
    register_algorithm,
    register_backend,
)
from repro.core.options import (
    Algorithm,
    Backend,
    QueryOptions,
    ResultStats,
    Source,
    resolve_options,
)
from repro.core.engine import KeywordResult, SizeLEngine
from repro.core.builder import EngineBuilder, build_named_dataset
from repro.core.snippet import word_budget_summary
from repro.core.topk import rank_data_subjects, rank_by_summary_importance
from repro.core.analysis import (
    nesting_profile,
    optimal_family,
    stability_profile,
)
from repro.core.cache import CacheStats, SummaryCache
from repro.core.export import result_to_dict, result_to_json, summary_to_dict

__all__ = [
    "OSNode",
    "ObjectSummary",
    "FlatOS",
    "SizeLResult",
    "GenerationBackend",
    "DataGraphBackend",
    "DatabaseBackend",
    "generate_os",
    "generate_os_flat",
    "optimal_size_l",
    "bottom_up_size_l",
    "top_path_size_l",
    "PrelimStats",
    "generate_prelim_os",
    "brute_force_size_l",
    "SizeLEngine",
    "KeywordResult",
    "Registry",
    "ALGORITHM_REGISTRY",
    "BACKEND_REGISTRY",
    "register_algorithm",
    "register_backend",
    "algorithm_names",
    "backend_names",
    "get_algorithm",
    "get_backend_factory",
    "Algorithm",
    "Backend",
    "Source",
    "QueryOptions",
    "ResultStats",
    "resolve_options",
    "EngineBuilder",
    "build_named_dataset",
    "word_budget_summary",
    "rank_data_subjects",
    "rank_by_summary_importance",
    "optimal_family",
    "nesting_profile",
    "stability_profile",
    "SummaryCache",
    "CacheStats",
    "summary_to_dict",
    "result_to_dict",
    "result_to_json",
]
