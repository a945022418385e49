"""Synthetic DBLP-like bibliographic database.

Schema (Figure 1 of the paper):

    conference(conf_id, name)
    year(year_id, conference_id, year)        -- one row per (conference, year)
    paper(paper_id, title, year_id)
    author(author_id, name)
    writes(writes_id, author_id, paper_id)    -- M:N junction
    cites(cites_id, citing_id, cited_id)      -- M:N self-loop junction

Distributions: author productivity and paper citation counts follow
discrete power laws (preferential attachment), reproducing the OS-size skew
the paper's experiments rely on (prolific authors have OSs of ~1,100+
tuples; Paper OSs are an order of magnitude smaller).

A scripted "Faloutsos family" (Christos, Michalis, Petros) is planted with
high productivity and one famous joint paper, making the paper's running
example (Q1 = "Faloutsos", Examples 3-5) reproducible verbatim.

The module also provides the paper's G_A presets (Figure 13a) and the
Author/Paper G_DS presets with the exact affinities of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.types import ColumnType
from repro.errors import DatasetError
from repro.ranking.authority import AuthorityRelationship, AuthorityTransferGraph
from repro.schema_graph.affinity import ManualAffinityModel
from repro.schema_graph.gds import GDS, build_gds
from repro.schema_graph.graph import SchemaGraph
from repro.util.rng import derive_rng
from repro.datasets import names as pools

FALOUTSOS_FAMILY = ["Christos Faloutsos", "Michalis Faloutsos", "Petros Faloutsos"]

#: Figure 2's absolute affinities for the Author G_DS.
AUTHOR_GDS_AFFINITIES = {
    "Author": 1.0,
    "Paper": 0.92,
    "Co_Author": 0.82,
    "PaperCites": 0.77,
    "PaperCitedBy": 0.77,
    "Year": 0.83,
    "Conference": 0.78,
}

#: Affinities for the Paper G_DS (structure from Section 6.2; the paper does
#: not print values — these keep the same relative ordering as Figure 2).
PAPER_GDS_AFFINITIES = {
    "Paper": 1.0,
    "Author": 0.85,
    "PaperCites": 0.80,
    "PaperCitedBy": 0.80,
    "Year": 0.85,
    "Conference": 0.80,
}


@dataclass
class DBLPConfig:
    """Generator knobs (defaults give a bench-scale database).

    ``author_zipf`` / ``citation_zipf`` are the power-law exponents for
    author productivity and citation popularity; smaller = more skewed.
    """

    n_authors: int = 300
    n_papers: int = 800
    n_conferences: int = 20
    year_range: tuple[int, int] = (1980, 2011)
    mean_authors_per_paper: float = 2.4
    mean_citations_per_paper: float = 8.0
    author_zipf: float = 1.15
    citation_zipf: float = 1.10
    include_faloutsos_family: bool = True
    seed: int = 7

    def validate(self) -> None:
        if self.n_authors < 3 and self.include_faloutsos_family:
            raise DatasetError("the Faloutsos family needs at least 3 authors")
        if self.n_papers < 1 or self.n_authors < 1 or self.n_conferences < 1:
            raise DatasetError("DBLP sizes must be positive")
        if self.year_range[0] > self.year_range[1]:
            raise DatasetError(f"invalid year range: {self.year_range}")


@dataclass
class DBLPDataset:
    """The generated database plus its graph/ranking presets."""

    db: Database
    config: DBLPConfig
    family_author_ids: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # G_A presets (Figure 13a)
    # ------------------------------------------------------------------ #
    def ga1(self) -> AuthorityTransferGraph:
        """The paper's default DBLP G_A: Figure 13(a)."""
        return AuthorityTransferGraph(
            [
                AuthorityRelationship(
                    name="writes",
                    kind="junction",
                    table_a="author",
                    table_b="paper",
                    column_a="author_id",
                    column_b="paper_id",
                    junction="writes",
                    rate_forward=0.1,  # Author → Paper
                    rate_backward=0.3,  # Paper → Author
                ),
                AuthorityRelationship(
                    name="cites",
                    kind="junction",
                    table_a="paper",
                    table_b="paper",
                    column_a="citing_id",
                    column_b="cited_id",
                    junction="cites",
                    rate_forward=0.7,  # citing → cited: citations confer authority
                    rate_backward=0.0,  # cited → citing: none
                ),
                AuthorityRelationship(
                    name="paper_year",
                    kind="fk",
                    table_a="paper",
                    table_b="year",
                    column_a="year_id",
                    column_b=None,
                    rate_forward=0.2,
                    rate_backward=0.2,
                ),
                AuthorityRelationship(
                    name="year_conference",
                    kind="fk",
                    table_a="year",
                    table_b="conference",
                    column_a="conference_id",
                    column_b=None,
                    rate_forward=0.3,
                    rate_backward=0.3,
                ),
            ]
        )

    def ga2(self) -> AuthorityTransferGraph:
        """G_A2: common transfer rates (0.3) on every edge (Section 6)."""
        return self.ga1().with_uniform_rates(0.3)

    # ------------------------------------------------------------------ #
    # G_DS presets (Figure 2)
    # ------------------------------------------------------------------ #
    def author_gds(self, max_depth: int = 4) -> GDS:
        """The Author G_DS with Figure 2's labels and affinities."""
        schema_graph = SchemaGraph(self.db)
        overrides = {
            ("Author", "paper_via_author_id"): "Paper",
            ("Paper", "co_author"): "Co_Author",
            ("Paper", "paper_via_citing_id"): "PaperCites",
            ("Paper", "paper_via_cited_id"): "PaperCitedBy",
            ("Paper", "year"): "Year",
            ("Year", "conference"): "Conference",
        }
        model = ManualAffinityModel(AUTHOR_GDS_AFFINITIES, default_edge=0.3)
        return build_gds(
            schema_graph,
            "author",
            model,
            max_depth=max_depth,
            label_overrides=dict(overrides),
            root_label="Author",
        )

    def paper_gds(self, max_depth: int = 3) -> GDS:
        """The Paper G_DS (Section 6.2's structure)."""
        schema_graph = SchemaGraph(self.db)
        overrides = {
            ("Paper", "author_via_paper_id"): "Author",
            ("Paper", "paper_via_citing_id"): "PaperCites",
            ("Paper", "paper_via_cited_id"): "PaperCitedBy",
            ("Paper", "year"): "Year",
            ("Year", "conference"): "Conference",
        }
        model = ManualAffinityModel(PAPER_GDS_AFFINITIES, default_edge=0.3)
        return build_gds(
            schema_graph,
            "paper",
            model,
            max_depth=max_depth,
            label_overrides=dict(overrides),
            root_label="Paper",
        )

    # ------------------------------------------------------------------ #
    # Engine-construction presets (EngineBuilder.from_dataset)
    # ------------------------------------------------------------------ #
    def default_gds(self) -> dict[str, GDS]:
        """The paper's R_DS presets keyed by root table."""
        return {"author": self.author_gds(), "paper": self.paper_gds()}

    def default_store(self):
        """Global ObjectRank under G_A1 — the paper's default DBLP setting."""
        from repro.ranking.objectrank import compute_objectrank

        return compute_objectrank(self.db, self.ga1())

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def author_id_by_name(self, name: str) -> int:
        """Resolve an exact author name to its author_id."""
        table = self.db.table("author")
        for _row_id, row in table.scan():
            if row[table.schema.column_index("name")] == name:
                return row[table.schema.pk_index]
        raise DatasetError(f"no author named {name!r}")


def _dblp_schemas() -> list[TableSchema]:
    text = ColumnType.TEXT
    integer = ColumnType.INT
    return [
        TableSchema(
            "conference",
            [
                Column("conf_id", integer),
                Column("name", text, text_searchable=True),
            ],
            primary_key="conf_id",
        ),
        TableSchema(
            "year",
            [
                Column("year_id", integer),
                Column("conference_id", integer),
                Column("year", integer),
            ],
            primary_key="year_id",
            foreign_keys=[ForeignKey("conference_id", "conference", "conf_id")],
        ),
        TableSchema(
            "paper",
            [
                Column("paper_id", integer),
                Column("title", text, text_searchable=True),
                Column("year_id", integer),
            ],
            primary_key="paper_id",
            foreign_keys=[ForeignKey("year_id", "year", "year_id")],
        ),
        TableSchema(
            "author",
            [
                Column("author_id", integer),
                Column("name", text, text_searchable=True),
            ],
            primary_key="author_id",
        ),
        TableSchema(
            "writes",
            [
                Column("writes_id", integer),
                Column("author_id", integer),
                Column("paper_id", integer),
            ],
            primary_key="writes_id",
            foreign_keys=[
                ForeignKey("author_id", "author", "author_id"),
                ForeignKey("paper_id", "paper", "paper_id"),
            ],
        ),
        TableSchema(
            "cites",
            [
                Column("cites_id", integer),
                Column("citing_id", integer),
                Column("cited_id", integer),
            ],
            primary_key="cites_id",
            foreign_keys=[
                ForeignKey("citing_id", "paper", "paper_id"),
                ForeignKey("cited_id", "paper", "paper_id"),
            ],
        ),
    ]


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _author_names(config: DBLPConfig, rng: np.random.Generator) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    if config.include_faloutsos_family:
        names.extend(FALOUTSOS_FAMILY)
        seen.update(FALOUTSOS_FAMILY)
    attempts = 0
    while len(names) < config.n_authors:
        first = pools.FIRST_NAMES[int(rng.integers(len(pools.FIRST_NAMES)))]
        last = pools.LAST_NAMES[int(rng.integers(len(pools.LAST_NAMES)))]
        candidate = f"{first} {last}"
        if candidate in seen:
            attempts += 1
            if attempts > 50:
                candidate = f"{first} {last} {len(names)}"
            else:
                continue
        seen.add(candidate)
        names.append(candidate)
        attempts = 0
    return names


def _paper_title(rng: np.random.Generator, paper_idx: int) -> str:
    adjective = pools.TITLE_ADJECTIVES[int(rng.integers(len(pools.TITLE_ADJECTIVES)))]
    noun = pools.TITLE_NOUNS[int(rng.integers(len(pools.TITLE_NOUNS)))]
    target = pools.TITLE_OBJECTS[int(rng.integers(len(pools.TITLE_OBJECTS)))]
    return f"{adjective} {noun} for {target} {paper_idx}"


def generate_dblp(config: DBLPConfig | None = None) -> DBLPDataset:
    """Generate a synthetic DBLP-like database (deterministic under seed)."""
    config = config or DBLPConfig()
    config.validate()
    db = Database("dblp")
    for schema in _dblp_schemas():
        db.create_table(schema)

    # ------------------------------------------------------------------ #
    # Conferences
    # ------------------------------------------------------------------ #
    conf_rng = derive_rng(config.seed, "dblp", "conference")
    for conf_id in range(config.n_conferences):
        if conf_id < len(pools.CONFERENCE_NAMES):
            name = pools.CONFERENCE_NAMES[conf_id]
        else:
            name = f"CONF-{conf_id}"
        db.insert("conference", {"conf_id": conf_id, "name": name})

    # ------------------------------------------------------------------ #
    # Authors (family members first: ids 0, 1, 2)
    # ------------------------------------------------------------------ #
    author_rng = derive_rng(config.seed, "dblp", "author")
    author_names = _author_names(config, author_rng)
    for author_id, name in enumerate(author_names):
        db.insert("author", {"author_id": author_id, "name": name})
    family_ids = (
        [author_names.index(n) for n in FALOUTSOS_FAMILY]
        if config.include_faloutsos_family
        else []
    )

    # Productivity ranks: a random permutation, but family members pinned to
    # high-productivity ranks so their OSs are large (Christos: rank 0).
    rank_rng = derive_rng(config.seed, "dblp", "ranks")
    permutation = list(rank_rng.permutation(config.n_authors))
    for pinned_rank, author_id in zip((0, 4, 7), family_ids):
        current = permutation.index(author_id)
        swap_with = permutation[pinned_rank]
        permutation[pinned_rank], permutation[current] = author_id, swap_with
    author_weights = _zipf_weights(config.n_authors, config.author_zipf)
    weight_of_author = np.empty(config.n_authors)
    for rank, author_id in enumerate(permutation):
        weight_of_author[author_id] = author_weights[rank]
    weight_of_author /= weight_of_author.sum()

    # ------------------------------------------------------------------ #
    # Papers, years, authorship
    # ------------------------------------------------------------------ #
    paper_rng = derive_rng(config.seed, "dblp", "paper")
    year_ids: dict[tuple[int, int], int] = {}
    writes_id = 0
    lo_year, hi_year = config.year_range

    def year_id_for(conf_id: int, year: int) -> int:
        key = (conf_id, year)
        if key not in year_ids:
            new_id = len(year_ids)
            year_ids[key] = new_id
            db.insert(
                "year", {"year_id": new_id, "conference_id": conf_id, "year": year}
            )
        return year_ids[key]

    paper_authors: list[list[int]] = []
    for paper_id in range(config.n_papers):
        conf_id = int(paper_rng.integers(config.n_conferences))
        year = int(paper_rng.integers(lo_year, hi_year + 1))
        db.insert(
            "paper",
            {
                "paper_id": paper_id,
                "title": _paper_title(paper_rng, paper_id),
                "year_id": year_id_for(conf_id, year),
            },
        )
        n_authors = max(1, int(paper_rng.poisson(config.mean_authors_per_paper)))
        n_authors = min(n_authors, config.n_authors)
        chosen = paper_rng.choice(
            config.n_authors, size=n_authors, replace=False, p=weight_of_author
        )
        authors = [int(a) for a in chosen]
        paper_authors.append(authors)
        for author_id in authors:
            db.insert(
                "writes",
                {"writes_id": writes_id, "author_id": author_id, "paper_id": paper_id},
            )
            writes_id += 1

    # The famous family joint paper (the "Power-law" paper of Example 4):
    # ensure one paper is co-authored by all three family members.
    if family_ids:
        joint_paper = 0  # paper 0 becomes the joint paper
        existing = set(paper_authors[joint_paper])
        for author_id in family_ids:
            if author_id not in existing:
                db.insert(
                    "writes",
                    {
                        "writes_id": writes_id,
                        "author_id": author_id,
                        "paper_id": joint_paper,
                    },
                )
                writes_id += 1
                paper_authors[joint_paper].append(author_id)

    # ------------------------------------------------------------------ #
    # Citations: preferential attachment, correlated with author standing.
    #
    # A paper's citation propensity combines (a) the productivity weights
    # of its authors (prolific authors' papers are better cited — the
    # correlation real bibliographic data exhibits, and the reason the
    # paper's important Author OSs are near-monotone in local importance)
    # and (b) a log-normal popularity jitter.  ``citation_zipf`` shapes the
    # tail via a power on the combined weight.
    # ------------------------------------------------------------------ #
    cite_rng = derive_rng(config.seed, "dblp", "cites")
    author_standing = np.array(
        [sum(weight_of_author[a] for a in authors) for authors in paper_authors]
    )
    jitter = np.exp(0.6 * cite_rng.standard_normal(config.n_papers))
    weight_of_paper = (author_standing ** config.citation_zipf) * jitter
    weight_of_paper /= weight_of_paper.sum()

    cites_id = 0
    seen_edges: set[tuple[int, int]] = set()
    for citing in range(config.n_papers):
        n_cites = int(cite_rng.poisson(config.mean_citations_per_paper))
        n_cites = min(n_cites, config.n_papers - 1)
        if n_cites == 0:
            continue
        targets = cite_rng.choice(
            config.n_papers,
            size=min(n_cites * 2, config.n_papers),
            replace=False,
            p=weight_of_paper,
        )
        added = 0
        for cited in (int(t) for t in targets):
            if added >= n_cites:
                break
            if cited == citing or (citing, cited) in seen_edges:
                continue
            seen_edges.add((citing, cited))
            db.insert(
                "cites",
                {"cites_id": cites_id, "citing_id": citing, "cited_id": cited},
            )
            cites_id += 1
            added += 1

    db.ensure_fk_indexes()
    return DBLPDataset(db=db, config=config, family_author_ids=family_ids)


def small_dblp(seed: int = 7) -> DBLPDataset:
    """A test-scale DBLP (hundreds of tuples; fast enough for unit tests)."""
    return generate_dblp(
        DBLPConfig(
            n_authors=40,
            n_papers=90,
            n_conferences=8,
            mean_citations_per_paper=4.0,
            seed=seed,
        )
    )
