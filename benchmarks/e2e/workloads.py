"""The five workloads: server set-up, seeded request streams, reference answers.

Every stream is infinite, stationary and a pure function of the workload
and ``--seed``: a faster server simply gets further into the same
sequence.  The dataset itself is always built with seed 7; ``--seed``
only changes the requests.

Streams are dealt as consecutive shuffled *decks*: a fixed multiset of
pool subjects per deck, in a seeded order.  A ``uniform`` deck holds
every subject once; a ``zipf`` deck holds 2 x pool cards with counts
proportional to zipf(a=1.2) over the pool (ordered by importance, so rank
1 is the hottest subject), rounded by largest remainder, so the rarest
tail subjects get no card.  Per-subject cost is heavy-tailed (the most
important DBLP author costs ~40x the median to summarise): with i.i.d.
draws, a few hundred requests make CPU per op and p90 latency depend on
whether the seed happened to draw the few expensive subjects.  A deck
fixes what is requested; the seed only changes the order.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from loadgen import Op
from repro import QueryOptions
from repro.core.builder import EngineBuilder
from repro.db.mutation import decode_operation
from repro.service.protocol import PROTOCOL_VERSION

#: The dataset seed: fixed, so every run serves the same data.
DATASET_SEED = 7
ZIPF_A = 1.2
#: writes_id values the write-mix writer inserts (far above generated ids)
WRITES_ID_BASE = 1_000_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    database: str
    scale: float
    cache_size: int
    table: str  # the R_DS table the pool is drawn from
    pool: int  # top-N subjects of ``table`` by importance
    deck: str  # "uniform" | "zipf"
    endpoint: str  # "/v1/query" | "/v1/size-l"
    l_values: tuple[int, ...]
    shards: int = 1
    snapshot: bool = False  # serve from a precomputed snapshot of ``table``
    batch_warm: bool = False  # warm every pool subject with one /v1/batch
    write_rate: float = 0.0  # open-loop /v1/mutate transactions per second

    def serve_args(self) -> list[str]:
        args = [
            "--seed", str(DATASET_SEED), "--scale", str(self.scale),
            "serve", "--database", self.database, "--port", "0",
            "--cache-size", str(self.cache_size),
        ]
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        return args

    def precompute_args(self, out: str) -> list[str]:
        return [
            "--seed", str(DATASET_SEED), "--scale", str(self.scale),
            "precompute", "--database", self.database, "--table", self.table,
            "--out", out,
        ]

    def tiny(self) -> "Workload":
        """The same workload on a dataset small enough for a smoke test.

        Scale 0.2 is about the smallest TPC-H the generator accepts: below
        it there are fewer (part, supplier) pairs than partsupp rows to draw.
        """
        return dataclasses.replace(self, scale=0.2, pool=min(self.pool, 20))


_WARM_ZIPF = Workload(
    name="warm-zipf",
    database="dblp", scale=1, cache_size=1024, table="author", pool=200,
    deck="zipf", endpoint="/v1/query", l_values=(10,), batch_warm=True,
)

#: The five workloads; why each one exists is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _WARM_ZIPF,
        Workload(
            name="cold-prelim",
            database="dblp", scale=10, cache_size=16, table="author", pool=100,
            deck="uniform", endpoint="/v1/query", l_values=(20,),
        ),
        Workload(
            name="complete-dp",
            database="tpch", scale=3, cache_size=16, table="customer", pool=100,
            deck="uniform", endpoint="/v1/size-l", l_values=(5, 10, 20, 30, 50),
            snapshot=True,
        ),
        Workload(
            name="write-mix",
            database="dblp", scale=2, cache_size=1024, table="author", pool=100,
            deck="zipf", endpoint="/v1/query", l_values=(10,), write_rate=10.0,
        ),
        dataclasses.replace(_WARM_ZIPF, name="shard2-zipf", shards=2),
    )
}


def deck_counts(n: int, size: int) -> np.ndarray:
    """Cards per rank in a zipf(ZIPF_A) deck of *size* cards (largest remainder)."""
    weights = np.arange(1, n + 1, dtype=float) ** -ZIPF_A
    exact = weights / weights.sum() * size
    counts = np.floor(exact).astype(int)
    extra = np.argsort(-(exact - counts), kind="stable")[: size - counts.sum()]
    counts[extra] += 1
    return counts


def _payload(body: dict[str, Any]) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode()


class Plan:
    """One workload's seeded inputs and reference answers.

    The reference :class:`~repro.Session` is built in this process from
    the same dataset recipe as the server; it supplies the pool (the
    top subjects by importance) and, after the window, the answers every
    sampled response must equal.
    """

    #: stream tags: independent seeded generators per stream
    READS, WRITES, WARMUP = 1, 2, 3

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.session = EngineBuilder.named(
            workload.database, seed=DATASET_SEED, scale=workload.scale
        ).build_session(cache_size=64)
        table = self.session.engine.db.table(workload.table)
        importance = self.session.engine.store.array(workload.table)
        order = np.argsort(-importance, kind="stable")[: workload.pool]
        self.pool = [int(row_id) for row_id in order]
        #: keyword queries search for the subject's full name
        self.names = (
            [table.value(row_id, "name") for row_id in self.pool]
            if workload.endpoint == "/v1/query"
            else []
        )
        #: one deck: pool indices, each as many times as it is dealt
        self.cards = np.arange(len(self.pool))
        if workload.deck == "zipf":
            self.cards = np.repeat(self.cards, deck_counts(len(self.pool), 2 * len(self.pool)))
        self._payloads: dict[tuple, bytes] = {}

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def read_op(self, index: int, l: int) -> Op:  # noqa: E741
        """The read of pool subject *index* at summary size *l*."""
        w = self.workload
        if w.endpoint == "/v1/query":
            key: tuple = ("query", self.names[index], l)
            body = {
                "protocol_version": PROTOCOL_VERSION, "dataset": w.database,
                "keywords": [self.names[index]], "options": {"l": l},
            }
        else:
            key = ("size-l", w.table, self.pool[index], l)
            body = {
                "protocol_version": PROTOCOL_VERSION, "dataset": w.database,
                "table": w.table, "row_id": self.pool[index],
                "options": {"l": l, "algorithm": "dp", "source": "complete"},
            }
        payload = self._payloads.get(key)
        if payload is None:
            payload = self._payloads[key] = _payload(body)
        return Op("read", w.endpoint, payload, key)

    def reads(self, stream: int = READS) -> Iterator[Op]:
        """The infinite read stream: shuffled decks, one after another.

        Pool subject *i* is read at ``l_values[(i + d) % len(l_values)]``
        in deck *d*, so deck *d*'s multiset of (subject, l) pairs is the
        same for every seed.
        """
        rng = self._rng(stream)
        ls = self.workload.l_values
        deck = 0
        while True:
            for index in rng.permutation(self.cards):
                yield self.read_op(int(index), ls[(int(index) + deck) % len(ls)])
            deck += 1

    @property
    def deck(self) -> int:
        return len(self.cards)

    def warmup(self, count: int) -> list[Op]:
        ops = self.reads(self.WARMUP)
        return [next(ops) for _ in range(count)]

    def probe(self) -> Op:
        """The fixed request whose first 200 ends set-up."""
        return self.read_op(0, self.workload.l_values[0])

    def batch_payload(self) -> bytes:
        w = self.workload
        return _payload({
            "protocol_version": PROTOCOL_VERSION, "dataset": w.database,
            "subjects": [[w.table, row_id] for row_id in self.pool],
            "options": {"l": w.l_values[0]},
        })

    def writes(self) -> Iterator[Op]:
        """The write-mix transaction cycle, forever.

        Retitle a random paper; link a hot author to a random paper with
        a new ``writes`` row; delete that row.  Every transaction commits
        (the foreign keys exist, the new primary keys are fresh).
        """
        rng = self._rng(self.WRITES)
        db = self.session.engine.db
        papers = db.table("paper")
        authors = db.table("author")
        paper_pks = [papers.pk_of_row(row_id) for row_id, _row in papers.scan()]
        i = 0
        while True:
            paper = paper_pks[int(rng.integers(len(paper_pks)))]
            if i % 3 == 0:
                op = {"op": "update", "table": "paper", "pk": paper,
                      "set": {"title": f"revised survey {self.seed} {i}"}}
            elif i % 3 == 1:
                # a hot author: drawn like the reads are
                author = self.pool[int(rng.choice(self.cards))]
                op = {"op": "insert", "table": "writes", "values": {
                    "writes_id": WRITES_ID_BASE + i,
                    "author_id": authors.pk_of_row(author), "paper_id": paper}}
            else:
                op = {"op": "delete", "table": "writes", "pk": WRITES_ID_BASE + i - 1}
            yield Op("write", "/v1/mutate", _payload({
                "protocol_version": PROTOCOL_VERSION,
                "dataset": self.workload.database, "operations": [op],
            }))
            i += 1

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #
    def expected(self, key: tuple) -> list[tuple]:
        """The reference answer: (rank, table, row_id, selected_uids) rows."""
        if key[0] == "query":
            _, name, l = key  # noqa: E741
            return [
                (rank, entry.match.table, entry.match.row_id,
                 sorted(entry.result.selected_uids))
                for rank, entry in enumerate(
                    self.session.keyword_query([name], options=QueryOptions(l=l))
                )
            ]
        _, table, row_id, l = key  # noqa: E741
        result = self.session.size_l(
            table, row_id, options=QueryOptions(l=l, algorithm="dp", source="complete")
        )
        return [(0, table, row_id, sorted(result.selected_uids))]

    @staticmethod
    def answer(body: dict[str, Any]) -> list[tuple]:
        entries = body["results"] if "results" in body else [body["result"]]
        return [
            (e["rank"], e["table"], e["row_id"], list(e["selected_uids"]))
            for e in entries
        ]

    def replay(self, payloads: list[bytes]) -> None:
        """Apply committed /v1/mutate bodies to the reference, in order."""
        for payload in payloads:
            raw = json.loads(payload)["operations"]
            self.session.apply_mutations(
                [decode_operation(op, index=i) for i, op in enumerate(raw)]
            )
