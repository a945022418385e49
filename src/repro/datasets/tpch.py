"""Synthetic TPC-H-like trading database.

Schema (Figure 11 of the paper):

    region(region_id, name)
    nation(nation_id, name, region_id)
    customer(cust_id, name, mktsegment, acctbal, nation_id)
    supplier(supp_id, name, acctbal, nation_id)
    part(part_id, name, brand, retailprice)
    partsupp(ps_id, part_id, supp_id, availqty, supplycost, comment)
    orders(order_id, cust_id, orderyear, orderstatus, totalprice)
    lineitem(li_id, order_id, ps_id, quantity, extendedprice, discount)

``scale_factor`` scales the row counts with (roughly) TPC-H's SF-relative
cardinalities; value columns follow TPC-H-like ranges so ValueRank's value
functions (Figure 13b) have realistic spread.  Note ``partsupp`` carries a
``comment`` column on purpose: the paper's attribute-selection example
excludes exactly that column from Customer OSs via the θ′ filter.

The module also provides the paper's TPC-H G_A presets (Figure 13b, with
value functions; G_A2 = same rates without values) and Customer/Supplier
G_DS presets with the affinities of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.types import ColumnType
from repro.errors import DatasetError
from repro.ranking.authority import (
    AuthorityRelationship,
    AuthorityTransferGraph,
    ValueFunction,
)
from repro.schema_graph.affinity import ManualAffinityModel
from repro.schema_graph.gds import GDS, build_gds
from repro.schema_graph.graph import SchemaGraph
from repro.util.rng import derive_rng
from repro.datasets import names as pools

#: Figure 12's absolute affinities for the Customer G_DS.  The duplicated
#: branches (Supplier under Nation; the Supplier/Parts under Partsupp; the
#: Partsupp/Lineitem/Parts under that Supplier) carry the figure's values.
CUSTOMER_GDS_AFFINITIES = {
    "Customer": 1.0,
    "Nation": 0.97,
    "Region": 0.91,
    "SupplierOfNation": 0.52,
    "PartsuppOfNationSupplier": 0.43,
    "LineitemOfNationSupplier": 0.34,
    "PartsOfNationSupplier": 0.36,
    "Order": 0.95,
    "Lineitem": 0.87,
    "Partsupp": 0.77,
    "Parts": 0.65,
    "Supplier": 0.65,
}

#: The Supplier G_DS is not printed in the paper; these values give the same
#: relative structure (trading documents close, reference data closer) and a
#: θ=0.7 cut that keeps Nation/Region/Partsupp/Parts/Lineitem/Order — which
#: reproduces the paper's reported average Supplier OS sizes (~1,341).
SUPPLIER_GDS_AFFINITIES = {
    "Supplier": 1.0,
    "Nation": 0.97,
    "Region": 0.91,
    "CustomerOfNation": 0.52,
    "Partsupp": 0.92,
    "Parts": 0.80,
    "Lineitem": 0.84,
    "Order": 0.75,
    "Customer": 0.55,
}


@dataclass
class TPCHConfig:
    """Generator knobs.  ``scale_factor=1.0`` would be full TPC-H SF-1
    cardinalities (8.6M tuples) — far beyond what the in-memory engine needs
    for shape-faithful experiments; the presets use 0.001-0.01."""

    scale_factor: float = 0.004
    seed: int = 11

    def validate(self) -> None:
        if self.scale_factor <= 0:
            raise DatasetError(f"scale factor must be positive: {self.scale_factor}")

    # TPC-H SF-1 cardinalities.
    @property
    def n_customers(self) -> int:
        return max(5, int(150_000 * self.scale_factor))

    @property
    def n_suppliers(self) -> int:
        return max(3, int(10_000 * self.scale_factor))

    @property
    def n_parts(self) -> int:
        return max(5, int(200_000 * self.scale_factor))

    @property
    def n_partsupps(self) -> int:
        return max(8, int(800_000 * self.scale_factor))

    @property
    def n_orders(self) -> int:
        return max(10, int(1_500_000 * self.scale_factor))

    @property
    def n_lineitems(self) -> int:
        return max(20, int(6_000_000 * self.scale_factor))


@dataclass
class TPCHDataset:
    """The generated database plus its graph/ranking presets."""

    db: Database
    config: TPCHConfig

    # ------------------------------------------------------------------ #
    # G_A presets (Figure 13b)
    # ------------------------------------------------------------------ #
    def ga1(self) -> AuthorityTransferGraph:
        """The paper's TPC-H G_A with ValueRank value functions."""
        return AuthorityTransferGraph(
            [
                AuthorityRelationship(
                    name="customer_orders",
                    kind="fk",
                    table_a="orders",
                    table_b="customer",
                    column_a="cust_id",
                    column_b=None,
                    # Order → its customer: 0.5·f(TotalPrice) — a $100 order
                    # passes more authority than a $10 one (the paper's
                    # motivating example for ValueRank).
                    rate_forward=0.5,
                    source_value_forward=ValueFunction("orders", "totalprice"),
                    # Customer → orders: 0.1, split by TotalPrice.
                    rate_backward=0.1,
                    value_backward=ValueFunction("orders", "totalprice"),
                ),
                AuthorityRelationship(
                    name="order_lineitems",
                    kind="fk",
                    table_a="lineitem",
                    table_b="orders",
                    column_a="order_id",
                    column_b=None,
                    # Lineitem → its order: 0.3·f(ExtendedPrice).
                    rate_forward=0.3,
                    source_value_forward=ValueFunction("lineitem", "extendedprice"),
                    # Order → lineitems: 0.1, split by ExtendedPrice.
                    rate_backward=0.1,
                    value_backward=ValueFunction("lineitem", "extendedprice"),
                ),
                AuthorityRelationship(
                    name="lineitem_partsupp",
                    kind="fk",
                    table_a="lineitem",
                    table_b="partsupp",
                    column_a="ps_id",
                    column_b=None,
                    rate_forward=0.2,  # lineitem → its partsupp
                    rate_backward=0.1,  # partsupp → lineitems, by ExtendedPrice
                    value_backward=ValueFunction("lineitem", "extendedprice"),
                ),
                AuthorityRelationship(
                    name="partsupp_part",
                    kind="fk",
                    table_a="partsupp",
                    table_b="part",
                    column_a="part_id",
                    column_b=None,
                    # Partsupp → its part: 0.1·f(SupplyCost).
                    rate_forward=0.1,
                    source_value_forward=ValueFunction("partsupp", "supplycost"),
                    rate_backward=0.1,
                ),
                AuthorityRelationship(
                    name="partsupp_supplier",
                    kind="fk",
                    table_a="partsupp",
                    table_b="supplier",
                    column_a="supp_id",
                    column_b=None,
                    # Partsupp → its supplier: 0.2·f(SupplyCost).
                    rate_forward=0.2,
                    source_value_forward=ValueFunction("partsupp", "supplycost"),
                    # Supplier → partsupps: 0.2, split by SupplyCost.
                    rate_backward=0.2,
                    value_backward=ValueFunction("partsupp", "supplycost"),
                ),
                AuthorityRelationship(
                    name="customer_nation",
                    kind="fk",
                    table_a="customer",
                    table_b="nation",
                    column_a="nation_id",
                    column_b=None,
                    rate_forward=0.1,
                    rate_backward=0.1,
                ),
                AuthorityRelationship(
                    name="supplier_nation",
                    kind="fk",
                    table_a="supplier",
                    table_b="nation",
                    column_a="nation_id",
                    column_b=None,
                    rate_forward=0.1,
                    rate_backward=0.1,
                ),
                AuthorityRelationship(
                    name="nation_region",
                    kind="fk",
                    table_a="nation",
                    table_b="region",
                    column_a="region_id",
                    column_b=None,
                    rate_forward=0.3,
                    rate_backward=0.2,
                ),
            ]
        )

    def ga2(self) -> AuthorityTransferGraph:
        """G_A2: the ObjectRank version of G_A1 — values neglected."""
        return self.ga1().without_values()

    # ------------------------------------------------------------------ #
    # G_DS presets (Figure 12)
    # ------------------------------------------------------------------ #
    def customer_gds(self, max_depth: int = 5) -> GDS:
        """The Customer G_DS with Figure 12's labels and affinities."""
        schema_graph = SchemaGraph(self.db)
        overrides = {
            ("Customer", "nation"): "Nation",
            ("Nation", "region"): "Region",
            ("Nation", "supplier"): "SupplierOfNation",
            ("SupplierOfNation", "partsupp"): "PartsuppOfNationSupplier",
            ("PartsuppOfNationSupplier", "lineitem"): "LineitemOfNationSupplier",
            ("PartsuppOfNationSupplier", "part"): "PartsOfNationSupplier",
            ("Customer", "orders"): "Order",
            ("Order", "lineitem"): "Lineitem",
            ("Lineitem", "partsupp"): "Partsupp",
            ("Partsupp", "part"): "Parts",
            ("Partsupp", "supplier"): "Supplier",
        }
        model = ManualAffinityModel(CUSTOMER_GDS_AFFINITIES, default_edge=0.3)
        return build_gds(
            schema_graph,
            "customer",
            model,
            max_depth=max_depth,
            label_overrides=overrides,
            root_label="Customer",
        )

    def supplier_gds(self, max_depth: int = 5) -> GDS:
        """The Supplier G_DS (structure mirrored from Figure 12)."""
        schema_graph = SchemaGraph(self.db)
        overrides = {
            ("Supplier", "nation"): "Nation",
            ("Nation", "region"): "Region",
            ("Nation", "customer"): "CustomerOfNation",
            ("Supplier", "partsupp"): "Partsupp",
            ("Partsupp", "part"): "Parts",
            ("Partsupp", "lineitem"): "Lineitem",
            ("Lineitem", "orders"): "Order",
            ("Order", "customer"): "Customer",
        }
        model = ManualAffinityModel(SUPPLIER_GDS_AFFINITIES, default_edge=0.3)
        return build_gds(
            schema_graph,
            "supplier",
            model,
            max_depth=max_depth,
            label_overrides=overrides,
            root_label="Supplier",
        )

    # ------------------------------------------------------------------ #
    # Engine-construction presets (EngineBuilder.from_dataset)
    # ------------------------------------------------------------------ #
    def default_gds(self) -> dict[str, GDS]:
        """The paper's R_DS presets keyed by root table."""
        return {"customer": self.customer_gds(), "supplier": self.supplier_gds()}

    def default_store(self):
        """Global ValueRank under G_A1 — the paper's default TPC-H setting."""
        from repro.ranking.valuerank import compute_valuerank

        return compute_valuerank(self.db, self.ga1())


def _tpch_schemas() -> list[TableSchema]:
    text = ColumnType.TEXT
    integer = ColumnType.INT
    real = ColumnType.FLOAT
    return [
        TableSchema(
            "region",
            [Column("region_id", integer), Column("name", text, text_searchable=True)],
            primary_key="region_id",
        ),
        TableSchema(
            "nation",
            [
                Column("nation_id", integer),
                Column("name", text, text_searchable=True),
                Column("region_id", integer),
            ],
            primary_key="nation_id",
            foreign_keys=[ForeignKey("region_id", "region", "region_id")],
        ),
        TableSchema(
            "customer",
            [
                Column("cust_id", integer),
                Column("name", text, text_searchable=True),
                Column("mktsegment", text),
                Column("acctbal", real),
                Column("nation_id", integer),
            ],
            primary_key="cust_id",
            foreign_keys=[ForeignKey("nation_id", "nation", "nation_id")],
        ),
        TableSchema(
            "supplier",
            [
                Column("supp_id", integer),
                Column("name", text, text_searchable=True),
                Column("acctbal", real),
                Column("nation_id", integer),
            ],
            primary_key="supp_id",
            foreign_keys=[ForeignKey("nation_id", "nation", "nation_id")],
        ),
        TableSchema(
            "part",
            [
                Column("part_id", integer),
                Column("name", text, text_searchable=True),
                Column("brand", text),
                Column("retailprice", real),
            ],
            primary_key="part_id",
        ),
        TableSchema(
            "partsupp",
            [
                Column("ps_id", integer),
                Column("part_id", integer),
                Column("supp_id", integer),
                Column("availqty", integer),
                Column("supplycost", real),
                Column("comment", text),
            ],
            primary_key="ps_id",
            foreign_keys=[
                ForeignKey("part_id", "part", "part_id"),
                ForeignKey("supp_id", "supplier", "supp_id"),
            ],
        ),
        TableSchema(
            "orders",
            [
                Column("order_id", integer),
                Column("cust_id", integer),
                Column("orderyear", integer),
                Column("orderstatus", text),
                Column("totalprice", real),
            ],
            primary_key="order_id",
            foreign_keys=[ForeignKey("cust_id", "customer", "cust_id")],
        ),
        TableSchema(
            "lineitem",
            [
                Column("li_id", integer),
                Column("order_id", integer),
                Column("ps_id", integer),
                Column("quantity", integer),
                Column("extendedprice", real),
                Column("discount", real),
            ],
            primary_key="li_id",
            foreign_keys=[
                ForeignKey("order_id", "orders", "order_id"),
                ForeignKey("ps_id", "partsupp", "ps_id"),
            ],
        ),
    ]


def generate_tpch(config: TPCHConfig | None = None) -> TPCHDataset:
    """Generate a synthetic TPC-H-like database (deterministic under seed)."""
    config = config or TPCHConfig()
    config.validate()
    db = Database("tpch")
    for schema in _tpch_schemas():
        db.create_table(schema)

    # Regions and nations: TPC-H's fixed 5/25 reference data.
    for region_id, name in enumerate(pools.REGION_NAMES):
        db.insert("region", {"region_id": region_id, "name": name})
    for nation_id, name in enumerate(pools.NATION_NAMES):
        db.insert(
            "nation",
            {
                "nation_id": nation_id,
                "name": name,
                "region_id": pools.NATION_TO_REGION[nation_id],
            },
        )
    n_nations = len(pools.NATION_NAMES)

    rng = derive_rng(config.seed, "tpch")

    for cust_id in range(config.n_customers):
        db.insert(
            "customer",
            {
                "cust_id": cust_id,
                "name": f"Customer#{cust_id:06d}",
                "mktsegment": pools.MARKET_SEGMENTS[
                    int(rng.integers(len(pools.MARKET_SEGMENTS)))
                ],
                "acctbal": round(float(rng.uniform(-999.99, 9999.99)), 2),
                "nation_id": int(rng.integers(n_nations)),
            },
        )

    for supp_id in range(config.n_suppliers):
        db.insert(
            "supplier",
            {
                "supp_id": supp_id,
                "name": f"Supplier#{supp_id:06d}",
                "acctbal": round(float(rng.uniform(-999.99, 9999.99)), 2),
                "nation_id": int(rng.integers(n_nations)),
            },
        )

    for part_id in range(config.n_parts):
        adjective = pools.PART_ADJECTIVES[int(rng.integers(len(pools.PART_ADJECTIVES)))]
        material = pools.PART_MATERIALS[int(rng.integers(len(pools.PART_MATERIALS)))]
        shape = pools.PART_SHAPES[int(rng.integers(len(pools.PART_SHAPES)))]
        db.insert(
            "part",
            {
                "part_id": part_id,
                "name": f"{adjective} {material} {shape}",
                "brand": f"Brand#{int(rng.integers(1, 6))}{int(rng.integers(1, 6))}",
                "retailprice": round(900.0 + (part_id % 1000) + float(rng.uniform(0, 100)), 2),
            },
        )

    # Partsupp: each (part, supplier) pair at most once, TPC-H style 4 per part.
    ps_pairs: set[tuple[int, int]] = set()
    ps_id = 0
    while ps_id < config.n_partsupps:
        part_id = int(rng.integers(config.n_parts))
        supp_id = int(rng.integers(config.n_suppliers))
        if (part_id, supp_id) in ps_pairs:
            continue
        ps_pairs.add((part_id, supp_id))
        db.insert(
            "partsupp",
            {
                "ps_id": ps_id,
                "part_id": part_id,
                "supp_id": supp_id,
                "availqty": int(rng.integers(1, 10_000)),
                "supplycost": round(float(rng.uniform(1.0, 1000.0)), 2),
                "comment": f"routine restock note {ps_id}",
            },
        )
        ps_id += 1

    # Orders: skewed customer activity (some customers order much more).
    customer_weights = np.arange(1, config.n_customers + 1, dtype=float) ** -0.6
    customer_weights /= customer_weights.sum()
    customer_perm = rng.permutation(config.n_customers)
    weight_of_customer = np.empty(config.n_customers)
    for rank, cust in enumerate(customer_perm):
        weight_of_customer[cust] = customer_weights[rank]
    weight_of_customer /= weight_of_customer.sum()

    order_customers = rng.choice(
        config.n_customers, size=config.n_orders, p=weight_of_customer
    )

    # Lineitems are drawn first so each order's TotalPrice can be derived
    # from its lineitems (as in real TPC-H, where O_TOTALPRICE is computed
    # from L_EXTENDEDPRICE) — this keeps the ValueRank authority flow
    # consistent between the order and lineitem levels.
    order_of_lineitem = rng.integers(0, config.n_orders, size=config.n_lineitems)
    ps_of_lineitem = rng.integers(0, config.n_partsupps, size=config.n_lineitems)
    quantities = rng.integers(1, 51, size=config.n_lineitems)
    unit_prices = rng.uniform(900.0, 2000.0, size=config.n_lineitems)
    discounts = rng.uniform(0.0, 0.1, size=config.n_lineitems)

    order_totals = np.full(config.n_orders, 0.0)
    extended_prices = np.empty(config.n_lineitems)
    for li_id in range(config.n_lineitems):
        extended = round(float(quantities[li_id]) * float(unit_prices[li_id]), 2)
        extended_prices[li_id] = extended
        order_totals[order_of_lineitem[li_id]] += extended * (
            1.0 - float(discounts[li_id])
        )

    for order_id in range(config.n_orders):
        total = order_totals[order_id]
        if total == 0.0:
            # An order with no lineitems still has a (small) invoice value.
            total = float(rng.uniform(900.0, 2000.0))
        db.insert(
            "orders",
            {
                "order_id": order_id,
                "cust_id": int(order_customers[order_id]),
                "orderyear": int(rng.integers(1992, 1999)),
                "orderstatus": pools.ORDER_STATUSES[
                    int(rng.integers(len(pools.ORDER_STATUSES)))
                ],
                "totalprice": round(total, 2),
            },
        )

    for li_id in range(config.n_lineitems):
        db.insert(
            "lineitem",
            {
                "li_id": li_id,
                "order_id": int(order_of_lineitem[li_id]),
                "ps_id": int(ps_of_lineitem[li_id]),
                "quantity": int(quantities[li_id]),
                "extendedprice": float(extended_prices[li_id]),
                "discount": round(float(discounts[li_id]), 2),
            },
        )

    db.ensure_fk_indexes()
    return TPCHDataset(db=db, config=config)


def small_tpch(seed: int = 11) -> TPCHDataset:
    """A test-scale TPC-H (hundreds of tuples)."""
    return generate_tpch(TPCHConfig(scale_factor=0.0006, seed=seed))
