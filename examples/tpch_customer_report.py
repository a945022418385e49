"""TPC-H trading database: ValueRank + Customer/Supplier size-l OSs.

The DBLP examples rely on citation authority; trading databases have no
citations, which is exactly why the paper pairs TPC-H with ValueRank
(Section 2.2): authority flows proportionally to monetary value, so a
customer's summary surfaces their *biggest* orders, not just their most
connected ones.

The example also demonstrates the attribute-selection θ′ filter (the
Partsupp ``comment`` column is excluded from rendered OSs, as in the paper)
and contrasts ValueRank against its value-blind ObjectRank variant (G_A2).

Run:  python examples/tpch_customer_report.py
"""

from __future__ import annotations

from repro import QueryOptions, Session, Source
from repro.datasets.tpch import TPCHConfig, generate_tpch


def main() -> None:
    data = generate_tpch(TPCHConfig(scale_factor=0.002, seed=11))
    print(f"Database: {data.db}")

    # from_dataset wires the G_DS presets and the default ValueRank store;
    # the engine underneath exposes the pipeline's individual stages.
    session = Session.from_dataset(data)
    engine = session.engine

    print()
    print("Customer G_DS(0.7) - Figure 12's theta cut:")
    print(engine.gds_for("customer").render())

    # Pick the busiest customer (most orders) as the showcase subject.
    orders = data.db.table("orders")
    cust_idx = orders.schema.column_index("cust_id")
    counts: dict[int, int] = {}
    for _rid, row in orders.scan():
        counts[row[cust_idx]] = counts.get(row[cust_idx], 0) + 1
    busiest_pk = max(counts, key=counts.get)
    busiest_row = data.db.table("customer").row_id_for_pk(busiest_pk)

    complete = engine.complete_os("customer", busiest_row)
    print()
    print(
        f"Busiest customer: Customer#{busiest_pk:06d} with {counts[busiest_pk]} "
        f"orders; complete OS = {complete.size} tuples"
    )
    print()
    print("Size-12 summary (ValueRank):")
    report_options = QueryOptions(l=12, source=Source.PRELIM)
    result = session.size_l("customer", busiest_row, options=report_options)
    print(result.render())

    # Value-blind contrast: the same summary under the ObjectRank G_A2.
    from repro.ranking import compute_objectrank

    blind_session = Session.from_dataset(
        data, store=compute_objectrank(data.db, data.ga2())
    )
    blind = blind_session.size_l("customer", busiest_row, options=report_options)
    shared = len(result.selected_uids & blind.selected_uids)
    print()
    print(
        f"Value-blind (G_A2) summary shares {shared}/12 tuples with the "
        f"ValueRank one - the difference is what TotalPrice-weighted "
        f"authority buys."
    )

    # A supplier summary from the other G_DS.
    supplier_result = session.keyword_query("Supplier#000001", l=10)[0]
    print()
    print("Supplier summary (l = 10):")
    print(supplier_result.result.render())


if __name__ == "__main__":
    main()
