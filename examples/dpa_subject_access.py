"""Data-protection subject access requests — the paper's motivating
application (Section 1).

"OSs can automate responses to data protection act (DPA) subject access
requests ... data controllers of organizations must extract data for a
given DS from their databases and present it in an intelligible form."

This example plays the data controller for the TPC-H trading database:
given a customer's name, it produces

1. the *complete* personal-data report (the full OS — everything the
   organisation holds about the subject), exported to CSV for delivery, and
2. a size-l executive summary for the case officer, plus a word-budget
   variant (Section 7's future-work feature) capped at 80 rendered words.

Run:  python examples/dpa_subject_access.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import QueryOptions, Session, Source
from repro.core import word_budget_summary
from repro.datasets.tpch import TPCHConfig, generate_tpch
from repro.db.csvio import export_table


def main() -> None:
    data = generate_tpch(TPCHConfig(scale_factor=0.002, seed=11))
    # from_dataset wires the G_DS presets and the default ValueRank store;
    # the engine underneath exposes the pipeline's individual stages.
    session = Session.from_dataset(data)
    engine = session.engine

    subject_name = "Customer#000007"
    matches = engine.searcher.search(subject_name)
    if not matches:
        raise SystemExit(f"no data subject matching {subject_name!r}")
    subject = matches[0]

    # 1. The complete personal-data report.
    report = engine.complete_os("customer", subject.row_id)
    print(f"Subject access request for {subject_name}")
    print(f"  relations searched : {len(engine.gds_for('customer').nodes())}")
    print(f"  records found      : {report.size} tuples")
    print()
    print("Complete report (first 15 records):")
    print(report.to_object_summary().render(max_nodes=15))

    # Deliverable: the subject's own rows, exported as CSV.
    out_dir = Path(tempfile.mkdtemp(prefix="dpa_report_"))
    rows = export_table(data.db.table("customer"), out_dir / "customer.csv")
    print(f"\nExported {rows} customer records to {out_dir / 'customer.csv'}")

    # 2. Case-officer summaries.
    print()
    print("Executive summary (size-10):")
    summary = session.size_l(
        "customer", subject.row_id, options=QueryOptions(l=10, source=Source.PRELIM)
    )
    print(summary.render())

    print()
    budget = 80
    capped = word_budget_summary(report, word_budget=budget)
    print(
        f"Word-budget summary (<= {budget} words; got {capped.stats['word_count']} "
        f"words across {capped.size} tuples):"
    )
    print(capped.render())


if __name__ == "__main__":
    main()
