"""Embedded reference tables for the verification job.

Four experiments, each contributing a raw-zero table and a scaled-zero
table (with limit row).  Values are as printed in the source tables.

A number of printed cells are provably inconsistent with the experiments'
own parameters (they contradict their companion table or were generated
with a different mass scale or a miscopied coefficient formula; each case
is reproduced and pinned down numerically in tests/test_golden_audit.py).
Those cells are flagged below: the verify job recomputes and reports them,
but only unflagged cells can fail a run.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class GoldenTable:
    id: str
    experiment: str
    kind: str                  # "raw" | "scaled"
    rows: dict                 # n -> tuple of printed values
    limit: tuple | None = None
    flagged_rows: frozenset = frozenset()    # n values whose whole row is flagged
    flagged_cells: frozenset = frozenset()   # (n, position) pairs
    flagged_limit: bool = False
    note: str = ""


# raw rows are stored largest zero first; scaled rows in increasing order
TOLERANCES = {"raw": 1e-6, "scaled": 5e-4, "limit": 1e-4}

TABLES = {
    "table1": GoldenTable(
        id="table1", experiment="supercritical", kind="raw",
        rows={
            150: (0.999125, 0.997952, 0.99636, 0.994346),
            250: (0.999681, 0.999254, 0.998672, 0.997937),
            500: (0.999919, 0.999811, 0.999665, 0.999479),
        },
        flagged_cells=frozenset({(250, 1)}),
        note="cell (n=250, 2nd zero): printed 0.999254, one final-digit unit high; "
             "the companion scaled cell 9.66386 pins the value at 0.9992529",
    ),
    "table2": GoldenTable(
        id="table2", experiment="supercritical", kind="scaled",
        rows={
            150: (6.27524, 9.59956, 12.7982, 15.9503),
            250: (6.31687, 9.66386, 12.885, 16.0602),
            500: (6.34839, 9.71233, 12.9501, 16.1421),
        },
        limit=(6.38016, 9.76102, 13.0152, 16.2235),
    ),
    "table3": GoldenTable(
        id="table3", experiment="subcritical", kind="raw",
        rows={
            150: (0.999286, 0.998169, 0.996593, 0.994574),
            250: (1.0016, 0.999497, 0.998915, 0.998176),
            500: (1.0014, 0.999883, 0.999739, 0.999554),
        },
        flagged_rows=frozenset({150, 250, 500}),
        note="rows generated with a mass sequence ~n^12 smaller than the stated "
             "one (rescaling the mass by n^-12 reproduces every printed cell to "
             "~0.3%, against discrepancies of order 1 for the stated mass); "
             "true values at the stated mass differ",
    ),
    "table4": GoldenTable(
        id="table4", experiment="subcritical", kind="scaled",
        rows={
            150: (9.07735, 12.382, 15.6257),
            250: (7.92964, 11.6463, 15.1011),
            500: (7.6415, 11.4238, 14.9355),
        },
        limit=(7.64622, 11.4432, 14.9699),
        flagged_rows=frozenset({150, 250, 500}),
        note="same mass-scale slip as table3; the limit row is unaffected "
             "(the limit does not depend on the mass scale in this regime)",
    ),
    "table5": GoldenTable(
        id="table5", experiment="critical-small-mass", kind="raw",
        rows={
            150: (0.999991, 0.999585, 0.99854, 0.99778),
            250: (0.999997, 0.999871, 0.999585, 0.999142),
            500: (0.999999, 0.999968, 0.99985, 0.999786),
        },
        flagged_cells=frozenset({(150, 1), (150, 2), (150, 3),
                                 (250, 2), (250, 3), (500, 2)}),
        note="companion table6 rows equal the zero-mass (classical) zeros, and "
             "most raw cells print-collapse onto the true values anyway; the "
             "flagged cells differ from the true values beyond print precision",
    ),
    "table6": GoldenTable(
        id="table6", experiment="critical-small-mass", kind="scaled",
        rows={
            150: (0.649565, 4.02672, 7.20558, 10.3659),
            250: (0.64887, 4.02249, 7.19831, 10.3561),
            500: (0.64853, 4.01929, 7.19273, 10.3484),
        },
        limit=(0.648561, 4.01985, 7.19169, 10.3446),
        flagged_rows=frozenset({150, 250, 500}),
        flagged_limit=True,
        note="finite rows equal the zero-mass (classical) scaled zeros to every "
             "printed digit; the limit row equals the zeros of the limit "
             "function built from the miscopied coefficient recursion (sign of "
             "the Gamma^2 term); both are reproduced exactly in the audit tests",
    ),
    "table7": GoldenTable(
        id="table7", experiment="critical-big-mass", kind="raw",
        rows={
            150: (1.00042, 0.999978, 0.999306, 0.996412),
            250: (1.00009, 0.999991, 0.999739, 0.99931),
            500: (1.000001, 0.999999, 0.999928, 0.999818),
        },
        flagged_rows=frozenset({150, 250, 500}),
        note="rows are mutually inconsistent with table8 beyond print precision "
             "and match no mass scale; only the sign fact (largest zero beyond 1) "
             "is reproducible",
    ),
    "table8": GoldenTable(
        id="table8", experiment="critical-big-mass", kind="scaled",
        rows={
            150: (1.77464, 6.0132, 9.53661),
            250: (1.10344, 5.71202, 9.35539),
            500: (1.00403, 5.58651, 9.27349),
        },
        limit=(0.903528, 5.34057, 9.07889),
        flagged_rows=frozenset({150, 250, 500}),
        flagged_limit=True,
        note="the limit row equals the miscopied-recursion limit function "
             "evaluated with mass limit 1e5 instead of the stated 1e6 (exact to "
             "all printed digits); the finite rows match no reproducible run",
    ),
}

EXPERIMENT_TABLES = {
    "supercritical": ("table1", "table2"),
    "subcritical": ("table3", "table4"),
    "critical-small-mass": ("table5", "table6"),
    "critical-big-mass": ("table7", "table8"),
}


@dataclass(frozen=True)
class CellReport:
    table: str
    n: object          # degree or "limit"
    position: int      # 0-based within the row
    kind: str          # raw | scaled | limit
    reference: float
    computed: float
    abs_err: float
    tol: float
    status: str        # pass | fail | flagged


def compare_table(table, computed_rows, computed_limit):
    """Compare computed rows against one golden table.

    ``computed_rows``: dict n -> sequence ordered like the stored rows.
    Returns a list of CellReport, at the tolerances of ``TOLERANCES``;
    flagged cells never carry status 'fail'.
    """
    out = []
    for n, ref_row in sorted(table.rows.items()):
        if n not in computed_rows:
            continue
        comp = computed_rows[n]
        row_flagged = n in table.flagged_rows
        for pos, ref in enumerate(ref_row):
            got = float(comp[pos])
            err = abs(got - ref)
            tol = TOLERANCES[table.kind]
            flagged = row_flagged or (n, pos) in table.flagged_cells
            status = "flagged" if flagged else ("pass" if err <= tol else "fail")
            out.append(CellReport(table.id, n, pos, table.kind, ref, got,
                                  err, tol, status))
    if table.limit is not None and computed_limit is not None:
        for pos, ref in enumerate(table.limit):
            got = float(computed_limit[pos])
            err = abs(got - ref)
            tol = TOLERANCES["limit"]
            status = "flagged" if table.flagged_limit else (
                "pass" if err <= tol else "fail")
            out.append(CellReport(table.id, "limit", pos, "limit", ref, got,
                                  err, tol, status))
    return out
