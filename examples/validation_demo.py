"""Measured-vs-analytic validation demo.

Builds a synthetic database, then compares the paper's Section 3 cost
formulas against page accesses counted by the operational simulator for
queries, insertions and deletions under two configurations.

    python examples/validation_demo.py
"""

from repro import ClassStats, IndexConfiguration, IndexOrganization
from repro.backend import render_validation, validate_configuration
from repro.synth import LevelSpec, linear_path_schema, populate_path_database

MX = IndexOrganization.MX
NIX = IndexOrganization.NIX

SPECS = {
    "Customer": ClassStats(objects=3_000, distinct=600, fanout=2),
    "Account": ClassStats(objects=500, distinct=200, fanout=1),
    "AccountSub1": ClassStats(objects=200, distinct=100, fanout=1),
    "Branch": ClassStats(objects=150, distinct=50, fanout=1),
}


def build():
    schema, path = linear_path_schema(
        [
            LevelSpec("Customer", multi_valued=True),
            LevelSpec("Account", subclasses=1),
            LevelSpec("Branch"),
        ],
        ending_attribute="city",
    )
    return schema, path


def main() -> None:
    schema, path = build()
    for configuration in (
        IndexConfiguration.whole_path(3, NIX),
        IndexConfiguration.of((1, 1, MX), (2, 3, NIX)),
    ):
        database = populate_path_database(schema, path, SPECS, seed=3)
        rows = validate_configuration(
            database, path, configuration, samples=10, seed=5
        )
        print(configuration.render(path))
        print(render_validation(rows))
        worst = max(rows, key=lambda row: abs(row.ratio - 1.0))
        print(
            f"worst ratio: {worst.ratio:.2f} "
            f"({worst.operation} on {worst.class_name})"
        )
        print()


if __name__ == "__main__":
    main()
