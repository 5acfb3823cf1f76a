"""Configuration cost evaluation.

Two evaluators:

* :func:`configuration_cost` — the paper's additive evaluation: the sum of
  the matrix entries of the configuration's subpaths (Proposition 4.2).
* :func:`coupled_configuration_cost` — an *exact* extension: query costs
  are chained across subpaths with the true oid fan-in (Corollary 4.1),
  instead of the one-probe-per-subpath approximation that makes the matrix
  decomposition possible. The benchmarks use it to quantify how tight the
  paper's approximation is.

:func:`per_class_analytic_costs` and :func:`per_part_analytic_costs`
give the coupled evaluation per operation on one scope class (and split
by part), which the ground-truth backend compares with measured pages.
All three coupled functions read one chain of part models, probes and
tail sums (:func:`_chained_parts`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configuration import IndexConfiguration
from repro.core.cost_matrix import CostMatrix
from repro.costmodel.params import PathStatistics
from repro.costmodel.subpath import build_model
from repro.workload.load import LoadDistribution


def configuration_cost(
    matrix: CostMatrix, configuration: IndexConfiguration
) -> float:
    """Additive cost: the sum of the configuration's matrix entries."""
    return sum(
        matrix.cost(part.start, part.end, part.organization)
        for part in configuration.assignments
    )


@dataclass(frozen=True)
class CoupledCost:
    """Breakdown of the exact (coupled) configuration evaluation."""

    query: float
    insert: float
    delete: float
    cmd: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.query + self.insert + self.delete + self.cmd


def _chained_parts(stats: PathStatistics, configuration: IndexConfiguration):
    """The coupled evaluation's chain over the configuration's parts.

    Returns ``(models, probes, hierarchy, tail)``: each part's cost
    model; ``probes[g]``, the equality values fed to part ``g``'s ending
    attribute (the oid fan-in of the part after it, Corollary 4.1);
    ``hierarchy[g]``, part ``g``'s full ``hierarchy_query_cost`` under
    those probes; and ``tail[g]``, the lookups of parts ``g`` onwards,
    summed right to left (``tail[len(parts)]`` is zero).
    """
    parts = configuration.assignments
    models = [
        build_model(stats, part.start, part.end, part.organization)
        for part in parts
    ]
    probes = [1.0] * len(parts)
    for g in range(len(parts) - 2, -1, -1):
        probes[g] = models[g + 1].emitted_oids(probes[g + 1])
    hierarchy = [
        model.hierarchy_query_cost(part.start, probe)
        for part, model, probe in zip(parts, models, probes)
    ]
    tail = [0.0] * (len(parts) + 1)
    for g in range(len(parts) - 1, -1, -1):
        tail[g] = tail[g + 1] + hierarchy[g]
    return models, probes, hierarchy, tail


def per_class_analytic_costs(
    stats: PathStatistics,
    configuration: IndexConfiguration,
) -> dict[tuple[int, str], dict[str, float]]:
    """Expected per-operation page accesses for every scope class.

    For each ``(position, class)`` the returned mapping holds the exact
    (coupled) expected cost of one ``query`` targeting the class, one
    ``insert`` of an object of the class, and one ``delete`` (including
    the ``CMD`` charge on the preceding subpath when the class starts a
    subpath). This is what the validation harness compares against
    measured page counts.
    """
    parts = configuration.assignments
    models, probes, _hierarchy, tail = _chained_parts(stats, configuration)
    results: dict[tuple[int, str], dict[str, float]] = {}
    for g, (part, model) in enumerate(zip(parts, models)):
        for position in range(part.start, part.end + 1):
            for member in stats.members(position):
                query = model.query_cost(position, member, probes[g]) + tail[g + 1]
                insert = model.insert_cost(position, member)
                delete = model.delete_cost(position, member)
                if position == part.start and g > 0:
                    delete += models[g - 1].cmd_cost()
                results[(position, member)] = {
                    "query": query,
                    "insert": insert,
                    "delete": delete,
                }
    return results


def per_part_analytic_costs(
    stats: PathStatistics,
    configuration: IndexConfiguration,
) -> dict[tuple[int, str], dict[str, list[float]]]:
    """Per-part split of the coupled per-class expected costs.

    For each ``(position, class)`` and operation kind, a list with one
    entry per configuration part: the pages the analytic model charges
    that part for one such operation. A query charges its own part
    ``query_cost`` and every later part its full
    ``hierarchy_query_cost``; a delete adds the ``CMD`` charge to the
    *preceding* part when the class starts a subpath.

    Summing an insert or delete list gives
    :func:`per_class_analytic_costs`'s value bit for bit. A query list
    sums to it only up to rounding (tests hold it to a relative 1e-12):
    the list adds the later parts left to right after the own part,
    while the per-class cost adds the own part to their right-to-left
    sum.
    """
    parts = configuration.assignments
    models, probes, hierarchy, _tail = _chained_parts(stats, configuration)
    split: dict[tuple[int, str], dict[str, list[float]]] = {}
    for g, (part, model) in enumerate(zip(parts, models)):
        for position in range(part.start, part.end + 1):
            for member in stats.members(position):
                query = [0.0] * len(parts)
                query[g] = model.query_cost(position, member, probes[g])
                query[g + 1 :] = hierarchy[g + 1 :]
                insert = [0.0] * len(parts)
                insert[g] = model.insert_cost(position, member)
                delete = [0.0] * len(parts)
                delete[g] = model.delete_cost(position, member)
                if position == part.start and g > 0:
                    delete[g - 1] += models[g - 1].cmd_cost()
                split[(position, member)] = {
                    "query": query,
                    "insert": insert,
                    "delete": delete,
                }
    return split


def coupled_configuration_cost(
    stats: PathStatistics,
    load: LoadDistribution,
    configuration: IndexConfiguration,
) -> CoupledCost:
    """Exact configuration cost with cross-subpath probe chaining.

    A query with respect to class ``C_{l,x}`` in subpath ``S_g`` performs:
    the full lookup on every later subpath (each fed the oid fan-in of the
    subpath after it) plus the partial lookup within ``S_g`` starting at
    position ``l``. Maintenance costs are the same as in the additive
    evaluation (they are exactly decomposable).
    """
    parts = configuration.assignments
    models, probes, _hierarchy, tail = _chained_parts(stats, configuration)
    query = 0.0
    insert = 0.0
    delete = 0.0
    cmd = 0.0
    for g, (part, model) in enumerate(zip(parts, models)):
        for position in range(part.start, part.end + 1):
            for member in stats.members(position):
                triplet = load.triplet(member)
                if triplet.query:
                    own = model.query_cost(position, member, probes[g])
                    query += triplet.query * (own + tail[g + 1])
                if triplet.insert:
                    insert += triplet.insert * model.insert_cost(position, member)
                if triplet.delete:
                    delete += triplet.delete * model.delete_cost(position, member)
        if part.end < stats.length:
            per_deletion = model.cmd_cost()
            if per_deletion:
                following = sum(
                    load.triplet(member).delete
                    for member in stats.members(part.end + 1)
                )
                cmd += following * per_deletion
    return CoupledCost(query=query, insert=insert, delete=delete, cmd=cmd)
