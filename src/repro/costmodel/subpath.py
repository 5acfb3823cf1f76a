"""Processing cost of a subpath under a workload (Definition 4.2).

The processing cost of a (sub)path is "the sum of the cost to maintain the
indices on the (sub)path and the searching costs on the subpath of those
objects which satisfy to the queries". Per Definition 4.2 the subpath's
index additionally absorbs ``CMD_X(A_t)`` for every deletion on the class
*following* its ending attribute (when ``A_t ≠ A_n``): that deletion
removes exactly one record — keyed by the deleted oid — from this
subpath's index.

Query frequencies reach the subpath through the Section 3.2 derivation
(:meth:`repro.workload.load.LoadDistribution.derived_for_subpath`), which
is what makes the per-subpath costs additive (Propositions 4.1/4.2) and
the cost-matrix decomposition of Section 5 sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.base import SubpathCostModel
from repro.costmodel.mix import MIXCostModel
from repro.costmodel.mx import MXCostModel
from repro.costmodel.nested_index import NXCostModel
from repro.costmodel.nix import NIXCostModel
from repro.costmodel.noindex import NoIndexCostModel
from repro.costmodel.params import PathStatistics
from repro.costmodel.path_index import PXCostModel
from repro.errors import CostModelError
from repro.organizations import IndexOrganization, canonical_organization
from repro.workload.load import LoadDistribution


_MODEL_CLASSES: dict[IndexOrganization, type[SubpathCostModel]] = {
    IndexOrganization.MX: MXCostModel,
    IndexOrganization.MIX: MIXCostModel,
    IndexOrganization.NIX: NIXCostModel,
    IndexOrganization.PX: PXCostModel,
    IndexOrganization.NX: NXCostModel,
    IndexOrganization.NONE: NoIndexCostModel,
}


def build_model(
    stats: PathStatistics,
    start: int,
    end: int,
    organization: IndexOrganization,
) -> SubpathCostModel:
    """Instantiate the cost model of one organization on one subpath.

    SIX and IIX are accepted and mapped to their general forms (MX and
    MIX); the paper treats them as the single-class special cases.
    """
    try:
        model_class = _MODEL_CLASSES[canonical_organization(organization)]
    except KeyError:
        raise CostModelError(f"no cost model for organization {organization}") from None
    return model_class(stats, start, end)


@dataclass(frozen=True)
class SubpathCost:
    """The processing cost of one subpath with one organization.

    The four components follow Definition 4.2: searching cost of the
    queries, maintenance for insertions and for deletions on the subpath's
    own classes, and the ``CMD`` contribution of deletions on the class
    following the ending attribute. ``storage_pages`` (not part of the
    processing cost) supports budget-constrained selection.

    ``cmd_per_deletion`` is the per-deletion rate behind ``cmd``: ``cmd``
    is the following class hierarchy's deletion mass times the rate. The
    rate depends on the statistics only, never on the workload, so a
    delete-frequency what-if can re-derive a row's ``cmd`` — and
    therefore its total — from the stored rate instead of re-running the
    cost model (:meth:`repro.core.cost_matrix.CostMatrix.recompute`).
    """

    organization: IndexOrganization
    start: int
    end: int
    query: float
    insert: float
    delete: float
    cmd: float
    storage_pages: float = 0.0
    cmd_per_deletion: float = 0.0

    @property
    def total(self) -> float:
        """``PC(S, X)``: the value entering the cost matrix."""
        return self.query + self.insert + self.delete + self.cmd


def subpath_processing_cost(
    stats: PathStatistics,
    load: LoadDistribution,
    start: int,
    end: int,
    organization: IndexOrganization,
    range_selectivity: float | None = None,
) -> SubpathCost:
    """``PC(S_{start,end}, X)`` under the given full-path workload.

    Parameters
    ----------
    stats:
        Full-path statistics.
    load:
        Full-path load distribution; the subpath's own load is derived
        from it per Section 3.2.
    start, end:
        1-based subpath bounds (inclusive).
    organization:
        The index organization allocated to the subpath.
    range_selectivity:
        When set, queries are range predicates covering this fraction of
        the distinct ending values ("the extension to range predicates is
        straightforward", Section 3). The final subpath performs a
        contiguous leaf walk; earlier subpaths are probed with the oid
        fan-in of all matched values.
    """
    if load.path is not stats.path and str(load.path) != str(stats.path):
        raise CostModelError("load distribution and statistics describe different paths")
    if range_selectivity is not None and not 0.0 <= range_selectivity <= 1.0:
        raise CostModelError(f"selectivity out of [0,1]: {range_selectivity}")
    model = build_model(stats, start, end, organization)

    # Every query is a predicate on the full path's ending attribute A_n.
    # A subpath that does not end at A_n is therefore probed with the oid
    # fan-in of the remainder of the path (the noid chain of Section 3.1)
    # — a quantity that depends only on the path statistics, never on how
    # the rest of the path is indexed, which is what keeps the subpath
    # costs additive (Proposition 4.2).
    probes = 1.0
    if end < stats.length:
        initial = 1.0
        if range_selectivity is not None:
            initial = max(1.0, range_selectivity * stats.distinct_union(stats.length))
        probes = stats.probe_keys(end, stats.length, initial)
    derived = load.derived_for_subpath(start, end)
    query = 0.0
    insert = 0.0
    delete = 0.0
    query_cost = model.query_cost
    range_query_cost = model.range_query_cost
    insert_cost = model.insert_cost
    delete_cost = model.delete_cost
    range_ending = range_selectivity is not None and end == stats.length
    for position in range(start, end + 1):
        for member in stats.members(position):
            triplet = derived[member]
            if triplet.query:
                if range_ending:
                    query += triplet.query * range_query_cost(
                        position, member, range_selectivity
                    )
                else:
                    query += triplet.query * query_cost(position, member, probes)
            if triplet.insert:
                insert += triplet.insert * insert_cost(position, member)
            if triplet.delete:
                delete += triplet.delete * delete_cost(position, member)

    cmd = 0.0
    per_deletion = 0.0
    if end < stats.length:
        per_deletion = model.cmd_cost()
        if per_deletion:
            # Every deletion on the hierarchy following the subpath.
            following = sum(
                load.triplet(member).delete for member in stats.members(end + 1)
            )
            cmd = following * per_deletion
    return SubpathCost(
        organization=model.organization,
        start=start,
        end=end,
        query=query,
        insert=insert,
        delete=delete,
        cmd=cmd,
        storage_pages=model.storage_pages(),
        cmd_per_deletion=per_deletion,
    )
