"""Index organization identifiers.

The paper considers five techniques — simple index (SIX), inherited index
(IIX), multi-index (MX), multi-inherited index (MIX) and nested inherited
index (NIX) — and observes that SIX and IIX are the single-class special
cases of MX and MIX. The selection algorithm therefore only deliberates
between MX, MIX and NIX (:data:`CONFIGURABLE_ORGANIZATIONS`); ``NONE``
supports the "no index on a subpath" extension of Section 6.
"""

from __future__ import annotations

import enum


class IndexOrganization(enum.Enum):
    """The index organizations of Section 2.2 plus the Section 6 extensions.

    ``PX`` (path index, [Bertino & Guglielmina 92]) and ``NX`` (nested
    index, [Bertino & Kim 89]) are the organizations the paper's
    conclusions say "can be done straightforward since the maintenance and
    retrieval costs on a subpath indexed by these types can be estimated
    independently of other subpaths".
    """

    SIX = "SIX"
    IIX = "IIX"
    MX = "MX"
    MIX = "MIX"
    NIX = "NIX"
    PX = "PX"
    NX = "NX"
    NONE = "NONE"

    def __str__(self) -> str:
        return self.value


#: The organizations the selection algorithm deliberates between
#: (Section 5: "we consider the three index organizations MX, MIX and NIX").
CONFIGURABLE_ORGANIZATIONS: tuple[IndexOrganization, ...] = (
    IndexOrganization.MX,
    IndexOrganization.MIX,
    IndexOrganization.NIX,
)

_GENERAL_FORMS = {
    IndexOrganization.SIX: IndexOrganization.MX,
    IndexOrganization.IIX: IndexOrganization.MIX,
}


def canonical_organization(organization: IndexOrganization) -> IndexOrganization:
    """The organization whose cost model prices ``organization``: SIX and
    IIX are priced as their general forms MX and MIX, the rest as is."""
    return _GENERAL_FORMS.get(organization, organization)


#: Organizations including the Section 6 "no index" extension.
EXTENDED_ORGANIZATIONS: tuple[IndexOrganization, ...] = (
    *CONFIGURABLE_ORGANIZATIONS,
    IndexOrganization.NONE,
)

#: All selectable organizations, including the Section 6 path/nested
#: index extensions.
ALL_ORGANIZATIONS: tuple[IndexOrganization, ...] = (
    *CONFIGURABLE_ORGANIZATIONS,
    IndexOrganization.PX,
    IndexOrganization.NX,
    IndexOrganization.NONE,
)
