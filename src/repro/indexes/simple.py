"""Simple index (SIX): one attribute of one class.

"A simple index is an index on an attribute of a single class. With each
value v of the indexed attribute the oids of the objects are associated
which have v as value for the indexed attribute" (Section 2.2). Objects of
subclasses are *not* covered — that is the inherited index's job.

As an :class:`~repro.indexes.base.OperationalIndex` it serves length-1
subpaths; it is also the per-class component of the multi-index.
"""

from __future__ import annotations

from repro.errors import IndexError_
from repro.indexes.base import IndexContext, OperationalIndex
from repro.indexes.value_index import ValueIndex
from repro.model.objects import OID, ObjectInstance


class SimpleIndex(OperationalIndex):
    """SIX on attribute ``A_start`` of exactly one class.

    Parameters
    ----------
    context:
        Must cover a length-1 subpath (``start == end``).
    class_name:
        The indexed class; defaults to the subpath's root class.
    """

    def __init__(self, context: IndexContext, class_name: str | None = None) -> None:
        super().__init__(context)
        if context.start != context.end:
            raise IndexError_("a simple index covers exactly one class")
        self.class_name = class_name or context.path.class_at(context.start)
        if self.class_name not in context.members(context.start):
            raise IndexError_(
                f"class {self.class_name!r} not in the hierarchy at position "
                f"{context.start}"
            )
        attribute = context.path.attribute_def_at(context.start)
        self.attribute = attribute.name
        self._values = ValueIndex(
            pager=context.pager,
            sizes=context.sizes,
            name=f"SIX({self.class_name}.{self.attribute})",
            atomic_keys=attribute.is_atomic,
            classes=[self.class_name],
            grouped=False,
            layout=context.layout,
        )
        for instance in context.database.extent(self.class_name):
            self._load(instance)

    def _load(self, instance: ObjectInstance) -> None:
        for value in dict.fromkeys(instance.value_list(self.attribute)):
            self._values.add(self.context.key_of_value(value), instance.oid)

    # ------------------------------------------------------------------
    # OperationalIndex interface
    # ------------------------------------------------------------------
    def lookup(
        self, value: object, target_class: str, include_subclasses: bool = False
    ) -> set[OID]:
        if target_class != self.class_name:
            raise IndexError_(
                f"SIX on {self.class_name!r} cannot answer for {target_class!r}"
            )
        return self._values.lookup(self.context.key_of_value(value))

    def range_lookup(
        self,
        low: object,
        high: object,
        target_class: str,
        include_subclasses: bool = False,
    ) -> set[OID]:
        if target_class != self.class_name:
            raise IndexError_(
                f"SIX on {self.class_name!r} cannot answer for {target_class!r}"
            )
        return self._values.range_lookup(low, high)

    def on_insert(self, instance: ObjectInstance) -> None:
        if instance.oid.class_name != self.class_name:
            return
        self._load(instance)

    def on_delete(self, instance: ObjectInstance) -> None:
        if instance.oid.class_name != self.class_name:
            return
        for value in dict.fromkeys(instance.value_list(self.attribute)):
            # A value referencing an already-deleted object has no record:
            # it was dropped when the referenced object died (the CMD
            # maintenance of Section 3.1).
            if isinstance(value, OID) and not self.context.database.contains(value):
                continue
            self._values.remove(self.context.key_of_value(value), instance.oid)

    def remove_key(self, key: object) -> bool:
        """Drop the whole record stored under ``key`` (cross-subpath CMD).

        Returns whether a record existed. Used when the object whose oid is
        the key value is deleted from the *following* subpath.
        """
        if self._values.tree.contains(key):
            self._values.tree.delete(key)
            return True
        return False

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        database = self.context.database
        expected: dict[object, set[OID]] = {}
        for instance in database.extent(self.class_name):
            for value in dict.fromkeys(instance.value_list(self.attribute)):
                # Records keyed by dangling oids are dropped when the
                # referenced object is deleted (the CMD maintenance).
                if isinstance(value, OID) and not database.contains(value):
                    continue
                expected.setdefault(value, set()).add(instance.oid)
        actual = {
            key: set(record.get(self.class_name, ()))
            for key, record in self._values.entries().items()
        }
        if expected != actual:
            raise IndexError_(
                f"SIX({self.class_name}.{self.attribute}) inconsistent: "
                f"{len(expected)} expected keys vs {len(actual)} stored"
            )
