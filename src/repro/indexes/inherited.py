"""Inherited index (IIX): one attribute of a whole class hierarchy.

"An inherited index is an index on an attribute of all classes of a class
inheritance hierarchy rooted at a particular class" (Section 2.2, after
[Kim, Kim & Dale 89], a.k.a. the class-hierarchy index). One B+-tree
covers the root and every subclass; records group oids per class so a
query scoped to a subset of the hierarchy retrieves only the relevant
pages of an oversized record.
"""

from __future__ import annotations

from repro.errors import IndexError_
from repro.indexes.base import IndexContext, OperationalIndex
from repro.indexes.value_index import ValueIndex
from repro.model.objects import OID, ObjectInstance


class InheritedIndex(OperationalIndex):
    """IIX on attribute ``A_start`` of the hierarchy at the subpath's class."""

    def __init__(self, context: IndexContext) -> None:
        super().__init__(context)
        if context.start != context.end:
            raise IndexError_("an inherited index covers exactly one class level")
        self.root_class = context.path.class_at(context.start)
        self.classes = list(context.members(context.start))
        attribute = context.path.attribute_def_at(context.start)
        self.attribute = attribute.name
        self._values = ValueIndex(
            pager=context.pager,
            sizes=context.sizes,
            name=f"IIX({self.root_class}.{self.attribute})",
            atomic_keys=attribute.is_atomic,
            classes=self.classes,
            grouped=True,
            layout=context.layout,
        )
        for class_name in self.classes:
            for instance in context.database.extent(class_name):
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
        if target_class not in self.classes:
            raise IndexError_(
                f"IIX on {self.root_class!r} cannot answer for {target_class!r}"
            )
        wanted = {target_class}
        if include_subclasses:
            wanted.update(
                name
                for name in self.context.database.schema.hierarchy(target_class)
            )
        return self._values.lookup(self.context.key_of_value(value), classes=wanted)

    def lookup_hierarchy(self, value: object) -> set[OID]:
        """All oids under a value, across the whole hierarchy."""
        return self._values.lookup(self.context.key_of_value(value))

    def range_lookup(
        self,
        low: object,
        high: object,
        target_class: str,
        include_subclasses: bool = False,
    ) -> set[OID]:
        if target_class not in self.classes:
            raise IndexError_(
                f"IIX on {self.root_class!r} cannot answer for {target_class!r}"
            )
        wanted = {target_class}
        if include_subclasses:
            wanted.update(self.context.database.schema.hierarchy(target_class))
        return self._values.range_lookup(low, high, classes=wanted)

    def range_lookup_hierarchy(self, low: object, high: object) -> set[OID]:
        """Range retrieval across the whole hierarchy."""
        return self._values.range_lookup(low, high)

    def on_insert(self, instance: ObjectInstance) -> None:
        if instance.oid.class_name not in self.classes:
            return
        self._load(instance)

    def on_delete(self, instance: ObjectInstance) -> None:
        if instance.oid.class_name not in self.classes:
            return
        for value in dict.fromkeys(instance.value_list(self.attribute)):
            # Records keyed by dangling oids were dropped when the
            # referenced object died (CMD maintenance).
            if isinstance(value, OID) and not self.context.database.contains(value):
                continue
            self._values.remove(self.context.key_of_value(value), instance.oid)

    def remove_key(self, key: object) -> bool:
        """Drop the record stored under ``key`` (cross-subpath CMD)."""
        if self._values.tree.contains(key):
            self._values.tree.delete(key)
            return True
        return False

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        database = self.context.database
        expected: dict[object, dict[str, set[OID]]] = {}
        for class_name in self.classes:
            for instance in database.extent(class_name):
                for value in dict.fromkeys(instance.value_list(self.attribute)):
                    if isinstance(value, OID) and not database.contains(value):
                        continue
                    expected.setdefault(value, {}).setdefault(
                        class_name, set()
                    ).add(instance.oid)
        actual: dict[object, dict[str, set[OID]]] = {}
        for key, record in self._values.entries().items():
            actual[key] = {name: set(oids) for name, oids in record.items()}
        if expected != actual:
            raise IndexError_(
                f"IIX({self.root_class}.{self.attribute}) inconsistent"
            )
