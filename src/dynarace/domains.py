"""Finite field domains and the packets ranging over them.

Field values are opaque tokens (numerals included); equality is token
equality.  A packet is a total assignment of one value per field and is
represented as a plain tuple aligned with the canonical field order, so
packets are hashable and sort canonically.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

#: Packets are value tuples aligned with ``FieldDomains.fields``.
Packet = tuple

#: The largest packet space accepted: ``netkat.normal_form``, and ``hnf.hnf``
#: on a term with a policy message, raise a ``DynaraceError`` above it.
#: Normal forms do not enumerate the space, but their symbolic packets are
#: bounded by it up to a factor of 2 + 1/v per field of v values, so the cap
#: still bounds their work, if loosely.
PACKET_CAP = 2 ** 20


class DynaraceError(Exception):
    """Every error this package reports; the message is the whole report."""


def residual_token(field_name: str) -> str:
    """Distinguished extra value giving negated tests a nonempty complement."""
    return f"<{field_name}:other>"


class FieldDomains(namedtuple("FieldDomains", "fields values")):
    """Ordered fields with a finite, nonempty value domain per field.

    ``fields`` fixes the canonical field order used everywhere (packet
    tuples, complete-test rendering, packet enumeration).  ``values[i]``
    lists the domain of ``fields[i]`` in canonical value order.  No
    ``__slots__``: the caches below live in the instance ``__dict__``.
    """

    @cached_property
    def _field_index(self) -> dict:
        return {f: i for i, f in enumerate(self.fields)}

    @cached_property
    def normal_forms(self) -> dict:
        """``netkat.normal_form`` results over these domains, by policy."""
        return {}

    @cached_property
    def _value_index(self) -> dict:
        return {
            f: {v: j for j, v in enumerate(vals)}
            for f, vals in zip(self.fields, self.values)
        }

    def field_index(self, field: str) -> int:
        return self._field_index[field]

    @property
    def packet_count(self) -> int:
        n = 1
        for vals in self.values:
            n *= len(vals)
        return n

    def check_packet_cap(self) -> None:
        """Raise a ``DynaraceError`` if the packet space is above ``PACKET_CAP``."""
        if self.packet_count > PACKET_CAP:
            raise DynaraceError(
                f"packet space has {self.packet_count} packets, cap is {PACKET_CAP}"
            )

    def packet_key(self, packet: Packet) -> tuple:
        """Canonical sort key: per-field value indices."""
        return tuple(
            self._value_index[f][v] for f, v in zip(self.fields, packet)
        )

    def render_packet(self, packet: Packet) -> str:
        """Render as ``{flag=blocking, pt=1}``."""
        inner = ", ".join(f"{f}={v}" for f, v in zip(self.fields, packet))
        return "{" + inner + "}"

    def render_test(self, packet: Packet) -> str:
        """Render the complete test matching ``packet``."""
        return " . ".join(
            f"({f} = {v})" for f, v in zip(self.fields, packet)
        )
