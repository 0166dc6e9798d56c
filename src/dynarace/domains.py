"""Finite field domains and the packets ranging over them.

Field values are opaque tokens (numerals included); equality is token
equality.  A packet is a total assignment of one value per field and is
represented as a plain tuple aligned with the canonical field order, so
packets are hashable and sort canonically.
"""

from __future__ import annotations

import math
from collections import namedtuple

#: Packets are value tuples aligned with ``FieldDomains.fields``.
Packet = tuple

#: The largest packet space accepted: ``FieldDomains`` refuses a larger one
#: when it is built, so a model above it fails in ``load_model`` (a declared
#: ``fields`` block) or ``infer_domains``, before any analysis or output.
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
    ``__slots__``: ``packet_count``, the value indices and the normal
    forms (``netkat.normal_form``'s cache, by policy) live in the
    instance ``__dict__``, set once by the constructor.  ``_make`` and
    ``_replace`` bypass it, so they must not be used.
    """

    def __new__(cls, fields, values):
        self = super().__new__(cls, fields, values)
        self.packet_count = math.prod(map(len, self.values))
        if self.packet_count > PACKET_CAP:
            raise DynaraceError(
                f"packet space has {self.packet_count} packets, cap is {PACKET_CAP}"
            )
        self._field_index = {f: i for i, f in enumerate(self.fields)}
        self._value_index = {
            f: {v: j for j, v in enumerate(vals)}
            for f, vals in zip(self.fields, self.values)
        }
        self.normal_forms = {}
        return self

    def field_index(self, field: str) -> int:
        return self._field_index[field]

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
