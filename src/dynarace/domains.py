"""Finite field domains and the packets ranging over them.

Field values are opaque tokens (numerals included); equality is token
equality.  A packet is a total assignment of one value per field and is
represented as a plain tuple aligned with the canonical field order, so
packets are hashable and sort canonically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

#: Packets are value tuples aligned with ``FieldDomains.fields``.
Packet = tuple

#: Refuse to enumerate packet spaces larger than this.
PACKET_CAP = 2 ** 20


class DynaraceError(Exception):
    """Base class for all errors raised by this package."""


class UndeclaredValue(DynaraceError):
    """A value literal falls outside the declared domain of its field."""


class EmptyModel(DynaraceError):
    """No fields occur anywhere in the model."""


class DomainTooLarge(DynaraceError):
    """The packet space exceeds the enumeration cap."""


def residual_token(field_name: str) -> str:
    """Distinguished extra value giving negated tests a nonempty complement."""
    return f"<{field_name}:other>"


@dataclass(frozen=True)
class FieldDomains:
    """Ordered fields with a finite, nonempty value domain per field.

    ``fields`` fixes the canonical field order used everywhere (packet
    tuples, complete-test rendering, packet enumeration).  ``values[i]``
    lists the domain of ``fields[i]`` in canonical value order.
    ``residuals[i]`` is the distinguished residual value of ``fields[i]``,
    or None when domains were declared explicitly.
    """

    fields: tuple[str, ...]
    values: tuple[tuple[str, ...], ...]
    residuals: tuple[str | None, ...]

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

    def has_field(self, field: str) -> bool:
        return field in self._field_index

    def has_value(self, field: str, value: str) -> bool:
        return value in self._value_index.get(field, ())

    def value_index(self, field: str, value: str) -> int:
        return self._value_index[field][value]

    def domain(self, field: str) -> tuple[str, ...]:
        return self.values[self.field_index(field)]

    @property
    def packet_count(self) -> int:
        n = 1
        for vals in self.values:
            n *= len(vals)
        return n

    def all_packets(self):
        """Yield every packet, lexicographic by field then value order."""
        return itertools.product(*self.values)

    def packet(self, mapping: dict) -> Packet:
        """Build a packet from a field->value mapping; must be total."""
        extra = set(mapping) - set(self.fields)
        if extra:
            raise DynaraceError(f"unknown fields in packet: {sorted(extra)}")
        out = []
        for f in self.fields:
            if f not in mapping:
                raise DynaraceError(f"packet is missing field {f!r}")
            v = mapping[f]
            if not self.has_value(f, v):
                raise UndeclaredValue(
                    f"value {v!r} is not in the domain of field {f!r}"
                )
            out.append(v)
        return tuple(out)

    def as_mapping(self, packet: Packet) -> dict:
        return dict(zip(self.fields, packet))

    def packet_key(self, packet: Packet) -> tuple:
        """Canonical sort key: per-field value indices."""
        return tuple(
            self._value_index[f][v] for f, v in zip(self.fields, packet)
        )

    def set_field(self, packet: Packet, field: str, value: str) -> Packet:
        i = self.field_index(field)
        return packet[:i] + (value,) + packet[i + 1 :]

    def render_packet(self, packet: Packet) -> str:
        """Render as ``{flag=blocking, pt=1}``."""
        inner = ", ".join(f"{f}={v}" for f, v in zip(self.fields, packet))
        return "{" + inner + "}"

    def render_test(self, packet: Packet) -> str:
        """Render the complete test matching ``packet``."""
        return " . ".join(
            f"({f} = {v})" for f, v in zip(self.fields, packet)
        )
