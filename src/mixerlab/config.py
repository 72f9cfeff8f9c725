"""INI schema: each section is one table of ``Key`` rows (name, type, default).

``read_ini`` turns INI text into typed values with defaults filled in.
Unknown sections and keys, values that do not parse, a needed key left
unset and a set key that the run would not read raise a ConfigError that
names the key; an unread key's value is None. ``format_section`` writes the
values back as INI that reads the same.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from typing import Any, Callable, NamedTuple, Optional

from .errors import ConfigError


class ValueType(NamedTuple):
    parse: Callable[[str], Any]
    format: Callable[[Any], str] = str


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], want: str):
    def run(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {want}")
        return value

    return run


def _bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"must be one of {sorted(states)}")
    return states[text.lower()]


def choice(*options: str) -> ValueType:
    return ValueType(_checked(str, lambda v: v in options, f"one of {options}"))


INT = ValueType(int)
COUNT = ValueType(_checked(int, lambda v: v >= 1, "a positive integer"))
NONNEG = ValueType(_checked(int, lambda v: v >= 0, "a non-negative integer"))
KERNEL = ValueType(_checked(int, lambda v: v >= 3 and v % 2 == 1, "an odd integer >= 3"))
FLOAT = ValueType(_checked(float, math.isfinite, "finite"), repr)
FRACTION = ValueType(_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"), repr)
TEXT = ValueType(str, lambda v: v.replace("\n", "\n  "))  # indent continuation lines
BOOL = ValueType(_bool, lambda v: "true" if v else "false")
INTS = ValueType(lambda t: tuple(int(v) for v in t.split(",")), lambda v: ",".join(map(str, v)))
HW = ValueType(_checked(lambda t: tuple(int(v) for v in t.split("x")), lambda v: len(v) == 2, "HxW"),
               lambda v: f"{v[0]}x{v[1]}")


@dataclasses.dataclass(frozen=True)
class Key:
    """One INI key; ``field`` names the dataclass field it fills, if any."""

    name: str
    type: ValueType
    default: Any = None  # None: unset
    field: Optional[str] = None
    when: Optional[tuple[str, Any]] = None  # (key, value): read only if that earlier key is read and holds value
    required: bool = False  # must be set whenever it is read


def owned_by(cls, *keys: Key) -> tuple[Key, ...]:
    """Rows filling fields of dataclass ``cls`` (``field`` defaults to the
    key name), each with its field's default."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return tuple(
        dataclasses.replace(k, field=k.field or k.name, default=defaults[k.field or k.name])
        for k in keys
    )


def field_values(keys: tuple[Key, ...], values: dict[str, Any]) -> dict[str, Any]:
    """Dataclass keyword arguments from one section's typed values."""
    return {k.field: values[k.name] for k in keys if k.field}


def read_ini(text: str, schema: dict[str, tuple[Key, ...]]) -> dict[str, dict[str, Any]]:
    """Typed values of every section in ``schema``, None for an unread key; other sections are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    for section in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if section not in schema:
            raise ConfigError(f"section [{section}] is not valid here; expected {sorted(schema)}")
    out = {}
    for section, keys in schema.items():
        items = dict(parser[section]) if parser.has_section(section) else {}
        unknown = set(items) - {k.name for k in keys}
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        out[section] = values = {}
        for key in keys:
            if key.name not in items:
                values[key.name] = key.default
                continue
            values[key.name] = parse_value(key.type, items[key.name], f"{section}.{key.name}")
        unread: dict[str, str] = {}  # key -> the "selector = value" that leaves it unread
        for key in keys:
            sel, want = key.when or (None, None)
            if sel in unread or (sel and values[sel] != want):
                unread[key.name] = unread.get(sel, f"{sel} = {values[sel]}")
                if values[key.name] != key.default:
                    raise ConfigError(f"[{section}] {key.name} is not read with {unread[key.name]}")
            elif key.required and values[key.name] is None:
                cond = "" if not sel else f" with {sel} unset" if want is None else f" with {sel} = {want}"
                raise ConfigError(f"[{section}] needs {key.name}{cond}")
        values.update(dict.fromkeys(unread))  # None, so format_section leaves them out
    return out


def parse_value(value_type: ValueType, text: str, where: str) -> Any:
    """``text`` typed by ``value_type``; text that does not parse raises a
    ConfigError naming ``where``."""
    try:
        return value_type.parse(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where} = {text!r}: {exc}") from None


def format_section(section: str, keys: tuple[Key, ...], values: dict[str, Any]) -> str:
    """INI text of one section; unset (None) values are left out."""
    lines = [f"[{section}]"]
    lines += [f"{k.name} = {k.type.format(values[k.name])}" for k in keys if values[k.name] is not None]
    return "\n".join(lines) + "\n"
