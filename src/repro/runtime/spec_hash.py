"""Canonical, content-addressed hashing of experiment specifications.

The parallel runtime and its result cache key every run on the *content* of
its configuration, not on object identity or on which harness built it: two
``ExperimentSpec`` instances describing the same machine, workload, tenants
and seed hash identically, so a Figure 8 standalone run and a Figure 4
standalone run at the same load resolve to the same cache entry.

Hashing walks the (frozen, nested) dataclass tree and produces a canonical
JSON document — sorted keys, explicit type tags, exact float representation
via ``repr`` — which is then SHA-256 digested.  Any configuration value that
affects simulation output lives in the dataclasses, so the digest is a sound
cache key for deterministic runs.

The document is written directly as text, byte for byte what ``json.dumps``
(``sort_keys=True``, compact separators) makes of the tagged tree:

* scalars, tuples and lists are dispatched on their exact type first; only
  subclasses, NumPy scalars, enums, frozensets and dicts take the
  ``isinstance`` chain;
* each dataclass's sorted field list is planned once per class;
* the text of a frozen dataclass whose whole subtree is immutable is
  memoised for the instance's lifetime, so a sub-spec shared by many specs
  (the calibrations every fleet shard task carries) is encoded once, and
  its digests are memoised alongside.  The memo lives in a module-level
  table, never on the instance, so it adds nothing to pickles.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import weakref
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["OMIT_IF_DEFAULT", "canonical_encoding", "spec_hash", "versioned_namespace"]

#: Field-metadata flag: a dataclass field declared with
#: ``field(default=None, metadata={OMIT_IF_DEFAULT: True})`` is left out of
#: the canonical encoding while it still equals its declared default.  This
#: lets a spec grow a new optional sub-spec without changing the hash of any
#: configuration that does not use it — pinned goldens stay byte-identical —
#: while any non-default value participates in the digest as usual.
OMIT_IF_DEFAULT = "repro_hash_omit_if_default"


def versioned_namespace(tag: str) -> str:
    """A cache namespace stamped with the simulator version.

    Cached results are only bit-identical to a recomputation while the
    simulator code is unchanged, so persistent (on-disk) cache keys carry the
    package version: after an upgrade, old entries simply stop matching
    instead of silently serving stale figures.
    """
    from .. import __version__

    return f"{tag}/v{__version__}"


#: A dataclass's encoding plan: ``(prefix, fields, frozen)``, where
#: ``prefix`` opens the encoded object, ``fields`` lists ``(name, key text,
#: omit-if-equal default)`` sorted by name, and ``frozen`` is the class's
#: frozen flag.
_Plan = Tuple[str, Tuple[Tuple[str, str, Any], ...], bool]

#: Default of a field that is always encoded.
_ALWAYS = object()


@functools.cache
def _plan(cls: type) -> Optional[_Plan]:
    """The encoding plan of a dataclass, ``None`` for any other class."""
    if not hasattr(cls, "__dataclass_fields__"):
        return None
    fields = []
    for f in sorted(dataclasses.fields(cls), key=lambda f: f.name):
        omit = f.metadata.get(OMIT_IF_DEFAULT) and f.default is not dataclasses.MISSING
        fields.append((f.name, _json_string(f.name) + ":", f.default if omit else _ALWAYS))
    prefix = '{"__dataclass__":' + _json_string(cls.__qualname__) + ',"fields":{'
    return prefix, tuple(fields), cls.__dataclass_params__.frozen


class _Encoded(weakref.ref):
    """The memoised text of one frozen dataclass instance, and its digests."""

    __slots__ = ("key", "text", "digests")


def _forget(entry: _Encoded) -> None:
    if _ENCODED.get(entry.key) is entry:
        del _ENCODED[entry.key]


#: ``id(instance)`` -> its memo entry; an entry leaves with its instance.
#: Keyed by identity, not equality: equal specs can encode differently
#: (``1 == 1.0``) and need not be hashable.
_ENCODED: Dict[int, _Encoded] = {}


def _memoised(value: Any) -> Optional[_Encoded]:
    entry = _ENCODED.get(id(value))
    return entry if entry is not None and entry() is value else None


def _remember(value: Any, text: str) -> None:
    try:
        entry = _Encoded(value, _forget)
    except TypeError:
        return  # a slotted class without __weakref__: no memo
    entry.key = id(value)
    entry.text = text
    entry.digests = {}
    _ENCODED[entry.key] = entry


def _encode(value: Any, mutable: List[bool]) -> str:
    """The canonical JSON text of one configuration value.

    ``mutable[0]`` is set when the value holds a list, dict or non-frozen
    dataclass, whose content may change after encoding; such a subtree is
    never memoised.
    """
    cls = type(value)
    if cls is float:
        # repr round-trips doubles exactly; JSON's float formatting does not.
        return '{"__float__":"' + repr(value) + '"}'
    if cls is int:
        return int.__repr__(value)
    if cls is str:
        return _json_string(value)
    if cls is tuple:
        return "[" + ",".join([_encode(item, mutable) for item in value]) + "]"
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    if cls is list:
        mutable[0] = True
        return "[" + ",".join([_encode(item, mutable) for item in value]) + "]"
    plan = _plan(cls)
    if plan is None:
        return _encode_other(value, mutable)

    prefix, fields, frozen = plan
    if frozen:
        entry = _memoised(value)
        if entry is not None:
            return entry.text
        outer, mutable[0] = mutable[0], False
    else:
        mutable[0] = True
    parts = []
    for name, key, default in fields:
        item = getattr(value, name)
        if default is not _ALWAYS and item == default:
            continue
        parts.append(key + _encode(item, mutable))
    text = prefix + ",".join(parts) + "}}"
    if frozen:
        if not mutable[0]:
            _remember(value, text)
        mutable[0] = mutable[0] or outer
    return text


def _encode_other(value: Any, mutable: List[bool]) -> str:
    """Subclasses, NumPy scalars, enums, frozensets and dicts."""
    if isinstance(value, Enum):
        qualname = _json_string(type(value).__qualname__)
        return '{"__enum__":' + qualname + ',"value":' + _encode(value.value, mutable) + "}"
    # NumPy scalars are normalised to their Python equivalents so that specs
    # built from numpy-driven sweeps (np.arange qps levels, np.int64 core
    # counts) hash identically to their plain-Python twins.
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        return '{"__float__":"' + repr(float(value)) + '"}'
    if isinstance(value, (list, tuple)):
        if not isinstance(value, tuple):
            mutable[0] = True
        return "[" + ",".join([_encode(item, mutable) for item in value]) + "]"
    if isinstance(value, frozenset):
        # Items are ordered by their canonical JSON — encoded items may be
        # objects (floats, enums, dataclasses), which do not compare with ``<``.
        items = sorted([_encode(item, mutable) for item in value])
        return '{"__frozenset__":[' + ",".join(items) + "]}"
    if isinstance(value, dict):
        # Keys are encoded like any other value (so 1 and "1" stay distinct)
        # and entries are ordered by their canonical JSON.
        mutable[0] = True
        entries = [
            "[" + _encode(key, mutable) + "," + _encode(val, mutable) + "]"
            for key, val in value.items()
        ]
        entries.sort()
        return '{"__dict__":[' + ",".join(entries) + "]}"
    raise TypeError(f"cannot canonically encode {type(value).__name__!r} for spec hashing")


def canonical_encoding(spec: Any, namespace: str = "") -> str:
    """The canonical JSON document hashed by :func:`spec_hash`."""
    return '{"namespace":' + _json_string(namespace) + ',"spec":' + _encode(spec, [False]) + "}"


def spec_hash(spec: Any, namespace: str = "") -> str:
    """SHA-256 hex digest of a configuration's canonical encoding.

    ``namespace`` distinguishes keys produced by different kinds of run (for
    example single-machine experiments vs full cluster simulations) that might
    otherwise share a configuration dataclass.

    Digests are memoised per namespace next to the encoding memo, so only
    frozen, deeply immutable dataclass specs have them: such a spec hashes
    identically for its whole lifetime, and the cache layer asks for the
    same digest on every lookup.  Anything else is re-encoded on every call.
    ``dataclasses.replace`` builds a new instance, so derived specs never
    inherit a stale memo.
    """
    entry = _memoised(spec)
    if entry is not None:
        digest = entry.digests.get(namespace)
        if digest is not None:
            return digest
    encoded = canonical_encoding(spec, namespace=namespace).encode("utf-8")
    digest = hashlib.sha256(encoded).hexdigest()
    entry = _memoised(spec)  # the encoding above memoises a new spec
    if entry is not None:
        entry.digests[namespace] = digest
    return digest
