"""Cipher suite registry: classification database and offer-list construction.

The registry ships as a checked-in CSV with precomputed classification
columns (deriving components from suite names at runtime is fragile across
registry naming conventions). All lookups after load are read-only.
"""
from __future__ import annotations

import csv
import functools
import json
import marshal
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable, Hashable, Iterable, Optional


class RegistryError(ValueError):
    """Malformed or inconsistent registry data."""


class Kex(Enum):
    RSA = "RSA"
    DHE = "DHE"
    ECDHE = "ECDHE"
    OTHER = "OTHER"


class Auth(Enum):
    RSA = "RSA"
    ECDSA = "ECDSA"
    DSS = "DSS"
    ANON = "ANON"
    OTHER = "OTHER"


class CipherFamily(Enum):
    AES = "AES"
    CAMELLIA = "CAMELLIA"
    ARIA = "ARIA"
    SEED = "SEED"
    IDEA = "IDEA"
    CHACHA = "CHACHA"
    RC4 = "RC4"
    DES = "DES"
    TRIPLE_DES = "TRIPLE_DES"
    NULL = "NULL"
    OTHER = "OTHER"


class CipherMode(Enum):
    GCM = "GCM"
    CCM = "CCM"
    CBC = "CBC"
    STREAM = "STREAM"
    POLY1305 = "POLY1305"
    NONE = "NONE"


class Mac(Enum):
    MD5 = "MD5"
    SHA1 = "SHA1"
    SHA256 = "SHA256"
    SHA384 = "SHA384"
    AEAD = "AEAD"
    NONE = "NONE"


class Version(Enum):
    """Protocol versions, ordered oldest to newest."""

    SSLv2 = 0x0002
    SSLv3 = 0x0300
    TLS1_0 = 0x0301
    TLS1_1 = 0x0302
    TLS1_2 = 0x0303
    TLS1_3 = 0x0304

    # members are singletons, so identity agrees with ==; this hash runs in
    # C, where Enum's own hashes the member name in Python
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        return _VERSION_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Version":
        try:
            return _VERSION_BY_LABEL[label]
        except (KeyError, TypeError):
            raise RegistryError(f"unknown protocol version {label!r}") from None

    # Version cannot be subclassed, so a class-identity check is the
    # isinstance check; ``_value_`` skips Enum's ``value`` descriptor
    def __lt__(self, other):
        if other.__class__ is not Version:
            return NotImplemented
        return self._value_ < other._value_

    def __le__(self, other):
        if other.__class__ is not Version:
            return NotImplemented
        return self._value_ <= other._value_


_VERSION_LABELS = {
    Version.SSLv2: "SSLv2",
    Version.SSLv3: "SSLv3",
    Version.TLS1_0: "TLS1.0",
    Version.TLS1_1: "TLS1.1",
    Version.TLS1_2: "TLS1.2",
    Version.TLS1_3: "TLS1.3",
}
_VERSION_BY_LABEL = {label: v for v, label in _VERSION_LABELS.items()}


def enum_decoder(enum_cls: type[Enum]) -> Callable[[object], Enum]:
    """``enum_cls(value)`` through a value -> member dict. A value that is not
    in the dict goes to ``enum_cls(value)``, so a member passes through and
    an unknown value raises the enum's own ValueError."""
    members = {member.value: member for member in enum_cls}

    def decode(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum_cls(value)
    return decode


# JSON types as ``json.loads`` gives them, for ``check_fields`` rows; a type
# is matched exactly, so ``true`` is no integer and ``1.0`` no int
BOOL, INT, NUMBER, STR, LIST, OBJECT, NULL = (
    frozenset({bool}), frozenset({int}), frozenset({int, float}),
    frozenset({str}), frozenset({list}), frozenset({dict}),
    frozenset({type(None)}))


def check_fields(obj, fields, where: str = "", required=()) -> dict:
    """``obj``, once it is known to be a JSON object whose fields have the
    types ``fields`` gives: the one field-type check of every input decoder.
    A row ``(name, types, expected)`` raises ``ValueError("<where><name>
    must be <expected>, not <value!r>")``. A row for ``name[]`` checks each
    element of the list or object in field ``name``, after that field's own
    row. A field ``obj`` lacks is not checked, unless ``required`` names it."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    for name in required:
        if name not in obj:
            raise ValueError(f"{where}{name} is required")
    for name, types, expected in fields:
        if name[-1] != "]":
            if name in obj and type(obj[name]) not in types:
                raise ValueError(f"{where}{name} must be {expected}, not {obj[name]!r}")
            continue
        name = name[:-2]
        items = obj.get(name)
        items = (items.items() if type(items) is dict
                 else enumerate(items) if type(items) is list else ())
        for key, value in items:
            if type(value) not in types:
                raise ValueError(
                    f"{where}{name}[{key!r}] must be {expected}, not {value!r}")
    return obj


def parse_json(text):
    """``json.loads(text)``: the one JSON parse of every input line and file.
    JSON nested deeper than the interpreter's recursion limit is a
    ValueError, like any other malformed JSON, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


class SharedDecoder:
    """``decode(obj)``, made once per distinct JSON value: a later call with
    an equal ``obj`` returns the object the first call made. Each reader
    call makes its own decoders. The key is ``marshal.dumps(obj, 2)``, which
    is exact for a ``json.loads`` value: version 2 writes no back-references
    and no interned-string tags (both came in later versions), so the bytes
    depend only on the value and the exact type of each part. They tell
    ``true`` from ``1``, ``1024`` from ``1024.0`` and ``-0.0`` from ``0.0``,
    and keys in another order make other bytes, so values that
    ``check_fields`` tells apart never share an object. A decode that
    raises stores nothing, so each bad value raises again.

    Only repeats repay a key: each holds about 0.7 kB for a configuration,
    and the memo keeps it until the reader returns. So once the memo holds
    more than ``PROBE`` values, and more values than calls it has answered
    from them, it is dropped, and every later value is decoded on its own.
    """

    PROBE = 4096

    __slots__ = ("decode", "memo", "hits")

    def __init__(self, decode: Callable):
        self.decode = decode
        self.memo: Optional[dict] = {}
        self.hits = 0

    def __call__(self, obj):
        memo = self.memo
        if memo is None:
            return self.decode(obj)
        key = marshal.dumps(obj, 2)
        found = memo.get(key)
        if found is not None:
            self.hits += 1
            return found
        found = memo[key] = self.decode(obj)
        if len(memo) > max(self.hits, self.PROBE):
            self.memo = None
        return found


AEAD_MODES = frozenset({CipherMode.GCM, CipherMode.CCM, CipherMode.POLY1305})


@dataclass(frozen=True)
class CipherSuiteInfo:
    id: int
    name: str
    kex: Kex
    auth: Auth
    cipher_family: CipherFamily
    cipher_mode: CipherMode
    mac: Mac
    is_aead: bool
    is_export: bool
    min_version: Version
    max_version: Version
    unsupported_by_engine: bool = False

    def __post_init__(self):
        if self.is_aead != (self.cipher_mode in AEAD_MODES):
            raise RegistryError(
                f"{self.name}: is_aead must mirror the cipher mode"
            )
        if self.is_export and "EXPORT" not in self.name:
            raise RegistryError(f"{self.name}: export flag without EXPORT marker")


class CipherDb:
    """Immutable id -> suite map; safe for unrestricted concurrent reads.

    Values derived from the suites (offer lists, keyword match sets,
    cipher-string expansions over a profile) are built on first use and kept
    on the instance through ``derived``, so they live exactly as long as the
    db.
    """

    def __init__(self, suites: Iterable[CipherSuiteInfo]):
        self.suites: dict[int, CipherSuiteInfo] = {}
        for s in suites:
            if s.id in self.suites:
                raise RegistryError(f"duplicate suite id 0x{s.id:04X}")
            self.suites[s.id] = s
        self._derived: dict = {}

    def derived(self, key: Hashable, build: Callable[[], object]):
        """``build()``'s value, computed once per db and key. ``build`` must
        depend on the suites and the key alone, and no caller may mutate the
        value, since every caller shares it. Two threads may both build on a
        first miss; both get the first value stored."""
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, build())

    def __len__(self) -> int:
        return len(self.suites)

    def __contains__(self, suite_id: int) -> bool:
        return suite_id in self.suites

    def __getitem__(self, suite_id: int) -> CipherSuiteInfo:
        try:
            return self.suites[suite_id]
        except KeyError:
            raise KeyError(f"suite 0x{suite_id:04X} not in registry") from None

    def get(self, suite_id: int) -> Optional[CipherSuiteInfo]:
        return self.suites.get(suite_id)


_COLUMNS = [
    "id", "name", "kex", "auth", "cipher_family", "cipher_mode", "mac",
    "is_aead", "is_export", "min_version", "max_version", "unsupported_by_engine",
]

_BOOLS = {"true": True, "false": False}


def _bundled(name: str):
    return resources.files("tlsaudit.data").joinpath(name)


def load_registry() -> CipherDb:
    """Load the bundled IANA-derived registry CSV."""
    label = "cipher_suites.csv"
    text = _bundled(label).read_text(encoding="utf-8")
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames != _COLUMNS:
        raise RegistryError(f"{label}: bad header {reader.fieldnames}")
    suites = []
    for lineno, row in enumerate(reader, start=2):
        try:
            suites.append(CipherSuiteInfo(
                id=int(row["id"], 16),
                name=row["name"],
                kex=Kex(row["kex"]),
                auth=Auth(row["auth"]),
                cipher_family=CipherFamily(row["cipher_family"]),
                cipher_mode=CipherMode(row["cipher_mode"]),
                mac=Mac(row["mac"]),
                is_aead=_BOOLS[row["is_aead"]],
                is_export=_BOOLS[row["is_export"]],
                min_version=Version.from_label(row["min_version"]),
                max_version=Version.from_label(row["max_version"]),
                unsupported_by_engine=_BOOLS[row["unsupported_by_engine"]],
            ))
        except RegistryError:
            raise
        except (KeyError, ValueError) as exc:
            raise RegistryError(f"{label}:{lineno}: malformed row ({exc})") from exc
    try:
        return CipherDb(suites)
    except RegistryError as exc:
        raise RegistryError(f"{label}: {exc}") from exc


# Union of the TLS 1.2-compatible cipher suites offered by Chrome 65,
# Firefox 66, Safari 13.0.1 and Edge 18 (extraction sources documented in
# docs/browser-union.md). Emitted in descending security preference:
# AEAD-ECDHE first, then AEAD, forward-secret CBC, static-RSA, legacy.
_BROWSER_LISTS = {
    "chrome65": [0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8, 0xC013,
                 0xC014, 0x009C, 0x009D, 0x002F, 0x0035, 0x000A],
    "firefox66": [0xC02B, 0xC02F, 0xCCA9, 0xCCA8, 0xC02C, 0xC030, 0xC00A,
                  0xC009, 0xC013, 0xC014, 0x0033, 0x0039, 0x002F, 0x0035,
                  0x000A],
    "safari13": [0xC02C, 0xC02B, 0xC024, 0xC023, 0xC00A, 0xC009, 0xCCA9,
                 0xC030, 0xC02F, 0xC028, 0xC027, 0xC014, 0xC013, 0xCCA8,
                 0x009D, 0x009C, 0x003D, 0x003C, 0x0035, 0x002F, 0xC008,
                 0xC012, 0x000A],
    "edge18": [0xC02C, 0xC02B, 0xC030, 0xC02F, 0xC024, 0xC023, 0xC028,
               0xC027, 0xC00A, 0xC009, 0xC014, 0xC013, 0x009D, 0x009C,
               0x003D, 0x003C, 0x0035, 0x002F, 0x000A, 0x006A, 0x0040,
               0x0038, 0x0032],
}


KEX_RANK = {Kex.ECDHE: 0, Kex.DHE: 1, Kex.RSA: 2, Kex.OTHER: 3}
_FAMILY_RANK = {
    CipherFamily.AES: 0, CipherFamily.CHACHA: 0, CipherFamily.CAMELLIA: 1,
    CipherFamily.ARIA: 1, CipherFamily.SEED: 2, CipherFamily.IDEA: 2,
    CipherFamily.TRIPLE_DES: 3, CipherFamily.RC4: 4, CipherFamily.DES: 5,
    CipherFamily.NULL: 6, CipherFamily.OTHER: 6,
}


def offer_sort_key(info: CipherSuiteInfo):
    """Deterministic preference order: more secure first, then id."""
    return (
        0 if info.is_aead else 1,
        KEX_RANK[info.kex],
        _FAMILY_RANK[info.cipher_family],
        1 if info.is_export else 0,
        info.id,
    )


@functools.cache
def suite_label(suite_id: int) -> str:
    """``0xC02F``: how traces and capture logs name a suite id. Formatted
    once per id per process; callers pass wire ids, so at most 65,536."""
    return f"0x{suite_id:04X}"


_SUITE_ID = re.compile(r"0x[0-9A-Fa-f]{4}")


def suite_id(text: str) -> int:
    """The id that ``suite_label`` writes as ``text``: ``0x`` and four hex
    digits, in either case. A sign, spaces, underscores or another number of
    digits is a ValueError."""
    if not (isinstance(text, str) and _SUITE_ID.fullmatch(text)):
        raise ValueError(f"a suite id must be 0x and four hex digits, not {text!r}")
    return int(text, 16)


def _offer_ranks(db: CipherDb) -> dict[int, int]:
    """Each suite id's position in the db sorted by ``offer_sort_key``."""
    ordered = sorted(db.suites.values(), key=offer_sort_key)
    return {info.id: rank for rank, info in enumerate(ordered)}


def sort_offer(db: CipherDb, suite_ids: Iterable[int]) -> list[int]:
    ranks = db.derived("offer_ranks", lambda: _offer_ranks(db))
    try:
        return sorted(suite_ids, key=ranks.__getitem__)
    except KeyError as exc:
        db[exc.args[0]]  # raises the db's "not in registry" KeyError
        raise


def browser_union(db: CipherDb) -> list[int]:
    """Deduplicated union of the four browser lists, preference-ordered.
    Built once per db; each call returns a fresh list."""
    def build() -> tuple[int, ...]:
        union: set[int] = set()
        for name, ids in _BROWSER_LISTS.items():
            for sid in ids:
                if sid not in db:
                    raise RegistryError(
                        f"suite 0x{sid:04X} from {name} missing from registry"
                    )
                union.add(sid)
        if not union:
            raise RegistryError("empty registry has no browser union")
        return tuple(sort_offer(db, union))
    return list(db.derived("browser_union", build))


def cert_compatible(db: CipherDb, cert_auth: Auth) -> list[int]:
    """Engine-offerable suites for a certificate key type, preference-ordered.

    The full first-offer list for cipher enumeration: everything the engine
    can negotiate at TLS 1.2 that the presented certificate can authenticate.
    Built once per db and key type; each call returns a fresh list.
    """
    def build() -> tuple[int, ...]:
        return tuple(sort_offer(db, [
            sid for sid, info in db.suites.items()
            if info.auth == cert_auth
            and not info.unsupported_by_engine
            and info.min_version <= Version.TLS1_2 <= info.max_version
        ]))
    return list(db.derived(("cert_compatible", cert_auth), build))
