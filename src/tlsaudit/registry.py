"""Cipher suite registry: classification database and offer-list construction.

The registry ships as a checked-in CSV with precomputed classification
columns (deriving components from suite names at runtime is fragile across
registry naming conventions). All lookups after load are read-only.
"""
from __future__ import annotations

import csv
import functools
import json
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
            raise RegistryError(f"unknown protocol version {shown(label)}") from None

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
    """``enum_cls(value)`` through a value -> member dict: a member passes
    through, and an unknown value raises the ValueError ``enum_cls(value)``
    raises, with the value ``shown``."""
    members = {member.value: member for member in enum_cls}

    def decode(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            if type(value) is enum_cls:
                return value
            raise ValueError(f"{shown(value)} is not a valid "
                             f"{enum_cls.__qualname__}") from None
    return decode


def shown(value, depth: int = 32) -> str:
    """``repr(value)`` of an input value, for an error message, with each
    list or object nested more than ``depth`` deep written ``[...]`` or
    ``{...}``. A value nested near the recursion limit parses, but its own
    ``repr`` raises RecursionError wherever the stack is deeper than where
    it was parsed, which would make an input error a crash."""
    if type(value) not in (list, dict) or not value:
        return repr(value)
    if not depth:
        return "[...]" if type(value) is list else "{...}"
    if type(value) is list:
        return f"[{', '.join([shown(item, depth - 1) for item in value])}]"
    return "{" + ", ".join([f"{key!r}: {shown(item, depth - 1)}"
                            for key, item in value.items()]) + "}"


# JSON types as ``json.loads`` gives them, for ``check_fields`` rows; a type
# is matched exactly, so ``true`` is no integer and ``1.0`` no int
BOOL, INT, NUMBER, STR, LIST, OBJECT, NULL = (
    frozenset({bool}), frozenset({int}), frozenset({int, float}),
    frozenset({str}), frozenset({list}), frozenset({dict}),
    frozenset({type(None)}))


class _Absent:
    """The type of what ``Fields`` reads for a field that an object lacks."""


_ABSENT = _Absent()


class Fields:
    """A row table of ``check_fields``: rows ``(name, types, expected)`` in
    the order their faults are reported, and the names an object must hold.
    It is split once into plain rows and element rows (``name[]``). A plain
    row's types admit ``_Absent`` unless its name is required, so one loop
    checks both the presence and the type of each field that has a row."""

    __slots__ = ("rows", "required", "plain", "present", "elements")

    def __init__(self, *rows, required=()):
        self.rows, self.required = rows, required
        self.plain = tuple((name, types if name in required
                            else types | {_Absent})
                           for name, types, _ in rows if name[-1] != "]")
        # a required field whose type its decoder checks has no row
        named = {name for name, _, _ in rows}
        self.present = tuple(name for name in required if name not in named)
        self.elements = tuple((name[:-2], types)
                              for name, types, _ in rows if name[-1] == "]")

    def fit(self, obj) -> bool:
        """Whether ``check_fields`` passes ``obj``: one loop over the plain
        rows, and one set test per element row."""
        if type(obj) is not dict:
            return False
        get = obj.get
        for name, types in self.plain:
            if type(get(name, _ABSENT)) not in types:
                return False
        for name in self.present:
            if name not in obj:
                return False
        for name, types in self.elements:
            items = get(name)
            items = (items.values() if type(items) is dict
                     else items if type(items) is list else ())
            if not types.issuperset(map(type, items)):
                return False
        return True


def check_fields(obj, fields: Fields, where: str = "") -> dict:
    """``obj``, once it is known to be a JSON object whose fields have the
    types ``fields`` gives: the one field-type check of every input decoder.
    A field that ``fields.required`` names and ``obj`` lacks raises
    ``ValueError("<where><name> is required")``. A row ``(name, types,
    expected)`` raises ``ValueError("<where><name> must be <expected>, not
    <shown(value)>")``. A row for ``name[]`` checks each element of the list
    or object in field ``name``, after that field's own row. A field ``obj``
    lacks is not checked. Only an object that ``fields.fit`` fails goes
    through the required names and then the rows in order, which words its
    first fault."""
    if fields.fit(obj):
        return obj
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    for name in fields.required:
        if name not in obj:
            raise ValueError(f"{where}{name} is required")
    for name, types, expected in fields.rows:
        if name[-1] != "]":
            if name in obj and type(obj[name]) not in types:
                raise ValueError(
                    f"{where}{name} must be {expected}, not {shown(obj[name])}")
            continue
        name = name[:-2]
        items = obj.get(name)
        items = (items.items() if type(items) is dict
                 else enumerate(items) if type(items) is list else ())
        for key, value in items:
            if type(value) not in types:
                raise ValueError(
                    f"{where}{name}[{key!r}] must be {expected}, "
                    f"not {shown(value)}")
    return obj


# the C scanner that ``json.loads`` runs, and its whitespace skip
_scan_json = json.JSONDecoder().scan_once
_json_space = json.decoder.WHITESPACE.match


def parse_json(text):
    """``json.loads(text)``: the one JSON parse of every input line and file.
    A ``str`` that starts with its value goes straight to the decoder's C
    scanner, which ``json.loads`` reaches through three Python calls; any
    other input, and any text that fails there, goes to ``json.loads``,
    which parses it again and raises its own error. JSON nested deeper than
    the interpreter's recursion limit is a ValueError, like any other
    malformed JSON, not a RecursionError."""
    try:
        if type(text) is str:
            try:
                obj, end = _scan_json(text, 0)
            except (StopIteration, ValueError):
                return json.loads(text)
            if end == len(text) or _json_space(text, end).end() == len(text):
                return obj
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


class SharedDecoder:
    """``decode(key)``, made once per distinct key: a later call with an
    equal key returns the object the first call made. Each reader call
    makes its own decoders. A reader keys a configuration or a grade report
    by its JSON text (``text_decoder``), so equal values in other text, such
    as reordered members, are decoded one by one, and values that
    ``check_fields`` tells apart (``true`` and ``1``, ``1024`` and
    ``1024.0``) never share an object. A decode that raises stores
    nothing, so each bad key raises again.

    Only repeats repay a key: each holds about 0.8 kB for a configuration's
    text, and the memo keeps it until the reader returns. So once a new key
    leaves the memo with more than ``PROBE`` keys, and more keys than calls
    it has answered from them, it is dropped, and every later key is
    decoded on its own.
    """

    PROBE = 4096

    __slots__ = ("decode", "memo", "hits")

    def __init__(self, decode: Callable):
        self.decode = decode
        self.memo: Optional[dict] = {}
        self.hits = 0

    def __call__(self, key):
        memo = self.memo
        if memo is None:
            return self.decode(key)
        found = memo.get(key)
        if found is not None:
            self.hits += 1
            return found
        found = memo[key] = self.decode(key)
        if len(memo) > max(self.hits, self.PROBE):
            self.memo = None
        return found


def text_decoder(decode: Callable) -> SharedDecoder:
    """A ``SharedDecoder`` keyed by JSON text: ``decode(parse_json(text))``,
    made once per distinct text."""
    return SharedDecoder(lambda text: decode(parse_json(text)))


class SharedLayout:
    """A reader's ``parse_json(line)`` that takes each member named in
    ``members``, ``(name, text_decoder)`` pairs, from its decoder by its
    text, and parses only the rest of the line.

    The texts are found in the layout that ``json.dumps`` writes by default:
    the members one after another in the order given, then the key
    ``follower`` or, with none, the line's closing brace. Each text is an
    object that starts right after its key and ends where the next key's
    ``}, "<key>": `` starts; those texts are built once, with the offset of
    each next member's ``{``. So a line costs a ``find`` for the first key
    and one per member, a memo lookup per member, and one parse: of the
    rest of the line, with member n's text replaced by the string
    ``"\\u000<n>"``. With the decoded values put in, that is
    ``parse_json(line)`` when the rest holds no other ``\\u000`` escape,
    each text decodes without error, and the parse is an object whose
    members are exactly their placeholders: one complete value replaced by
    another leaves the rest of the parse as it was, and a duplicate key, or
    a match inside a string or a nested object, fails the last test. Any
    other line is parsed whole, and raises as ``parse_json``; its members,
    such as those of a line with compact separators, are left to the reader
    to decode on their own.
    """

    __slots__ = ("key", "parts", "tokens", "names")

    def __init__(self, members: tuple, follower: Optional[str] = None):
        names = [name for name, _ in members]
        self.key = f'"{names[0]}": {{'
        # each member's decoder, the text that ends it (None for the line's
        # closing brace), and how far the next member's "{" is past its end
        stops = [None if after is None else f'}}, "{after}": '
                 for after in names[1:] + [follower]]
        self.parts = [(decoder, stop, len(stop) - 1 if stop else 0)
                      for (_, decoder), stop in zip(members, stops)]
        # what replaces the members, from the first key to the last "}"
        self.tokens = ", ".join(f'"{name}": "\\u000{n}"'
                                for n, name in enumerate(names))
        self.names = [(name, chr(n)) for n, name in enumerate(names)]

    def __call__(self, line: str):
        start = line.find(self.key)
        if start < 0:
            return parse_json(line)
        brace = start + len(self.key) - 1
        values = []
        for decoder, stop, skip in self.parts:
            end = line.find(stop, brace) + 1 if stop else len(line.rstrip()) - 1
            try:
                values.append(decoder(line[brace:end]))
            except (ValueError, KeyError, TypeError):
                return parse_json(line)
            brace = end + skip
        rest = line[:start] + self.tokens + line[end:]
        if rest.count("\\u000") != len(values):
            return parse_json(line)
        try:
            obj = parse_json(rest)
        except ValueError:
            return parse_json(line)
        if type(obj) is not dict:
            return parse_json(line)
        for (name, placeholder), value in zip(self.names, values):
            if obj.get(name) != placeholder:
                return parse_json(line)
            obj[name] = value
        return obj


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


# the id of each label that ``suite_id`` has read in ``suite_label``'s form
_SUITE_IDS: dict[str, int] = {}


def suite_id(text: str) -> int:
    """The id that ``suite_label`` writes as ``text``: ``0x`` and four hex
    digits, in either case. A sign, spaces, underscores or another number of
    digits is a ValueError. The id of a label that ``suite_label`` writes is
    kept, so the memo holds at most one label per id."""
    try:
        return _SUITE_IDS[text]
    except (KeyError, TypeError):  # a label not kept, or an unhashable value
        pass
    if (isinstance(text, str) and len(text) == 6 and text[:2] == "0x"
            and text.isascii() and text[2:].isalnum()):
        try:
            found = int(text, 16)
        except ValueError:  # a letter past F
            pass
        else:
            if text == suite_label(found):
                _SUITE_IDS[text] = found
            return found
    raise ValueError("a suite id must be 0x and four hex digits, "
                     f"not {shown(text)}")


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
