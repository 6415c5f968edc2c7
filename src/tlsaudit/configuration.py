"""Recovered server configuration: the value the prober emits and the
grader and report modules consume."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .registry import (
    AEAD_MODES, BOOL, INT, LIST, NULL, OBJECT, STR, CipherDb, CipherFamily,
    CipherMode, Fields, Version, check_fields, suite_id,
)

COMPONENT_FLAG_NAMES = (
    "DES", "TRIPLE_DES", "RC4", "IDEA", "SEED", "CAMELLIA", "ARIA", "CHACHA",
    "AES", "AES_GCM", "AEAD", "CBC", "MD5", "SHA1", "SHA256", "SHA384",
    "NULL", "EXPORT",
)
KEX_FLAG_NAMES = ("RSA", "DHE", "ECDHE")
_COMPONENT_FLAG_SET = frozenset(COMPONENT_FLAG_NAMES)
_KEX_FLAG_SET = frozenset(KEX_FLAG_NAMES)
# The JSON type of each field, those ``to_json`` writes. Python's ``==``
# makes 1 equal true and 1024.0 equal 1024, but their JSON (and so their
# report key) differs.
_FIELDS = Fields(
    ("versions", LIST, "a list"), ("supported_suites", LIST, "a list"),
    ("component_flags", OBJECT, "an object"),
    ("component_flags[]", BOOL, "a bool"),
    ("kex_flags", OBJECT, "an object"), ("kex_flags[]", BOOL, "a bool"),
    ("preferred_suite", STR, "a string"), ("extensions", LIST, "a list"),
    ("extensions[]", STR, "a string"),
    ("server_preference", BOOL, "a bool"), ("tls_compression", BOOL, "a bool"),
    ("session_id_resumption", BOOL, "a bool"),
    ("session_tickets", BOOL, "a bool"),
    ("heartbleed_vulnerable", BOOL, "a bool"),
    ("dh_group_common", BOOL | NULL, "a bool or null"),
    ("ticket_lifetime_hint_s", INT | NULL, "an integer or null"),
    ("dh_prime_bits", INT | NULL, "an integer or null"),
    ("cert_sig_alg", STR | NULL, "a string or null"),
    required=("versions", "supported_suites", "component_flags", "kex_flags",
              "preferred_suite", "server_preference", "tls_compression",
              "session_id_resumption", "session_tickets"),
)


def _suite_flags(info) -> tuple[str, ...]:
    """The names of the component and kex flags that one suite sets."""
    fam, mode = info.cipher_family, info.cipher_mode
    names = [fam.value, info.mac.value, info.kex.value]
    if fam == CipherFamily.AES and mode == CipherMode.GCM:
        names.append("AES_GCM")
    if info.is_aead or mode in AEAD_MODES:
        names.append("AEAD")
    if mode == CipherMode.CBC:
        names.append("CBC")
    if info.is_export:
        names.append("EXPORT")
    return tuple(names)


def _flags(db: CipherDb, suites, flag_names: tuple[str, ...]) -> dict[str, bool]:
    """Each of ``flag_names``, True when a suite in ``suites`` sets it. The
    flags of each suite are found once per db."""
    by_suite = db.derived(("flags", flag_names), lambda: {
        sid: tuple(name for name in _suite_flags(info) if name in flag_names)
        for sid, info in db.suites.items()})
    flags = dict.fromkeys(flag_names, False)
    for suite_id in suites:
        for name in by_suite.get(suite_id, ()):
            flags[name] = True
    return flags


def compute_component_flags(db: CipherDb, suites) -> dict[str, bool]:
    return _flags(db, suites, COMPONENT_FLAG_NAMES)


def compute_kex_flags(db: CipherDb, suites) -> dict[str, bool]:
    return _flags(db, suites, KEX_FLAG_NAMES)


class ConfigError(ValueError):
    """Configuration violates its own invariants."""


@dataclass(unsafe_hash=True)
class Configuration:
    """A recovered configuration, used as a value: equal configurations
    hash alike, so callers may key dicts and sets on them and do the work a
    configuration determines (its grade, its report key) once per distinct
    one. With the field types ``from_json`` reads from ``to_json`` output,
    two configurations are equal exactly when their ``to_json()`` forms are.

    No field is assigned after ``__post_init__``; that is what makes the
    hash safe without ``frozen=True`` (which would slow every construction).
    ``component_flags`` and ``kex_flags`` still take part in ``==`` but are
    left out of the hash, because dicts cannot be hashed; they follow from
    ``supported_suites``, which is hashed, so leaving them out costs at most
    a collision.
    """

    versions: frozenset[Version]
    supported_suites: frozenset[int]
    component_flags: dict[str, bool] = field(hash=False)
    kex_flags: dict[str, bool] = field(hash=False)
    preferred_suite: int
    server_preference: bool
    extensions: frozenset[str] = frozenset()
    tls_compression: bool = False
    session_id_resumption: bool = False
    session_tickets: bool = False
    ticket_lifetime_hint_s: Optional[int] = None
    dh_prime_bits: Optional[int] = None
    dh_group_common: Optional[bool] = None
    heartbleed_vulnerable: bool = False
    cert_sig_alg: Optional[str] = None

    def __post_init__(self):
        self.versions = frozenset(self.versions)
        self.supported_suites = frozenset(self.supported_suites)
        self.extensions = frozenset(self.extensions)
        if self.preferred_suite not in self.supported_suites:
            raise ConfigError(
                f"preferred suite 0x{self.preferred_suite:04X} not in supported set"
            )
        if self.ticket_lifetime_hint_s is not None and not self.session_tickets:
            raise ConfigError("ticket lifetime hint without session tickets")
        if self.dh_group_common is not None and self.dh_prime_bits is None:
            raise ConfigError("dh_group_common set without dh_prime_bits")
        missing = _COMPONENT_FLAG_SET - self.component_flags.keys()
        if missing:
            raise ConfigError(f"missing component flags: {sorted(missing)}")
        missing = _KEX_FLAG_SET - self.kex_flags.keys()
        if missing:
            raise ConfigError(f"missing kex flags: {sorted(missing)}")

    @classmethod
    def assemble(cls, db: CipherDb, suites, preferred_suite: int, **kw) -> "Configuration":
        """Build with component/kex flags projected from the registry."""
        return cls(
            supported_suites=frozenset(suites),
            component_flags=compute_component_flags(db, suites),
            kex_flags=compute_kex_flags(db, suites),
            preferred_suite=preferred_suite,
            **kw,
        )

    def to_json(self) -> dict:
        return {
            "versions": sorted(v.label for v in self.versions),
            "supported_suites": sorted(f"0x{s:04X}" for s in self.supported_suites),
            "component_flags": {k: self.component_flags[k] for k in COMPONENT_FLAG_NAMES},
            "kex_flags": {k: self.kex_flags[k] for k in KEX_FLAG_NAMES},
            "preferred_suite": f"0x{self.preferred_suite:04X}",
            "server_preference": self.server_preference,
            "extensions": sorted(self.extensions),
            "tls_compression": self.tls_compression,
            "session_id_resumption": self.session_id_resumption,
            "session_tickets": self.session_tickets,
            "ticket_lifetime_hint_s": self.ticket_lifetime_hint_s,
            "dh_prime_bits": self.dh_prime_bits,
            "dh_group_common": self.dh_group_common,
            "heartbleed_vulnerable": self.heartbleed_vulnerable,
            "cert_sig_alg": self.cert_sig_alg,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Configuration":
        """Read ``to_json`` output back; a field of another JSON type
        (``1`` for ``true``, ``1024.0`` for ``1024``) is a ValueError."""
        check_fields(obj, _FIELDS)
        get = obj.get
        return cls(
            versions=frozenset(map(Version.from_label, obj["versions"])),
            supported_suites=frozenset(map(suite_id, obj["supported_suites"])),
            component_flags=dict(obj["component_flags"]),
            kex_flags=dict(obj["kex_flags"]),
            preferred_suite=suite_id(obj["preferred_suite"]),
            server_preference=obj["server_preference"],
            extensions=frozenset(get("extensions", ())),
            tls_compression=obj["tls_compression"],
            session_id_resumption=obj["session_id_resumption"],
            session_tickets=obj["session_tickets"],
            ticket_lifetime_hint_s=get("ticket_lifetime_hint_s"),
            dh_prime_bits=get("dh_prime_bits"),
            dh_group_common=get("dh_group_common"),
            heartbleed_vulnerable=get("heartbleed_vulnerable", False),
            cert_sig_alg=get("cert_sig_alg"),
        )
