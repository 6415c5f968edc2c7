"""Recovered server configuration: the value the prober emits and the
grader and report modules consume."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .registry import (
    BOOL, INT, LIST, NULL, STR, Fields, Version, check_fields, suite_id,
)

# The JSON type of each field, those ``to_json`` writes. Python's ``==``
# makes 1 equal true and 1024.0 equal 1024, but their JSON (and so their
# report key) differs.
_FIELDS = Fields(
    ("versions", LIST, "a list"), ("supported_suites", LIST, "a list"),
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
    required=("versions", "supported_suites", "preferred_suite",
              "server_preference", "tls_compression", "session_id_resumption",
              "session_tickets"),
)


class ConfigError(ValueError):
    """Configuration violates its own invariants."""


@dataclass(unsafe_hash=True, slots=True)
class Configuration:
    """A recovered configuration, used as a value: equal configurations
    hash alike, so callers may key dicts and sets on them and do the work a
    configuration determines (its grade, its report key) once per distinct
    one. With the field types ``from_json`` reads from ``to_json`` output,
    two configurations are equal exactly when their ``to_json()`` forms are.

    No field is assigned after ``__post_init__``; that is what makes the
    hash safe without ``frozen=True`` (which would slow every construction).
    It holds what the server offers and nothing derived from that: the
    grader finds what each supported suite uses in the registry
    (``grading.flags``), so no field can contradict the suites.
    """

    versions: frozenset[Version]
    supported_suites: frozenset[int]
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

    def to_json(self) -> dict:
        return {
            "versions": sorted(v.label for v in self.versions),
            "supported_suites": sorted(f"0x{s:04X}" for s in self.supported_suites),
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
        (``1`` for ``true``, ``1024.0`` for ``1024``) is a ValueError. A
        member with no field is ignored, such as the two flag objects that a
        version-1 record's configuration holds."""
        check_fields(obj, _FIELDS)
        get = obj.get
        return cls(frozenset(map(Version.from_label, obj["versions"])),
                   frozenset(map(suite_id, obj["supported_suites"])),
                   suite_id(obj["preferred_suite"]), obj["server_preference"],
                   frozenset(get("extensions", ())), obj["tls_compression"],
                   obj["session_id_resumption"], obj["session_tickets"],
                   get("ticket_lifetime_hint_s"), get("dh_prime_bits"),
                   get("dh_group_common"), get("heartbleed_vulnerable", False),
                   get("cert_sig_alg"))
