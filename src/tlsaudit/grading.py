"""Seven-category configuration rubric.

Every category maps a Configuration onto A/B/C/F and the overall grade is
the minimum across categories. The rubric is fixed: its thresholds
(component sets that cap the cipher category, DH group sizes, ticket
lifetime bands) are the module constants below, so one place shows every
number a grade depends on.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import total_ordering

from .configuration import Configuration
from .registry import (
    AEAD_MODES, LIST, OBJECT, CipherDb, CipherFamily, CipherMode, Fields, Kex,
    Version, check_fields, enum_decoder,
)


@total_ordering
class Grade(Enum):
    A = "A"
    B = "B"
    C = "C"
    F = "F"

    # members are singletons, so identity agrees with ==; this hash runs in
    # C, where Enum's own hashes the member name in Python
    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        return _GRADE_RANK[self]

    def __lt__(self, other):
        if not isinstance(other, Grade):
            return NotImplemented
        return self.rank < other.rank


class Category(Enum):
    PROTOCOL = "protocol"
    KEY_EXCHANGE = "key_exchange"
    CIPHERS_MAC = "ciphers_mac"
    PREFERRED = "preferred"
    COMPRESSION = "compression"
    TICKET_LIFETIME = "ticket_lifetime"
    VULNERABILITIES = "vulnerabilities"

    __hash__ = object.__hash__  # as for Grade


_GRADE_RANK = {Grade.A: 3, Grade.B: 2, Grade.C: 1, Grade.F: 0}


_grade_of = enum_decoder(Grade)
_category_of = enum_decoder(Category)
# a value's grade or category is checked by its decoder
_REPORT_FIELDS = Fields(("categories", OBJECT, "an object"),
                        ("reasons", OBJECT, "an object"),
                        ("reasons[]", LIST, "a list"),
                        required=("categories", "overall"))

# ciphers/MAC: supporting anything in these sets caps the category. 3DES is
# deliberately in none of them and stays uncapped.
CAP_F_COMPONENTS = ("DES", "NULL", "EXPORT")
CAP_C_COMPONENTS = ("RC4", "MD5")
CAP_B_COMPONENTS = ("CAMELLIA", "ARIA", "IDEA", "SEED")
# DH group size thresholds (bits)
DH_FAIL_BELOW = 768
DH_WEAK_AT_OR_BELOW = 1024
# ticket lifetime bands (seconds)
TICKET_B_FROM = 86400
TICKET_C_ABOVE = 604800


def _suite_flags(info) -> tuple[str, ...]:
    """The names of what one suite uses: its cipher family, MAC and key
    exchange, and ``AES_GCM``, ``AEAD``, ``CBC`` and ``EXPORT`` when they
    apply."""
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


def flags(db: CipherDb, suites) -> frozenset[str]:
    """The names that some suite of ``suites`` sets (``_suite_flags``); a
    suite the db lacks sets none. A configuration's grade reads what it
    uses from here, so it follows its suites alone. The names of each suite
    are found once per db."""
    by_suite = db.derived("flags", lambda: {
        sid: frozenset(_suite_flags(info)) for sid, info in db.suites.items()})
    none = frozenset()
    return none.union(*[by_suite.get(sid, none) for sid in suites])


@dataclass(frozen=True)
class VulnFlags:
    crime: bool = False
    poodle: bool = False
    freak: bool = False
    heartbleed: bool = False


@dataclass(slots=True)
class GradeReport:
    per_category: dict[Category, Grade]
    overall: Grade
    downgrade_reasons: dict[Grade, list[Category]]

    def to_json(self) -> dict:
        reasons = {
            g.value: sorted(c.value for c in cats)
            for g, cats in self.downgrade_reasons.items()
            if cats
        }
        return {
            "overall": self.overall.value,
            "categories": {c.value: g.value for c, g in self.per_category.items()},
            "reasons": reasons,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GradeReport":
        check_fields(obj, _REPORT_FIELDS)
        per = {_category_of(c): _grade_of(g)
               for c, g in obj["categories"].items()}
        reasons = {
            _grade_of(g): [_category_of(c) for c in cats]
            for g, cats in obj.get("reasons", {}).items()
        }
        return cls(per, _grade_of(obj["overall"]), reasons)


def derive_vulnerabilities(config: Configuration, db: CipherDb) -> VulnFlags:
    return _vulnerabilities(config, flags(db, config.supported_suites))


def _vulnerabilities(config: Configuration, names: frozenset[str]) -> VulnFlags:
    return VulnFlags(
        crime=config.tls_compression,
        poodle=Version.SSLv3 in config.versions and "CBC" in names,
        freak="EXPORT" in names and "RSA" in names,
        heartbleed=config.heartbleed_vulnerable,
    )


def grade_protocol(config: Configuration) -> Grade:
    versions = config.versions
    if Version.SSLv2 in versions:
        return Grade.F
    if Version.TLS1_2 not in versions and Version.TLS1_3 not in versions:
        return Grade.C
    if Version.SSLv3 in versions:
        return Grade.C
    return Grade.A


def grade_key_exchange(config: Configuration, names: frozenset[str]) -> Grade:
    bits = config.dh_prime_bits
    if "DHE" in names:
        if bits is None:
            # group never observed; can't vouch for its size
            return Grade.B
        if bits < DH_FAIL_BELOW:
            return Grade.F
        if bits <= DH_WEAK_AT_OR_BELOW:
            # commonality decides B vs C at 1024; 768 is always C territory
            if bits < DH_WEAK_AT_OR_BELOW or config.dh_group_common:
                return Grade.C
            return Grade.B
        return Grade.B
    # no finite-field group observed: ECDHE-only forward secrecy is optimal
    if "ECDHE" in names:
        return Grade.A
    return Grade.B


def grade_ciphers_mac(names: frozenset[str]) -> Grade:
    if not names.isdisjoint(CAP_F_COMPONENTS):
        return Grade.F
    if not names.isdisjoint(CAP_C_COMPONENTS):
        return Grade.C
    if not names.isdisjoint(CAP_B_COMPONENTS) or "AEAD" not in names:
        return Grade.B
    return Grade.A


def grade_preferred(config: Configuration, db: CipherDb) -> Grade:
    if not config.server_preference:
        return Grade.B
    info = db.get(config.preferred_suite)
    if info is None:
        return Grade.B
    if info.is_aead and info.kex in (Kex.ECDHE, Kex.DHE):
        return Grade.A
    return Grade.B


def grade_compression(config: Configuration) -> Grade:
    return Grade.C if config.tls_compression else Grade.A


def grade_ticket_lifetime(config: Configuration) -> Grade:
    hint = config.ticket_lifetime_hint_s
    if not config.session_tickets or hint is None:
        return Grade.A
    if hint < TICKET_B_FROM:
        return Grade.A
    if hint > TICKET_C_ABOVE:
        return Grade.C
    return Grade.B


def grade_vulnerabilities(flags: VulnFlags) -> Grade:
    if flags.heartbleed:
        return Grade.F
    if flags.crime or flags.poodle or flags.freak:
        return Grade.C
    return Grade.A


_CATEGORIES_BY_NAME = sorted(Category, key=lambda c: c.value)


def grade(config: Configuration, db: CipherDb) -> GradeReport:
    names = flags(db, config.supported_suites)
    vulns = _vulnerabilities(config, names)
    per = {
        Category.PROTOCOL: grade_protocol(config),
        Category.KEY_EXCHANGE: grade_key_exchange(config, names),
        Category.CIPHERS_MAC: grade_ciphers_mac(names),
        Category.PREFERRED: grade_preferred(config, db),
        Category.COMPRESSION: grade_compression(config),
        Category.TICKET_LIFETIME: grade_ticket_lifetime(config),
        Category.VULNERABILITIES: grade_vulnerabilities(vulns),
    }
    overall = min(per.values())
    # to_json's form, so that a report equals its JSON read back: only the
    # levels some category landed on, each list sorted by category name
    reasons = {g: cats for g in (Grade.B, Grade.C, Grade.F)
               if (cats := [c for c in _CATEGORIES_BY_NAME if per[c] == g])}
    return GradeReport(per, overall, reasons)


def downgrade_table(reports) -> dict[Grade, dict[Category, float]]:
    """For each grade level below A, the fraction of graded sites whose
    overall landed exactly there because of each category. ``reports`` is
    any iterable, read once."""
    table = {g: dict.fromkeys(Category, 0) for g in (Grade.B, Grade.C, Grade.F)}
    n = 0
    for report in reports:
        n += 1
        g = report.overall
        row = table.get(g)
        if row is not None:
            for category, cat_grade in report.per_category.items():
                if cat_grade is g:
                    row[category] += 1
    return {
        g: {c: (count / n if n else 0.0) for c, count in row.items()}
        for g, row in table.items()
    }
