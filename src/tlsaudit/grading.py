"""Seven-category configuration rubric.

Every category maps a Configuration onto A/B/C/F and the overall grade is
the minimum across categories. The rubric is fixed: its thresholds
(component sets that cap the cipher category, DH group sizes, ticket
lifetime bands) are the module constants below, so one place shows every
number a grade depends on.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import total_ordering

from .configuration import Configuration
from .registry import CipherDb, Kex, Version, enum_decoder


@total_ordering
class Grade(Enum):
    A = "A"
    B = "B"
    C = "C"
    F = "F"

    @property
    def rank(self) -> int:
        return {"A": 3, "B": 2, "C": 1, "F": 0}[self.value]

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


_grade_of = enum_decoder(Grade)
_category_of = enum_decoder(Category)

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


@dataclass(frozen=True)
class VulnFlags:
    crime: bool = False
    poodle: bool = False
    freak: bool = False
    heartbleed: bool = False


@dataclass
class GradeReport:
    per_category: dict[Category, Grade]
    overall: Grade
    downgrade_reasons: dict[Grade, list[Category]]
    vulnerabilities: VulnFlags = field(default_factory=VulnFlags)

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
        per = {_category_of(c): _grade_of(g)
               for c, g in obj["categories"].items()}
        reasons = {
            _grade_of(g): [_category_of(c) for c in cats]
            for g, cats in obj.get("reasons", {}).items()
        }
        return cls(per_category=per, overall=_grade_of(obj["overall"]),
                   downgrade_reasons=reasons)


def derive_vulnerabilities(config: Configuration) -> VulnFlags:
    return VulnFlags(
        crime=config.tls_compression,
        poodle=(Version.SSLv3 in config.versions) and config.component_flags["CBC"],
        freak=config.component_flags["EXPORT"] and config.kex_flags["RSA"],
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


def grade_key_exchange(config: Configuration) -> Grade:
    bits = config.dh_prime_bits
    if config.kex_flags["DHE"]:
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
    if config.kex_flags["ECDHE"]:
        return Grade.A
    return Grade.B


def grade_ciphers_mac(config: Configuration) -> Grade:
    flags = config.component_flags
    if any(flags[name] for name in CAP_F_COMPONENTS):
        return Grade.F
    if any(flags[name] for name in CAP_C_COMPONENTS):
        return Grade.C
    if any(flags[name] for name in CAP_B_COMPONENTS) or not flags["AEAD"]:
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


def grade(config: Configuration, db: CipherDb) -> GradeReport:
    vulns = derive_vulnerabilities(config)
    per = {
        Category.PROTOCOL: grade_protocol(config),
        Category.KEY_EXCHANGE: grade_key_exchange(config),
        Category.CIPHERS_MAC: grade_ciphers_mac(config),
        Category.PREFERRED: grade_preferred(config, db),
        Category.COMPRESSION: grade_compression(config),
        Category.TICKET_LIFETIME: grade_ticket_lifetime(config),
        Category.VULNERABILITIES: grade_vulnerabilities(vulns),
    }
    overall = min(per.values())
    reasons = {
        g: [c for c in Category if per[c] == g]
        for g in (Grade.B, Grade.C, Grade.F)
    }
    return GradeReport(per_category=per, overall=overall,
                       downgrade_reasons=reasons, vulnerabilities=vulns)


def downgrade_table(reports) -> dict[Grade, dict[Category, float]]:
    """For each grade level below A, the fraction of graded sites whose
    overall landed exactly there because of each category."""
    reports = list(reports)
    table = {g: {c: 0 for c in Category} for g in (Grade.B, Grade.C, Grade.F)}
    for report in reports:
        g = report.overall
        if g == Grade.A:
            continue
        for category, cat_grade in report.per_category.items():
            if cat_grade == g:
                table[g][category] += 1
    n = len(reports)
    return {
        g: {c: (count / n if n else 0.0) for c, count in row.items()}
        for g, row in table.items()
    }
