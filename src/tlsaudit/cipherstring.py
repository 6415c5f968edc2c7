"""Legacy cipher-string expressions: parsing, expansion, and the
recommendation-consistency checks built on top of them.

Grammar: ``expr := term (sep term)*``, ``sep := ':' | ',' | ' '``,
``term := ['!'|'-'|'+'] keyword ('+' keyword)*``. Keywords are
case-sensitive. ``@STRENGTH``/``@SECLEVEL=n`` are accepted and ignored
with a warning: they reorder or restrict at runtime but never change the
support set we reason about.

``KEYWORDS`` predicates are evaluated once per ``CipherDb``: each keyword's
set of matching suite ids, each profile's preference-sorted universe, and
each cipher string's expansion over the profile union that ``consistent``
checks against, is built on first use and kept on the db.
"""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Callable, Optional

from . import grading
from .configuration import Configuration
from .registry import (
    BOOL, INT, LIST, NULL, OBJECT, STR, Auth, CipherDb, CipherFamily,
    CipherMode, CipherSuiteInfo, Fields, Kex, Mac, Version, check_fields,
    sort_offer,
)

logger = logging.getLogger(__name__)


class CipherStringError(ValueError):
    """Malformed cipher string; message carries token and byte offset."""


class Modifier(Enum):
    NONE = ""
    EXCLUDE = "!"
    REMOVE = "-"
    PROMOTE = "+"


@dataclass(frozen=True)
class Term:
    modifier: Modifier
    keywords: tuple[str, ...]

    def __str__(self) -> str:
        return self.modifier.value + "+".join(self.keywords)


@dataclass
class CipherExpr:
    terms: list[Term]

    def __str__(self) -> str:
        return ":".join(str(t) for t in self.terms)


# -- keyword table ----------------------------------------------------------

def _load_strength_classes() -> dict[str, frozenset[int]]:
    path = resources.files("tlsaudit.data").joinpath("strength_classes.json")
    raw = json.loads(path.read_text())
    return {name: frozenset(int(s, 16) for s in ids) for name, ids in raw.items()}


_STRENGTH = _load_strength_classes()

Pred = Callable[[CipherSuiteInfo], bool]


def _fam(f: CipherFamily) -> Pred:
    return lambda i: i.cipher_family == f

def _fam_name(f: CipherFamily, token: str) -> Pred:
    return lambda i: i.cipher_family == f and token in i.name

def _mac(m: Mac) -> Pred:
    return lambda i: i.mac == m

def _kex(k: Kex) -> Pred:
    return lambda i: i.kex == k

def _auth(a: Auth) -> Pred:
    return lambda i: i.auth == a

def _minver(v: Version) -> Pred:
    return lambda i: i.min_version == v

def _strength(name: str) -> Pred:
    ids = _STRENGTH[name]
    return lambda i: i.id in ids


KEYWORDS: dict[str, Pred] = {
    "ALL": lambda i: i.cipher_family != CipherFamily.NULL,
    "COMPLEMENTOFALL": _fam(CipherFamily.NULL),
    "HIGH": _strength("HIGH"),
    "MEDIUM": _strength("MEDIUM"),
    "LOW": _strength("LOW"),
    "eNULL": _fam(CipherFamily.NULL),
    "NULL": _fam(CipherFamily.NULL),
    "aNULL": _auth(Auth.ANON),
    "EXPORT": lambda i: i.is_export,
    "EXP": lambda i: i.is_export,
    "RSA": lambda i: i.kex == Kex.RSA or i.auth == Auth.RSA,
    "kRSA": _kex(Kex.RSA),
    "aRSA": _auth(Auth.RSA),
    "ECDSA": _auth(Auth.ECDSA),
    "aECDSA": _auth(Auth.ECDSA),
    "DSS": _auth(Auth.DSS),
    "aDSS": _auth(Auth.DSS),
    "ECDHE": _kex(Kex.ECDHE),
    "EECDH": _kex(Kex.ECDHE),
    "kECDHE": _kex(Kex.ECDHE),
    "kEECDH": _kex(Kex.ECDHE),
    "DHE": _kex(Kex.DHE),
    "EDH": _kex(Kex.DHE),
    "kDHE": _kex(Kex.DHE),
    "kEDH": _kex(Kex.DHE),
    "DH": _kex(Kex.DHE),
    "AES": _fam(CipherFamily.AES),
    "AES128": _fam_name(CipherFamily.AES, "128"),
    "AES256": _fam_name(CipherFamily.AES, "256"),
    "AESGCM": lambda i: (i.cipher_family == CipherFamily.AES
                         and i.cipher_mode == CipherMode.GCM),
    "AESCCM": lambda i: (i.cipher_family == CipherFamily.AES
                         and i.cipher_mode == CipherMode.CCM),
    "CAMELLIA": _fam(CipherFamily.CAMELLIA),
    "CAMELLIA128": _fam_name(CipherFamily.CAMELLIA, "128"),
    "CAMELLIA256": _fam_name(CipherFamily.CAMELLIA, "256"),
    "ARIA": _fam(CipherFamily.ARIA),
    "SEED": _fam(CipherFamily.SEED),
    "IDEA": _fam(CipherFamily.IDEA),
    "RC4": _fam(CipherFamily.RC4),
    "3DES": _fam(CipherFamily.TRIPLE_DES),
    "DES": _fam(CipherFamily.DES),
    "CHACHA20": _fam(CipherFamily.CHACHA),
    "AEAD": lambda i: i.is_aead,
    "MD5": _mac(Mac.MD5),
    "SHA": _mac(Mac.SHA1),
    "SHA1": _mac(Mac.SHA1),
    "SHA256": _mac(Mac.SHA256),
    "SHA384": _mac(Mac.SHA384),
    "SSLv2": _minver(Version.SSLv2),
    "SSLv3": _minver(Version.SSLv3),
    "TLSv1": _minver(Version.TLS1_0),
    "TLSv1.0": _minver(Version.TLS1_0),
    "TLSv1.2": _minver(Version.TLS1_2),
    "TLSv1.3": _minver(Version.TLS1_3),
}

_MODIFIERS = {"!": Modifier.EXCLUDE, "-": Modifier.REMOVE, "+": Modifier.PROMOTE}
_TOKEN_RE = re.compile(r"[^:, ]+")


def parse_cipher_string(text: str) -> CipherExpr:
    if not text or not text.strip(":, "):
        raise CipherStringError("empty cipher string")
    terms: list[Term] = []
    for m in _TOKEN_RE.finditer(text):
        token, offset = m.group(0), m.start()
        if token.startswith("@"):
            logger.warning("ignoring ordering directive %r at offset %d "
                           "(does not affect the support set)", token, offset)
            continue
        modifier = Modifier.NONE
        body = token
        if token[0] in _MODIFIERS:
            modifier = _MODIFIERS[token[0]]
            body = token[1:]
        if not body:
            raise CipherStringError(
                f"dangling modifier {token!r} at offset {offset}")
        keywords = body.split("+")
        for kw in keywords:
            if kw not in KEYWORDS:
                raise CipherStringError(
                    f"unknown keyword {kw!r} in token {token!r} at offset {offset}")
        terms.append(Term(modifier, tuple(keywords)))
    if not terms:
        raise CipherStringError("cipher string contains no cipher terms")
    return CipherExpr(terms=terms)


def _keyword_set(db: CipherDb, keyword: str) -> frozenset[int]:
    """Ids of the suites in ``db`` that ``KEYWORDS[keyword]`` matches."""
    pred = KEYWORDS[keyword]
    return db.derived(("keyword", keyword), lambda: frozenset(
        sid for sid, info in db.suites.items() if pred(info)))


def _universe(db: CipherDb, library_profile) -> tuple[int, ...]:
    """The profile's suites that ``db`` knows, preference-sorted."""
    suites = frozenset(library_profile)
    return db.derived(("universe", suites), lambda: tuple(
        sort_offer(db, [s for s in suites if s in db])))


def expand(expr: CipherExpr, db: CipherDb, library_profile) -> list[int]:
    """Ordered suite list under the standard semantics: include-terms append
    in preference order, EXCLUDE bans permanently, REMOVE deletes,
    PROMOTE moves matches to the front. Output ⊆ library_profile."""
    universe = _universe(db, library_profile)
    current: list[int] = []
    banned: set[int] = set()
    for term in expr.terms:
        selected = frozenset.intersection(
            *(_keyword_set(db, kw) for kw in term.keywords))
        matches = [s for s in universe if s in selected]
        if term.modifier == Modifier.NONE:
            for s in matches:
                if s not in banned and s not in current:
                    current.append(s)
        elif term.modifier == Modifier.EXCLUDE:
            banned.update(matches)
            current = [s for s in current if s not in banned]
        elif term.modifier == Modifier.REMOVE:
            remove = set(matches)
            current = [s for s in current if s not in remove]
        elif term.modifier == Modifier.PROMOTE:
            promote = set(matches)
            current = ([s for s in current if s in promote]
                       + [s for s in current if s not in promote])
    return current


# -- library profiles -------------------------------------------------------

@dataclass(frozen=True)
class LibraryProfile:
    name: str
    versions: frozenset[Version]
    suites: frozenset[int]


BUNDLED_PROFILES = (
    "openssl-1.0.1", "openssl-1.0.1f", "openssl-1.0.2g",
    "openssl-1.1.0g", "openssl-1.1.1",
)


def load_profile(name: str) -> LibraryProfile:
    """One of the ``BUNDLED_PROFILES``, by name."""
    raw = json.loads(resources.files("tlsaudit.data")
                     .joinpath(f"profiles/{name}.json").read_text())
    return LibraryProfile(
        name=raw["name"],
        versions=frozenset(Version.from_label(v) for v in raw["versions"]),
        suites=frozenset(int(s, 16) for s in raw["suites"]),
    )


def load_all_profiles() -> list[LibraryProfile]:
    return [load_profile(n) for n in BUNDLED_PROFILES]


def union_profile(profiles) -> LibraryProfile:
    versions: frozenset[Version] = frozenset()
    suites: frozenset[int] = frozenset()
    for p in profiles:
        versions |= p.versions
        suites |= p.suites
    return LibraryProfile(name="union", versions=versions, suites=suites)


# -- recommendations --------------------------------------------------------

class RecommendationError(ValueError):
    pass


_FIELDS = Fields(("cipher_string", STR | NULL, "a string or null"),
                 ("protocols", LIST | NULL, "a list or null"),
                 ("server_preference", BOOL | NULL, "a bool or null"),
                 ("session_tickets", BOOL | NULL, "a bool or null"),
                 ("dh_params_bits", INT | NULL, "an integer or null"),
                 ("source", OBJECT, "an object"))


@dataclass
class Recommendation:
    cipher_expr: Optional[CipherExpr] = None
    protocols: Optional[frozenset[Version]] = None
    server_preference: Optional[bool] = None
    session_tickets: Optional[bool] = None
    dh_params_bits: Optional[int] = None
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.cipher_expr is None and self.protocols is None
                and self.server_preference is None
                and self.session_tickets is None
                and self.dh_params_bits is None):
            raise RecommendationError("recommendation carries no directives")
        if self.dh_params_bits is not None and self.dh_params_bits < 1:
            raise RecommendationError(f"dh_params_bits must be at least 1, "
                                      f"not {self.dh_params_bits!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "Recommendation":
        check_fields(obj, _FIELDS)
        expr = None
        if obj.get("cipher_string"):
            expr = parse_cipher_string(obj["cipher_string"])
        protocols = None
        if obj.get("protocols") is not None:
            protocols = frozenset(Version.from_label(v) for v in obj["protocols"])
        return cls(
            cipher_expr=expr,
            protocols=protocols,
            server_preference=obj.get("server_preference"),
            session_tickets=obj.get("session_tickets"),
            dh_params_bits=obj.get("dh_params_bits"),
            source=obj.get("source", {}),
        )

    def to_json(self) -> dict:
        out: dict = {}
        if self.cipher_expr is not None:
            out["cipher_string"] = str(self.cipher_expr)
        if self.protocols is not None:
            out["protocols"] = sorted(v.label for v in self.protocols)
        for key in ("server_preference", "session_tickets", "dh_params_bits"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.source:
            out["source"] = self.source
        return out


def _expansion(expr: CipherExpr, db: CipherDb,
               suites: frozenset[int]) -> frozenset[int]:
    """The suites of ``expand(expr, db, suites)``, built once per db, terms
    and suite set."""
    return db.derived(("allowed", tuple(expr.terms), suites),
                      lambda: frozenset(expand(expr, db, suites)))


def consistent(config: Configuration, rec: Recommendation, db: CipherDb,
               profiles) -> bool:
    """Upper-bound semantics: evaluated over the union of ``profiles``, as
    ``load_all_profiles()`` gives them, since we cannot know which library the
    site runs. The union, and each cipher string's expansion over it, are built
    once per db."""
    profiles = tuple(profiles)
    union = db.derived(("union", profiles), lambda: union_profile(profiles))
    if rec.cipher_expr is not None:
        allowed = _expansion(rec.cipher_expr, db, union.suites)
        supported = config.supported_suites
        if not (supported & allowed):
            return False
        if not supported <= allowed:
            return False
    if rec.protocols is not None:
        if config.versions != (rec.protocols & union.versions):
            return False
    if rec.server_preference is not None:
        if config.server_preference != rec.server_preference:
            return False
    if rec.session_tickets is not None:
        if config.session_tickets != rec.session_tickets:
            return False
    if rec.dh_params_bits is not None:
        if config.dh_prime_bits != rec.dh_params_bits:
            return False
    return True


def apply_to_default(rec: Recommendation, default: Configuration,
                     db: CipherDb, library_profile: LibraryProfile) -> Configuration:
    """Missing directives keep the default's setting; present ones override.
    The preferred suite is the first of the resulting suites in
    ``sort_offer`` order, and the DH fields are cleared when no DHE suite is
    left. A cipher string's expansion over a profile is built once per
    db."""
    suites = default.supported_suites
    if rec.cipher_expr is not None:
        suites = _expansion(rec.cipher_expr, db, library_profile.suites)
        if not suites:
            raise RecommendationError(
                "recommendation leaves no usable cipher suites on this profile")
    versions = default.versions
    if rec.protocols is not None:
        versions = rec.protocols & library_profile.versions
        if not versions:
            raise RecommendationError(
                "recommended protocols unavailable on this profile")
    preference = (default.server_preference if rec.server_preference is None
                  else rec.server_preference)
    tickets = (default.session_tickets if rec.session_tickets is None
               else rec.session_tickets)
    hint = default.ticket_lifetime_hint_s if tickets and default.session_tickets else None
    dh_bits = default.dh_prime_bits
    dh_common = default.dh_group_common
    if rec.dh_params_bits is not None:
        dh_bits = rec.dh_params_bits
        dh_common = False  # operator-generated parameters
    has_dhe = any(db[s].kex == Kex.DHE for s in suites if s in db)
    if not has_dhe:
        dh_bits, dh_common = None, None
    preferred = sort_offer(db, suites)[0]
    return Configuration(
        supported_suites=suites, preferred_suite=preferred,
        versions=versions,
        server_preference=preference,
        extensions=default.extensions,
        tls_compression=default.tls_compression,
        session_id_resumption=default.session_id_resumption,
        session_tickets=tickets,
        ticket_lifetime_hint_s=hint,
        dh_prime_bits=dh_bits,
        dh_group_common=dh_common,
        heartbleed_vulnerable=default.heartbleed_vulnerable,
        cert_sig_alg=default.cert_sig_alg,
    )


def grade_recommendation(rec: Recommendation, defaults, db: CipherDb,
                         profiles=None):
    """Grade the recommendation applied over each bundled default.

    ``defaults`` is a list of (label, Configuration, LibraryProfile).
    Returns (per-default reports, summary {best, worst}).
    """
    per_default = {}
    for label, default, profile in defaults:
        try:
            applied = apply_to_default(rec, default, db, profile)
        except RecommendationError as exc:
            per_default[label] = {"error": str(exc)}
            continue
        per_default[label] = grading.grade(applied, db)
    graded = [r for r in per_default.values() if not isinstance(r, dict)]
    if not graded:
        raise RecommendationError("recommendation not applicable to any default")
    summary = {
        "best": max(r.overall for r in graded),
        "worst": min(r.overall for r in graded),
    }
    return per_default, summary
