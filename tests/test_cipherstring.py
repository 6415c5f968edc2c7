import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsaudit import cipherstring as cs
from tlsaudit.registry import (Auth, CipherFamily, CipherMode, Kex, Mac,
                               Version, browser_union, cert_compatible,
                               sort_offer)

# -- parsing ----------------------------------------------------------------

def test_parse_basic_modifiers():
    expr = cs.parse_cipher_string("ECDHE+AESGCM:!RC4:-MD5:+AES")
    mods = [t.modifier for t in expr.terms]
    assert mods == [cs.Modifier.NONE, cs.Modifier.EXCLUDE,
                    cs.Modifier.REMOVE, cs.Modifier.PROMOTE]
    assert expr.terms[0].keywords == ("ECDHE", "AESGCM")


def test_parse_separators_equivalent():
    colon = cs.parse_cipher_string("HIGH:!RC4")
    comma = cs.parse_cipher_string("HIGH,!RC4")
    space = cs.parse_cipher_string("HIGH !RC4")
    assert colon.terms == comma.terms == space.terms


def test_parse_is_case_sensitive():
    with pytest.raises(cs.CipherStringError):
        cs.parse_cipher_string("high")


def test_unknown_keyword_reports_offset():
    with pytest.raises(cs.CipherStringError) as err:
        cs.parse_cipher_string("HIGH:!BOGUS")
    assert "BOGUS" in str(err.value)
    assert "offset 5" in str(err.value)


def test_dangling_modifier_rejected():
    with pytest.raises(cs.CipherStringError):
        cs.parse_cipher_string("HIGH:!")


def test_empty_string_rejected():
    with pytest.raises(cs.CipherStringError):
        cs.parse_cipher_string("  ")


def test_strength_directive_parsed_and_ignored(caplog):
    with caplog.at_level("WARNING"):
        expr = cs.parse_cipher_string("HIGH:@STRENGTH:@SECLEVEL=2")
    assert expr.terms == [cs.Term(cs.Modifier.NONE, ("HIGH",))]
    assert str(expr) == "HIGH"
    assert "'@STRENGTH'" in caplog.text and "'@SECLEVEL=2'" in caplog.text


ROUND_TRIP_CORPUS = [
    "ECDHE+AESGCM:!RC4",
    "ECDHE+AESGCM:!RC4:!MD5",
    "ALL:-SSLv2",
    "ALL:!EXPORT:!LOW",
    "HIGH:MEDIUM:!3DES",
    "RC4:!RC4:RC4",
    "ALL:+AESGCM",
    "DHE+AES256:ECDHE+CHACHA20",
    "kRSA+SHA256",
    "ALL:!aNULL:!eNULL",
    "ECDHE:DHE:!SHA1",
    "AES128:AES256:!TLSv1.2",
    "CAMELLIA,SEED,IDEA",
    "ALL:-LOW:LOW",
    "EXP:!aRSA",
    "ALL:@STRENGTH",
    "AESCCM:AESGCM",
    "+AES",
    "HIGH+SHA384",
    "ECDHE+AESGCM:DHE+AESGCM:AES+SHA256:!CAMELLIA",
    "HIGH !MD5 !SHA1",
    "eNULL:aNULL",
    "COMPLEMENTOFALL",
    "kEECDH+AES:EECDH+CHACHA20",
    "EDH+AESGCM:!DSS",
    "3DES:DES:!EXP",
    "SSLv3:!TLSv1.2",
    "ARIA:!ARIA",
    "TLSv1.3",
    "MEDIUM:-SEED:+RC4",
]


def test_parse_print_round_trip():
    assert len(ROUND_TRIP_CORPUS) >= 30
    for text in ROUND_TRIP_CORPUS:
        expr = cs.parse_cipher_string(text)
        again = cs.parse_cipher_string(str(expr))
        assert again.terms == expr.terms, text


# -- expansion against an independent oracle ---------------------------------

def _oracle_preds(db):
    raw = json.loads(resources.files("tlsaudit.data")
                     .joinpath("strength_classes.json").read_text())
    strength = {name: {int(h, 16) for h in members}
                for name, members in raw.items()}
    fam = lambda f: lambda i: i.cipher_family is f
    return {
        "ALL": lambda i: i.cipher_family is not CipherFamily.NULL,
        "COMPLEMENTOFALL": fam(CipherFamily.NULL),
        "HIGH": lambda i: i.id in strength["HIGH"],
        "MEDIUM": lambda i: i.id in strength["MEDIUM"],
        "LOW": lambda i: i.id in strength["LOW"],
        "eNULL": fam(CipherFamily.NULL),
        "NULL": fam(CipherFamily.NULL),
        "aNULL": lambda i: i.auth is Auth.ANON,
        "EXPORT": lambda i: i.is_export,
        "EXP": lambda i: i.is_export,
        "RSA": lambda i: i.kex is Kex.RSA or i.auth is Auth.RSA,
        "kRSA": lambda i: i.kex is Kex.RSA,
        "aRSA": lambda i: i.auth is Auth.RSA,
        "ECDSA": lambda i: i.auth is Auth.ECDSA,
        "aECDSA": lambda i: i.auth is Auth.ECDSA,
        "DSS": lambda i: i.auth is Auth.DSS,
        "aDSS": lambda i: i.auth is Auth.DSS,
        "ECDHE": lambda i: i.kex is Kex.ECDHE,
        "EECDH": lambda i: i.kex is Kex.ECDHE,
        "kECDHE": lambda i: i.kex is Kex.ECDHE,
        "kEECDH": lambda i: i.kex is Kex.ECDHE,
        "DHE": lambda i: i.kex is Kex.DHE,
        "EDH": lambda i: i.kex is Kex.DHE,
        "kDHE": lambda i: i.kex is Kex.DHE,
        "kEDH": lambda i: i.kex is Kex.DHE,
        "DH": lambda i: i.kex is Kex.DHE,
        "AES": fam(CipherFamily.AES),
        "AES128": lambda i: i.cipher_family is CipherFamily.AES and "128" in i.name,
        "AES256": lambda i: i.cipher_family is CipherFamily.AES and "256" in i.name,
        "AESGCM": lambda i: (i.cipher_family is CipherFamily.AES
                             and i.cipher_mode is CipherMode.GCM),
        "AESCCM": lambda i: (i.cipher_family is CipherFamily.AES
                             and i.cipher_mode is CipherMode.CCM),
        "CAMELLIA": fam(CipherFamily.CAMELLIA),
        "CAMELLIA128": lambda i: (i.cipher_family is CipherFamily.CAMELLIA
                                  and "128" in i.name),
        "CAMELLIA256": lambda i: (i.cipher_family is CipherFamily.CAMELLIA
                                  and "256" in i.name),
        "ARIA": fam(CipherFamily.ARIA),
        "SEED": fam(CipherFamily.SEED),
        "IDEA": fam(CipherFamily.IDEA),
        "RC4": fam(CipherFamily.RC4),
        "3DES": fam(CipherFamily.TRIPLE_DES),
        "DES": fam(CipherFamily.DES),
        "CHACHA20": fam(CipherFamily.CHACHA),
        "AEAD": lambda i: i.is_aead,
        "MD5": lambda i: i.mac is Mac.MD5,
        "SHA": lambda i: i.mac is Mac.SHA1,
        "SHA1": lambda i: i.mac is Mac.SHA1,
        "SHA256": lambda i: i.mac is Mac.SHA256,
        "SHA384": lambda i: i.mac is Mac.SHA384,
        "SSLv2": lambda i: i.min_version is Version.SSLv2,
        "SSLv3": lambda i: i.min_version is Version.SSLv3,
        "TLSv1": lambda i: i.min_version is Version.TLS1_0,
        "TLSv1.0": lambda i: i.min_version is Version.TLS1_0,
        "TLSv1.2": lambda i: i.min_version is Version.TLS1_2,
        "TLSv1.3": lambda i: i.min_version is Version.TLS1_3,
    }


def oracle_expand(text: str, db, profile_suites) -> list[int]:
    """Brute-force re-implementation of the expansion semantics, written
    directly against the suite metadata."""
    preds = _oracle_preds(db)
    universe = sort_offer(db, [s for s in profile_suites if s in db])
    current: list[int] = []
    banned: set[int] = set()
    for token in (t for t in re.split(r"[:, ]+", text) if t):
        if token.startswith("@"):
            continue
        mod = token[0] if token[0] in "!-+" else ""
        keywords = token[len(mod):].split("+")
        matches = [s for s in universe
                   if all(preds[k](db[s]) for k in keywords)]
        if mod == "":
            current += [s for s in matches
                        if s not in banned and s not in current]
        elif mod == "!":
            banned.update(matches)
            current = [s for s in current if s not in banned]
        elif mod == "-":
            current = [s for s in current if s not in matches]
        else:  # '+'
            current = ([s for s in current if s in matches]
                       + [s for s in current if s not in matches])
    return current


EXPANSION_CORPUS = [t for t in ROUND_TRIP_CORPUS[:20]]


@pytest.mark.parametrize("profile_name", cs.BUNDLED_PROFILES)
def test_expansion_matches_oracle(db, profile_name):
    profile = cs.load_profile(profile_name)
    for text in EXPANSION_CORPUS:
        got = cs.expand(cs.parse_cipher_string(text), db, profile.suites)
        want = oracle_expand(text, db, profile.suites)
        assert got == want, (profile_name, text)
        assert set(got) <= profile.suites


_KEYWORD_NAMES = sorted(cs.KEYWORDS)

_cipher_terms = st.builds(
    lambda modifier, keywords: modifier + "+".join(keywords),
    st.sampled_from(("", "", "!", "-", "+")),
    st.lists(st.sampled_from(_KEYWORD_NAMES), min_size=1, max_size=3))

_cipher_strings = st.builds(
    lambda terms, directive, sep: sep.join(terms + directive),
    st.lists(_cipher_terms, min_size=1, max_size=8),
    st.sampled_from(([], [], ["@STRENGTH"])),
    st.sampled_from((":", ",", " ")))


@st.composite
def _suite_sets(draw, db):
    """A bundled profile, their union, or a random subset of the registry
    with an id the registry does not know."""
    profiles = [cs.load_profile(name).suites for name in cs.BUNDLED_PROFILES]
    kind = draw(st.sampled_from(("profile", "union", "subset")))
    if kind == "profile":
        return draw(st.sampled_from(profiles))
    if kind == "union":
        return cs.union_profile(cs.load_all_profiles()).suites
    return frozenset(draw(st.lists(st.sampled_from(sorted(db.suites)),
                                   max_size=40))) | {0xFEFE}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_expansion_matches_oracle_property(db, data):
    text = data.draw(_cipher_strings)
    suites = data.draw(_suite_sets(db))
    got = cs.expand(cs.parse_cipher_string(text), db, suites)
    assert got == oracle_expand(text, db, suites), text
    assert set(got) <= suites


@pytest.mark.parametrize("call", [
    lambda db: cert_compatible(db, Auth.RSA),
    lambda db: cert_compatible(db, Auth.ECDSA),
    lambda db: browser_union(db),
    lambda db: cs.expand(cs.parse_cipher_string("ALL:+AESGCM"), db,
                         cs.load_profile("openssl-1.1.1").suites),
], ids=["cert_compatible-rsa", "cert_compatible-ecdsa", "browser_union",
        "expand"])
def test_returned_offer_lists_are_the_callers_own(db, call):
    first = call(db)
    want = list(first)
    first.reverse()
    first.append(0xFEFE)
    assert call(db) == want
    first.clear()
    assert call(db) == want


def test_frozen_expansions(db):
    profile = cs.load_profile("openssl-1.1.0g")
    def names(text):
        return [db[i].name
                for i in cs.expand(cs.parse_cipher_string(text), db,
                                   profile.suites)]
    assert names("ECDHE+AESGCM:!RC4") == [
        "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
        "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384",
        "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
        "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384",
    ]
    assert names("HIGH+SHA384") == [
        "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA384",
        "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA384",
        "TLS_ECDHE_ECDSA_WITH_ARIA_256_CBC_SHA384",
        "TLS_ECDHE_RSA_WITH_ARIA_256_CBC_SHA384",
        "TLS_ECDHE_ECDSA_WITH_CAMELLIA_256_CBC_SHA384",
        "TLS_ECDHE_RSA_WITH_CAMELLIA_256_CBC_SHA384",
        "TLS_DHE_RSA_WITH_ARIA_256_CBC_SHA384",
        "TLS_RSA_WITH_ARIA_256_CBC_SHA384",
    ]
    assert names("kRSA+SHA256") == [
        "TLS_RSA_WITH_AES_128_CBC_SHA256",
        "TLS_RSA_WITH_AES_256_CBC_SHA256",
        "TLS_RSA_WITH_CAMELLIA_128_CBC_SHA256",
        "TLS_RSA_WITH_CAMELLIA_256_CBC_SHA256",
        "TLS_RSA_WITH_ARIA_128_CBC_SHA256",
        "TLS_RSA_WITH_NULL_SHA256",
    ]


def test_exclusion_is_permanent(db):
    profile = cs.load_profile("openssl-1.0.1")
    expr = cs.parse_cipher_string("RC4:!RC4:RC4")
    assert cs.expand(expr, db, profile.suites) == []


def test_promote_moves_to_front(db):
    profile = cs.load_profile("openssl-1.1.0g")
    expanded = cs.expand(cs.parse_cipher_string("ALL:+AESGCM"), db,
                         profile.suites)
    aead_aes = [s for s in expanded
                if db[s].cipher_family is CipherFamily.AES
                and db[s].cipher_mode is CipherMode.GCM]
    assert expanded[:len(aead_aes)] == aead_aes


def test_expansion_subset_of_profile(db):
    small = frozenset(list(cs.load_profile("openssl-1.0.2g").suites)[:10])
    expanded = cs.expand(cs.parse_cipher_string("ALL"), db, small)
    assert set(expanded) <= small
