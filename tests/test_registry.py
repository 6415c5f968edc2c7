import pytest

from tlsaudit import registry
from tlsaudit.registry import (Auth, CipherDb, CipherFamily, CipherSuiteInfo,
                               CipherMode, Kex, Mac, RegistryError, Version,
                               browser_union, cert_compatible, load_registry,
                               sort_offer, suite_id, suite_label)


def test_registry_loads_and_indexes(db):
    assert len(db) > 90
    info = db[0xC02F]
    assert info.name == "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"
    assert info.kex is Kex.ECDHE and info.is_aead
    assert 0xC02F in db
    assert db.get(0xFFFF) is None
    with pytest.raises(KeyError):
        db[0xFFFF]


def test_version_labels_round_trip():
    for v in Version:
        assert Version.from_label(v.label) is v
    for label in ("TLSv9", "tls1.2", "", None, ["TLS1.2"]):
        with pytest.raises(RegistryError, match="unknown protocol version"):
            Version.from_label(label)


def test_version_ordering():
    assert Version.SSLv2 < Version.SSLv3 < Version.TLS1_0 < Version.TLS1_2
    assert max(Version) is Version.TLS1_3


def test_browser_union_is_deduplicated_superset(db):
    union = browser_union(db)
    assert len(union) == len(set(union))
    for must_have in (0xC02B, 0xC02F, 0xCCA8, 0x000A, 0x002F):
        assert must_have in union
    # preference-ordered: the first entries are AEAD ECDHE suites
    assert db[union[0]].is_aead and db[union[0]].kex is Kex.ECDHE


def test_sort_offer_is_deterministic(db):
    ids = list(db.suites)
    assert sort_offer(db, ids) == sort_offer(db, reversed(ids))
    ordered = sort_offer(db, ids)
    assert db[ordered[0]].is_aead
    # weakest classes sort last: nothing AEAD in the bottom quarter
    tail = ordered[-len(ordered) // 4:]
    assert not any(db[s].is_aead for s in tail)


def test_cert_compatible_filters_by_auth(db):
    rsa = cert_compatible(db, Auth.RSA)
    ecdsa = cert_compatible(db, Auth.ECDSA)
    assert rsa and ecdsa
    assert not set(rsa) & set(ecdsa) - {s for s in rsa if db[s].auth is Auth.OTHER}
    assert all(db[s].auth is not Auth.ECDSA for s in rsa)
    assert all(db[s].min_version <= Version.TLS1_2 for s in rsa)


def test_duplicate_suite_id_rejected(db):
    info = db[0xC02F]
    with pytest.raises(RegistryError):
        CipherDb([info, info])


def test_aead_flag_must_mirror_mode():
    with pytest.raises(RegistryError):
        CipherSuiteInfo(
            id=0x1234, name="TLS_TEST", kex=Kex.RSA, auth=Auth.RSA,
            cipher_family=CipherFamily.AES, cipher_mode=CipherMode.GCM,
            mac=Mac.AEAD, is_aead=False, is_export=False,
            min_version=Version.TLS1_2, max_version=Version.TLS1_2)


def test_suite_id_reads_what_suite_label_writes(db):
    for sid in list(db.suites)[:10] + [0x0000, 0xFFFF]:
        assert suite_id(suite_label(sid)) == sid
        assert suite_id(suite_label(sid).lower()) == sid


# the sign, spacing, underscore and length cases that int(text, 16) let
# through are rows of test_cmd_report_wrongly_typed_record_field
@pytest.mark.parametrize("text", ["0XC02F", "0xC02", "0x+C02", "0x\u0661C02",
                                  "c02f", 0xC02F, None])
def test_suite_id_rejects_other_forms(text):
    with pytest.raises(ValueError, match="0x and four hex digits"):
        suite_id(text)


def test_suite_id_keeps_one_label_per_id():
    """``suite_id`` keeps only labels in ``suite_label``'s form, so its memo
    holds at most one label per id however the input spells them, and a
    form it refuses, or a value it cannot hash, is refused after the id's
    label has been kept."""
    for text in ("0xc02f", "0xC02f", "0xC02F", "0xc02F", "0xC02F"):
        assert suite_id(text) == 0xC02F
    assert registry._SUITE_IDS["0xC02F"] == 0xC02F
    assert all(label == suite_label(sid)
               for label, sid in registry._SUITE_IDS.items())
    for text in ("0XC02F", ["0xC02F"]):
        with pytest.raises(ValueError, match="0x and four hex digits"):
            suite_id(text)
