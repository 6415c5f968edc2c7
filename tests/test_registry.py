import pytest

from tlsaudit.registry import (Auth, CipherDb, CipherFamily, CipherSuiteInfo,
                               CipherMode, Kex, Mac, RegistryError, Version,
                               browser_union, cert_compatible, load_registry,
                               sort_offer)


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
