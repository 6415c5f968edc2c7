import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (V1_COMPONENT_FLAGS, V1_KEX_FLAGS, random_configuration,
                     version_1_json)
from tlsaudit import fixtures
from tlsaudit.configuration import Configuration
from tlsaudit.grading import grade
from tlsaudit.records import Eligibility, ScanRecord
from tlsaudit.registry import Version

# one field changed to another valid value; every other field kept
_EDITS = {
    "server_preference": lambda c: {"server_preference": not c.server_preference},
    "tls_compression": lambda c: {"tls_compression": not c.tls_compression},
    "session_id_resumption":
        lambda c: {"session_id_resumption": not c.session_id_resumption},
    "heartbleed_vulnerable":
        lambda c: {"heartbleed_vulnerable": not c.heartbleed_vulnerable},
    "cert_sig_alg": lambda c: {"cert_sig_alg": (c.cert_sig_alg or "") + "x"},
    "extensions": lambda c: {"extensions": c.extensions ^ {"status_request"}},
}


def _round_trip(config: Configuration, sort_keys: bool) -> Configuration:
    text = json.dumps(config.to_json(), sort_keys=sort_keys)
    return Configuration.from_json(json.loads(text))


def _configurations(db):
    """Projections of seeded random specs, half of them from four seeds so
    that equal pairs are common; each either as built, after a JSON round
    trip, or with one field edited."""
    @st.composite
    def draw_one(draw):
        seed = draw(st.integers(0, 3) | st.integers(4, 10_000))
        config = fixtures.projection(fixtures.random_spec(random.Random(seed), db),
                                     db)
        edit = draw(st.none() | st.sampled_from(sorted(_EDITS)))
        if edit is not None:
            return dataclasses.replace(config, **_EDITS[edit](config))
        how = draw(st.sampled_from(("built", "round trip", "sorted round trip")))
        if how == "built":
            return config
        return _round_trip(config, sort_keys=how.startswith("sorted"))
    return draw_one()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_configuration_equality_matches_json_and_hash(db, data):
    a = data.draw(_configurations(db))
    b = data.draw(_configurations(db))
    assert (a == b) == (a.to_json() == b.to_json())
    if a == b:
        assert hash(a) == hash(b)
    again = _round_trip(a, sort_keys=True)
    assert again == a and hash(again) == hash(a)


def _json_with_every_scalar_set(db) -> dict:
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0x0033, 0xC02F),
        session_id_cache=True, tickets=300, ffdhe_prime="modp2048")
    obj = fixtures.projection(spec, db).to_json()
    assert (obj["ticket_lifetime_hint_s"], obj["dh_prime_bits"],
            obj["dh_group_common"]) == (300, 2048, True)
    return obj


def _rejects(obj: dict, field: str, value) -> None:
    with pytest.raises(ValueError, match=field):
        Configuration.from_json(dict(obj, **{field: value}))


@pytest.mark.parametrize("field", [
    "server_preference", "tls_compression", "session_id_resumption",
    "session_tickets", "heartbleed_vulnerable",
])
@pytest.mark.parametrize("value", [1, 1.0, "true"])
def test_from_json_bool_field_takes_only_a_bool(db, field, value):
    _rejects(_json_with_every_scalar_set(db), field, value)


@pytest.mark.parametrize("value", [1, 0, "yes"])
def test_from_json_dh_group_common_takes_only_a_bool_or_null(db, value):
    obj = _json_with_every_scalar_set(db)
    _rejects(obj, "dh_group_common", value)
    for ok in (True, False, None):
        assert Configuration.from_json(dict(obj, dh_group_common=ok)).dh_group_common is ok


@pytest.mark.parametrize("field", ["ticket_lifetime_hint_s", "dh_prime_bits"])
@pytest.mark.parametrize("value", [2048.0, True, "2048"])
def test_from_json_integer_field_takes_only_an_int_or_null(db, field, value):
    obj = _json_with_every_scalar_set(db)
    _rejects(obj, field, value)
    assert getattr(Configuration.from_json(dict(obj, **{field: 2048})), field) == 2048


@pytest.mark.parametrize("field, flag", [
    ("component_flags", "AES"), ("component_flags", "EXPORT"), ("kex_flags", "RSA"),
])
@pytest.mark.parametrize("value", [1, 0, 1.0, "true", None])
def test_from_json_flag_takes_only_a_bool(db, field, flag, value):
    # The name is kept from when a flag had to be a bool. The flags of a
    # version-1 configuration are now read by nothing: a flag of any value,
    # a bool among them, decodes to the configuration its suites give.
    config = Configuration.from_json(_json_with_every_scalar_set(db))
    for wrote in (value, True, False):
        obj = version_1_json(db, config)
        obj[field][flag] = wrote
        assert Configuration.from_json(obj) == config


def test_version_1_json_decodes_and_grades_as_version_2(db):
    """Over seeded random configurations, the version-1 JSON, with the
    flags the suites imply or with random ones, decodes equal to the
    version-2 JSON, in a configuration or in a scan record, and gets the
    same grade report."""
    rng = random.Random(36)
    every_flag = V1_COMPONENT_FLAGS + V1_KEX_FLAGS
    for _ in range(1000):
        config = random_configuration(rng, db)
        report = grade(config, db)
        v2 = config.to_json()
        noise = {name for name in every_flag if rng.random() < 0.5}
        record = ScanRecord(domain="a.test", eligibility=Eligibility.GRADED,
                            configuration=config, grade_report=report).to_json()
        assert record["schema_version"] == 2
        assert Configuration.from_json(v2) == config
        for v1 in (version_1_json(db, config),
                   version_1_json(db, config, noise)):
            again = Configuration.from_json(v1)
            assert again == config and grade(again, db) == report
            assert ScanRecord.from_json(dict(
                record, schema_version=1, configuration=v1)) == \
                ScanRecord.from_json(record)
