"""Per-site measurement: baseline browser emulation, version walk, cipher
elimination, extension/compression/resumption probes, recorded in a complete
ProbeTrace. ``SiteProber._record`` is the only producer of trace entries:
one pacing delay, one engine call, one entry, timed in ``elapsed_ms``.
Each ``probe_site`` call keeps its state, pacing RNG too, in its own ``Site``.
The entries are the only place a site's evidence is kept, and the phases
only gather it: the configuration is derived from their outcomes, by
``configuration_of``, which also rechecks a trace file offline."""
from __future__ import annotations

import logging
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from . import dhprimes
from .configuration import Configuration
from .engine import (
    HandshakeEngine, HandshakeOffer, HandshakeOutcome, HeartbleedResult,
    ProbeStatus,
)
from .registry import (
    INT, NULL, NUMBER, CipherDb, Fields, Version, browser_union,
    cert_compatible, check_fields, sort_offer, suite_id, suite_label,
)
from .wire import Compression

logger = logging.getLogger(__name__)

_WALK_LADDER = [Version.SSLv3, Version.TLS1_0, Version.TLS1_1, Version.TLS1_2]

_EXTENSION_PROBE_SET = frozenset({
    "server_name", "heartbeat", "session_ticket", "alpn", "status_request",
    "renegotiation_info", "extended_master_secret",
    "signed_certificate_timestamp",
})


_POLICY_FIELDS = Fields(("timeout_ms", NUMBER, "a number"),
                        ("delay_min_ms", NUMBER, "a number"),
                        ("delay_max_ms", NUMBER, "a number"),
                        ("seed", INT | NULL, "an integer or null"))
# a policy's upper bound on any time; a socket timeout of about 300 years
# overflows, and ``float(10**400)`` already does
_DAY_MS = 86_400_000


@dataclass
class ProbePolicy:
    timeout_s: float = 5.0
    delay_min_s: float = 0.0
    delay_max_s: float = 2.0
    seed: Optional[int] = None

    @classmethod
    def from_json(cls, obj: dict) -> "ProbePolicy":
        """A timeout must be above 0 (0 would make every socket
        non-blocking), a delay at least 0, and neither above a day; the
        minimum delay may not exceed the maximum, defaults applied."""
        check_fields(obj, _POLICY_FIELDS)
        timeout_ms = obj.get("timeout_ms", 5000)
        if not 0 < timeout_ms <= _DAY_MS:  # NaN fails too
            raise ValueError(f"timeout_ms must be above 0 and at most {_DAY_MS} "
                             f"(a day), not {timeout_ms!r}")
        for key in ("delay_min_ms", "delay_max_ms"):
            if not 0 <= obj.get(key, 0) <= _DAY_MS:
                raise ValueError(f"{key} must be 0 to {_DAY_MS} (a day), "
                                 f"not {obj[key]!r}")
        delay_min_ms = obj.get("delay_min_ms", 0)
        delay_max_ms = obj.get("delay_max_ms", 2000)
        if delay_min_ms > delay_max_ms:
            raise ValueError(f"delay_min_ms ({delay_min_ms!r}) must not exceed "
                             f"delay_max_ms ({delay_max_ms!r})")
        return cls(
            timeout_s=timeout_ms / 1000.0,
            delay_min_s=delay_min_ms / 1000.0,
            delay_max_s=delay_max_ms / 1000.0,
            seed=obj.get("seed"),
        )


@dataclass
class TraceEntry:
    kind: str
    offer: dict
    outcome: dict
    retried: bool = False
    elapsed_ms: float = 0.0  # the engine call alone, not the pacing delay


@dataclass
class ProbeTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    wall_time_s: float = 0.0
    exclusion_reason: Optional[str] = None
    server_header: Optional[str] = None

    @property
    def handshake_count(self) -> int:
        return len(self.entries)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.entries if e.kind == kind)

    def to_json(self) -> dict:
        return {
            "handshake_count": self.handshake_count,
            "wall_time_s": self.wall_time_s,
            "eligible": self.exclusion_reason is None,
            "exclusion_reason": self.exclusion_reason,
            "server_header": self.server_header,
            "entries": [dict(vars(e)) for e in self.entries],  # every field
        }


@dataclass
class Site:
    """The state of one ``probe_site`` call. Its pacing RNG is seeded from the
    policy seed, SNI name and address, so no earlier site moves its delays."""
    address: tuple[str, int]
    sni_name: str = ""
    trace: ProbeTrace = field(default_factory=ProbeTrace)
    rng: random.Random = field(default_factory=random.Random)


def _offer_summary(offer: HandshakeOffer) -> dict:
    return {
        "max_version": offer.max_version.label,
        "min_version": offer.min_version.label,
        "suites": list(map(suite_label, offer.suites)),
        "extensions": sorted(offer.extensions),
        "compression": list(offer.compression_methods),
    }


def _outcome_summary(outcome: HandshakeOutcome) -> dict:
    out: dict = {"status": outcome.status.value}
    if outcome.selected_version is not None:
        out["version"] = outcome.selected_version.label
    if outcome.selected_suite is not None:
        out["suite"] = suite_label(outcome.selected_suite)
    if outcome.selected_compression is not None:
        out["compression"] = outcome.selected_compression
    if outcome.alert_code is not None:
        out["alert"] = outcome.alert_code
    if outcome.error:
        out["error"] = outcome.error
    if outcome.resumed:
        out["resumed"] = True
    if outcome.acknowledged_extensions:
        out["extensions"] = sorted(outcome.acknowledged_extensions)
    kex = outcome.server_key_exchange
    if kex is not None and kex.group_kind == "FFDHE":  # the prime's class, not it
        out["dh_prime_bits"] = dhprimes.prime_bits(kex.dh_prime)
        out["dh_group_common"] = dhprimes.prime_is_common(kex.dh_prime)
    if outcome.ticket is not None:
        out["ticket_lifetime_hint_s"] = outcome.ticket_lifetime_hint_s
    return out


def _support_summary(result: tuple[bool, Optional[str]]) -> dict:
    supported, error = result
    out: dict = {"supported": supported}
    if error is not None:
        out["error"] = error
    return out


def _heartbleed_summary(result: HeartbleedResult) -> dict:
    out: dict = {"acknowledged": result.heartbeat_acknowledged,
                 "vulnerable": result.vulnerable,
                 "evidence_len": result.evidence_len}
    if result.error is not None:
        out["error"] = result.error
    return out


class SiteProber:
    """Drives the full measurement for single targets. It keeps nothing of
    a site's: each ``probe_site`` call builds its own ``Site``."""

    def __init__(self, db: CipherDb, policy: ProbePolicy):
        self.db = db
        self.policy = policy
        self.engine = HandshakeEngine(db, timeout=self.policy.timeout_s)

    # -- plumbing ------------------------------------------------------------

    def _pace(self, site: Site) -> None:
        if self.policy.delay_max_s > 0:
            time.sleep(site.rng.uniform(self.policy.delay_min_s,
                                        self.policy.delay_max_s))

    def _record(self, site: Site, kind: str, offer_summary: dict,
                call: Callable[[], Any], summary=_outcome_summary) -> Any:
        """Pace, make one engine ``call`` and append the entry it earns."""
        self._pace(site)
        started = time.monotonic()
        result = call()
        elapsed_ms = round((time.monotonic() - started) * 1000, 3)
        site.trace.entries.append(TraceEntry(kind, offer_summary, summary(result),
                                             retried=getattr(result, "retried", False),
                                             elapsed_ms=elapsed_ms))
        return result

    def _probe(self, site: Site, kind: str, offer: HandshakeOffer) -> HandshakeOutcome:
        return self._record(site, kind, _offer_summary(offer),
                            lambda: self.engine.probe(site.address, offer))

    # -- sub-probes ------------------------------------------------------------

    def baseline_probe(self, site: Site) -> Optional[HandshakeOutcome]:
        """Modern-browser emulation plus a GET; both must succeed for the
        site to be eligible. Returns the emulation's outcome, or None once
        the trace's exclusion reason says why not."""
        offer = HandshakeOffer(
            suites=browser_union(self.db), sni_name=site.sni_name,
            extensions={"renegotiation_info"},
        )
        outcome = self._probe(site, "baseline", offer)
        if outcome.status != ProbeStatus.NEGOTIATED:
            site.trace.exclusion_reason = outcome.status.value
            return None

        get = self._record(site, "baseline_get", {"http_get": True},
                           lambda: self.engine.probe(
                               site.address, replace(offer, http_get=True)))
        if get.status != ProbeStatus.NEGOTIATED or get.http is None:
            site.trace.exclusion_reason = "NO_HTTP"
            return None
        site.trace.server_header = get.http.server_header
        return outcome

    def version_walk(self, site: Site, baseline_version: Version,
                     offer_suites: list[int]) -> None:
        last = baseline_version
        while last > Version.SSLv3:
            older = [v for v in _WALK_LADDER if v < last]
            offer = HandshakeOffer(suites=offer_suites, max_version=older[-1])
            outcome = self._probe(site, "version_walk", offer)
            if outcome.status != ProbeStatus.NEGOTIATED:
                break
            if outcome.selected_version >= last:
                logger.warning("%s: version walk did not descend (%s)",
                               site.address, outcome.selected_version.label)
                break
            last = outcome.selected_version
        # the two out-of-ladder checks
        self._record(site, "sslv2_probe", {"sslv2": True},
                     lambda: self.engine.sslv2_probe(site.address), _support_summary)
        self._record(site, "tls13_probe", {"tls13": True},
                     lambda: self.engine.tls13_probe(site.address, offer_suites),
                     _support_summary)

    def enumerate_ciphers(self, site: Site, offer_suites: list[int]) -> list[int]:
        """Elimination loop over ``offer_suites``; returns the supported
        suites in selection order. Always |supported|+1 handshakes unless a
        transport failure cuts it short."""
        remaining = offer_suites
        supported: list[int] = []
        while remaining:
            outcome = self._probe(site, "enumerate",
                                  HandshakeOffer(suites=list(remaining)))
            if outcome.status != ProbeStatus.NEGOTIATED:
                break
            supported.append(outcome.selected_suite)
            remaining = [s for s in remaining if s != outcome.selected_suite]
        return supported

    def probe_preference(self, site: Site, supported: list[int]) -> None:
        """Two opposite-order offers of the supported suites."""
        order = sort_offer(self.db, supported)
        self._probe(site, "preference", HandshakeOffer(suites=order))
        self._probe(site, "preference", HandshakeOffer(suites=list(reversed(order))))

    def probe_extensions(self, site: Site, offer_suites: list[int]) -> None:
        offer = HandshakeOffer(
            suites=offer_suites, extensions=set(_EXTENSION_PROBE_SET),
            sni_name="probe.invalid",
        )
        outcome = self._probe(site, "extensions", offer)
        if (outcome.status == ProbeStatus.NEGOTIATED
                and "heartbeat" in outcome.acknowledged_extensions):
            self._record(site, "heartbleed", {"heartbeat_overread": True},
                         lambda: self.engine.heartbleed_probe(site.address,
                                                              offer_suites),
                         _heartbleed_summary)

    def probe_compression(self, site: Site, offer_suites: list[int]) -> None:
        self._probe(site, "compression", HandshakeOffer(
            suites=offer_suites,
            compression_methods=[Compression.DEFLATE, Compression.LZS,
                                 Compression.NULL]))

    def probe_resumption(self, site: Site, offer_suites: list[int]) -> None:
        # mechanism 1: session id. Establish, then replay the id (or a
        # synthetic one, keeping the handshake budget constant).
        offer = HandshakeOffer(suites=offer_suites, complete=True)
        est = self._probe(site, "resume_establish_id", offer)
        replay = replace(offer, resumption_session_id=(est.session_id
                                                       or os.urandom(32)))
        self._record(site, "resume_id", {"session_id": bool(est.session_id)},
                     lambda: self.engine.probe(site.address, replay))

        # mechanism 2: tickets
        offer = HandshakeOffer(suites=offer_suites, extensions={"session_ticket"},
                               complete=True)
        est_t = self._probe(site, "resume_establish_ticket", offer)
        replay_t = replace(offer, resumption_ticket=(est_t.ticket
                                                     or os.urandom(48)))
        self._record(site, "resume_ticket", {"ticket": est_t.ticket is not None},
                     lambda: self.engine.probe(site.address, replay_t))

    # -- the composite ---------------------------------------------------------

    def probe_site(self, address: tuple[str, int],
                   sni_name: str = "") -> tuple[Optional[Configuration], ProbeTrace]:
        seed = self.policy.seed
        site = Site(address, sni_name, rng=random.Random(
            None if seed is None else f"{seed}/{sni_name}/{address[0]}/{address[1]}"))
        started = time.monotonic()
        try:
            return self._probe_site(site), site.trace
        finally:
            site.trace.wall_time_s = time.monotonic() - started

    def _probe_site(self, site: Site) -> Optional[Configuration]:
        baseline = self.baseline_probe(site)
        if baseline is None:
            return None
        # the suite fixes the certificate's key type (RFC 5246 section 7.4.2)
        offer_suites = cert_compatible(self.db, self.db[baseline.selected_suite].auth)
        if not offer_suites:  # a key type the engine offers no suite for
            site.trace.exclusion_reason = "NO_SUITES"
            return None

        self.version_walk(site, baseline.selected_version, offer_suites)
        supported = self.enumerate_ciphers(site, offer_suites)
        if not supported:
            site.trace.exclusion_reason = "NO_SUITES"
            return None
        self.probe_preference(site, supported)
        self.probe_extensions(site, offer_suites)
        self.probe_compression(site, offer_suites)
        self.probe_resumption(site, offer_suites)
        return configuration_of(site.trace.to_json(), self.db)


def configuration_of(trace_json: dict, db: CipherDb) -> Optional[Configuration]:
    """The configuration that a trace's JSON shows, read from its entries
    alone, or None for an excluded site. ``probe_site`` returns this, and a
    trace file that ``scan --trace-dir`` wrote can be rechecked offline with
    it. An eligible trace that lacks a graded site's evidence, such as a
    second ``baseline`` entry or no ``enumerate`` entry that negotiated,
    raises ``ValueError`` naming that kind."""
    if not trace_json["eligible"]:
        return None
    entries = trace_json["entries"]

    def of(kind: str, count: Optional[int] = None) -> list[dict]:
        found = [e for e in entries if e["kind"] == kind]
        if count is not None and len(found) != count:
            raise ValueError(f"a graded trace holds {count} {kind!r} entries, "
                             f"not {len(found)}")
        return found

    def outcome(kind: str) -> dict:
        return of(kind, 1)[0]["outcome"]

    def negotiated(kind: str) -> list[dict]:
        return [e["outcome"] for e in of(kind)
                if e["outcome"]["status"] == "NEGOTIATED"]

    baseline = outcome("baseline")
    if baseline["status"] != "NEGOTIATED":
        raise ValueError("a graded trace's 'baseline' entry did not negotiate")
    versions = {Version.from_label(baseline["version"])}
    for walked in negotiated("version_walk"):  # the walk ends at a step not lower
        version = Version.from_label(walked["version"])
        if version < min(versions):
            versions.add(version)
    for kind, version in (("sslv2_probe", Version.SSLv2),
                          ("tls13_probe", Version.TLS1_3)):
        if outcome(kind)["supported"]:
            versions.add(version)

    # each supported suite was negotiated once, a DHE one with its group
    enumerated = negotiated("enumerate")
    if not enumerated:
        raise ValueError("a graded trace holds no 'enumerate' entry that negotiated")
    suites = [suite_id(o["suite"]) for o in enumerated]
    dh = next((o for o in reversed(enumerated) if "dh_prime_bits" in o), {})
    # preference holds iff the server picks the same suite from two opposite
    # orders and it is not simply the client's first listing both times
    preference = of("preference", 2)
    picks = [e["outcome"].get("suite") for e in preference]
    server_preference = (
        all(e["outcome"]["status"] == "NEGOTIATED" for e in preference)
        and picks[0] == picks[1]
        and picks != [e["offer"]["suites"][0] for e in preference])

    extensions = outcome("extensions")
    compression = outcome("compression")
    ticket = outcome("resume_establish_ticket")
    # the suite fixes the certificate's key type (RFC 5246 section 7.4.2)
    auth = db[suite_id(baseline["suite"])].auth
    return Configuration(
        supported_suites=suites,
        preferred_suite=suites[0],  # the server's pick under the full offer
        versions=frozenset(versions),
        server_preference=server_preference,
        extensions=frozenset(extensions.get("extensions", ())
                             if extensions["status"] == "NEGOTIATED" else ()),
        tls_compression=(compression["status"] == "NEGOTIATED"
                         and bool(compression.get("compression"))),
        session_id_resumption=outcome("resume_id").get("resumed", False),
        session_tickets="ticket_lifetime_hint_s" in ticket,
        ticket_lifetime_hint_s=ticket.get("ticket_lifetime_hint_s"),
        dh_prime_bits=dh.get("dh_prime_bits"),
        dh_group_common=dh.get("dh_group_common"),
        heartbleed_vulnerable=any(e["outcome"]["vulnerable"] for e in of("heartbleed")),
        cert_sig_alg=auth.value,
    )
