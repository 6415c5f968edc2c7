"""The layers of tlsaudit as the traced run sees them: which public entry
points are wrapped, and how the per-layer metrics are derived from spans.

Each function is wrapped under the name its caller uses. ``orchestrator``
imports ``browser_union``, ``cert_compatible`` and ``sort_offer`` by name;
``pipeline`` and ``cli`` import ``grade`` by name; ``cli`` imports
``load_registry`` by name. Methods and class methods are wrapped on their
class, which every importer shares.
"""
from __future__ import annotations

from collections import defaultdict

from stats import percentile

from tlsaudit.registry import Version
from tlsaudit.wire import Compression

KINDS = ("baseline", "baseline_get", "version_walk", "sslv2_probe",
         "tls13_probe", "enumerate", "preference", "extensions", "heartbleed",
         "compression", "resume_establish_id", "resume_id",
         "resume_establish_ticket", "resume_ticket")

# Each engine entry point produces exactly one ProbeTrace entry per call
# (retries stay inside ``probe``; ``resume`` and ``http_get_over_tls`` go
# through it). Every handshake span is labelled with the kind its own
# arguments show; ``probe`` offers cannot tell an enumerate handshake from a
# preference one, so those share one label.
ENUMERATE_OR_PREFERENCE = "enumerate|preference"
HANDSHAKE_SPANS = frozenset({"engine.probe", "engine.sslv2_probe",
                             "engine.tls13_probe", "engine.heartbleed_probe"})

PHASES = (("baseline", "baseline_probe"), ("version_walk", "version_walk"),
          ("enumerate", "enumerate_ciphers"), ("preference", "probe_preference"),
          ("extensions", "probe_extensions"), ("compression", "probe_compression"),
          ("resumption", "probe_resumption"))

REPORTS = ("dist", "cdf-asn", "cdf-config", "downgrades", "dominance", "records")

CODEC_SPANS = frozenset({"wire.ClientHello.encode", "wire.ServerHello.parse",
                         "wire.parse_certificate", "wire.iter_handshake_messages",
                         "wire.ServerKeyExchange.parse_for_suite"})
OFFER_SPANS = frozenset({"registry.browser_union", "registry.cert_compatible",
                         "registry.sort_offer"})
ORCHESTRATOR_SPANS = frozenset({"orchestrator.probe_site"}
                               | {f"orchestrator.phase.{p}" for p, _ in PHASES})

# A site is one scan_one call, or one spawn-probe-stop cycle on roundtrip.
SITE_ROOTS = ("pipeline.scan_one", "roundtrip.spec")

PER_LAYER = (
    [("engine.handshake_ms_p50", "ms"), ("engine.handshake_ms_p99", "ms")]
    + [(f"engine.kind_ms_p50.{k}", "ms") for k in KINDS]
    + [("engine.retried_ratio", "ratio"), ("engine.failed_ratio", "ratio"),
       ("wire.read_record_calls", "count"), ("wire.recv_wait_share", "ratio"),
       ("wire.codec_us_per_handshake", "us"),
       ("orchestrator.probe_site_ms_p50", "ms")]
    + [(f"orchestrator.phase_ms_p50.{p}", "ms") for p, _ in PHASES]
    + [("orchestrator.handshakes_total", "count"),
       ("orchestrator.self_ms_per_site", "ms"),
       ("registry.offer_build_us_per_site", "us"),
       ("registry.load_registry_s", "s"),
       ("pipeline.annotate_asn_ms_p50", "ms"),
       ("pipeline.annotate_asn_calls", "count"),
       ("pipeline.load_asn_table_s", "s"),
       ("pipeline.scan_one_self_ms_p50", "ms"),
       ("pipeline.load_records_s", "s"),
       ("fixtures.spawn_ms_p50", "ms"), ("fixtures.stop_ms_p50", "ms"),
       ("fixtures.projection_ms_p50", "ms"),
       ("configuration.from_json_us_p50", "us"),
       ("grading.grade_us_p50", "us"), ("grading.grade_calls", "count")]
    + [(f"report.build_s.{w}", "s") for w in REPORTS]
    + [("report.emit_s_total", "s"), ("report.config_key_calls", "count"),
       ("report.config_key_us_p50", "us"),
       ("cipherstring.expand_calls", "count"),
       ("cipherstring.expand_us_p50", "us"),
       ("cipherstring.consistent_us_p50", "us"),
       ("cipherstring.grade_recommendation_ms_p50", "ms"),
       ("cipherstring.load_all_profiles_calls", "count"),
       ("process.cpu_s", "s"), ("process.cpu_share", "ratio"),
       ("trace.overhead_ratio", "ratio")]
)


class TraceMismatch(AssertionError):
    """The spans do not line up with the ProbeTrace they should mirror."""


def offer_kind(args, kwargs) -> str:
    """The ProbeTrace kind of an ``engine.probe(target, offer)`` call, read
    from the offer alone."""
    offer = args[2] if len(args) > 2 else kwargs["offer"]
    if offer.http_get:
        return "baseline_get"
    if offer.resumption_session_id:
        return "resume_id"
    if offer.resumption_ticket is not None:
        return "resume_ticket"
    if offer.complete:
        return ("resume_establish_ticket" if "session_ticket" in offer.extensions
                else "resume_establish_id")
    if list(offer.compression_methods) != [Compression.NULL]:
        return "compression"
    if offer.max_version < Version.TLS1_2:
        return "version_walk"
    if offer.extensions - {"renegotiation_info"}:
        return "extensions"
    if offer.extensions:
        return "baseline"
    return ENUMERATE_OR_PREFERENCE


def span_kind_matches(span, kind: str) -> bool:
    """Whether a handshake span's own label allows the trace kind ``kind``."""
    return kind in span.label.split("|")


def _keep_trace(span, result):
    span.info = result[1]


def _keep_outcome(span, outcome):
    span.info = (outcome.retried,
                 outcome.status.value in ("TCP_FAILURE", "TIMEOUT", "PROTOCOL_ERROR"))


def _keep_sslv2(span, result):
    span.info = (False, result[1] is not None)


def _keep_heartbleed(span, result):
    span.info = (False, result.error is not None)


def install(tracer) -> None:
    """Wrap every layer's public entry points with ``tracer``."""
    from tlsaudit import (cipherstring, cli, engine, fixtures, grading,
                          orchestrator, pipeline, registry, report, wire)
    from tlsaudit.configuration import Configuration
    wrap = tracer.wrap

    for fn in ("run_scan", "scan_one", "annotate_asn", "load_asn_table",
               "load_records"):
        wrap(pipeline, fn, f"pipeline.{fn}")

    prober = orchestrator.SiteProber
    wrap(prober, "probe_site", "orchestrator.probe_site", on_return=_keep_trace)
    for phase, method in PHASES:
        wrap(prober, method, f"orchestrator.phase.{phase}")
    for fn in ("browser_union", "cert_compatible", "sort_offer"):
        wrap(orchestrator, fn, f"registry.{fn}")
    for owner in (registry, cli):
        wrap(owner, "load_registry", "registry.load_registry")

    eng = engine.HandshakeEngine
    wrap(eng, "probe", "engine.probe", label=offer_kind, on_return=_keep_outcome)
    wrap(eng, "sslv2_probe", "engine.sslv2_probe",
         label=lambda args, kw: "sslv2_probe", on_return=_keep_sslv2)
    wrap(eng, "tls13_probe", "engine.tls13_probe",
         label=lambda args, kw: "tls13_probe")
    wrap(eng, "heartbleed_probe", "engine.heartbleed_probe",
         label=lambda args, kw: "heartbleed", on_return=_keep_heartbleed)

    for fn in ("read_record", "iter_handshake_messages", "parse_certificate"):
        wrap(wire, fn, f"wire.{fn}")
    wrap(wire.ClientHello, "encode", "wire.ClientHello.encode")
    wrap(wire.ServerHello, "parse", "wire.ServerHello.parse")
    wrap(wire.ServerKeyExchange, "parse_for_suite",
         "wire.ServerKeyExchange.parse_for_suite")

    wrap(fixtures, "spawn", "fixtures.spawn")
    wrap(fixtures.FixtureEndpoint, "stop", "fixtures.stop")
    wrap(fixtures, "projection", "fixtures.projection")

    wrap(Configuration, "from_json", "configuration.from_json")

    for owner in (grading, pipeline, cli):
        wrap(owner, "grade", "grading.grade")

    wrap(report, "build", "report.build", label=lambda args, kw: args[1])
    wrap(report, "emit", "report.emit")
    wrap(report, "config_key", "report.config_key")

    for fn in ("expand", "consistent", "grade_recommendation",
               "load_all_profiles"):
        wrap(cipherstring, fn, f"cipherstring.{fn}")

    wrap(cli, "main", "cli.main", label=lambda args, kw: (args[0] if args else kw["argv"])[0])


# -- derivation ----------------------------------------------------------------

def _p50(values):
    return percentile(values, 50) if values else 0.0


def label_handshakes(spans) -> dict[int, list]:
    """Label each engine handshake span with its ProbeTrace kind.

    Per site, the handshake spans in start order are zipped with the trace
    entries of that site's ``probe_site``. Returns site -> [(kind, span)].
    Raises TraceMismatch when the counts differ or a span's own label (the
    kind its arguments show) disagrees with the entry it is zipped with.
    """
    traces = {}
    per_site = defaultdict(list)
    for s in spans:
        if s.name == "orchestrator.probe_site":
            if s.site in traces:
                raise TraceMismatch(f"site {s.site} has two probe_site spans")
            traces[s.site] = s.info
        elif s.name in HANDSHAKE_SPANS and s.site is not None:
            per_site[s.site].append(s)
    labelled = {}
    for site, trace in traces.items():
        hs = sorted(per_site.pop(site, []), key=lambda s: s.start)
        if len(hs) != len(trace.entries):
            raise TraceMismatch(f"site {site}: {len(hs)} handshake spans, "
                                f"{len(trace.entries)} trace entries")
        for span, entry in zip(hs, trace.entries):
            if not span_kind_matches(span, entry.kind):
                raise TraceMismatch(f"site {site}: {span.name} labelled "
                                    f"{span.label} zipped with entry kind "
                                    f"{entry.kind}")
        labelled[site] = [(e.kind, s) for e, s in zip(trace.entries, hs)]
    if per_site:
        raise TraceMismatch(f"handshake spans outside probe_site: {sorted(per_site)}")
    return labelled


_MS, _US, _S = 1e6, 1e3, 1e9  # nanoseconds per unit


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def derive(setup_spans, spans, untraced, traced) -> dict[str, float]:
    """Per-layer metrics from the set-up spans, the measured-loop spans and
    the untraced and traced runs of the same operations. A layer that did
    not run reads 0."""
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    children_ns = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children_ns[s.parent] += s.duration_ns

    def self_ns(s):
        return s.duration_ns - children_ns[s.id]

    def p50(spans_, unit):
        return _p50([s.duration_ns / unit for s in spans_])

    def under_handshake(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name in HANDSHAKE_SPANS:
                return True
        return False

    labelled = label_handshakes(spans)
    handshakes = [s for site in labelled.values() for _kind, s in site]
    by_kind = defaultdict(list)
    for site in labelled.values():
        for kind, s in site:
            by_kind[kind].append(s)
    sites = len(by_name["orchestrator.probe_site"])
    hs_ns = sum(s.duration_ns for s in handshakes)
    wire = [s for s in spans if s.name.startswith("wire.") and under_handshake(s)]
    reads = [s for s in wire if s.name == "wire.read_record"]
    builds = defaultdict(list)
    for s in by_name["report.build"]:
        builds[s.label].append(s)

    m = {
        "engine.handshake_ms_p50": p50(handshakes, _MS),
        "engine.handshake_ms_p99": (percentile([s.duration_ns / _MS for s in handshakes], 99)
                                    if handshakes else 0.0),
        "engine.retried_ratio": _ratio(sum(1 for s in handshakes if s.info and s.info[0]),
                                       len(handshakes)),
        "engine.failed_ratio": _ratio(sum(1 for s in handshakes if s.info and s.info[1]),
                                      len(handshakes)),
        "wire.read_record_calls": len(reads),
        "wire.recv_wait_share": _ratio(sum(s.duration_ns for s in reads), hs_ns),
        "wire.codec_us_per_handshake": _ratio(
            sum(self_ns(s) for s in wire if s.name in CODEC_SPANS) / _US, len(handshakes)),
        "orchestrator.probe_site_ms_p50": p50(by_name["orchestrator.probe_site"], _MS),
        "orchestrator.handshakes_total": len(handshakes),
        "orchestrator.self_ms_per_site": _ratio(
            sum(self_ns(s) for s in spans if s.name in ORCHESTRATOR_SPANS) / _MS, sites),
        "registry.offer_build_us_per_site": _ratio(
            sum(s.duration_ns for s in spans if s.name in OFFER_SPANS) / _US, sites),
        "registry.load_registry_s": p50([s for s in list(setup_spans) + spans
                                         if s.name == "registry.load_registry"], _S),
        "pipeline.annotate_asn_ms_p50": p50(by_name["pipeline.annotate_asn"], _MS),
        "pipeline.annotate_asn_calls": len(by_name["pipeline.annotate_asn"]),
        "pipeline.load_asn_table_s": p50([s for s in setup_spans
                                          if s.name == "pipeline.load_asn_table"], _S),
        "pipeline.scan_one_self_ms_p50": _p50([self_ns(s) / _MS
                                               for s in by_name["pipeline.scan_one"]]),
        "pipeline.load_records_s": p50(by_name["pipeline.load_records"], _S),
        "fixtures.spawn_ms_p50": p50(by_name["fixtures.spawn"], _MS),
        "fixtures.stop_ms_p50": p50(by_name["fixtures.stop"], _MS),
        "fixtures.projection_ms_p50": p50(by_name["fixtures.projection"], _MS),
        "configuration.from_json_us_p50": p50(by_name["configuration.from_json"], _US),
        "grading.grade_us_p50": p50(by_name["grading.grade"], _US),
        "grading.grade_calls": len(by_name["grading.grade"]),
        "report.emit_s_total": sum(s.duration_ns for s in by_name["report.emit"]) / _S,
        "report.config_key_calls": len(by_name["report.config_key"]),
        "report.config_key_us_p50": p50(by_name["report.config_key"], _US),
        "cipherstring.expand_calls": len(by_name["cipherstring.expand"]),
        "cipherstring.expand_us_p50": p50(by_name["cipherstring.expand"], _US),
        "cipherstring.consistent_us_p50": p50(by_name["cipherstring.consistent"], _US),
        "cipherstring.grade_recommendation_ms_p50":
            p50(by_name["cipherstring.grade_recommendation"], _MS),
        "cipherstring.load_all_profiles_calls": len(by_name["cipherstring.load_all_profiles"]),
        "process.cpu_s": untraced.cpu_s,
        "process.cpu_share": untraced.cpu_s / untraced.wall_s,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s - 1.0,
    }
    for kind in KINDS:
        m[f"engine.kind_ms_p50.{kind}"] = p50(by_kind[kind], _MS)
    for phase, _method in PHASES:
        m[f"orchestrator.phase_ms_p50.{phase}"] = p50(by_name[f"orchestrator.phase.{phase}"], _MS)
    for which in REPORTS:
        m[f"report.build_s.{which}"] = p50(builds[which], _S)
    return m
