"""Batch scan pipeline: target ingestion, annotation, and record persistence.

Drives the single-site prober across an ordered target list, annotates each
result with server software, OS hint, and ASN, and appends one self-contained
JSON line per target to the output sink. The sink is its own checkpoint:
a rerun skips the domains it already holds, so an interrupted scan resumes
where it left off.
"""

from __future__ import annotations

import csv
import datetime
import ipaddress
import json
import logging
import socket
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from .configuration import Configuration
from .engine import split_target
from .grading import GradeReport, grade
from .orchestrator import ProbePolicy, SiteProber
from .registry import CipherDb, enum_decoder

logger = logging.getLogger(__name__)

RECORD_SCHEMA_VERSION = 1


class PipelineError(ValueError):
    pass


class Eligibility(Enum):
    GRADED = "GRADED"
    EXCLUDED = "EXCLUDED"


_eligibility_of = enum_decoder(Eligibility)


@dataclass(frozen=True)
class Target:
    rank: Optional[int]
    domain: str

    @property
    def host_port(self) -> tuple[str, int]:
        return split_target(self.domain)


@dataclass
class ScanRecord:
    domain: str
    eligibility: Eligibility
    rank: Optional[int] = None
    address: Optional[str] = None
    started_at: Optional[str] = None
    finished_at: Optional[str] = None
    server_software: Optional[dict] = None
    os_hint: Optional[str] = None
    asn: Optional[dict] = None
    configuration: Optional[Configuration] = None
    grade_report: Optional[GradeReport] = None
    trace_ref: Optional[str] = None
    exclusion_reason: Optional[str] = None

    def __post_init__(self):
        if self.grade_report is not None and self.configuration is None:
            raise PipelineError("grade_report requires a configuration")
        if self.eligibility is Eligibility.EXCLUDED and self.configuration is not None:
            raise PipelineError("EXCLUDED records carry no configuration")

    def to_json(self) -> dict:
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "domain": self.domain,
            "rank": self.rank,
            "address": self.address,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "eligibility": self.eligibility.value,
            "server_software": self.server_software,
            "os_hint": self.os_hint,
            "asn": self.asn,
            "configuration": (self.configuration.to_json()
                              if self.configuration else None),
            "grade_report": (self.grade_report.to_json()
                             if self.grade_report else None),
            "trace_ref": self.trace_ref,
            "exclusion_reason": self.exclusion_reason,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScanRecord":
        return cls(
            domain=obj["domain"],
            rank=obj.get("rank"),
            address=obj.get("address"),
            started_at=obj.get("started_at"),
            finished_at=obj.get("finished_at"),
            eligibility=_eligibility_of(obj["eligibility"]),
            server_software=obj.get("server_software"),
            os_hint=obj.get("os_hint"),
            asn=obj.get("asn"),
            configuration=(Configuration.from_json(obj["configuration"])
                           if obj.get("configuration") else None),
            grade_report=(GradeReport.from_json(obj["grade_report"])
                          if obj.get("grade_report") else None),
            trace_ref=obj.get("trace_ref"),
            exclusion_reason=obj.get("exclusion_reason"),
        )


# -- target ingestion -----------------------------------------------------------

def load_targets(path) -> list[Target]:
    """Parse a ``rank,domain`` CSV. Order is preserved, duplicate domains are
    dropped with a warning, and malformed rows are skipped with their line
    number logged."""
    targets: list[Target] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                logger.warning("targets line %d: malformed row %r, skipped",
                               lineno, row)
                continue
            rank_text, domain = row[0].strip(), row[1].strip()
            if rank_text.lower() == "rank" and domain.lower() == "domain":
                continue  # optional header
            if not domain:
                logger.warning("targets line %d: empty domain, skipped", lineno)
                continue
            try:
                rank = int(rank_text) if rank_text else None
            except ValueError:
                logger.warning("targets line %d: bad rank %r, skipped",
                               lineno, rank_text)
                continue
            if domain in seen:
                logger.warning("targets line %d: duplicate domain %s, dropped",
                               lineno, domain)
                continue
            seen.add(domain)
            targets.append(Target(rank=rank, domain=domain))
    return targets


# -- Server-header parsing ------------------------------------------------------

KNOWN_SERVER_PRODUCTS = (
    "apache", "nginx", "microsoft-iis", "litespeed", "openresty",
    "cloudflare", "cpanel", "bigip", "cloudfront", "varnish", "ats",
    "awselb", "squarespace", "akamai", "ghs", "caddy",
)


def parse_server_header(value: Optional[str]) -> dict:
    """Split a Server header into product name, version, and OS hint.

    The first recognized product token wins; the OS hint comes from the
    first parenthetical comment, lowercased.
    """
    result: dict = {"name": None, "version": None, "os_hint": None}
    if not value:
        return result
    rest = value.strip()
    # Pull out parenthetical comments before tokenizing.
    tokens: list[str] = []
    while rest:
        if rest.startswith("("):
            end = rest.find(")")
            if end < 0:
                break
            comment = rest[1:end].strip()
            if comment and result["os_hint"] is None:
                result["os_hint"] = comment.split(";")[0].strip().lower() or None
            rest = rest[end + 1:].lstrip()
            continue
        token, _, rest = rest.partition(" ")
        rest = rest.lstrip()
        if token:
            tokens.append(token)
    for token in tokens:
        name, _, version = token.partition("/")
        if name.lower() in KNOWN_SERVER_PRODUCTS and result["name"] is None:
            result["name"] = name.lower()
            result["version"] = version or None
    return result


# -- ASN annotation -------------------------------------------------------------

_ADDRESS_BITS = {4: 32, 6: 128}


class AsnTable:
    """Longest-prefix-match index of an ASN table.

    One dict per (IP version, prefix length) maps each network address, as
    an integer, to its ``(asn, name)``. A lookup probes the lengths present,
    longest first: at most 33 dicts for IPv4 and 129 for IPv6. Iterating
    yields ``(network, asn, name)`` rows.
    """

    def __init__(self):
        # (version, prefix length) -> {network: (asn, name)}
        self._buckets: dict[tuple[int, int], dict[int, tuple[int, str]]] = {}
        # version -> [(prefix length, network mask, bucket)], longest first
        self._levels: dict[int, list[tuple[int, int, dict]]] = {4: [], 6: []}

    def add(self, version: int, network: int, prefixlen: int, asn: int,
            name: str) -> None:
        """Index one row: ``network`` is the prefix's address as an integer,
        with no host bits set. A prefix already present keeps its earlier
        row."""
        key = (version, prefixlen)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
            width = _ADDRESS_BITS[version]
            mask = (1 << width) - (1 << (width - prefixlen))
            levels = self._levels[version]
            levels.append((prefixlen, mask, bucket))
            levels.sort(key=lambda level: level[0], reverse=True)
        bucket.setdefault(network, (asn, name))

    def lookup(self, ip: ipaddress._BaseAddress) -> Optional[tuple[int, str]]:
        value = int(ip)
        for _plen, mask, bucket in self._levels[ip.version]:
            hit = bucket.get(value & mask)
            if hit is not None:
                return hit
        return None

    def __iter__(self):
        for version, levels in self._levels.items():
            network_type = (ipaddress.IPv4Network if version == 4
                            else ipaddress.IPv6Network)
            for plen, _mask, bucket in levels:
                for address, (asn, name) in bucket.items():
                    yield network_type((address, plen)), asn, name


def parse_prefix(text: str) -> tuple[int, int, int]:
    """``(IP version, network as an integer, prefix length)`` of a prefix,
    accepting exactly what ``ipaddress.ip_network(text)`` accepts.

    The common ``address/length`` form, with a length of at most three
    ASCII digits and no host bits set, is read with ``socket.inet_pton``.
    Anything else, errors included, goes through ``ipaddress.ip_network``,
    so its ValueError is the one raised.
    """
    address, slash, length = text.partition("/")
    if slash and len(length) <= 3 and length.isascii() and length.isdigit():
        version, family = ((6, socket.AF_INET6) if ":" in address
                           else (4, socket.AF_INET))
        prefixlen, width = int(length), _ADDRESS_BITS[version]
        try:
            network = int.from_bytes(socket.inet_pton(family, address), "big")
        except (OSError, ValueError):
            pass  # not an address inet_pton reads: ipaddress decides below
        else:
            if (prefixlen <= width
                    and not network & ((1 << (width - prefixlen)) - 1)):
                return version, network, prefixlen
    parsed = ipaddress.ip_network(text)
    return parsed.version, int(parsed.network_address), parsed.prefixlen


def load_asn_table(path) -> AsnTable:
    """Load a ``prefix,asn,as_name`` CSV into an ``AsnTable``. Malformed rows
    and prefixes with host bits set are skipped with a warning."""
    table = AsnTable()
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().lower() == "prefix":
                continue
            if len(row) < 3:
                logger.warning("asn table line %d: malformed row %r, skipped",
                               lineno, row)
                continue
            try:
                version, network, prefixlen = parse_prefix(row[0].strip())
                asn = int(row[1])
            except ValueError as exc:
                logger.warning("asn table line %d: %s, skipped", lineno, exc)
                continue
            table.add(version, network, prefixlen, asn, row[2].strip())
    return table


def annotate_asn(address: str, table: AsnTable) -> Optional[dict]:
    """Longest-prefix match of ``address`` over a loaded ASN table."""
    try:
        ip = ipaddress.ip_address(address)
    except ValueError:
        return None
    hit = table.lookup(ip)
    if hit is None:
        return None
    return {"number": hit[0], "name": hit[1]}


# -- scan driver ----------------------------------------------------------------

def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _resolve(host: str) -> Optional[str]:
    try:
        infos = socket.getaddrinfo(host, None, proto=socket.IPPROTO_TCP)
    except OSError:
        return None
    for family in (socket.AF_INET, socket.AF_INET6):
        for info in infos:
            if info[0] == family:
                return info[4][0]
    return None


def _is_loopback(address: str) -> bool:
    try:
        return ipaddress.ip_address(address).is_loopback
    except ValueError:
        return False


def _recorded_domains(out: Path) -> set[str]:
    """Domains already recorded in ``out``. A final line without its newline
    is a record torn by a crash mid-write; it is cut off, so that target is
    scanned again."""
    done: set[str] = set()
    if not out.exists():
        return done
    with open(out, "r+b") as fh:
        end = 0
        for line in fh:
            if not line.endswith(b"\n"):
                logger.warning("%s: torn final record cut off", out)
                fh.truncate(end)
                break
            end += len(line)
            if line.strip():
                done.add(json.loads(line)["domain"])
    return done


@dataclass
class ScanOptions:
    allow_non_loopback: bool = False
    trace_dir: Optional[str] = None
    asn_table: Optional[AsnTable] = None


def scan_one(prober: SiteProber, db: CipherDb, target: Target,
             options: ScanOptions) -> ScanRecord:
    started = _now()
    host, port = target.host_port
    address = _resolve(host)
    if address is None:
        return ScanRecord(domain=target.domain, rank=target.rank,
                          eligibility=Eligibility.EXCLUDED,
                          exclusion_reason="DNS",
                          started_at=started, finished_at=_now())
    if not _is_loopback(address) and not options.allow_non_loopback:
        raise PipelineError(
            f"{target.domain} resolves to non-loopback {address}; "
            "pass --i-understand-scanning-ethics to scan real hosts")

    config, trace = prober.probe_site(f"{address}:{port}", sni_name=host)
    finished = _now()
    trace_ref = None
    if options.trace_dir:
        trace_dir = Path(options.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{target.domain.replace(':', '_')}.trace.json"
        trace_path.write_text(json.dumps(trace.to_json(), indent=1),
                              encoding="utf-8")
        trace_ref = str(trace_path)

    asn = (annotate_asn(address, options.asn_table)
           if options.asn_table is not None else None)
    if config is None:
        return ScanRecord(domain=target.domain, rank=target.rank,
                          address=address,
                          eligibility=Eligibility.EXCLUDED,
                          exclusion_reason=trace.exclusion_reason or "PROBE",
                          asn=asn, trace_ref=trace_ref,
                          started_at=started, finished_at=finished)

    software = parse_server_header(trace.server_header)
    report = grade(config, db)
    return ScanRecord(
        domain=target.domain, rank=target.rank, address=address,
        eligibility=Eligibility.GRADED,
        server_software=({"name": software["name"],
                          "version": software["version"]}
                         if software["name"] else None),
        os_hint=software["os_hint"],
        asn=asn,
        configuration=config,
        grade_report=report,
        trace_ref=trace_ref,
        started_at=started, finished_at=finished,
    )


def run_scan(targets: Iterable[Target], policy: ProbePolicy, db: CipherDb,
             out_path, options: Optional[ScanOptions] = None) -> list[ScanRecord]:
    """Scan every target, appending one JSON line per record to ``out_path``.

    Records are flushed as they complete. Domains already recorded in
    ``out_path`` are skipped, so a rerun of an interrupted scan resumes where
    it left off and writes each record exactly once.
    """
    options = options or ScanOptions()
    prober = SiteProber(db, policy)
    records: list[ScanRecord] = []

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    done = _recorded_domains(out)
    with open(out, "a", encoding="utf-8") as sink:
        for target in targets:
            if target.domain in done:
                logger.info("%s: already recorded, skipped", target.domain)
                continue
            record = scan_one(prober, db, target, options)
            sink.write(json.dumps(record.to_json()) + "\n")
            sink.flush()
            records.append(record)
    return records


def load_records(path) -> list[ScanRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(ScanRecord.from_json(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise PipelineError(f"{path}:{lineno}: bad record: {exc}")
    return records
