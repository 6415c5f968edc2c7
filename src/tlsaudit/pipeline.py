"""Batch scan pipeline: target ingestion, annotation, and the scan loop.

Drives the single-site prober across an ordered target list, annotates each
result with server software, OS hint, and ASN, and appends one self-contained
JSON line per target (a ``records.ScanRecord``) to the output sink. The sink
is its own checkpoint: a rerun skips the domains it already holds, so an
interrupted scan resumes where it left off.
"""

from __future__ import annotations

import csv
import datetime
import ipaddress
import json
import logging
import socket
import urllib.parse
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .grading import grade
from .orchestrator import ProbePolicy, SiteProber
from .records import (
    Eligibility, PipelineError, ScanRecord, cannot_write, is_ip_literal,
    iter_records, make_directory, open_input, recorded_domains, split_target,
)
from .registry import CipherDb, parse_json

logger = logging.getLogger(__name__)


class ScanRefused(PipelineError):
    """The ethics gate refused a target outside loopback."""


@dataclass(frozen=True)
class Target:
    rank: Optional[int]
    domain: str

    @property
    def host_port(self) -> tuple[str, int]:
        return split_target(self.domain)


# -- target ingestion -----------------------------------------------------------

def load_targets(path) -> list[Target]:
    """Parse a ``rank,domain`` CSV. Order is preserved, duplicate domains are
    dropped with a warning, and malformed rows are skipped with their line
    number logged."""
    targets: list[Target] = []
    seen: set[str] = set()
    with open_input(path, "targets", newline="") as fh:
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


def load_policy(path) -> ProbePolicy:
    """The ``ProbePolicy`` of a JSON policy file."""
    with open_input(path, "policy file") as fh:
        text = fh.read()
    try:
        return ProbePolicy.from_json(parse_json(text))
    except ValueError as exc:
        raise PipelineError(f"bad policy file: {exc}") from None


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
ASN_MAX = 0xFFFF_FFFF  # four-octet AS numbers (RFC 6793)
_ROW_MASK = 0xFFFF_FFFF  # a level key's low 32 bits hold its row number


class AsnTable:
    """Longest-prefix-match index of an ASN table, with no Python object per
    prefix. It is built once from its rows and then only read, so threads
    may share it without a lock.

    Row ``n`` is ``(_asns[n], _names[_name_ends[n - 1]:_name_ends[n]])``:
    ASNs in one array of 32-bit unsigned ints, AS names in one UTF-8 blob.
    Each (IP version, prefix length) level holds one sorted array of
    ``prefix bits << 32 | row``, so a repeated prefix's earliest row comes
    first; a level whose keys do not fit 64 bits (IPv6 longer than /32)
    holds them in a list. A lookup bisects the levels present, longest
    first: at most 33 for IPv4 and 129 for IPv6. Row numbers and name
    offsets take 32 bits: a table holds fewer than 2**32 rows and 4 GiB of
    names.
    """

    def __init__(self, rows: Iterable[tuple[int, int, int, int, str]]):
        """Index ``(IP version, network, prefix length, asn, name)`` rows:
        ``network`` is the prefix's address as an integer, with no host bits
        set, and ``asn`` is in 0..ASN_MAX."""
        self._asns = array("I")
        self._names = bytearray()
        self._name_ends = array("I")
        # version -> {prefix length: level keys, in row order}
        unsorted: dict[int, dict[int, array | list]] = {4: {}, 6: {}}
        for row, (version, network, prefixlen, asn, name) in enumerate(rows):
            self._asns.append(asn)
            self._names += name.encode()
            self._name_ends.append(len(self._names))
            by_length = unsorted[version]
            keys = by_length.get(prefixlen)
            if keys is None:
                keys = by_length[prefixlen] = array("Q") if prefixlen <= 32 else []
            keys.append(network >> (_ADDRESS_BITS[version] - prefixlen) << 32 | row)
        # version -> [(host bits, sorted keys)], longest prefix first; a
        # level leaves ``unsorted`` as it is sorted, so at most one is held twice
        self._levels: dict[int, list[tuple[int, array | list]]] = {4: [], 6: []}
        for version, by_length in unsorted.items():
            for prefixlen in sorted(by_length, reverse=True):
                keys = by_length.pop(prefixlen)
                if isinstance(keys, list):
                    keys.sort()
                else:
                    keys = array("Q", sorted(keys))
                self._levels[version].append(
                    (_ADDRESS_BITS[version] - prefixlen, keys))

    def _row(self, row: int) -> tuple[int, str]:
        start = self._name_ends[row - 1] if row else 0
        return (self._asns[row],
                self._names[start:self._name_ends[row]].decode())

    def lookup(self, ip: ipaddress._BaseAddress) -> Optional[tuple[int, str]]:
        value = int(ip)
        for host_bits, keys in self._levels[ip.version]:
            prefix = value >> host_bits
            i = bisect_left(keys, prefix << 32)
            if i < len(keys) and keys[i] >> 32 == prefix:
                return self._row(keys[i] & _ROW_MASK)
        return None


_INET4 = (4, socket.AF_INET, 32)
_INET6 = (6, socket.AF_INET6, 128)
# every string of one to three ASCII digits -> its value
_PREFIX_LENGTHS = {f"{n:0{width}d}": n
                   for width in (1, 2, 3) for n in range(10 ** width)}
# bound once: parse_prefix runs once per row of a table
_inet_pton = socket.inet_pton
_from_bytes = int.from_bytes


def parse_prefix(text: str) -> tuple[int, int, int]:
    """``(IP version, network as an integer, prefix length)`` of a prefix,
    accepting exactly what ``ipaddress.ip_network(text)`` accepts.

    The common ``address/length`` form, with a length of at most three
    ASCII digits and no host bits set, is read with ``socket.inet_pton``.
    Anything else, errors included, goes through ``ipaddress.ip_network``,
    so its ValueError is the one raised.
    """
    address, _, length = text.partition("/")
    prefixlen = _PREFIX_LENGTHS.get(length)  # None without a slash
    if prefixlen is not None:
        version, family, width = _INET6 if ":" in address else _INET4
        try:
            network = _from_bytes(_inet_pton(family, address), "big")
        except (OSError, ValueError):
            pass  # not an address inet_pton reads: ipaddress decides below
        else:
            if (prefixlen <= width
                    and not network & ((1 << (width - prefixlen)) - 1)):
                return version, network, prefixlen
    parsed = ipaddress.ip_network(text)
    return parsed.version, int(parsed.network_address), parsed.prefixlen


def load_asn_table(path) -> AsnTable:
    """Load a UTF-8 ``prefix,asn,as_name`` CSV into an ``AsnTable``.
    Malformed rows, prefixes with host bits set and ASNs outside
    0..ASN_MAX are skipped with a warning."""
    def rows(fh):
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            prefix = row[0].strip()
            try:
                if len(row) < 3:
                    raise ValueError(f"malformed row {row!r}")
                version, network, prefixlen = parse_prefix(prefix)
                asn = int(row[1])
                if not 0 <= asn <= ASN_MAX:
                    raise ValueError(f"asn {asn} outside 0..{ASN_MAX}")
            except ValueError as exc:
                if prefix.lower() != "prefix":  # a header row is no error
                    logger.warning("asn table line %d: %s, skipped", lineno, exc)
                continue
            yield version, network, prefixlen, asn, row[2].strip()

    with open_input(path, "asn table", newline="") as fh:
        return AsnTable(rows(fh))


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
    except (OSError, UnicodeError):  # UnicodeError: a name with no IDNA form
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


def _refuse_outside_loopback(target: Target, address: Optional[str]) -> None:
    """The ethics gate: ``ScanRefused`` if ``target`` resolved to an address
    outside loopback. One that did not resolve passes; its scan records it
    EXCLUDED for DNS."""
    if address is not None and not _is_loopback(address):
        raise ScanRefused(
            f"{target.domain} resolves to non-loopback {address}; "
            "pass --i-understand-scanning-ethics to scan real hosts")


def _sni_name(host: str) -> str:
    """``host`` as the ClientHello's server_name: "" for an IP literal, which
    RFC 6066 does not allow there."""
    return "" if is_ip_literal(host) else host


@dataclass
class ScanOptions:
    allow_non_loopback: bool = False
    trace_dir: Optional[str] = None
    asn_table: Optional[AsnTable] = None


def scan_one(prober: SiteProber, db: CipherDb, target: Target,
             address: Optional[str], options: ScanOptions) -> ScanRecord:
    """The record of ``target``, probed at ``address``: what ``run_scan``
    resolved its host to, None if it did not resolve. It neither resolves
    nor gates, and writes its trace into an existing ``options.trace_dir``."""
    started = _now()
    if address is None:
        return ScanRecord(domain=target.domain, rank=target.rank,
                          eligibility=Eligibility.EXCLUDED,
                          exclusion_reason="DNS",
                          started_at=started, finished_at=_now())

    host, port = target.host_port
    config, trace = prober.probe_site((address, port), sni_name=_sni_name(host))
    finished = _now()
    trace_ref = None
    if options.trace_dir:
        # quoting is one-to-one, so no two targets share a trace file
        trace_path = (Path(options.trace_dir)
                      / f"{urllib.parse.quote(target.domain, safe='')}.trace.json")
        trace_path.write_text(json.dumps(trace.to_json()), encoding="utf-8")
        trace_ref = str(trace_path)

    asn = (annotate_asn(address, options.asn_table)
           if options.asn_table is not None else None)
    if config is None:
        return ScanRecord(domain=target.domain, rank=target.rank,
                          address=address,
                          eligibility=Eligibility.EXCLUDED,
                          exclusion_reason=trace.exclusion_reason,
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

    This is the ethics gate, and each target's host is resolved once. Unless
    ``options.allow_non_loopback`` is set, every target is resolved first,
    and one outside loopback refuses the whole list with ``ScanRefused``
    before ``out_path``, its directory or the trace directory is touched.
    With it set, each target is resolved as the scan reaches it. Either
    directory or ``out_path`` that cannot be made or opened is a
    ``PipelineError`` ``cannot write …``.

    Records are flushed as they complete. A domain already recorded in
    ``out_path``, or listed twice, is skipped, so each domain is recorded once
    and a rerun of an interrupted scan resumes where it left off.
    """
    options = options or ScanOptions()
    out = Path(out_path)
    # filled from ``out`` once the gate has passed; the generator reads it as
    # it runs, so an ungated scan does not resolve a recorded target
    done: set[str] = set()
    resolved = ((target, _resolve(target.host_port[0]))
                for target in targets if target.domain not in done)
    if not options.allow_non_loopback:
        resolved = list(resolved)
        for target, address in resolved:
            _refuse_outside_loopback(target, address)

    make_directory(out.parent, "scan output", out_path)
    done.update(recorded_domains(out))
    if options.trace_dir:
        make_directory(options.trace_dir, "traces")
    prober = SiteProber(db, policy)
    records: list[ScanRecord] = []
    try:
        sink = open(out, "a", encoding="utf-8")
    except OSError as exc:
        raise cannot_write(exc, "scan output", out_path) from exc
    with sink:
        for target, address in resolved:
            if target.domain in done:  # gated: resolved before ``done`` had it
                logger.info("%s: already recorded, skipped", target.domain)
                continue
            record = scan_one(prober, db, target, address, options)
            sink.write(json.dumps(record.to_json()) + "\n")
            sink.flush()
            done.add(target.domain)
            records.append(record)
    return records


def load_records(path) -> list[ScanRecord]:
    """Every record of a scan JSONL file, in a list: ``iter_records`` for a
    caller that reads the records more than once."""
    return list(iter_records(path))
