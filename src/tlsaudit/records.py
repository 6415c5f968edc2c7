"""Scan records and the files they live in: the record format, its reader,
and the one opener of every input and output file.

A scan writes one JSON line per target (``ScanRecord.to_json``);
``iter_records`` reads such a file back, one record at a time, and
``recorded_domains`` reads the domains a resumed scan skips. Every input
file is opened through ``open_input`` and every output but the scan's own
through ``open_output``, so a file that cannot be read or written is one
``PipelineError``. The offline commands, ``report`` among them, need only
this module, not the prober.
"""

from __future__ import annotations

import ipaddress
import logging
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional

from .configuration import Configuration
from .grading import GradeReport
from .registry import (
    INT, NULL, OBJECT, STR, Fields, SharedLayout, check_fields, enum_decoder,
    parse_json, text_decoder,
)

logger = logging.getLogger(__name__)

# A version-1 record's configuration also held two flag objects, which
# followed from its suites. ``ScanRecord.from_json`` reads both versions:
# ``Configuration.from_json`` ignores the flags, so a record grades as its
# suites imply.
RECORD_SCHEMA_VERSION = 2
_SCHEMA_VERSIONS = (1, RECORD_SCHEMA_VERSION)


class PipelineError(ValueError):
    """Bad input: a file that cannot be read, or a malformed line in one."""


@contextmanager
def open_input(path, what: str, mode: str = "r", newline: Optional[str] = None):
    """Open an input file as UTF-8 text, or as bytes in a binary ``mode``.
    An ``OSError`` or ``UnicodeDecodeError`` from opening or reading it is a
    ``PipelineError`` ``cannot read <what>: <reason>``. A per-line ``try``
    must not wrap the ``for`` over the file: a decode error is a ValueError."""
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(path, mode, encoding=encoding, newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read {what}: {exc}") from exc


def input_lines(path, what: str) -> Iterator[tuple[int, str]]:
    """``(number, line)`` of each line of an input file that is not blank,
    read through ``open_input``. The caller's loop body runs outside the
    input's block, so its own errors, a write's among them, pass as they
    are."""
    with open_input(path, what) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


@contextmanager
def open_output(path, what: str):
    """Open an output file as UTF-8 text, or stdout when ``path`` is None.
    The file is written as ``<real path>.<pid>.tmp``, which replaces
    ``path`` once the block ends without an error and is removed on one, so
    ``path`` stays as it was. A path that exists but is not a regular file
    (``/dev/stdout``, a pipe) is written in place. Such a ``.tmp`` that a
    killed run left, one whose pid no longer runs, is removed first. An
    ``OSError`` from creating, writing or replacing the file is a
    ``PipelineError`` ``cannot write <what>: <reason>`` naming ``path``."""
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
            return
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                yield fh
            return
        real = os.path.realpath(path)
        directory, name = os.path.split(real)
        with suppress(OSError):
            for entry in os.listdir(directory):
                pid = entry[len(name) + 1:-4]
                if (entry == f"{name}.{pid}.tmp" and pid.isdecimal()
                        and not _runs(int(pid))):
                    os.remove(os.path.join(directory, entry))
        tmp = f"{real}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
            os.replace(tmp, real)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(tmp)
            raise
    except OSError as exc:
        if path is None:  # so that the interpreter's flush at exit succeeds
            with suppress(OSError, ValueError):
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise cannot_write(exc, what, path) from exc


def make_directory(directory, what: str, path=None) -> None:
    """Create ``directory`` and any missing parents. An ``OSError`` is a
    ``PipelineError`` ``cannot write <what>: <reason>`` naming ``path``, the
    output the directory is made for, or else ``directory``."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise cannot_write(exc, what, path or directory) from exc


def cannot_write(exc: OSError, what: str, path) -> PipelineError:
    """``cannot write <what>: <reason>``, the reason naming the given
    ``path``, not a file made from it (the ``.tmp``, a parent directory)."""
    if path is not None and exc.filename is not None:
        exc = OSError(exc.errno, exc.strerror, str(path))
    return PipelineError(f"cannot write {what}: {exc}")


def _runs(pid: int) -> bool:
    """Whether a process ``pid`` runs, ours or not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # another user's, or past any pid
        pass
    return True


class Eligibility(Enum):
    GRADED = "GRADED"
    EXCLUDED = "EXCLUDED"


_eligibility_of = enum_decoder(Eligibility)
_DOMAIN = ("domain", STR, "a string")
_SCHEMA = ("schema_version", INT, "1 or 2")
# the eligibility's type is checked by its decoder, the configuration's and
# the grade report's by theirs, unless ``SharedLayout`` has decoded them
_RECORD_FIELDS = Fields(
    _DOMAIN, _SCHEMA, ("rank", INT | NULL, "an integer or null"),
    ("server_software", OBJECT | NULL, "an object or null"),
    ("asn", OBJECT | NULL, "an object or null"),
    ("configuration", OBJECT | NULL | {Configuration}, "an object or null"),
    ("grade_report", OBJECT | NULL | {GradeReport}, "an object or null"),
    *((name, STR | NULL, "a string or null") for name in (
        "address", "started_at", "finished_at", "os_hint", "trace_ref",
        "exclusion_reason")),
    required=("domain", "eligibility"),
)
_ASN_FIELDS = Fields(("number", INT, "an integer"), ("name", STR, "a string"),
                     required=("number",))
_DOMAIN_FIELDS = Fields(_DOMAIN, required=("domain",))


def split_target(target: str) -> tuple[str, int]:
    """``(host, port)`` of a target: ``host``, ``host:port``, ``[v6]``,
    ``[v6]:port`` or a bare IPv6 address; the package's one target parser.
    A port not given is 443. An unbracketed target with two colons or more
    is an IPv6 address and is never split, and one whose port is not digits
    (``localhost:https``) is all host."""
    if target[:1] == "[":
        host, bracket, rest = target[1:].partition("]")
        if host and bracket and (not rest or rest[:1] == ":"
                                 and rest[1:].isdecimal()):
            return host, int(rest[1:] or 443)
        return target, 443
    host, _, port = target.rpartition(":")
    if host and ":" not in host and port.isdecimal():
        return host, int(port)
    return target, 443


def is_ip_literal(host: str) -> bool:
    """Whether ``host`` (as ``split_target`` gives it) is an IPv4 or IPv6
    address rather than a name. An IPv4 literal ends in a digit and an IPv6
    one holds a colon, so most names skip the parse and its exceptions."""
    if ":" not in host and not host[-1:].isdigit():
        return False
    try:
        ipaddress.ip_address(host)
    except ValueError:
        return False
    return True


@dataclass(slots=True)
class ScanRecord:
    """One target's line of a scan's JSONL output.

    Records that ``iter_records`` reads from one file in the writer's layout
    share their ``configuration`` when its JSON text is equal, and their
    ``grade_report`` likewise, so a corpus holds one object per distinct
    text (unless its texts rarely repeat: see ``registry.SharedDecoder``).
    Neither object may be mutated: a change would show in every record
    sharing it. Like ``Configuration`` and ``GradeReport``, a record is
    slotted: it has no ``__dict__`` for ``vars()`` to read, and takes no
    attribute but its fields.
    """

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
        graded = self.eligibility is Eligibility.GRADED
        for name, value in (("configuration", self.configuration),
                            ("grade_report", self.grade_report)):
            if (value is not None) is not graded:
                raise PipelineError(f"{self.eligibility.value} records "
                                    f"{'need a' if graded else 'carry no'} {name}")

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
        """Read ``to_json`` output back, of either schema version; a record
        without a ``schema_version`` is read as the current one. ``obj`` may
        hold its configuration and grade report decoded already, as
        ``registry.SharedLayout`` gives them."""
        check_fields(obj, _RECORD_FIELDS)
        get = obj.get
        version = get("schema_version", RECORD_SCHEMA_VERSION)
        if version not in _SCHEMA_VERSIONS:  # an int, by its _SCHEMA row
            raise ValueError(f"schema_version must be 1 or 2, not {version!r}")
        asn = get("asn")
        if asn is not None:
            check_fields(asn, _ASN_FIELDS, "asn.")
        return cls(obj["domain"], _eligibility_of(obj["eligibility"]),
                   get("rank"), get("address"), get("started_at"),
                   get("finished_at"), get("server_software"), get("os_hint"),
                   asn,
                   _decoded(Configuration.from_json, get("configuration")),
                   _decoded(GradeReport.from_json, get("grade_report")),
                   get("trace_ref"), get("exclusion_reason"))


def _decoded(decode, value):
    """``decode(value)`` for a JSON object; None or a decoded one as it is."""
    return decode(value) if type(value) is dict else value


def recorded_domains(out: Path) -> set[str]:
    """Domains already recorded in ``out``. A final line without its newline
    is a record torn by a crash mid-write; it is cut off, so that target is
    scanned again. A complete line that is not a JSON object with a string
    ``"domain"`` is a ``PipelineError``, raised before ``out`` is changed."""
    done: set[str] = set()
    if not os.path.exists(out):  # also for a name too long to exist
        return done
    with open_input(out, "scan output", "r+b") as fh:
        end = 0
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                logger.warning("%s: torn final record cut off", out)
                fh.truncate(end)
                break
            end += len(line)
            if not line.strip():
                continue
            try:
                domain = check_fields(parse_json(line),
                                      _DOMAIN_FIELDS)["domain"]
            except (ValueError, KeyError, TypeError) as exc:
                raise PipelineError(f"{out}:{lineno}: bad record: {exc}") from None
            done.add(domain)
    return done


def iter_records(path) -> Iterator[ScanRecord]:
    """The records of a scan JSONL file, one at a time in file order. A
    corpus backs many thousand records with a few hundred distinct
    configurations and grade reports, so in a line laid out as ``run_scan``
    writes it, each is found by its JSON text, decoded once per distinct
    text and shared (see ``ScanRecord``), and only the rest of the line is
    parsed (``registry.SharedLayout`` says when). Any other line is parsed
    whole, to the same record, whose objects are its own. A file that
    cannot be read, is not UTF-8 or holds a malformed line raises
    ``PipelineError`` when the stream reaches the fault, which may be after
    many records have passed."""
    parse = SharedLayout(
        (("configuration", text_decoder(Configuration.from_json)),
         ("grade_report", text_decoder(GradeReport.from_json))), "trace_ref")
    for lineno, line in input_lines(path, "records"):
        try:
            record = ScanRecord.from_json(parse(line.strip()))
        except (ValueError, KeyError, TypeError) as exc:
            raise PipelineError(f"{path}:{lineno}: bad record: {exc}")
        yield record

