"""``report`` as one pass over a record stream: pinned output bytes, any
iterable in, all-or-nothing output, and memory that does not grow with the
number of records.

The pinned digests are those of the outputs written when every kind still
loaded the whole file into a list, so a fold that reads each record once
must give the same bytes. The corpus holds what the folds treat specially:
excluded records, records without an ASN, IP-literal domains, and one ASN
under two names.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import random_configuration, reassemble
from tlsaudit import cli, fixtures, pipeline
from tlsaudit import report as report_mod
from tlsaudit.grading import grade

KINDS = ("dist", "cdf-asn", "cdf-config", "downgrades", "dominance", "records")
FORMATS = ("csv", "json")

_DOMAINS = ("10.0.0.{i}", "[2001:db8::{i:x}]:443", "127.0.0.1:{port}",
            "Site{i}.Example.COM.", "host{i}.test:8443")


def corpus_lines(db, seed: int, n: int, pool_size: int = 8):
    """``n`` scan-record dicts over ``pool_size`` random configurations, the
    stock defaults and one A-grade configuration: every tenth record
    excluded, every sixth graded one without an ASN, every seventh on an IP
    literal, and AS 64501 renamed halfway through."""
    rng = random.Random(seed)
    defaults = [config for _label, config, _profile
                in fixtures.ubuntu_default_configurations(db)]
    configs = ([random_configuration(rng, db) for _ in range(pool_size)]
               + defaults + [reassemble(db, defaults[2],
                                        suites=[0xC02F, 0xCCA8])])
    pool = [(config.to_json(), grade(config, db).to_json())
            for config in configs]
    for i in range(n):
        line = {"schema_version": 1, "domain": f"site{i}.example.org",
                "rank": None if i % 11 == 5 else i + 1,
                "address": "127.0.0.1", "started_at": None,
                "finished_at": None, "eligibility": "EXCLUDED",
                "server_software": None, "os_hint": None, "asn": None,
                "configuration": None, "grade_report": None,
                "trace_ref": None, "exclusion_reason": "DNS"}
        if i % 10 != 9:
            config, report = rng.choice(pool)
            line.update(eligibility="GRADED", configuration=config,
                        grade_report=report, exclusion_reason=None,
                        server_software=rng.choice(
                            [None, {"name": "nginx", "version": "1.4.6"},
                             {"name": "Apache", "version": None}]),
                        os_hint=rng.choice([None, "Ubuntu", "Debian"]))
            if i % 7 == 3:
                line["domain"] = rng.choice(_DOMAINS).format(
                    i=i % 250, port=1024 + i)
            if i % 6 != 1:
                number = 64500 + rng.randint(0, 5)
                name = f"AS-{number}"
                if number == 64501 and i >= n // 2:
                    name = "AS-64501-RENAMED"
                line["asn"] = {"number": number, "name": name}
        yield line


def write_corpus(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")


@pytest.fixture(scope="module")
def corpora(db, tmp_path_factory):
    """The pinned corpus, and a file with no graded record in it."""
    d = tmp_path_factory.mktemp("stream")
    mixed, ungraded = d / "mixed.jsonl", d / "ungraded.jsonl"
    write_corpus(mixed, corpus_lines(db, 0x5EED, 240))
    write_corpus(ungraded, (line for line in corpus_lines(db, 3, 60)
                            if line["eligibility"] == "EXCLUDED"))
    with open(ungraded, "a", encoding="utf-8") as fh:
        fh.write("\n")
    return {"mixed": mixed, "ungraded": ungraded}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# (corpus, kind, format) -> SHA-256 of the output
_PINNED = {
    ("mixed", "dist", "csv"):
        "e4b530a90e3bd715bff846d59e77b7d89166d1d8e2c1806e773b27fd943c5383",
    ("mixed", "dist", "json"):
        "f38136bef85404177d955024af343d2da5bc0dabed2661c293c0f7f6e9337a58",
    ("mixed", "cdf-asn", "csv"):
        "ba7c5ee7f5dd1e74e319c688aa700666ea275cbbb61b704559d8a385bfc4751a",
    ("mixed", "cdf-asn", "json"):
        "b58d33dc38c0ef9e2cb0bd72e16bb4d259b4c681c8d205f2293222ecb79da038",
    ("mixed", "cdf-config", "csv"):
        "561ba5bd018d4f11085c9565d34ebeaa4fe9a7f928d3cc56d1cbb15a05206931",
    ("mixed", "cdf-config", "json"):
        "7e562a8a0f9d7f3d7c76118c4e35700739199fb47d43915191995e4f4730c8a3",
    ("mixed", "downgrades", "csv"):
        "d8df32261dc23d1d8cd62630d11d59a9bbba762beb152aaafa736f359be3033b",
    ("mixed", "downgrades", "json"):
        "c49e20db701d59154b73685930d0f483c70b5c304310ae01602414e38b9a09d8",
    ("mixed", "dominance", "csv"):
        "7bc67a11dcf7e6c0c2b56d2efc2f2dd555c2eb057d252901b74c66d1df4eae58",
    ("mixed", "dominance", "json"):
        "8f592978fecde78daff581b9c8722feaceb518d01fc771ffd05b97a534bd85b1",
    ("mixed", "records", "csv"):
        "b20e5ba058352edd5860d76d9880d1437f0f76b0df5178030e877db21abad70c",
    ("mixed", "records", "json"):
        "bba9cf496d0f77cf4868ecd41f4a2a752a34beeea8430ef19ea2dbc98a855b85",
    ("ungraded", "dist", "csv"):
        "9e3ef34d2119bd8ad2ca749a01c8653c8f8d2a4d0276845bd93492341ee7a233",
    ("ungraded", "dist", "json"):
        "f3ae49cb4f8b734b2c7a4146d5b33761c72de6541b6fda10e95c2449c0aff687",
    ("ungraded", "cdf-asn", "csv"):
        "a2fdc90a58a38887d5b32ca1b24c27d51413c1985c96602cf524aa78a024d197",
    ("ungraded", "cdf-asn", "json"):
        "871355b2696414630f46a8c64212cfbb42694461c5a51dcad65dd096b8724a3c",
    ("ungraded", "cdf-config", "csv"):
        "a2fdc90a58a38887d5b32ca1b24c27d51413c1985c96602cf524aa78a024d197",
    ("ungraded", "cdf-config", "json"):
        "871355b2696414630f46a8c64212cfbb42694461c5a51dcad65dd096b8724a3c",
    ("ungraded", "downgrades", "csv"):
        "b9d189528c746abfa26b15a7eb7763623ad5f31acf00a4daafe33477b8ccb6a0",
    ("ungraded", "downgrades", "json"):
        "b7a6772579e7c8e876724c3cb0b19eaca5282fded88de67ba82380d40bc0c546",
    ("ungraded", "dominance", "csv"):
        "9d6b84f7c11d885e2367537d3fcc39027b56f6957b57c8fe95521448267ac9ec",
    ("ungraded", "dominance", "json"):
        "0eef13b2754ce544a2f07b608d2ed7160517aa1f74ef92f6ef35164ed3df9765",
    ("ungraded", "records", "csv"):
        "2159cf65c00c63cc23e9ad61243628aec8379b7c3b989ae6ac6f79b5392aba1d",
    ("ungraded", "records", "json"):
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}


def test_corpus_is_pinned(corpora):
    assert {name: _sha256(path) for name, path in corpora.items()} == {
        "mixed": "03d4ac145c02d8e4912209df0ba0a99c54652fcf314072dc18676e8fc6f82d79",
        "ungraded": "d85fe56b33f9f89bf10da38d72ee9bb9810e6eace2a9ba1cc26f84d0149ccf65"}


@pytest.mark.parametrize("which", KINDS)
def test_report_output_is_pinned(corpora, tmp_path, which):
    got = {}
    for name, path in corpora.items():
        for fmt in FORMATS:
            out = tmp_path / f"{name}-{which}.{fmt}"
            assert cli.main(["report", "--records", str(path), "--which",
                             which, "--format", fmt, "--out", str(out)]) == 0
            got[name, fmt] = _sha256(out)
    assert got == {(name, fmt): digest
                   for (name, kind, fmt), digest in _PINNED.items()
                   if kind == which}


@pytest.mark.parametrize("which", KINDS)
def test_a_list_and_a_generator_give_the_same_bytes(corpora, tmp_path, which):
    records = pipeline.load_records(corpora["mixed"])
    for fmt in FORMATS:
        outputs = []
        for n, source in enumerate((records, (r for r in records))):
            out = tmp_path / f"{n}.{fmt}"
            report_mod.emit(which, report_mod.build(source, which), fmt, out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# -- all-or-nothing output ------------------------------------------------------

@pytest.fixture(scope="module")
def late_faults(db, tmp_path_factory):
    """Two files whose fault comes after many valid records: a malformed
    last line, and a byte that is not UTF-8 past the first read buffers.
    Each maps to the first line of the error ``report`` must print."""
    d = tmp_path_factory.mktemp("faults")
    valid = [json.dumps(line) + "\n" for line in corpus_lines(db, 11, 120)]
    head = "".join(valid).encode("utf-8")
    assert len(head) > 8 * io.DEFAULT_BUFFER_SIZE
    bad_line, bad_byte = d / "bad-line.jsonl", d / "bad-byte.jsonl"
    bad_line.write_bytes(head + b'{"domain": "late.test"\n')
    bad_byte.write_bytes(head + b'{"domain": "caf\xe9.test"}\n')
    return {
        "malformed-last-line": (
            bad_line, f"error: {bad_line}:{len(valid) + 1}: bad record: "),
        "non-utf-8-byte": (
            bad_byte, "error: cannot read records: 'utf-8' codec can't "
                      "decode byte 0xe9"),
    }


@pytest.mark.parametrize("fault", ["malformed-last-line", "non-utf-8-byte"])
@pytest.mark.parametrize("which", KINDS)
def test_a_late_fault_leaves_no_output(late_faults, tmp_path, capsys, which,
                                       fault):
    path, prefix = late_faults[fault]
    for fmt in FORMATS:
        for before in (None, b"an earlier report\n"):
            out = tmp_path / f"{which}.{fmt}"
            if before is not None:
                out.write_bytes(before)
            listing = sorted(tmp_path.iterdir())
            assert cli.main(["report", "--records", str(path), "--which",
                             which, "--format", fmt, "--out", str(out)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(prefix)
            assert sorted(tmp_path.iterdir()) == listing
            if before is None:
                assert not out.exists()
            else:
                assert out.read_bytes() == before


def test_a_report_over_a_non_regular_file_is_written_in_place(corpora,
                                                              tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader opened without blocking lets the report open the FIFO; had
    # the report replaced it, the read would find no writer and no bytes
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(["report", "--records", str(corpora["mixed"]),
                         "--which", "dist", "--out", str(fifo)]) == 0
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert written.startswith(b"grade,count,proportion\n")
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


_CHILD = "import sys; from tlsaudit import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_a_stale_temporary_file_is_removed(corpora, tmp_path):
    """A ``report`` killed before its rename leaves ``<out>.<pid>.tmp``.
    The next ``report`` to that ``--out`` removes such a file once its pid
    no longer runs, here a child that has exited, and leaves alone the file
    of a pid that runs, here this test's. The report runs in a child, whose
    own temporary file has another name."""
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait()
    out = tmp_path / "dist.csv"
    stale, live, other = (tmp_path / f"dist.csv.{tag}.tmp" for tag in (
        exited.pid, os.getpid(), "x1"))
    for path in (stale, live, other):
        path.write_text("partial")
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", _CHILD, "report", "--records",
                    str(corpora["mixed"]), "--which", "dist", "--out",
                    str(out)], env=dict(os.environ, PYTHONPATH=str(src)),
                   check=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [out.name, live.name, other.name])
    assert out.read_text().startswith("grade,count,proportion\n")


# -- flat memory ----------------------------------------------------------------

_SMALL = 400


@pytest.mark.parametrize("which", ["records", "dominance"])
def test_memory_does_not_grow_with_the_records(db, tmp_path, which):
    """The traced peak of a fold and its emission over ten times the
    records stays within 1.2 times the peak over the smaller file."""
    peaks = []
    for n in (_SMALL, 10 * _SMALL):
        path = tmp_path / f"{n}.jsonl"
        write_corpus(path, corpus_lines(db, 7, n))
        tracemalloc.start()
        try:
            report_mod.emit(which, report_mod.build(
                pipeline.iter_records(path), which), "json",
                tmp_path / f"{n}.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks
