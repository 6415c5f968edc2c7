"""``report`` as one pass over a record stream: pinned output bytes, any
iterable in, and memory that does not grow with the number of records. The
pinned outputs of ``grade`` and ``check-rec``, whose memory does not grow
either. And the one writer of all three, ``records.open_output``: output
all or nothing, a stale temporary file removed, a closed stdout one error.

The pinned report digests are those of the outputs written when every kind
still loaded the whole file into a list, so a fold that reads each record
once must give the same bytes. The ``grade`` and ``check-rec`` digests are
those of the outputs written when each command still gathered its output in
a list and wrote it at the end. The corpus holds what the folds treat
specially: excluded records, records without an ASN, IP-literal domains,
and one ASN under two names.
"""

import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import random_configuration, reassemble, version_1_json
from tlsaudit import cli, fixtures, pipeline
from tlsaudit import report as report_mod
from tlsaudit.grading import grade
from tlsaudit.records import RECORD_SCHEMA_VERSION, iter_records, open_output
from tlsaudit.registry import SharedDecoder

KINDS = ("dist", "cdf-asn", "cdf-config", "downgrades", "dominance", "records")
FORMATS = ("csv", "json")

_DOMAINS = ("10.0.0.{i}", "[2001:db8::{i:x}]:443", "127.0.0.1:{port}",
            "Site{i}.Example.COM.", "host{i}.test:8443")


def corpus_lines(db, seed: int, n: int, pool_size: int = 8,
                 version: int = RECORD_SCHEMA_VERSION):
    """``n`` scan-record dicts over ``pool_size`` random configurations, the
    stock defaults and one A-grade configuration: every tenth record
    excluded, every sixth graded one without an ASN, every seventh on an IP
    literal, and AS 64501 renamed halfway through. They are written in
    record schema ``version``; in version 1 each configuration holds the
    flags its suites imply."""
    rng = random.Random(seed)
    defaults = [config for _label, config, _profile
                in fixtures.ubuntu_default_configurations(db)]
    configs = ([random_configuration(rng, db) for _ in range(pool_size)]
               + defaults + [reassemble(db, defaults[2],
                                        suites=[0xC02F, 0xCCA8])])
    pool = [(config.to_json() if version > 1 else version_1_json(db, config),
             grade(config, db).to_json()) for config in configs]
    for i in range(n):
        line = {"schema_version": version, "domain": f"site{i}.example.org",
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
    """The pinned corpus, and a version-1 file with no graded record in
    it."""
    d = tmp_path_factory.mktemp("stream")
    mixed, ungraded = d / "mixed.jsonl", d / "ungraded.jsonl"
    write_corpus(mixed, corpus_lines(db, 0x5EED, 240))
    write_corpus(ungraded, (line for line in corpus_lines(db, 3, 60, version=1)
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
        "24c177ea16a48a9d3406bb229558e33d1132119da7dc8eabf25fe6ddebd90bd2",
    ("mixed", "cdf-config", "json"):
        "a44718f7deaaa76668c129462f8d6294a148c8a4105f8744e4d0a45276a8bbe3",
    ("mixed", "downgrades", "csv"):
        "d8df32261dc23d1d8cd62630d11d59a9bbba762beb152aaafa736f359be3033b",
    ("mixed", "downgrades", "json"):
        "c49e20db701d59154b73685930d0f483c70b5c304310ae01602414e38b9a09d8",
    ("mixed", "dominance", "csv"):
        "15d1dcec2258708db68530d5b8fb822c4074e9925c0aaf0c225af9edfad8b15f",
    ("mixed", "dominance", "json"):
        "387a6ca3cd26391d8bcb92e21598d7202dd6eb8310c9af9d42de57271ff464e2",
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
        "mixed": "a5f7d6468d8f11692b4224310a14e1284b42c86959f572925e769235acbd6e3d",
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


def test_a_version_1_corpus_reports_as_its_version_2_form(db, corpora,
                                                          tmp_path):
    """The pinned corpus as record schema version 1 wrote it, each
    configuration holding the flags its suites imply, gives the bytes of
    every report kind that its version-2 form gives."""
    old = tmp_path / "mixed-v1.jsonl"
    write_corpus(old, corpus_lines(db, 0x5EED, 240, version=1))
    # the digest this corpus was pinned at while version 1 was written
    assert _sha256(old) == (
        "03d4ac145c02d8e4912209df0ba0a99c54652fcf314072dc18676e8fc6f82d79")
    for which in KINDS:
        for fmt in FORMATS:
            outputs = []
            for path in (old, corpora["mixed"]):
                out = tmp_path / f"{path.stem}-{which}.{fmt}"
                assert cli.main(["report", "--records", str(path), "--which",
                                 which, "--format", fmt, "--out",
                                 str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], (which, fmt)


@pytest.mark.parametrize("which", KINDS)
def test_a_list_and_a_generator_give_the_same_bytes(corpora, tmp_path, which):
    records = pipeline.load_records(corpora["mixed"])
    for fmt in FORMATS:
        outputs = []
        for n, source in enumerate((records, (r for r in records))):
            out = tmp_path / f"{n}.{fmt}"
            with open_output(out, "report") as fh:
                report_mod.emit(which, report_mod.build(source, which), fmt, fh)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# -- grade and check-rec outputs ------------------------------------------------

def grade_lines(db, seed: int, n: int):
    """``grade --in`` lines over the configurations of ``corpus_lines``:
    most labelled (some with a non-ASCII label), every fifth bare, and a
    blank, a malformed and a wrongly typed line among them."""
    for i, line in enumerate(corpus_lines(db, seed, n)):
        config = line["configuration"]
        if config is None:
            yield "\n" if i % 3 else '{"not": "a config"}\n'
        elif i % 5 == 0:
            yield json.dumps(config) + "\n"
        elif i % 17 == 4:
            yield json.dumps({"label": f"s-{i}",
                              "configuration": dict(config, versions=None)}) + "\n"
        else:
            label = f"caf\u00e9-{i}" if i % 4 == 1 else f"site-{i}"
            yield json.dumps({"label": label, "configuration": config}) + "\n"


def config_lines(db, seed: int, n: int):
    """``grade --in`` lines, each a labelled configuration of the first
    ``n`` records of ``corpus_lines``."""
    for line in corpus_lines(db, seed, n):
        if line["configuration"] is not None:
            yield json.dumps({"label": line["domain"],
                              "configuration": line["configuration"]}) + "\n"


_KEYWORDS = ("ALL", "HIGH", "MEDIUM", "LOW", "aRSA", "ECDHE", "DHE", "RSA",
             "AESGCM", "AES", "CHACHA20", "3DES", "RC4", "MD5", "SHA",
             "aNULL", "eNULL", "EXPORT", "BOGUS")


def recommendation_lines(seed: int, n: int):
    """``check-rec --recs`` lines: random cipher strings with and without
    the other directives, some of which no stock default can meet."""
    rng = random.Random(seed)
    for i in range(n):
        terms = [rng.choice(_KEYWORDS[:11])] + [
            rng.choice(("!", "+", "-", "")) + rng.choice(_KEYWORDS[:-1])
            for _ in range(rng.randint(0, 4))]
        rec = {"cipher_string": ":".join(terms), "source": {"id": f"rec-{i}"}}
        if rng.random() < 0.6:
            rec["protocols"] = sorted(rng.sample(
                ["TLS1.0", "TLS1.1", "TLS1.2", "TLS1.3"], rng.randint(1, 3)))
        if rng.random() < 0.5:
            rec["server_preference"] = rng.random() < 0.7
        if rng.random() < 0.3:
            rec["dh_params_bits"] = rng.choice((1024, 2048, 4096))
        yield json.dumps(rec) + "\n"


@pytest.fixture(scope="module")
def offline_inputs(db, tmp_path_factory):
    """The pinned ``grade --in``, ``--recs`` and ``--configs`` files."""
    d = tmp_path_factory.mktemp("offline")
    paths = {name: d / f"{name}.jsonl" for name in ("in", "recs", "configs")}
    paths["in"].write_text("".join(grade_lines(db, 0x5EED, 240)),
                           encoding="utf-8")
    paths["recs"].write_text("".join(recommendation_lines(0x5EED, 30)),
                             encoding="utf-8")
    configs = [line["configuration"] for line in corpus_lines(db, 5, 40)
               if line["configuration"] is not None]
    paths["configs"].write_text("".join(
        json.dumps(config if n % 4 == 0 else
                   {"label": f"cfg-{n}", "configuration": config}) + "\n"
        for n, config in enumerate(configs[:12])), encoding="utf-8")
    return paths


# command -> (argv over the ``offline_inputs`` paths, exit code, number of
# stderr lines, SHA-256 of the output)
_PINNED_OFFLINE = {
    "grade": (
        ["grade", "--in", "{in}"], 1, 18,
        "b9138c70b4b555cd9d0c2854450bf248c717a69fc465f056621ec9d05aac2c54"),
    "check-rec-defaults": (
        ["check-rec", "--recs", "{recs}", "--defaults"], 0, 0,
        "bc43bdb63c0138d2c86937d3e17a803c653a1cc3785ba0d1c57eb7e50703e253"),
    "check-rec-configs": (
        ["check-rec", "--recs", "{recs}", "--configs", "{configs}"], 0, 0,
        "7b13a95be219e943d49c0a4ed5223e7309361f674d5dd0e7d1931eb462e4aa17"),
}


def test_offline_inputs_are_pinned(offline_inputs):
    assert {name: _sha256(path) for name, path in offline_inputs.items()} == {
        "in": "c40c6c87c986773ba3270021e147bf1229e5bb07938ef5d211143d433d0d70ba",
        "recs": "7f54598e5dbb052f7da9438a2b43273428e19aece00c81afe20fe2315bb82838",
        "configs":
            "8f46ff9f2ee7a4c0a3066aa1e2ef5e19e779c608972ee36eb37d039d5d7ac641"}


@pytest.mark.parametrize("command", sorted(_PINNED_OFFLINE))
def test_grade_and_check_rec_outputs_are_pinned(offline_inputs, tmp_path,
                                                capsys, command):
    argv, code, errors, digest = _PINNED_OFFLINE[command]
    out = tmp_path / "out.jsonl"
    argv = [arg.format_map(offline_inputs) for arg in argv]
    assert cli.main(argv + ["--out", str(out)]) == code
    assert len(capsys.readouterr().err.splitlines()) == errors
    assert _sha256(out) == digest


def test_no_output_depends_on_shared_objects(corpora, offline_inputs,
                                             tmp_path, capsys, monkeypatch):
    """Every report kind, ``grade --in`` and ``check-rec --configs`` write
    the bytes pinned above, which the tests above check with each distinct
    value decoded once and shared, also when each memo is dropped at the
    second distinct value that no call has repeated: most records then hold
    objects of their own, and the folds key each configuration alone."""
    monkeypatch.setattr(SharedDecoder, "PROBE", 1)
    for (name, which, fmt), digest in _PINNED.items():
        out = tmp_path / f"{name}-{which}.{fmt}"
        assert cli.main(["report", "--records", str(corpora[name]), "--which",
                         which, "--format", fmt, "--out", str(out)]) == 0
        assert _sha256(out) == digest, (name, which, fmt)
    for command in ("grade", "check-rec-configs"):
        argv, code, _errors, digest = _PINNED_OFFLINE[command]
        out = tmp_path / f"{command}.jsonl"
        assert cli.main([arg.format_map(offline_inputs) for arg in argv]
                        + ["--out", str(out)]) == code
        assert _sha256(out) == digest, command
    capsys.readouterr()


# -- all-or-nothing output ------------------------------------------------------

def _argv(which: str, path, fmt: str, configs) -> list[str]:
    """The arguments, but ``--out``, of report kind ``which``, or of
    ``grade`` or ``check-rec --configs``, reading ``path``."""
    if which == "grade":
        return ["grade", "--in", str(path)]
    if which == "check-rec":
        return ["check-rec", "--recs", str(path), "--configs", str(configs)]
    return ["report", "--records", str(path), "--which", which,
            "--format", fmt]


# the input each command reads, named as its read errors name it
_INPUT = {"grade": "configurations", "check-rec": "recommendations",
          **dict.fromkeys(KINDS, "records")}


@pytest.fixture(scope="module")
def late_faults(db, tmp_path_factory):
    """For each input, files whose fault comes after many valid lines: a
    malformed last line, and a byte that is not UTF-8 past the first read
    buffers. Each maps to the first line of the error the command must
    print. ``grade`` reports a malformed line and goes on past it, so its
    input has only the second."""
    d = tmp_path_factory.mktemp("faults")
    malformed = {"records": "error: {path}:{lineno}: bad record: ",
                 "recommendations": "error: bad recs file: line {lineno}: "}
    heads = {
        "records": [json.dumps(line) + "\n"
                    for line in corpus_lines(db, 11, 120)],
        "configurations": list(config_lines(db, 11, 160)),
        "recommendations": list(recommendation_lines(11, 800)),
    }
    faults = {}
    for name, valid in heads.items():
        head = "".join(valid).encode("utf-8")
        assert len(head) > 8 * io.DEFAULT_BUFFER_SIZE
        bad_line, bad_byte = (d / f"{name}-bad-{fault}.jsonl"
                              for fault in ("line", "byte"))
        bad_line.write_bytes(head + b'{"domain": "late.test"\n')
        bad_byte.write_bytes(head + b'{"domain": "caf\xe9.test"}\n')
        faults[name, "non-utf-8-byte"] = (
            bad_byte, f"error: cannot read {name}: 'utf-8' codec can't "
                      "decode byte 0xe9")
        if name in malformed:
            faults[name, "malformed-last-line"] = (bad_line, malformed[
                name].format(path=bad_line, lineno=len(valid) + 1))
    return faults


@pytest.mark.parametrize("which, fault", [
    *((which, fault) for which in KINDS
      for fault in ("malformed-last-line", "non-utf-8-byte")),
    ("grade", "non-utf-8-byte"),
    ("check-rec", "malformed-last-line"), ("check-rec", "non-utf-8-byte")])
def test_a_late_fault_leaves_no_output(late_faults, offline_inputs, tmp_path,
                                       capsys, which, fault):
    path, prefix = late_faults[_INPUT[which], fault]
    for fmt in FORMATS if which in KINDS else FORMATS[:1]:
        for before in (None, b"an earlier report\n"):
            out = tmp_path / f"{which}.{fmt}"
            if before is not None:
                out.write_bytes(before)
            listing = sorted(tmp_path.iterdir())
            assert cli.main(_argv(which, path, fmt, offline_inputs["configs"])
                            + ["--out", str(out)]) == 1
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
_CHILD_ENV = dict(os.environ, PYTHONPATH=str(
    Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("which", ["dist", "grade", "check-rec"])
def test_a_stale_temporary_file_is_removed(corpora, offline_inputs, tmp_path,
                                           which):
    """A command killed before its rename leaves ``<out>.<pid>.tmp``. The
    next one to that ``--out`` removes such a file once its pid no longer
    runs, here a child that has exited, and leaves alone the file of a pid
    that runs, here this test's. The command runs in a child, whose own
    temporary file has another name, and writes its whole output."""
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait()
    out = tmp_path / "out.txt"
    stale, live, other = (tmp_path / f"out.txt.{tag}.tmp" for tag in (
        exited.pid, os.getpid(), "x1"))
    for path in (stale, live, other):
        path.write_text("partial")
    path = {"dist": corpora["mixed"], "grade": offline_inputs["in"],
            "check-rec": offline_inputs["recs"]}[which]
    done = subprocess.run(
        [sys.executable, "-c", _CHILD,
         *_argv(which, path, "csv", offline_inputs["configs"]),
         "--out", str(out)], env=_CHILD_ENV, capture_output=True)
    assert done.returncode == (1 if which == "grade" else 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [out.name, live.name, other.name])
    assert _sha256(out) == {
        "dist": _PINNED["mixed", "dist", "csv"],
        "grade": _PINNED_OFFLINE["grade"][-1],
        "check-rec": _PINNED_OFFLINE["check-rec-configs"][-1]}[which]


@pytest.mark.parametrize("which", ["grade", "check-rec"])
def test_a_closed_stdout_is_one_error_line(db, offline_inputs, tmp_path,
                                           which):
    """``grade --in big.jsonl | head -1``: the reader leaves after one line,
    long before the output is written. The command stops at its next write
    with exit 1 and one ``error:`` line: no traceback, and no ``Exception
    ignored`` when the interpreter flushes stdout at exit."""
    path = tmp_path / "in.jsonl"
    path.write_text("".join(config_lines(db, 3, 1200) if which == "grade"
                            else recommendation_lines(3, 600)),
                    encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD,
         *_argv(which, path, "csv", offline_inputs["configs"])],
        env=_CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(child.stdout.readline())
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 1
    what = "grades" if which == "grade" else "recommendation checks"
    assert err.splitlines() == [
        f"error: cannot write {what}: [Errno 32] Broken pipe"]


def test_a_report_to_dev_stdout_is_written_in_place(corpora):
    """``/dev/stdout`` is no regular file, here a pipe: the report is
    written through it, not beside the pipe its real path names."""
    done = subprocess.run([sys.executable, "-c", _CHILD, "report",
                           "--records", str(corpora["mixed"]), "--which",
                           "dist", "--out", "/dev/stdout"], env=_CHILD_ENV,
                          capture_output=True, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == _PINNED[
        "mixed", "dist", "csv"]


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
            with open_output(tmp_path / f"{n}.json", "report") as out:
                report_mod.emit(which, report_mod.build(
                    iter_records(path), which), "json", out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_grade_memory_does_not_grow_with_the_lines(db, tmp_path, capsys):
    """On a corpus whose configurations repeat, the traced peak of
    ``grade --in`` over 20,000 lines stays within 1.1 times its peak over
    2,000: each line is written as it is graded, not kept. A first run
    warms what a process loads once. (About 230 kB either way.)"""
    lines = list(itertools.islice(config_lines(db, 7, 23_000), 20_000))
    peaks = []
    for n in (2_000, 2_000, 20_000):
        path = tmp_path / f"{n}.jsonl"
        path.write_text("".join(lines[:n]), encoding="utf-8")
        gc.collect()  # the cycles an earlier run left
        tracemalloc.start()
        try:
            assert cli.main(["grade", "--in", str(path), "--out",
                             str(tmp_path / "grades.jsonl")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks
