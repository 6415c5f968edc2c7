"""Every module-level import in the package is used, no module imports
``socketserver``, and no module imports a third-party package.

No linter ships with the project, so this parses each source file and
compares the names its top-level imports bind with the names the module
reads anywhere in its body.

The fixture endpoints serve on a plain accept loop whose ``stop()`` always
waits out one poll. ``socketserver``'s ``shutdown()`` returned early or not,
depending on thread timing; the second guard keeps that framework out.

The package needs nothing beyond the standard library. The negotiated
suite, not an X.509 parse, gives the certificate's key type, and the
fixtures serve two checked-in certificates instead of making their own; so
the package declares no runtime dependency.

The engine dials in one place: ``HandshakeEngine._dial`` is the one
``create_connection`` call and the one handler of ``socket.timeout``, so a
probe cannot grow its own connect or its own reading of a failure. Its
``_DeadlineSocket`` is the one caller of ``recv`` and ``settimeout``, so no
read can escape the connection's deadline or its byte cap.

The scan pipeline has one ethics gate: ``run_scan`` is the one caller of
``_resolve`` and of ``_refuse_outside_loopback``, so each target is resolved
once and a mixed target list is refused before anything is written.

A site's configuration has one derivation: in the orchestrator, the
``Configuration`` constructor is called only by ``configuration_of``, which
reads a trace's JSON, so no probe phase can grow a result of its own.

``hashlib`` maps OpenSSL's libcrypto, several megabytes of resident memory,
for digests the interpreter's built-in modules also make: ``report.config_key``
takes its SHA-256 from ``_sha2`` (``_sha256`` before Python 3.12). No module
imports ``hashlib``, and a fresh interpreter checks that importing the
package, probing a site and the commands that hash leave libcrypto unloaded,
since the test process itself has loaded it long before.

The offline half reads records, not servers: importing ``report``,
``records``, ``grading`` or ``cipherstring`` in a fresh interpreter loads no
``socket`` and none of the prober's modules, and neither does running
``report``, ``grade --in`` or ``check-rec --configs`` through ``cli.main``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level package of every import anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _importers(module: str) -> list[str]:
    """Each source file that imports ``module`` anywhere."""
    return [path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if module in _imported_modules(ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)))]


def test_no_module_imports_socketserver():
    assert _importers("socketserver") == []


# the built-in SHA-256 module is ``_sha256`` before Python 3.12 and ``_sha2``
# from 3.12; ``report`` imports whichever the interpreter has, so one of the
# two is missing from any one interpreter's ``sys.stdlib_module_names``
_BUILTIN_SHA256 = {"_sha2", "_sha256"}


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_probe_path_imports_only_the_standard_library(path):
    modules = _imported_modules(ast.parse(path.read_text(encoding="utf-8"),
                                          filename=str(path)))
    assert sorted(modules - sys.stdlib_module_names - _BUILTIN_SHA256
                  - {"tlsaudit"}) == []


def test_no_module_imports_hashlib():
    assert _importers("hashlib") == []


def _engine_tree() -> ast.Module:
    path = SRC / "engine.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_engine_calls_create_connection_once():
    calls = [node for node in ast.walk(_engine_tree())
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) == "create_connection"
                  or getattr(node.func, "id", None) == "create_connection")]
    assert len(calls) == 1


def _timeout_handlers(node, func=None) -> list[str]:
    """The enclosing function of each ``except`` clause under ``node`` that
    names ``socket.timeout`` or its alias ``TimeoutError``."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else func
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            caught = ast.unparse(child.type)
            if "socket.timeout" in caught or "TimeoutError" in caught:
                found.append(func)
        found += _timeout_handlers(child, inner)
    return found


def test_only_dial_catches_socket_timeout():
    assert _timeout_handlers(_engine_tree()) == ["_dial"]


def _users(node, name: str, func=None, calls: bool = False) -> list[str]:
    """The enclosing function of each read of the name ``name`` under
    ``node``, a call or any other, bare or as an attribute; with ``calls``,
    of each call of it alone."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else func
        read = (child if not calls else
                child.func if isinstance(child, ast.Call) else None)
        if (isinstance(read, ast.Name) and read.id == name
                or isinstance(read, ast.Attribute) and read.attr == name):
            found.append(func)
        found += _users(child, name, inner, calls)
    return found


@pytest.mark.parametrize("method, user", [("recv", "recv"),
                                          ("settimeout", "_arm")])
def test_only_the_deadline_socket_reads_or_sets_a_timeout(method, user):
    tree = _engine_tree()
    deadline_socket = next(node for node in tree.body
                           if isinstance(node, ast.ClassDef)
                           and node.name == "_DeadlineSocket")
    assert _users(tree, method) == _users(deadline_socket, method) == [user]


@pytest.mark.parametrize("name", ["_resolve", "_refuse_outside_loopback"])
def test_only_run_scan_resolves_and_gates(name):
    path = SRC / "pipeline.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _users(tree, name) == ["run_scan"]


def test_only_configuration_of_assembles_a_configuration():
    path = SRC / "orchestrator.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _users(tree, "Configuration", calls=True) == ["configuration_of"]


_NO_LIBCRYPTO = """
import importlib, json, pkgutil, sys, tempfile
from pathlib import Path
import tlsaudit
for module in pkgutil.iter_modules(tlsaudit.__path__):
    importlib.import_module("tlsaudit." + module.name)
from tlsaudit import cli, fixtures
from tlsaudit.grading import grade
from tlsaudit.orchestrator import ProbePolicy, SiteProber
from tlsaudit.records import Eligibility, ScanRecord
from tlsaudit.registry import load_registry

db = load_registry()
spec = fixtures.row_fixture_spec(db, fixtures.ubuntu_default_rows()[0])
with fixtures.spawn(spec, db) as endpoint:
    prober = SiteProber(db, ProbePolicy(timeout_s=3.0, delay_max_s=0.0))
    config, _trace = prober.probe_site(endpoint.target)
assert config is not None
assert "_hashlib" not in sys.modules, "loaded by import or probe"
record = ScanRecord(domain="site.test", eligibility=Eligibility.GRADED,
                    asn={"number": 64500, "name": "AS-TEST"},
                    configuration=config, grade_report=grade(config, db))
with tempfile.TemporaryDirectory() as d:
    records = Path(d, "records.jsonl")
    records.write_text(json.dumps(record.to_json()) + "\\n")
    for which in ("dominance", "cdf-config"):
        assert cli.main(["report", "--records", str(records), "--which",
                         which, "--out", str(Path(d, which))]) == 0
        assert "_hashlib" not in sys.modules, f"loaded by report {which}"
"""


def test_no_tlsaudit_path_loads_libcrypto():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", _NO_LIBCRYPTO], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


_PROBER = ("socket", "tlsaudit.pipeline", "tlsaudit.engine",
           "tlsaudit.orchestrator", "tlsaudit.wire", "tlsaudit.fixtures")


@pytest.mark.parametrize("module", ["report", "records", "grading",
                                    "cipherstring"])
def test_offline_modules_load_no_prober(module):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, tlsaudit.{module}; "
         f"print(sorted(set({_PROBER!r}) & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


_OFFLINE_CLI = """
import json, sys, tempfile
from pathlib import Path
from tlsaudit import cli
from tlsaudit.configuration import Configuration
from tlsaudit.grading import grade
from tlsaudit.records import Eligibility, ScanRecord
from tlsaudit.registry import Version, load_registry

config = Configuration(versions={Version.TLS1_2}, supported_suites=[0xC02F],
                       preferred_suite=0xC02F, server_preference=True)
record = ScanRecord(domain="site.test", eligibility=Eligibility.GRADED,
                    configuration=config,
                    grade_report=grade(config, load_registry()))
with tempfile.TemporaryDirectory() as d:
    for name, obj in (("records", record.to_json()),
                      ("configs", config.to_json()),
                      ("recs", {"cipher_string": "HIGH"})):
        Path(d, name).write_text(json.dumps(obj) + "\\n")
    argv = [arg.format(d=d) for arg in sys.argv[1:]]
    assert cli.main(argv + ["--out", str(Path(d, "out"))]) == 0
"""


@pytest.mark.parametrize("argv", [
    ["report", "--records", "{d}/records", "--which", "dominance"],
    ["grade", "--in", "{d}/configs"],
    ["check-rec", "--recs", "{d}/recs", "--configs", "{d}/configs"],
], ids=["report", "grade", "check-rec"])
def test_offline_commands_load_no_prober(argv):
    """``cli`` imports the prober and the fixture server only inside the
    commands that use them."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", _OFFLINE_CLI + "print(sorted(set("
         f"{_PROBER!r}) & sys.modules.keys()))", *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
