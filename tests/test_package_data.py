"""Every bundled data file is shipped by an installed package.

Tests import the package from ``src/``, where every data file is present
whether or not ``[tool.setuptools.package-data]`` names it; a file that no
glob there matches would go missing only from an installed wheel.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "tlsaudit" / "data"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_every_data_file_matches_a_package_data_glob():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"][
            "tlsaudit.data"]
    shipped = {path for glob in globs for path in DATA.glob(glob)}
    files = {path for path in DATA.rglob("*") if path.is_file()}
    assert files
    assert sorted(path.relative_to(DATA).as_posix()
                  for path in files - shipped) == []
