"""Package metadata for ``repro``.

There is no pyproject.toml: this file is the one place the metadata
lives.  A setup.py keeps ``pip install -e .`` working offline through
the legacy ``setup.py develop`` path, where PEP 660 editable installs
would need the ``wheel`` package to build a wheel.  The version is read
from ``src/repro/__init__.py`` so it always matches ``repro.__version__``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Size-l Object Summaries for relational keyword search",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.10",
)
