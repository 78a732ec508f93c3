"""Packaging of the ``repro`` library and its ``lucky-storage`` command.

This file is the whole project description (there is no ``pyproject.toml``):
``pip install -e .`` installs the packages under ``src/`` and the console
script every document names.  The library has no runtime dependencies.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M)

setup(
    name="lucky-storage",
    version=_VERSION.group(1),
    description='Reproduction of "Lucky Read/Write Access to Robust Atomic Storage" (DSN 2006)',
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["lucky-storage = repro.cli:main"]},
)
