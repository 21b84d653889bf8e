"""Setuptools entry point.

The repository needs no install: everything runs from the source tree with
``PYTHONPATH=src``, as CI does.  This file only lets ``pip install -e .``
work in offline environments where the PEP 517 build path (which needs the
``wheel`` package) is unavailable.  There is no ``pyproject.toml`` or
``setup.cfg``: setuptools discovers the ``src/repro`` packages by itself,
and the distribution is named ``repro`` with the version of
``repro.__version__``, read from ``src/repro/__init__.py`` without importing
the package.
"""

import re
from pathlib import Path

from setuptools import setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE).group(1)

setup(name="repro", version=VERSION)
