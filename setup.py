"""Setuptools entry point.

The repository needs no install: everything runs from the source tree with
``PYTHONPATH=src``, as CI does.  This file only lets ``pip install -e .``
work in offline environments where the PEP 517 build path (which needs the
``wheel`` package) is unavailable.  There is no ``pyproject.toml`` or
``setup.cfg``: setuptools discovers the ``src/repro`` packages by itself and
names the distribution ``repro``, version ``0.0.0``.
"""

from setuptools import setup

setup()
