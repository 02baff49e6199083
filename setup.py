"""Setup shim: all project metadata lives in ``pyproject.toml``.

Kept for legacy/offline toolchains, where ``pip install -e .
--no-use-pep517`` works and PEP 660 editable installs do not.
"""

from setuptools import setup

setup()
