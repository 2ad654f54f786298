"""Setuptools configuration for the ``repro`` package.

setuptools discovers the package under ``src/``. Without the ``wheel``
package or a network, PEP 517 editable installs (which build a wheel)
fail; ``pip install -e . --no-use-pep517 --no-build-isolation`` works
there, and plain ``pip install -e .`` works on machines with wheel.
"""

from setuptools import setup

setup(name="repro", install_requires=["numpy"])
