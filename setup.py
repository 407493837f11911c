"""Package metadata; setuptools only, so editable installs work offline."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# The version lives in src/repro/__init__.py; read it as text rather
# than importing the package.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    # `repro run`, `list` and `info` need only the standard library;
    # workloads, sweeps, reports and the tests need numpy.
    install_requires=["numpy"],
)
