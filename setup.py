"""Legacy-path shim.

Offline environments without the ``wheel`` package cannot do PEP-660
editable installs; this file enables

    pip install -e . --no-build-isolation --no-use-pep517

All real metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.core.native": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": ["pfpl = repro.cli:main"]},
)
