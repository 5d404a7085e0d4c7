"""Packaging for the ElkinKNP14 reproduction.

``pip install -e .`` makes ``import repro`` work without PYTHONPATH=src,
including in the experiment harness's process-pool workers.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version: repro.__version__ feeds the experiment
# store's cache keys, so package metadata must never drift from it.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-elkinknp14",
    version=VERSION,
    description=(
        'Reproduction of "Can Quantum Communication Speed Up Distributed '
        'Computation?" (Elkin, Klauck, Nanongkai, Pandurangan -- PODC 2014)'
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
        "numpy",
        "scipy",
    ],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.cli:main",
        ],
    },
)
