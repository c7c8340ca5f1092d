"""Package metadata and installation.

The project is a src-layout package; ``pip install -e .`` (or a plain
install) exposes the library as ``repro`` and the experiment harness as
the ``repro-dtn`` console script (the same entry point as
``python -m repro``).  The long description is the repository README;
the version is the single source of truth in ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).resolve().parent


def read_version() -> str:
    """Extract ``__version__`` from the package without importing it."""
    text = (ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-dtn",
    version=read_version(),
    description=(
        "Reproduction of 'DTN Routing as a Resource Allocation Problem' "
        "(RAPID, SIGCOMM 2007): simulator, protocols, experiment engine"
    ),
    long_description=(ROOT / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    url="https://github.com/paper-repro/repro-dtn",
    project_urls={
        "Documentation": "https://github.com/paper-repro/repro-dtn/tree/main/docs",
        "Source": "https://github.com/paper-repro/repro-dtn",
        "Issues": "https://github.com/paper-repro/repro-dtn/issues",
    },
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.23",
        "scipy>=1.9",
        # The time-expanded graph builder (repro.optimal) and the
        # hardness constructions build graphs with networkx, so it is a
        # runtime dependency, not a test one.  Like scipy, it loads only
        # when such code runs: importing repro or repro.cli loads neither.
        "networkx>=2.8",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "pyyaml"],
        "docs": ["mkdocs>=1.4"],
    },
    entry_points={
        "console_scripts": [
            "repro-dtn = repro.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Topic :: System :: Networking",
        "Topic :: Scientific/Engineering",
    ],
)
