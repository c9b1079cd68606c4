"""Package metadata and entry points for the Popcorn reproduction.

Kept as a plain ``setup.py`` (no PEP 517 build isolation) so editable
installs work in offline environments where the ``wheel`` package is
unavailable.
"""

import os

from setuptools import find_packages, setup

_here = os.path.dirname(os.path.abspath(__file__))
_paper = os.path.join(_here, "PAPER.md")
if os.path.exists(_paper):
    with open(_paper, encoding="utf-8") as fh:
        _long = fh.read()
else:
    _long = ""

setup(
    name="popcorn-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Popcorn: Accelerating Kernel K-means on GPUs "
        "through Sparse Linear Algebra' (PPoPP 2025) on a simulated GPU"
    ),
    long_description=_long,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
        # repro.sparse.spmm/spmv call scipy's private compiled CSR kernel
        # (scipy.sparse._sparsetools); raise the bound once
        # tests/sparse/test_sequential_kernel.py passes on the new release
        "scipy>=1.8,<1.18",
        "networkx>=2.6",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
        "plot": ["matplotlib"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "gpukmeans=repro.cli:main",
            "repro-bench=repro.cli:bench_main",
            "repro-serve=repro.cli:serve_main",
            "repro-lint=repro.analysis.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Scientific/Engineering",
    ],
)
