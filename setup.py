"""Packaging for the ``repro`` package (sources under ``src/``).

``pip install .`` (or ``pip install -e .``) installs it with its one runtime
dependency, NumPy; the tests and benchmarks also need pytest,
pytest-benchmark and hypothesis.  Without installing, run from a checkout
with ``PYTHONPATH=src``.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="AggregaThor reproduction: Byzantine-resilient SGD on a simulated cluster",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
