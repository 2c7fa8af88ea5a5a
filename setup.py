"""Legacy setup shim (the offline environment's pip lacks bdist_wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Network-on-Chip Microarchitecture-based Covert "
        "Channel in GPUs' (MICRO 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
)
