"""``setup.py`` declares the package it installs."""

import subprocess
import sys
from pathlib import Path

import repro


def test_setup_declares_the_repro_package_and_its_version():
    root = Path(__file__).resolve().parents[1]
    printed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    assert printed.split() == ["repro", repro.__version__]
