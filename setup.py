"""Compatibility shim for offline environments.

``pip install -e .`` needs the ``wheel`` package to build modern editables;
on air-gapped machines without it, run either::

    python setup.py develop

or the dependency-free equivalent (what CI in this repo uses)::

    python -c "import site, pathlib; pathlib.Path(site.getsitepackages()[0], 'repro-editable.pth').write_text(str(pathlib.Path('src').resolve()) + '\\n')"
"""

from setuptools import find_packages, setup

setup(
    name="repro-sssp",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # the compiled bucket loop is built from its C source at import
    package_data={"repro": ["py.typed", "kernels/buckets.c"]},
    entry_points={"console_scripts": ["repro-sssp=repro.cli:main"]},
)
