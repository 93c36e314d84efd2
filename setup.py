"""Build script: compiles the optional census kernel from its C source.

``src/arbor/_speedups.c`` is a hand-written CPython extension that runs the
walk of ``treebank.segment_census_pure``, forced tail included, step for
step, so a build needs only a C compiler.  Without one the extension is
skipped and the package falls back to the pure-Python kernel at import time.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("arbor._speedups", sources=["src/arbor/_speedups.c"], optional=True)
    ]
)
