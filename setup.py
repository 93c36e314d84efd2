"""Build script: compiles the optional census kernel from the shipped C.

``src/arbor/_speedups.c`` is generated from ``_speedups.pyx`` by
``cython -3 src/arbor/_speedups.pyx`` and committed alongside it, so a build
needs only a C compiler.  Without one the extension is skipped and the
package falls back to the pure-Python kernel at import time.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("arbor._speedups", sources=["src/arbor/_speedups.c"], optional=True)
    ]
)
