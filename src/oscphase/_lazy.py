"""scipy.sparse, imported on first use. A fresh process that imports numpy
and scipy.sparse takes 0.27 s and 49 MB of peak memory, against 0.11 s and
27 MB for numpy alone (medians of 7, scipy 1.17, numpy 2.4, Python 3.11 on
a 2-CPU x86-64 Linux host), and `trajectory` and `spectrum` never build a
sparse matrix. Every module takes `sparse` from here in place of
`from scipy import sparse`, and fock reaches scipy's compiled routines as
`sparse._sparsetools`."""

from __future__ import annotations

import importlib


class _LazySparse:
    """Forwards attribute reads to scipy.sparse, imported (or found imported)
    on the first read. Unlike importlib.util.LazyLoader it puts no placeholder
    into sys.modules, and reading its class attributes loads nothing."""

    def __getattr__(self, name: str):
        module = importlib.import_module("scipy.sparse")
        self.__dict__.update(vars(module))  # later reads find the names directly
        return getattr(module, name)


sparse = _LazySparse()
