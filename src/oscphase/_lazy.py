"""scipy.sparse, imported on first use. Its import costs more time and peak
memory than numpy's (0.5 s against 0.2 s, 49 MB against 27 MB, scipy 1.17 on
a 2-CPU x86-64 Linux host), and `trajectory` and `spectrum` never build a
sparse matrix. Every module takes `sparse` from here in place of
`from scipy import sparse`."""

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
