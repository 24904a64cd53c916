"""Deferred imports: package exports resolved on first use, and the
``"module:attr"`` targets the name tables hold.

The import graph has three layers (``docs/INTERNALS.md``, "Import
layers"): a light one that imports nothing but the standard library, the
simulator runtime, and the tools.  Three mechanisms keep a process from
paying for a layer it never reaches:

* a package ``__init__`` lists its public names in a ``name -> module``
  table and serves them through :func:`lazy_exports` (PEP 562), so
  ``import repro.core.faults.schedule`` does not import the simulator
  merely because ``repro.core`` also exports ``XSim``;
* a registry that must be enumerable without its implementations (CLI
  ``choices``, scenario validation) is a static ``name -> "module:attr"``
  table, and :func:`load` imports one entry when it is first needed;
* numpy is the handle :data:`np`, imported when an array is first built
  or a random stream first makes a draw :mod:`repro.util.rng` has no
  pure-Python port of — a size-only or failure run does neither — and
  :func:`is_array` answers without it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


class _Deferred:
    """A module imported when one of its attributes is first read (each
    attribute once: it is then the handle's own)."""

    def __init__(self, module: str):
        self._module = module

    def __getattr__(self, name: str) -> Any:
        value = getattr(import_module(self._module), name)
        vars(self)[name] = value
        return value


#: ``from repro.util.lazy import np`` in place of ``import numpy as np``.
np: Any = _Deferred("numpy")


def is_array(obj: object) -> bool:
    """``isinstance(obj, numpy.ndarray)`` — false without importing numpy
    in an interpreter that never did (it holds no arrays)."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(obj, numpy.ndarray)


def load(target: str) -> Any:
    """The object a ``"module:attr"`` table entry names (imports the
    module on first use)."""
    module, _, attr = target.partition(":")
    return getattr(import_module(module), attr)


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for a package ``__init__`` whose public
    names live in the modules ``exports`` maps them to.

    A name is imported the first time it is read and then kept in the
    package namespace, so only that first read goes through
    ``__getattr__``.  Submodules resolve the same way (``import
    repro.core`` followed by ``repro.core.restart`` keeps working as it
    did when the ``__init__`` imported everything).
    """
    namespace = import_module(package).__dict__

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise  # the submodule exists; one of *its* imports is missing
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
