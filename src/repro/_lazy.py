"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` declares its public names in one
table from submodule to names and hands it to :func:`exports`.  The
package then imports nothing: a name's submodule is imported the first
time the name is looked up, and the value is cached in the package's
globals, so later lookups are plain attribute reads.  ``import repro``
and ``import repro.cli`` therefore cost only the modules a command
actually runs.

Adding an export is one table entry.  ``__all__`` is the table's names,
so ``from package import *`` binds every one of them.

One rule covers a name that is also a submodule of its package
(``repro.nfd.stream_validate``, ``repro.inference.closure``): the
export wins.  Importing the submodule makes the import system bind it
as the package attribute of the same name; the package refuses that
binding, so ``from repro.nfd import stream_validate`` is the function
whichever import ran first.  The submodule stays reachable as
``from repro.nfd.stream_validate import ...``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType

__all__ = ["exports"]


class _Package(ModuleType):
    """A package module whose attribute exports win over same-named
    submodules (see the module docstring)."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) \
                and value.__name__ == f"{self.__name__}.{name}" \
                and self.__dict__["_EXPORTS"].get(name, (None, None))[1]:
            return
        super().__setattr__(name, value)


def exports(package: str, table: dict[str, str],
            modules: tuple[str, ...] = ()) -> list[str]:
    """Make *package*'s names lazy and return its ``__all__``.

    *table* maps each submodule (relative to *package*, without the
    leading dot) to the whitespace-separated names it exports;
    *modules* names submodules exported as modules.  Any other
    submodule is still reachable as a package attribute: looking it up
    imports it.
    """
    namespace = sys.modules[package]
    targets: dict[str, tuple[str, str | None]] = {
        module: (f"{package}.{module}", None) for module in modules}
    for module, names in table.items():
        for name in names.split():
            targets[name] = (f"{package}.{module}", name)

    def __getattr__(name: str):
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}")
        if name in targets:
            module, attr = targets[name]
            value = import_module(module)
            if attr is not None:
                value = getattr(value, attr)
        elif name.startswith("__"):
            raise missing
        else:
            module = f"{package}.{name}"
            try:
                value = import_module(module)
            except ModuleNotFoundError as exc:
                if exc.name != module:
                    raise
                raise missing from None
        namespace.__dict__[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace.__dict__) | set(targets))

    namespace.__dict__.update(_EXPORTS=targets, __getattr__=__getattr__,
                              __dir__=__dir__)
    namespace.__class__ = _Package
    return list(targets)
