"""Import-on-use package surfaces (PEP 562).

Every ``repro`` package ``__init__`` declares its public names here
instead of importing its submodules eagerly, so ``import repro.runner``
does not compile the simulator and a covert-channel run does not load the
sweep service.  A name is imported from its submodule the first time it
is read and then cached in the package namespace, so later reads are
plain attribute lookups::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".tpc_channel": ("TpcCovertChannel",),
        ".metrics": ("TransmissionResult", "bit_error_rate"),
    })

``from pkg import *`` works unchanged: it reads each ``__all__`` name
through the same ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for a package that imports on use.

    ``exports`` maps a module path relative to ``package`` (``".base"``,
    ``"..config"``) to the names taken from it.  A child module named in
    ``exports`` (or in ``submodules``) also resolves as an attribute of
    the package, as it did when the ``__init__`` imported it.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    children = {module[1:] for module in exports
                if module.startswith(".") and "." not in module[1:]}
    children.update(submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in origin:
            module = importlib.import_module(origin[name], package)
            value = getattr(module, name)
        elif name in children:
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys() | children)

    return __getattr__, __dir__
