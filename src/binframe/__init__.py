"""Binary Parseval frames over GF(2): construction, verification,
factorization and exhaustive catalogs."""

import sys

__version__ = "5.0.0"

# The public names load on first use (PEP 562), so ``import binframe.cli``
# loads only the modules its command needs.  Each name is listed once, in
# the __all__ of the module that defines it.
_MODULES = ("catalog", "equiv", "errors", "frames", "gf2", "gramfactor", "naimark")
_owners: dict = {}  # public name -> defining module, filled on first use


def _module(name: str):
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def _public() -> dict:
    if not _owners:
        for module in map(_module, _MODULES):
            _owners.update(dict.fromkeys(module.__all__, module))
    return _owners


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        return list(_public())
    if name in _public():
        return getattr(_owners[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_public()})
