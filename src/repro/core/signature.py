"""Module interface signatures and digests.

Caml includes, in every byte-code file, an MD5 digest of the interfaces the
module was compiled against and of the interface it exports; the dynamic
linker refuses to link a module whose digests do not match the running
program ("If the other module were compiled against a signature built by an
attacker that included some private objects, a link time error would result
because the signatures would not match", Section 5.1.1).

The reproduction keeps the same mechanism: every thinned environment module
has an *interface* — the sorted list of names it exports — and the digest of
that interface is an MD5 over a canonical rendering of those names.  A
switchlet package records the digests of the interfaces it requires; the
loader recomputes the digests of the modules it actually provides and refuses
to load on any mismatch.

Both digests are memoized on their input, the source text or the sorted
names, as the loader already memoizes compilation: every bridge of a ring
loads the same five switchlets, and each distinct source and interface is
hashed once per process.  Every load compares the package's recorded digests
against the digests of its own source and of the node's modules, so a package
whose source or recorded digests were altered fails to load.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Iterable, Mapping


def interface_of(module: object) -> tuple:
    """Return the exported interface of a (thinned) module object.

    The interface is the sorted tuple of public attribute names.  Thinned
    modules (:class:`repro.core.thinning.ThinnedModule`) expose exactly the
    names the thinner allowed, so this *is* their signature.
    """
    exports = getattr(module, "__exports__", None)
    if exports is not None:
        return tuple(sorted(exports))
    names = [name for name in dir(module) if not name.startswith("_")]
    return tuple(sorted(names))


def digest_interface(names: Iterable[str]) -> str:
    """MD5 digest of an interface (a collection of exported names)."""
    return _digest_sorted_names(tuple(sorted(names)))


@lru_cache(maxsize=1024)
def _digest_sorted_names(names: tuple) -> str:
    return hashlib.md5("\n".join(names).encode("utf-8")).hexdigest()


def digest_module(module: object) -> str:
    """MD5 digest of a module object's exported interface."""
    return digest_interface(interface_of(module))


@lru_cache(maxsize=256)
def digest_source(source: str) -> str:
    """MD5 digest of a switchlet's source text (the exported-interface analogue).

    For a switchlet, "what it exports" is the code it will register; hashing
    the source gives load-time integrity checking for the shipped unit, the
    same role the byte-code's own MD5 plays in Caml.
    """
    return hashlib.md5(source.encode("utf-8")).hexdigest()


def environment_digests(environment: Mapping[str, object]) -> Dict[str, str]:
    """Digest every module in an environment, keyed by module name."""
    return {name: digest_module(module) for name, module in environment.items()}
