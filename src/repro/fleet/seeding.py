"""Seed derivation for the fleet: one root, stable named children.

The whole determinism contract of the fleet simulator rests on this
module: every random stream a session uses (its input script, its
timing jitter, its arrival process) is seeded from the *path* that
names it — ``root -> tenant -> session index -> purpose`` — never from
the shard or worker that happens to execute it.  Two fleets with the
same root seed therefore produce bit-identical per-session results
regardless of how sessions were partitioned.

Derivation uses :func:`zlib.crc32` over the rendered path, the same
cross-process-stable scheme :class:`repro.analysis.harness.Lab` uses
for run seeds (builtin ``hash()`` is salted per interpreter run, so it
must never leak into a seed path).
"""

from __future__ import annotations

import zlib

__all__ = ["derive_seed", "session_seed", "session_seeds"]


def derive_seed(root: int, *path: object) -> int:
    """A 32-bit child seed for the stream named by ``path``.

    Path components are rendered with ``str`` and joined with ``|``,
    so ``derive_seed(7, "video", 3)`` differs from
    ``derive_seed(7, "video", 31)`` and from
    ``derive_seed(7, "video3")`` — component boundaries are part of
    the name.
    """
    rendered = "|".join(map(str, (root, *path)))
    return zlib.crc32(rendered.encode())


def session_seed(root: int, tenant: str, index: int, purpose: str) -> int:
    """The seed for one named stream of one tenant session.

    Purposes in use: ``"inputs"`` (the job input script),
    ``"jitter"`` (timing noise), ``"arrivals"`` (the release
    schedule), ``"switch"`` (the board's switch-latency draws).
    """
    return derive_seed(root, "fleet", tenant, index, purpose)


def session_seeds(
    root: int, tenant: str, index: int, *purposes: str
) -> tuple[int, ...]:
    """:func:`session_seed` of each of ``purposes``, in order.

    The path the streams share is rendered and checksummed once: a crc32
    continued from the checksum of a prefix is the checksum of the
    whole, so each seed is the one :func:`session_seed` derives.
    """
    rendered = "|".join(map(str, (root, "fleet", tenant, index, "")))
    shared = zlib.crc32(rendered.encode())
    return tuple(zlib.crc32(str(p).encode(), shared) for p in purposes)
