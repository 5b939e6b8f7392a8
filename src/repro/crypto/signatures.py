"""Simulated digital signatures and a public-key infrastructure (PKI).

The authenticated Srikanth-Toueg algorithm relies on digital signatures with
two properties:

* **Verifiability** -- anyone can check that a signature on a message was
  produced by the claimed signer.
* **Unforgeability** -- no process can produce a valid signature of another
  process on a message that process never signed.

For the timing analysis the cryptographic construction is irrelevant; only
the two properties matter.  We therefore *simulate* signatures: signing
requires possession of the signer's :class:`SecretKey` object, which the
simulation hands only to the owning process (and, for colluding Byzantine
nodes, to the adversary for the *faulty* nodes' own keys).  Verification
recomputes a keyed tag from the registered secret, so a signature fabricated
without the key fails verification (except with negligible probability of
guessing a 128-bit tag, which the deterministic construction here makes
impossible outright).

Messages are canonicalised with :func:`message_digest`, which supports the
frozen dataclasses used throughout :mod:`repro.core.messages` as well as
plain tuples of primitives.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Optional


#: Size of the digest memo; generously above the live-message population of
#: any one simulated round so sign + N verifies of one broadcast hash once.
_DIGEST_CACHE_SIZE = 8192


def _compute_digest(message: object) -> str:
    canonical = _canonicalize(message)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache
def field_names(cls: type) -> Optional[tuple[str, ...]]:
    """Field names if ``cls`` is a dataclass, else None (memoized per type).

    The one such memo: :mod:`repro.analysis.serialize` reads it too.
    """
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def _cache_key(message: object):
    """A hashable key that distinguishes messages iff their canonical forms differ.

    Plain Python equality is too coarse here (``1 == 1.0 == True`` and
    ``0.0 == -0.0`` although they canonicalise differently), so every leaf is
    tagged with its concrete type and floats by their exact textual form.
    Lists key like tuples because they share a canonical form.  Raises
    ``TypeError`` for leaves outside ``_canonicalize``'s supported domain.
    """
    names = field_names(type(message))
    if names is not None:
        return (type(message), tuple(_cache_key(getattr(message, name)) for name in names))
    if isinstance(message, (list, tuple)):
        return (tuple, tuple(_cache_key(item) for item in message))
    if isinstance(message, float):
        return (float, repr(message))  # distinguishes -0.0 from 0.0
    hash(message)  # reject unhashable leaves up front
    return (type(message), message)


_DigestCacheInfo = collections.namedtuple("_DigestCacheInfo", ["hits", "misses", "maxsize", "currsize"])
_digest_cache: dict = {}
_digest_cache_hits = 0
_digest_cache_misses = 0


def message_digest(message: object) -> str:
    """Return a canonical, collision-resistant digest of ``message``.

    Supports (nested) tuples/lists of primitives and frozen dataclasses.  Two
    messages have equal digests iff their canonical forms are equal.  Digests
    are memoized under a type-tagged structural key, so signing and repeatedly
    verifying the same (or an equal) broadcast message canonicalises and
    hashes it once -- the authenticated algorithm's hot path is one ``sign``
    plus up to ``n - 1`` ``verify`` calls per broadcast.
    """
    global _digest_cache_hits, _digest_cache_misses
    try:
        key = _cache_key(message)
    except TypeError:
        # Every canonicalisable message has a hashable key, so this only
        # triggers for unsupported leaves (e.g. dicts, sets); defer to
        # _canonicalize for its clearer unsupported-type error.
        return _compute_digest(message)
    cached = _digest_cache.get(key)
    if cached is not None:
        _digest_cache_hits += 1
        return cached
    _digest_cache_misses += 1
    digest = _compute_digest(message)
    if len(_digest_cache) >= _DIGEST_CACHE_SIZE:
        _digest_cache.clear()
    _digest_cache[key] = digest
    return digest


def digest_cache_info() -> _DigestCacheInfo:
    """Hit/miss statistics of the digest memo (for tests and benchmarks)."""
    return _DigestCacheInfo(
        hits=_digest_cache_hits,
        misses=_digest_cache_misses,
        maxsize=_DIGEST_CACHE_SIZE,
        currsize=len(_digest_cache),
    )


def _canonicalize(message: object) -> str:
    names = field_names(type(message))
    if names is not None:
        inner = ",".join(f"{name}={_canonicalize(getattr(message, name))}" for name in names)
        return f"{type(message).__name__}({inner})"
    if isinstance(message, (list, tuple)):
        inner = ",".join(_canonicalize(item) for item in message)
        return f"[{inner}]"
    if isinstance(message, float):
        return repr(message)
    if isinstance(message, (int, str, bool)) or message is None:
        return repr(message)
    raise TypeError(f"cannot canonicalise message of type {type(message).__name__}")


@dataclass(frozen=True)
class PublicKey:
    """Public half of a key pair; identifies the owner."""

    owner: int


@dataclass(frozen=True)
class SecretKey:
    """Secret half of a key pair.  Possession of this object is the signing capability."""

    owner: int
    secret: int

    def __repr__(self) -> str:  # pragma: no cover - avoid leaking the secret in logs
        return f"SecretKey(owner={self.owner}, secret=<hidden>)"


@dataclass(frozen=True)
class Signature:
    """A (simulated) signature of ``signer`` on a message with digest ``digest``."""

    signer: int
    digest: str
    tag: str


def _compute_tag(secret: int, digest: str) -> str:
    return hashlib.sha256(f"{secret}:{digest}".encode("utf-8")).hexdigest()


def sign(secret_key: SecretKey, message: object) -> Signature:
    """Sign ``message`` with ``secret_key``."""
    digest = message_digest(message)
    return Signature(signer=secret_key.owner, digest=digest, tag=_compute_tag(secret_key.secret, digest))


def forge_attempt(claimed_signer: int, message: object, guess: int = 0) -> Signature:
    """Fabricate a signature *without* the secret key (used by Byzantine behaviours).

    The returned signature carries a tag computed from a guessed secret, so it
    fails verification against the real PKI.
    """
    digest = message_digest(message)
    return Signature(signer=claimed_signer, digest=digest, tag=_compute_tag(guess, digest) + "-forged")


class KeyStore:
    """A public-key infrastructure mapping process ids to key pairs.

    The key store itself acts as the globally trusted verification oracle:
    :meth:`verify` recomputes the tag from the registered secret.  Only the
    simulation setup code should call :meth:`secret_key`; processes receive
    their secret key at construction time and never see other keys.
    """

    def __init__(self, process_ids: Iterable[int], seed: int = 0) -> None:
        rng = random.Random(seed)
        self._secret_keys: dict[int, SecretKey] = {}
        self._public_keys: dict[int, PublicKey] = {}
        for pid in process_ids:
            secret = rng.getrandbits(128)
            self._secret_keys[pid] = SecretKey(owner=pid, secret=secret)
            self._public_keys[pid] = PublicKey(owner=pid)
        #: ``(signer, digest) -> tag`` the signer's secret yields, filled by
        #: :meth:`verify_digest`: one entry per registered signer and statement checked.
        self._expected_tags: dict[tuple[int, str], str] = {}

    @classmethod
    def generate(cls, n: int, seed: int = 0) -> "KeyStore":
        """Generate a PKI for processes ``0 .. n-1``."""
        return cls(range(n), seed=seed)

    def participants(self) -> list[int]:
        return sorted(self._public_keys)

    def public_key(self, pid: int) -> PublicKey:
        return self._public_keys[pid]

    def secret_key(self, pid: int) -> SecretKey:
        """Return the secret key of ``pid``.  Only setup/adversary code may call this."""
        return self._secret_keys[pid]

    def has_participant(self, pid: int) -> bool:
        return pid in self._public_keys

    def verify(self, signature: Signature, message: object, claimed_signer: Optional[int] = None) -> bool:
        """:meth:`verify_digest` on ``message``'s digest (and by ``claimed_signer``, if given)."""
        if claimed_signer is not None and signature.signer != claimed_signer:
            return False
        return self.verify_digest(signature, message_digest(message))

    def verify_digest(self, signature: Signature, digest: str) -> bool:
        """Check that ``signature`` is a valid signature on the statement hashed to ``digest``.

        Every call compares signer, digest and tag; the expected tag, a pure
        function of (signer, digest), is hashed once per signer and statement.
        """
        if digest != signature.digest:
            return False
        signer = signature.signer
        expected = self._expected_tags.get((signer, digest))
        if expected is None:
            secret_key = self._secret_keys.get(signer)
            if secret_key is None:
                return False
            expected = self._expected_tags[signer, digest] = _compute_tag(secret_key.secret, digest)
        return signature.tag == expected
