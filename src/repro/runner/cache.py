"""On-disk cache of scenario results.

A cache entry is one pickled :class:`~repro.workloads.scenarios.ScenarioResult`
stored under a key that captures everything the result depends on:

* the full declarative scenario description (including its parameters and
  seed), serialized canonically,
* the *resolved* ``check_guarantees`` flag (it changes whether the result
  carries a guarantee report),
* a code-version salt: a digest of every source file that can influence a
  simulation outcome, so editing the simulator, the algorithms or the metrics
  invalidates all previously cached results automatically.

Keys are therefore stable across Python invocations and machines (no use of
the randomized builtin ``hash``), which is what makes warm-cache report
regeneration possible.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .. import obs
from ..analysis.serialize import scenario_to_dict
from ..sim.kernel import resolve_kernel
from ..workloads.scenarios import Scenario, ScenarioResult, resolve_shards

#: Bump when the on-disk entry format changes (pickled object layout, key schema).
#: 2: ScenarioResult gained ``trace_level`` (and an optional trace); keys carry
#: the trace level.
#: 3: ScenarioResult records the effective horizon (``effective_horizon``,
#: ``stopped_early``); scenarios carry adaptive-horizon fields, keyed by their
#: *resolved* values so the default and its explicit spelling share entries.
#: 4: scenarios carry the replication axis (``replications``, ``shards``,
#: ``abort_unreachable``) and results carry shard provenance (``shard_count``,
#: ``shard_horizons``).  Keys carry the *resolved* shard plan: the measured
#: values are shard-invariant, but the stored provenance is not, so the
#: ``None``-auto default and an explicit equal shard count share one entry
#: while different plans get their own.
#: 5: scenarios carry the sampling message trace (``sample_messages``) and
#: results carry the retained ``message_samples``.  The executor backend is
#: deliberately NOT part of the key: results are invariant to where they
#: were computed, so a warm cache serves every backend.
#: 6: scenarios carry the simulation kernel (``kernel``); keys carry the
#: *resolved* selection (field -> ``REPRO_KERNEL`` env -> ``"auto"``).  The
#: kernels are float-identical by contract, but that parity is enforced by
#: tests and the benchmark, not assumed by the cache -- a result recorded
#: under one engine is never served for a request pinning the other (and
#: fallback notes in the summary depend on the selection).
#: 7: ScenarioResult carries per-sweep kernel provenance
#: (``kernel_provenance``); the vector whitelist widened to echo, uniform
#: delays and the forge_flood attack, changing which runs the vector engine
#: serves under ``"auto"``.
#: 8: the vector whitelist widened again -- the ``random_*`` attack
#: strategies, drifting (``random``-mode) clocks and ``min`` delays --
#: changing which runs ``"auto"`` resolves to the vector engine (results
#: stay float-identical; only provenance and notes depend on the engine).
#: 9: entries are framed ``magic + blake2b-16(payload) + payload`` and verified
#: before unpickling, so a damaged file is a miss, never a different number.
#: 10: key schema only -- ``Scenario`` lost its stop-rule selector (one stop
#: rule) and ``grace`` is keyed at both trace levels; the entry frame is v9's.
SCHEMA_VERSION = 10

#: Entry frame: ``_MAGIC``, the 16-byte BLAKE2b digest of the pickle, the
#: pickle.  Pickle decodes many damaged streams into plausible objects, so the
#: digest is checked first and a damaged stream is never unpickled.
_MAGIC = b"repro-result-v9\n"
_DIGEST_SIZE = 16
_HEADER_SIZE = len(_MAGIC) + _DIGEST_SIZE


def _digest(payload) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


def _unframe(entry: memoryview) -> Optional[ScenarioResult]:
    """The result an entry frame holds, or None when the entry is damaged, stale or foreign."""
    payload = entry[_HEADER_SIZE:]
    if entry[: len(_MAGIC)] != _MAGIC or entry[len(_MAGIC) : _HEADER_SIZE] != _digest(payload):
        return None
    try:
        result = pickle.loads(payload)
    except Exception:  # verified bytes, so a stale class layout: pickle documents no closed list
        return None
    return result if isinstance(result, ScenarioResult) else None


#: Source files that cannot influence a simulation result and are therefore
#: excluded from the code-version salt (editing them must not invalidate the
#: cache).  ``worker.py`` is the remote-executor entry loop: like the runner
#: package it decides where scenarios run, never what they compute, and the
#: ``obs`` telemetry package only watches -- it never touches simulated time
#: or any seeded RNG stream, so its edits cannot change a result either.
_SALT_EXCLUDED_PARTS = ("runner", "experiments", "obs")
_SALT_EXCLUDED_FILES = ("cli.py", "__main__.py", "worker.py")

_code_salt: Optional[str] = None

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, the encoder built once.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def code_salt() -> str:
    """Digest of every source file that determines simulation results.

    Computed once per process over the ``repro`` package sources (excluding
    the runner itself, the experiment table definitions and the CLI, none of
    which affect what :func:`~repro.workloads.scenarios.run_scenario` returns
    for a given scenario).
    """
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(f"schema:{SCHEMA_VERSION}".encode())
        # Pickled entries are not guaranteed portable across interpreters.
        digest.update(f"python:{sys.version_info[0]}.{sys.version_info[1]}".encode())
        for path in sorted(package_root.rglob("*.py")):
            relative = path.relative_to(package_root)
            if relative.parts and relative.parts[0] in _SALT_EXCLUDED_PARTS:
                continue
            if relative.name in _SALT_EXCLUDED_FILES:
                continue
            digest.update(str(relative).encode())
            digest.update(path.read_bytes())
        _code_salt = digest.hexdigest()
    return _code_salt


def cache_key(
    scenario: Scenario,
    check_guarantees: bool,
    trace_level: str = "full",
    salt: Optional[str] = None,
) -> str:
    """Stable content hash of ``(scenario, check_guarantees, trace_level, salt)``.

    The scenario's display ``name`` is cosmetic (it never influences the
    simulation), so differently-labelled but otherwise identical scenarios
    share one cache entry; the runner re-attaches the requested scenario on
    a hit.  ``trace_level`` is part of the key because it changes what the
    stored result contains (a full trace versus streamed scalars only).
    ``grace`` is keyed as given at both trace levels (every run honours it).
    The shard plan is keyed *resolved* (``shards=None`` and an explicit equal
    count share one entry); it is part of the key because the stored result's
    provenance (``shard_count``, ``shard_horizons``) records it, even though
    the measured values are shard-invariant by construction.  The simulation
    kernel is keyed *resolved* too (``kernel=None`` and the matching
    ``REPRO_KERNEL`` spelling share one entry), because the selection decides
    which engine recorded the stored result and whether it carries fallback
    notes -- parity between the engines is enforced elsewhere, not assumed
    here.
    """
    description = scenario_to_dict(scenario)
    description.pop("name", None)
    description["shards"] = resolve_shards(scenario)
    description["kernel"] = resolve_kernel(scenario)
    payload = {
        "scenario": description,
        "check_guarantees": bool(check_guarantees),
        "trace_level": trace_level,
        "salt": salt if salt is not None else code_salt(),
    }
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def default_cache_dir() -> Path:
    """The cache directory used when none is configured.

    ``REPRO_CACHE_DIR`` wins; otherwise results go to ``~/.cache/repro-sweeps``
    (or ``$XDG_CACHE_HOME/repro-sweeps`` when set).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sweeps"


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


class ResultCache:
    """Pickle-per-entry result cache rooted at ``directory``.

    Entries are sharded into 256 subdirectories by key prefix and written
    atomically (temp file + rename), so concurrent sweep runs can share a
    cache directory safely.  A damaged, stale or foreign entry is deleted and
    counts as a miss: it is recomputed, never served and never raised.
    """

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = CacheStats()

    def __repr__(self) -> str:
        return f"ResultCache({str(self.directory)!r})"

    def _path(self, key: str) -> str:
        # A string, not two ``Path`` objects per lookup; ``directory`` is read on
        # every call, so re-assigning it re-points the cache.
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def _count(self, what: str, key: str) -> None:
        """Bump a :class:`CacheStats` field and mirror it into telemetry.

        The ``enabled()`` guard keeps the disabled path allocation-free: no
        event-detail dict is built unless a tracer is installed.
        """
        setattr(self.stats, what, getattr(self.stats, what) + 1)
        obs.inc(f"cache.{what}")
        if obs.enabled():
            singular = {"hits": "hit", "misses": "miss", "stores": "store"}[what]
            obs.event(f"cache.{singular}", {"key": key, "backend": "disk"})

    def get(self, key: str) -> Optional[ScenarioResult]:
        """Return the cached result for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb", buffering=0) as handle:  # one whole-file read needs no buffer
                result = _unframe(memoryview(handle.read()))
        except FileNotFoundError:
            self._count("misses", key)
            return None
        except OSError:
            result = None
        if result is None:
            # Unreadable or damaged (torn write, bit rot, foreign content):
            # drop it and recompute.
            with contextlib.suppress(OSError):
                os.unlink(path)
            self._count("misses", key)
            return None
        self._count("hits", key)
        return result

    def put(self, key: str, result: ScenarioResult) -> None:
        """Store ``result`` under ``key`` atomically.

        Best-effort: an unwritable or full cache directory must not kill the
        sweep that produced the result, so storage errors are swallowed (the
        entry simply is not cached).  Whatever interrupts the write, the temp
        file does not outlive it.
        """
        path = self._path(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        tmp_name = None
        try:
            parent = os.path.dirname(path)
            os.makedirs(parent, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC + _digest(payload))
                handle.write(payload)
            os.replace(tmp_name, path)
            tmp_name = None  # renamed into place: nothing left to clean up
        except OSError:
            return
        finally:
            if tmp_name is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
        self._count("stores", key)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry and every orphaned temp file; return how many entries were removed."""
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*/*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.directory.glob("*/*.tmp"):
                path.unlink(missing_ok=True)
        return removed
