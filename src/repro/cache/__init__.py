"""Persistent content-addressed compilation cache.

Repeated ``repro compile`` / ``repro tables`` runs dominate the
benchmark harness and any service-shaped workload, yet before this
package every run recompiled every function from scratch.  The cache
turns a re-run with unchanged inputs into a near-no-op the way ccache
or a kernel-compilation cache does:

* the **key** (:mod:`.key`) hashes a canonical serialization of the
  input function's IR, the resolved phase list + options + target, and
  a code-version salt derived from the ``repro`` sources themselves;
* the **value** (:mod:`.store`) is the function's
  :class:`~repro.pipeline.FunctionRecord`: the translated function plus
  its per-phase pass statistics, counters, IR measures and move counts;
* **integration** lives in :func:`repro.pipeline.run_phases` (probe
  before the phase loop, store after it); ``--jobs`` pool workers share
  one directory (writes are atomic renames, reads are lock-free,
  corrupted entries silently recompile).

Enable it with ``--cache-dir DIR`` on the CLI, ``cache=`` on the
pipeline entry points, or the ``REPRO_CACHE`` environment variable;
``REPRO_CACHE_LIMIT`` sets an LRU size cap in bytes.  See
``docs/caching.md`` for key derivation, invalidation and recovery
semantics.
"""

from .key import (cache_key, code_version, function_fingerprint,
                  options_fingerprint, target_fingerprint)
from .store import (CACHE_DIR_ENV, CACHE_LIMIT_ENV, CACHE_SALT_ENV,
                    CACHE_STATS_KEYS, CompilationCache, resolve_cache)

__all__ = [
    "CompilationCache", "resolve_cache",
    "cache_key", "code_version", "function_fingerprint",
    "options_fingerprint", "target_fingerprint",
    "CACHE_DIR_ENV", "CACHE_LIMIT_ENV", "CACHE_SALT_ENV",
    "CACHE_STATS_KEYS",
]
