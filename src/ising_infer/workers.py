"""The worker pool that replications are mapped over.

``ISING_INFER_WORKERS`` sets the number of processes (default 1, which
maps in process). Each replication draws from its own derived stream
(streams.derive_seed), so a result does not depend on the worker count.
It has one caller, htests.DrawSet, which maps its Glauber chains here for
the estimator law and the power curve alike.
"""
from __future__ import annotations

import os

from .errors import ConfigError

WORKERS_ENV = "ISING_INFER_WORKERS"

_task = None  # in a pool worker: the function parallel_map maps


def worker_count() -> int:
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV}: cannot parse {value!r}") from exc
    return max(count, 1)


def _set_task(fn) -> None:
    global _task
    _task = fn


def _run_task(item):
    return _task(item)


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], on worker_count() processes.

    ``fn`` reaches each worker once, through the pool initializer, so
    arguments bound into it (a coupling, say) are not pickled per task.
    """
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_set_task, initargs=(fn,)
    ) as pool:
        chunk = max(len(items) // (4 * workers), 1)
        return list(pool.map(_run_task, items, chunksize=chunk))
