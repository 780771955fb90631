"""Kernel-backend registry: pluggable comparison-kernel families.

A :class:`KernelBackend` bundles one implementation family of the edit
kernels — per-pair similarity functions honoring the ``min_similarity``
pushdown contract, per-pair distance functions honoring the
``max_distance`` sentinel contract, and (optionally) a batch scorer the
prewarm path can hand whole candidate batches to.  Three backends ship:

``"python"``
    The banded pure-Python DPs of :mod:`repro.similarity.kernels` — the
    reference implementation every other backend is pinned against.
``"bitparallel"``
    Myers bit-parallel automatons
    (:mod:`repro.similarity.backends.bitparallel`); pure Python, always
    available, ~an order of magnitude fewer interpreted operations.
``"numpy"``
    The bit-parallel per-pair kernels plus the vectorized batch scorer
    (:mod:`repro.similarity.backends.numpy_backend`).

Selection is by name — ``DuplicateDetector.detect(kernel_backend=...)``
and :class:`repro.matching.executor.scheduler.ExecutionSettings` accept
any registered name or ``"auto"``.  ``"auto"`` resolves to the
``REPRO_KERNEL_BACKEND`` environment variable when set, otherwise to
the fastest available backend (``numpy``).  Every backend returns
bitwise-identical results, so switching is purely a performance
decision; the golden suites in ``tests/test_backends.py`` enforce this.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Sequence

from repro.similarity.backends import numpy_backend
from repro.similarity.backends.bitparallel import (
    bitparallel_damerau_levenshtein,
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein,
    bitparallel_levenshtein_similarity,
)

#: Environment override consulted by ``"auto"`` resolution.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Kernel kinds every backend must implement.
KERNEL_KINDS = ("levenshtein", "damerau_levenshtein")


class KernelBackend:
    """One comparison-kernel implementation family.

    Parameters
    ----------
    name:
        Registry key (``"python"``, ``"bitparallel"``, ``"numpy"``).
    similarity_fns:
        ``{kind: fn(left, right, *, min_similarity) -> float}`` for each
        kind in :data:`KERNEL_KINDS`; must honor the pushdown contract
        of :func:`repro.similarity.kernels.banded_levenshtein_similarity`.
    distance_fns:
        ``{kind: fn(left, right, max_distance) -> int}`` honoring the
        ``max_distance + 1`` sentinel contract.
    batch_fns:
        Optional ``{kind: fn(pairs, *, min_similarity) -> list[float]}``
        batch scorers; backends without one fall back to per-pair calls.
    is_available:
        Optional zero-argument probe; backends with unimportable
        dependencies report :attr:`available` ``False`` and are skipped
        by ``"auto"`` resolution.
    """

    __slots__ = (
        "name",
        "_similarity_fns",
        "_distance_fns",
        "_batch_fns",
        "_is_available",
    )

    def __init__(
        self,
        name: str,
        *,
        similarity_fns: Mapping[str, Callable[..., float]],
        distance_fns: Mapping[str, Callable[..., int]],
        batch_fns: Mapping[str, Callable[..., list[float]]] | None = None,
        is_available: Callable[[], bool] | None = None,
    ) -> None:
        missing = [kind for kind in KERNEL_KINDS if kind not in similarity_fns]
        if missing:
            raise ValueError(f"backend {name!r} missing kernels: {missing}")
        self.name = str(name)
        self._similarity_fns = dict(similarity_fns)
        self._distance_fns = dict(distance_fns)
        self._batch_fns = dict(batch_fns or {})
        self._is_available = is_available

    @property
    def available(self) -> bool:
        """Whether the backend can run in this interpreter."""
        return self._is_available is None or bool(self._is_available())

    def similarity_fn(self, kind: str) -> Callable[..., float]:
        """The per-pair similarity kernel for *kind*."""
        try:
            return self._similarity_fns[kind]
        except KeyError:
            raise ValueError(
                f"backend {self.name!r} has no kernel kind {kind!r}"
            ) from None

    def distance_fn(self, kind: str) -> Callable[..., int]:
        """The per-pair distance kernel for *kind*."""
        try:
            return self._distance_fns[kind]
        except KeyError:
            raise ValueError(
                f"backend {self.name!r} has no kernel kind {kind!r}"
            ) from None

    def batch_similarities(
        self,
        kind: str,
        pairs: Sequence[tuple[Any, Any]],
        *,
        min_similarity: float = 0.0,
    ) -> list[float] | None:
        """Score a whole batch at once, or ``None`` if unsupported.

        ``None`` tells the caller to fall back to per-pair calls; a
        returned list is positionally aligned with *pairs* and bitwise
        equal to what the per-pair kernel would produce.
        """
        batch = self._batch_fns.get(kind)
        if batch is None:
            return None
        return batch(pairs, min_similarity=min_similarity)

    def __repr__(self) -> str:
        status = "" if self.available else ", unavailable"
        return f"KernelBackend({self.name!r}{status})"


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add *backend* to the registry (last registration wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of all backends that can run here, registration order."""
    return tuple(
        name for name, backend in _REGISTRY.items() if backend.available
    )


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a backend selector to a concrete registered name.

    ``None`` and ``"auto"`` consult :data:`BACKEND_ENV_VAR`, then prefer
    ``numpy`` when available, then ``bitparallel``.  Environment values
    are case-normalized (``REPRO_KERNEL_BACKEND=NumPy`` means
    ``numpy``) — an environment variable is typed by an operator, not
    an API caller — but a genuinely unknown value still fails loudly.
    Explicit names are validated loudly: an unknown name or an
    explicitly requested unavailable backend raises ``ValueError``
    rather than silently falling back.
    """
    if name is None or name == "auto":
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if env and env != "auto":
            name = env
        else:
            for candidate in ("numpy", "bitparallel", "python"):
                backend = _REGISTRY.get(candidate)
                if backend is not None and backend.available:
                    return candidate
            raise RuntimeError("no kernel backend available")
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        )
    if not backend.available:
        raise ValueError(
            f"kernel backend {name!r} is not available here; "
            f"available: {list(available_backends())}"
        )
    return backend.name


def resolve_backend(name: str | None = None) -> KernelBackend:
    """The :class:`KernelBackend` for a selector (see
    :func:`resolve_backend_name`)."""
    return _REGISTRY[resolve_backend_name(name)]


def get_backend(name: str) -> KernelBackend:
    """Registry lookup by exact name (no ``"auto"`` handling)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def _register_builtin_backends() -> None:
    # Imported lazily: kernels.py consumes this module from inside
    # methods, so a module-level import here must not recurse.
    from repro.similarity.kernels import (
        banded_damerau_levenshtein,
        banded_damerau_levenshtein_similarity,
        banded_levenshtein,
        banded_levenshtein_similarity,
    )

    register_backend(
        KernelBackend(
            "python",
            similarity_fns={
                "levenshtein": banded_levenshtein_similarity,
                "damerau_levenshtein": banded_damerau_levenshtein_similarity,
            },
            distance_fns={
                "levenshtein": banded_levenshtein,
                "damerau_levenshtein": banded_damerau_levenshtein,
            },
        )
    )
    register_backend(
        KernelBackend(
            "bitparallel",
            similarity_fns={
                "levenshtein": bitparallel_levenshtein_similarity,
                "damerau_levenshtein": (
                    bitparallel_damerau_levenshtein_similarity
                ),
            },
            distance_fns={
                "levenshtein": bitparallel_levenshtein,
                "damerau_levenshtein": bitparallel_damerau_levenshtein,
            },
        )
    )
    register_backend(
        KernelBackend(
            "numpy",
            similarity_fns={
                "levenshtein": numpy_backend.numpy_levenshtein_similarity,
                "damerau_levenshtein": (
                    numpy_backend.numpy_damerau_levenshtein_similarity
                ),
            },
            distance_fns={
                "levenshtein": numpy_backend.numpy_levenshtein,
                "damerau_levenshtein": numpy_backend.numpy_damerau_levenshtein,
            },
            batch_fns={
                "levenshtein": numpy_backend.batch_levenshtein_similarities,
                "damerau_levenshtein": (
                    numpy_backend.batch_damerau_levenshtein_similarities
                ),
            },
        )
    )


_register_builtin_backends()
