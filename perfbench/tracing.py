"""Spans around the package's public functions, for the traced run only.

`Tracer.install` replaces each traced function at every name it is looked
up under: the defining module, the modules that imported it by name (for
example both `maskdiff.models.dm_marginals_full` and
`maskdiff.sampler.dm_marginals_full`) and the package namespace. Calls
between the package's own modules therefore pass through the wrapper too.
`uninstall` puts the originals back.

Spans (name, start, end, parent id) are kept in memory and written out by
`dump`. A layer's self time is its span's duration minus the time covered
by its child spans; the program is single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# (module, function) pairs, named as the per-layer metrics name them.
TRACED = (
    ("models", "dm_marginals_full"),
    ("models", "dm_marginals_causal"),
    ("models", "ar_conditional"),
    ("sampler", "sample"),
    ("sampler", "dcd_step"),
    ("sampler", "diffusion_only_step"),
    ("sampler", "dcd_ar_unmask_step"),
    ("sampler", "enumerate_step_distribution"),
    ("sampler", "enumerate_aux_distribution"),
    ("harness", "induced_distribution"),
    ("harness", "elbo_bound"),
    ("noising", "brute_reverse_posterior"),
    ("noising", "forward_state_distribution"),
    ("noising", "remask_kernel"),
    ("noising", "aux_posterior"),
    ("dist", "total_correlation"),
    ("dist", "univariate_marginals"),
    ("dist", "condition"),
    ("iproj", "iproject_exact"),
    ("iproj", "apply_factors"),
    ("iproj", "dcd_factors"),
    ("iproj", "iproject_descent"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self._stack: list[int] = []
        self._enabled = False
        self._only: set[str] | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "maskdiff" or k.startswith("maskdiff.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"maskdiff.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._enabled or (self._only is not None and name not in self._only):
                return fn(*args, **kwargs)
            span = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.child_time.append(0.0)
            self.ends.append(0.0)
            self._stack.append(span)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.ends[span] = end
                self._stack.pop()
                if self._stack:
                    self.child_time[self._stack[-1]] += end - self.starts[span]

        return wrapper

    @contextmanager
    def recording(self, only: set[str] | None = None) -> Iterator[None]:
        """Record spans inside the block; with `only`, just those layers."""
        self._enabled, self._only = True, only
        try:
            yield
        finally:
            self._enabled, self._only = False, None

    def recorded(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """fn, recording spans while it runs."""

        def call(*args: Any, **kwargs: Any) -> Any:
            with self.recording():
                return fn(*args, **kwargs)

        return call

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_ms = dict.fromkeys(LAYER_NAMES, 0.0)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ms[name] += (self.ends[i] - self.starts[i] - self.child_time[i]) * 1000.0
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ms[name], "ms")
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_us": round((self.starts[i] - t0) * 1e6, 1),
                            "end_us": round((self.ends[i] - t0) * 1e6, 1),
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )
