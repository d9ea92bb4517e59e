"""Outside-in tracer for the per-layer metrics.

``Tracer.install`` wraps public functions and methods of the ``xychain``
modules from outside the package and times every call into them.  A call's
self time is its duration minus the time spent in wrapped calls beneath it.
Nothing inside ``src/`` changes, and an untraced pass runs the code as it is.

Modules are resolved with ``importlib.import_module("xychain.<m>")``: the
package rebinds the name ``xychain.pfaffian`` to the function.  A module-level
function is replaced in every loaded ``xychain`` namespace that binds it
(``from .x import f`` copies make several); a method is replaced on its class.
A name that no longer exists is reported as absent, not as an error.  The
hot scalar accessors (``KernelCache.v/e/o``) are deliberately not wrapped.
"""

import functools
import importlib
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field

MB = 1e6


@dataclass(frozen=True)
class Target:
    """One traced layer entry point.

    ``zero_on`` lists the workloads predicted to make no calls (README.md
    names the end-to-end metric each layer should move).  ``cache`` marks an
    entry point that returns cached objects, whose ``hit_ratio`` is counted.
    """

    name: str
    module: str
    attrs: tuple
    zero_on: tuple = ()
    cache: bool = False


# Per-call quantities summed besides time: target -> (metric, f(args, result)).
# The dimension sum becomes a mean in ``Tracer.metrics``.
SIZES = {
    "bessel.bessel_row": ("bessel.bessel_row.orders",
                          lambda args, result: int(args[0]) + 1),
    "quadrature.composite_grid": ("quadrature.composite_grid.nodes",
                                  lambda args, result: len(result[0])),
    "pfaffian.pfaffian": ("pfaffian.pfaffian.mean_dim",
                          lambda args, result: len(args[0])),
    "oracle.build": ("oracle.modes_mb",
                     lambda args, result: 8 * 4 ** int(args[1]) / MB),
}

TARGETS = (
    Target("bessel.bessel_row", "bessel", ("bessel_row",),
           zero_on=("pfaffian_route", "oracle_ring")),
    Target("isotropic.wavepacket", "isotropic", ("wavepacket",)),
    Target("isotropic.PhiState", "isotropic", ("PhiState.__init__",)),
    Target("isotropic.PhiState.coefficients", "isotropic",
           ("PhiState.coefficients",)),
    Target("quadrature.composite_grid", "quadrature", ("composite_grid",)),
    Target("model.propagation_kernels", "model", ("propagation_kernels",)),
    Target("correlators.kernels", "correlators", ("kernels",), cache=True),
    Target("correlators.vacuum_contractions", "correlators",
           ("vacuum_contractions",), cache=True),
    Target("correlators.bell_contractions", "correlators",
           ("bell_contractions",)),
    Target("pfaffian.pfaffian", "pfaffian", ("pfaffian",),
           zero_on=("bessel_route", "oracle_ring")),
    Target("pfaffian.spin_correlator", "pfaffian", ("spin_correlator",),
           zero_on=("bessel_route", "oracle_ring")),
    Target("pfaffian.magnetization", "pfaffian", ("magnetization",),
           zero_on=("bessel_route", "oracle_ring")),
    Target("measures.bundle_from_contractions", "measures",
           ("bundle_from_contractions",)),
    Target("measures.rho2_from_correlators", "measures",
           ("rho2_from_correlators",)),
    Target("measures.concurrence_closed", "measures",
           ("concurrence_closed",)),
    Target("measures.concurrence_wootters", "measures",
           ("concurrence_wootters",)),
    Target("measures.entropy_vn", "measures", ("entropy_vn",)),
    Target("groundstate.gs_contractions", "groundstate",
           ("gs_contractions",), cache=True),
    Target("oracle.workspace", "oracle", ("workspace",),
           zero_on=("pfaffian_route", "bessel_route"), cache=True),
    Target("oracle.build", "oracle", ("OracleWorkspace.__init__",),
           zero_on=("pfaffian_route", "bessel_route")),
    Target("oracle.evolve", "oracle", ("OracleWorkspace.evolve",),
           zero_on=("pfaffian_route", "bessel_route")),
    Target("oracle.reduce", "oracle",
           ("OracleWorkspace.rho1", "OracleWorkspace.rho2"),
           zero_on=("pfaffian_route", "bessel_route")),
    Target("oracle.expect", "oracle", ("OracleWorkspace.expect",),
           zero_on=("pfaffian_route", "bessel_route")),
    Target("scenarios.run_scenario", "scenarios", ("run_scenario",)),
    Target("scenarios.write_csv", "scenarios", ("write_csv",)),
    Target("selftest.run_case", "selftest", ("run_case",)),
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    hits: int = 0
    size: float = 0.0
    absent: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)


class Tracer:
    """Call counts and self times of the wrapped entry points."""

    def __init__(self):
        self.stats = {t.name: Stat() for t in TARGETS}
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        for target in TARGETS:
            stat = self.stats[target.name]
            try:
                module = importlib.import_module(f"xychain.{target.module}")
            except ImportError:
                module = None
            for path in target.attrs:
                if module is None or not self._patch(module, path, target,
                                                     stat):
                    stat.absent.append(f"{target.module}.{path}")

    def _patch(self, module, path, target, stat):
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = vars(owner).get(attr)
        if original is None or not callable(original):
            return False
        wrapper = self._wrap(original, target, stat)
        if owner is not module:
            setattr(owner, attr, wrapper)
            return True
        for name, loaded in list(sys.modules.items()):
            if name != "xychain" and not name.startswith("xychain."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
        return True

    def _wrap(self, fn, target, stat):
        stack_of = self._stack
        size_metric, size_of = SIZES.get(target.name, (None, None))
        remember = self._remember if target.cache else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if size_of is not None and size_metric not in stat.absent:
                try:
                    stat.size += size_of(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The call no longer has the shape the metric reads.
                    stat.absent.append(size_metric)
            if remember is not None:
                stat.hits += remember(stat, result)
            return result

        return wrapper

    @staticmethod
    def _remember(stat, obj):
        """1 when a cached entry point returns an object it returned before."""
        ref = stat.seen.get(id(obj))
        if ref is not None and ref() is obj:
            return 1
        try:
            stat.seen[id(obj)] = weakref.ref(obj)
        except TypeError:
            stat.seen[id(obj)] = lambda obj=obj: obj
        return 0

    def calls(self):
        return {name: stat.calls for name, stat in self.stats.items()}

    def metrics(self):
        """Flat ``{metric name: value}`` of everything the tracer measured."""
        out = {}
        for target in TARGETS:
            stat = self.stats[target.name]
            out[f"{target.name}.calls"] = stat.calls
            out[f"{target.name}.self_s"] = stat.self_s
            out[f"{target.name}.errors"] = stat.errors
            if target.cache:
                out[f"{target.name}.hit_ratio"] = (
                    stat.hits / stat.calls if stat.calls else 0.0)
            if target.name in SIZES:
                metric = SIZES[target.name][0]
                out[metric] = 0.0 if metric in stat.absent else stat.size
        calls = out["pfaffian.pfaffian.calls"]
        out["pfaffian.pfaffian.mean_dim"] /= max(calls, 1)
        return out

    def absent(self):
        """Entry points and metrics the code no longer offers; they read 0."""
        return [path for stat in self.stats.values() for path in stat.absent]

