"""Run one complat CLI command with its layers traced from outside.

    python perfbench/tracer.py OUT.json SPAWN_TS -- <complat arguments>

The program is not edited. Before `complat.cli.main` runs, every function
named in LAYERS is replaced, in the globals of every loaded `complat.*`
module that holds it, by a wrapper that records a span (name, start, end,
parent) in memory. `stackmodel` and `cli` hold `from .arrangement import`
copies, which is why the patch goes by object identity and not by
attribute name. Functions in COUNTED only count their calls.

At exit the spans are reduced to calls and self time per function (span
time minus the time its child spans cover) and written, with the layer
counters, to OUT.json. SPAWN_TS is `time.monotonic()` in the parent just
before it spawned this process; `time.monotonic` reads the system-wide
monotonic clock on Linux, so the difference gives the start-up time of
the interpreter plus the import of complat.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = {
    "qlinalg": ("rref", "kernel", "span", "intersect"),
    "arrangement": ("dd_cone", "cells", "flats", "rays_of_constraints", "restrict"),
    "stackmodel": (
        "load_spec",
        "enumerate_special_faces",
        "cell_orbits",
        "hall_category",
        "verify_hall_category",
        "hall_composition_weight_identity",
        "constancy_check",
        "special_cone_closure",
    ),
    "linmoduli": (
        "iso_classes",
        "hall_product",
        "subrep_spaces",
        "sub_rep",
        "verify_counting_hall",
        "hall_category_lms",
        "verify_lms_category",
        "cross_check_special_faces",
    ),
    "jsonio": ("load_document", "jsonable", "document_digest"),
}
COUNTED = {"qlinalg": ("dot",)}
COUNTERS = (
    "arrangement.dd_cone.rays_out",
    "arrangement.dd_in_cells",  # dd_cone calls made inside cells
    "arrangement.cells.out",
    "arrangement.flats.out",
    "stackmodel.weyl_order",
    "stackmodel.hall_category.morphisms",
    "stackmodel.verify_hall_category.triples",
    "linmoduli.iso_classes.sweep_units",
    "linmoduli.iso_classes.cap_use",
    "linmoduli.subrep_spaces.yielded",
    "linmoduli.verify_lms_category.triples",
)
# counters that hold a maximum; every other counter is a sum
MAX_COUNTERS = ("stackmodel.weyl_order", "linmoduli.iso_classes.cap_use")


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Sum per name of span duration minus the duration of its direct
    children. Spans are single-threaded, so children never overlap."""
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + ends[i] - starts[i] - child[i]
    return out


class Tracer:
    def __init__(self, lm=None):
        self.keys: list[str] = []
        self.key_index: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.open_count: dict[str, int] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.lm = lm  # complat.linmoduli, for the sweep-size counters

    def _open(self, key: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self.key_index[key])
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.open_count[key] += 1
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, key: str, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()
        self.open_count[key] -= 1

    def _add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, key: str, fn):
        """A span-recording wrapper for fn. Generators are timed on every
        resumption, so their spans nest with the caller's own spans."""
        self.key_index[key] = len(self.keys)
        self.keys.append(key)
        self.calls[key] = 0
        self.open_count[key] = 0
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(key)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(key, idx)
                    self._add(key + ".yielded")
                    yield item

            return gen_wrapper

        cache_info = getattr(fn, "cache_info", None)  # lru_cache: wrapped outside it

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            misses = cache_info().misses if cache_info else 0
            idx = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(key, idx)
            if after is not None:
                after(result, cache_info is None or cache_info().misses > misses)
            return result

        return wrapper

    def count(self, key: str, fn):
        self.calls[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters taken from results, at the layer boundary -----------------------

    def _after_arrangement_dd_cone(self, result, _computed):
        self._add("arrangement.dd_cone.rays_out", len(result[1]))
        if self.open_count["arrangement.cells"]:
            self._add("arrangement.dd_in_cells")

    def _after_arrangement_cells(self, result, _computed):
        self._add("arrangement.cells.out", len(result))

    def _after_arrangement_flats(self, result, _computed):
        self._add("arrangement.flats.out", len(result))

    def _after_stackmodel_load_spec(self, result, _computed):
        self._max("stackmodel.weyl_order", len(result.weyl_group))

    def _after_stackmodel_hall_category(self, result, _computed):
        self._add("stackmodel.hall_category.morphisms", len(result.morphisms))

    def _after_stackmodel_verify_hall_category(self, result, _computed):
        self._add("stackmodel.verify_hall_category.triples", result.get("triples", 0))

    def _after_linmoduli_verify_lms_category(self, result, _computed):
        self._add("linmoduli.verify_lms_category.triples", result.get("triples", 0))

    def _after_linmoduli_iso_classes(self, result, computed):
        if not computed:
            return  # served by the in-process cache: no sweep was asked for
        units = result.q ** self.lm.rep_space_dim(result.quiver, result.gamma) * result.group_order
        self._add("linmoduli.iso_classes.sweep_units", units)
        self._max("linmoduli.iso_classes.cap_use", units / self.lm.SWEEP_CAP)

    def summary(self) -> dict:
        names = [self.keys[i] for i in self.name_ids]
        return {
            "calls": dict(self.calls),
            "self_s": self_times(names, self.starts, self.ends, self.parents),
            "counters": dict(self.counters),
            "spans": len(names),
        }


def install(tracer: Tracer) -> None:
    """Replace every listed function, by identity, in all complat modules."""
    modules = {n: m for n, m in sys.modules.items() if n == "complat" or n.startswith("complat.")}
    replace = {}
    for table, make in ((LAYERS, tracer.wrap), (COUNTED, tracer.count)):
        for layer, names in table.items():
            for name in names:
                fn = getattr(modules["complat." + layer], name)
                replace[id(fn)] = (fn, make(f"{layer}.{name}", fn))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def main(argv: list[str]) -> int:
    out_path, spawn_ts, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json SPAWN_TS -- <complat arguments>")
    import complat
    import complat.cli
    import complat.linmoduli

    imported = time.monotonic()
    src = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    if not os.path.abspath(complat.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"complat imported from {complat.__file__}, not from {src}")
    tracer = Tracer(complat.linmoduli)
    install(tracer)
    errors = 0
    try:
        return complat.cli.main(cli_args)
    except Exception:
        errors = 1
        raise
    finally:
        sys.stdout.flush()
        record = tracer.summary()
        record["startup_s"] = imported - float(spawn_ts)
        record["errors"] = errors
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
