"""Per-layer spans recorded from outside the program.

`install` swaps module-level bindings in every loaded `pixelwedge` module (and
`PartitionLocator.locate` / `__init__`) for timing wrappers, so internal calls
such as `theorem_sweep -> enumerate_shapes` are seen as child spans. Spans keep
a parent stack; a layer's self time is its duration minus its child spans.
Only aggregates are kept in memory. Hot helpers such as `column_interval` are
left unwrapped: a wrapper would cost more than they do.
"""
from __future__ import annotations

import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # child time of each open span

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0, 0))[0])

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2]

    def span(self, name, fn, after=None, refusal=None):
        """Wrap fn as span `name`; `after(tracer, args, result)` records counters
        on success, and exceptions of class `refusal` are counted per span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if refusal is not None and isinstance(exc, refusal):
                    tracer.add(name + ".refusals")
                raise
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    def counter(self, name, fn):
        """Count calls only; for helpers too cheap to time."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.add(name)
            return fn(*args, **kwargs)

        return wrapper


def _after_sample(tr, args, hist):
    tr.add("samples", hist.n)
    tr.add("resampled", hist.resampled)


def _after_sweep(tr, args, report):
    tr.add("sweep_pairs", len(report.entries))


def _after_enumerate(tr, args, shapes):
    from pixelwedge.shapes import default_window

    slopes = args[0]
    base = args[1] if len(args) > 1 and args[1] is not None else default_window(slopes)
    tr.add("window_factor", shapes[0].window / base)
    tr.add("bitmap_pixels", sum(len(s.bitmap) for s in shapes))


def _after_locator(tr, args, _):
    loc = args[0]
    tr.add("fragments_per_cell", len(loc.fragments) / len(loc.cells))


def _after_path(tr, args, path):
    tr.add("path_vertices", len(path))


def _after_render(key):
    def after(tr, args, data):
        tr.add(key, len(data))

    return after


def install(tracer: Tracer):
    """Wrap the layer entry points; returns an undo function."""
    from pixelwedge import digitize, errors, exact, partition, render, shapes, verify

    domain = errors.DomainError
    targets = [
        (verify, "sample_class_frequencies", "verify.sample_class_frequencies", _after_sample),
        (verify, "theorem_sweep", "verify.theorem_sweep", _after_sweep),
        (verify, "exact_class_areas", "verify.exact_class_areas", None),
        (verify, "hobby_region_check", "verify.hobby_region_check", None),
        (shapes, "enumerate_shapes", "shapes.enumerate_shapes", _after_enumerate),
        (shapes, "class_index", "shapes.class_index", None),
        (shapes, "shape_of_spec", "shapes.shape_of_spec", None),
        (partition, "partition_unit_square", "partition.partition_unit_square", None),
        (digitize, "digitize_angle_path", "digitize.digitize_angle_path", _after_path),
        (digitize, "region_pixels", "digitize.region_pixels", None),
        (digitize, "boundary_loops", "digitize.boundary_loops", None),
        (render, "render_pixelset", "render.render_pixelset", _after_render("pixelset_bytes")),
        (render, "render_partition", "render.render_partition", _after_render("partition_bytes")),
    ]
    swaps = []  # (owner, attribute, original)
    loaded = [m for n, m in sys.modules.items() if n == "pixelwedge" or n.startswith("pixelwedge.")]

    def rebind(orig, wrapped):
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    swaps.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    for mod, attr, name, after in targets:
        orig = getattr(mod, attr)
        rebind(orig, tracer.span(name, orig, after, refusal=domain))
    rebind(exact.extended_gcd, tracer.counter("exact.extended_gcd.calls", exact.extended_gcd))

    loc = partition.PartitionLocator
    for attr, name, after in (("__init__", "partition.locator_build", _after_locator),
                              ("locate", "partition.locate", None)):
        orig = vars(loc)[attr]
        swaps.append((loc, attr, orig))
        setattr(loc, attr, tracer.span(name, orig, after, refusal=domain))

    def undo():
        for owner, attr, orig in reversed(swaps):
            setattr(owner, attr, orig)

    return undo
