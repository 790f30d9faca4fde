"""In-process spans around the public functions of every hodge_domains module.

A span is recorded around each call of a module-level public function (plus
the few private samplers and class constructors the per-layer counters need),
with its name, start, end, parent span and whether it returned normally.  A
layer is a module; a span's self time is its duration minus the time its
child spans cover, and a layer's ``self_s`` is the sum over its spans.

Modules bind each other's functions by name (``from .exactla import rank``),
so patching ``exactla.rank`` alone would record nothing from ``domain``.
``install`` therefore captures every original function first and then
rebinds the wrapper in every module namespace holding that same object,
including the defining module, so that calls a module makes to itself
(``nullspace`` -> ``rref``) are spans too.  ``uninstall`` restores every
binding; nothing here runs unless a traced run asks for it.
"""

from __future__ import annotations

import functools
import importlib
import time
from fractions import Fraction

PACKAGE = "hodge_domains"
LAYERS = ("cli", "domain", "exactla", "higgs", "hodge", "horizontal", "pi2", "rootcalc", "spheremesh")

# Private functions and classes whose calls the counters below need.
EXTRA_FUNCTIONS = {"horizontal": ("_sample_model_plane",)}
CLASSES = {"horizontal": ("TwoPlane",), "spheremesh": ("SphericalTriangulation",)}

# exactla kernels, grouped as the per-function metrics report them.  A group
# counts the calls entering exactla from another layer; its time includes
# any exactla functions the kernel calls in turn (nullspace -> rref).
KERNEL_GROUPS = {
    "rank": ("rank",),
    "nullspace": ("nullspace", "rref"),
    "solve": ("solve",),
    "det": ("det",),
    "hermitian_definiteness": ("hermitian_definiteness", "hermitian_leading_minors"),
    "rank_int": ("rank_int", "rank_rational", "clear_denominators"),
    "integer_nf": (
        "smith_normal_form",
        "smith_invariant_factors",
        "integer_kernel",
        "hermite_normal_form",
        "lattices_equal",
    ),
}
KERNEL_OF = {f"exactla.{fn}": group for group, fns in KERNEL_GROUPS.items() for fn in fns}

# Every per-layer metric with its unit, in the order they are printed.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "exactla.calls": "count",
    "exactla.entries": "count",
    "exactla.max_bits": "bits",
    "exactla.rank.calls": "count",
    "exactla.rank.self_s": "s",
    "exactla.nullspace.calls": "count",
    "exactla.nullspace.self_s": "s",
    "exactla.solve.self_s": "s",
    "exactla.det.calls": "count",
    "exactla.hermitian_definiteness.calls": "count",
    "exactla.hermitian_definiteness.self_s": "s",
    "exactla.rank_int.calls": "count",
    "exactla.rank_int.self_s": "s",
    "exactla.integer_nf.self_s": "s",
    "domain.membership.calls": "count",
    "domain.flag_accept_ratio": "ratio",
    "domain.projection.calls": "count",
    "domain.codec_s": "s",
    "horizontal.is_regular.calls": "count",
    "horizontal.is_regular.self_s": "s",
    "horizontal.plane_accept_ratio": "ratio",
    "higgs.fields": "count",
    "higgs.codec_s": "s",
    "spheremesh.subdivide_s": "s",
    "spheremesh.validate_s": "s",
    "spheremesh.three_color_s": "s",
    "spheremesh.audit_s": "s",
    "spheremesh.export_s": "s",
    "spheremesh.geometry_per_face": "calls/face",
    "spheremesh.gluing.calls": "count",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_bits(x.re), _bits(x.im))  # GaussianRational


def _ratio(num: int, den: int) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    """Collects spans while installed; ``metrics`` turns them into per-layer figures."""

    def __init__(self):
        self.names: list[str] = []  # interned "layer.function" span names
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order, so a parent precedes its children
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.ok: list[bool] = []
        self.probe_s: dict[int, float] = {}  # span -> seconds spent probing its input
        self.kernel_input: dict[int, tuple[int, int]] = {}  # span -> (entries, max bits)
        self.faces_audited = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}  # original function -> wrapper, captured before any rebinding
        for layer, mod in modules.items():
            extra = EXTRA_FUNCTIONS.get(layer, ())
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module-level value
                    continue
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for layer, class_names in CLASSES.items():
            for class_name in class_names:
                cls = getattr(modules[layer], class_name)
                self._patch(cls, "__init__", self._wrap(cls.__init__, f"{layer}.{class_name}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        probe = self._kernel_probe if name in KERNEL_OF else None
        if name == "spheremesh.audit_mesh":
            probe = self._faces_probe
        ids, parents, starts, ends, oks, stack = (
            self.name_id, self.parent, self.start, self.end, self.ok, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            oks.append(False)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                oks[idx] = True
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
                if probe is not None:
                    probe(idx, args)

        return functools.wraps(fn)(wrapper)

    # Probes run after the span closes; their time is charged to no layer.

    def _kernel_probe(self, idx: int, args) -> None:
        parent = self.parent[idx]
        if parent >= 0 and self.names[self.name_id[parent]].startswith("exactla."):
            return  # only inputs crossing into exactla count
        t0 = time.perf_counter()
        entries = 0
        bits = 0
        for arg in args:
            if isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], (list, tuple)):
                entries += len(arg) * len(arg[0])
                bits = max([bits] + [_bits(x) for row in arg for x in row])
        self.kernel_input[idx] = (entries, bits)
        self.probe_s[idx] = time.perf_counter() - t0

    def _faces_probe(self, idx: int, args) -> None:
        self.faces_audited += args[0].num_faces

    # -- aggregation -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures; ``trace.*`` and ``cli.bytes_out`` are added by the caller."""
        names = [self.names[n] for n in self.name_id]
        count = len(names)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i] + self.probe_s.get(i, 0.0)
        self_time = [d - c for d, c in zip(dur, child)]

        def outermost(members) -> list[int]:
            """Spans named in members with no ancestor named in members."""
            out = []
            for i, name in enumerate(names):
                if name not in members:
                    continue
                p = self.parent[i]
                while p >= 0 and names[p] not in members:
                    p = self.parent[p]
                if p < 0:
                    out.append(i)
            return out

        def with_parent(name: str, parent_name: str) -> int:
            return sum(1 for i, n in enumerate(names)
                       if n == name and self.parent[i] >= 0 and names[self.parent[i]] == parent_name)

        def calls(name: str, ok_only: bool = False) -> int:
            return sum(1 for i, n in enumerate(names) if n == name and (self.ok[i] or not ok_only))

        def total(indices) -> float:
            return sum(dur[i] for i in indices)

        m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, t in zip(names, self_time):
            m[name.split(".", 1)[0] + ".self_s"] += t

        group_calls = dict.fromkeys(KERNEL_GROUPS, 0)
        group_time = dict.fromkeys(KERNEL_GROUPS, 0.0)
        for i in self.kernel_input:
            group = KERNEL_OF[names[i]]
            group_calls[group] += 1
            group_time[group] += dur[i]
        m["exactla.calls"] = sum(group_calls.values())
        m["exactla.entries"] = sum(e for e, _ in self.kernel_input.values())
        m["exactla.max_bits"] = max((b for _, b in self.kernel_input.values()), default=0)
        for group in ("rank", "nullspace", "hermitian_definiteness", "rank_int"):
            m[f"exactla.{group}.calls"] = group_calls[group]
        # Only exactla itself calls det (leading minors, degenerate forms): count every call.
        m["exactla.det.calls"] = calls("exactla.det")
        for group in ("rank", "nullspace", "solve", "hermitian_definiteness", "rank_int", "integer_nf"):
            m[f"exactla.{group}.self_s"] = group_time[group]

        m["domain.membership.calls"] = calls("domain.flag_in_period_domain")
        m["domain.flag_accept_ratio"] = _ratio(
            calls("domain.perturbed_flag", ok_only=True),
            with_parent("domain.flag_in_period_domain", "domain.perturbed_flag"),
        )
        m["domain.projection.calls"] = calls("domain.project_to_symmetric_space")
        m["domain.codec_s"] = total(outermost(
            {"domain.flag_dumps", "domain.flag_loads", "domain.flag_to_json", "domain.flag_from_json"}))

        regular = [i for i, n in enumerate(names) if n == "horizontal.is_regular"]
        m["horizontal.is_regular.calls"] = len(regular)
        m["horizontal.is_regular.self_s"] = sum(self_time[i] for i in regular)
        m["horizontal.plane_accept_ratio"] = _ratio(
            calls("horizontal._sample_model_plane", ok_only=True),
            with_parent("horizontal.TwoPlane", "horizontal._sample_model_plane"),
        )

        m["higgs.fields"] = calls("higgs.random_commuting_higgs", ok_only=True)
        m["higgs.codec_s"] = total(outermost(
            {"higgs.higgs_dumps", "higgs.higgs_loads", "higgs.higgs_to_json", "higgs.higgs_from_json"}))

        construct = "spheremesh.SphericalTriangulation"
        m["spheremesh.subdivide_s"] = total(outermost({"spheremesh.subdivide"})) - total(
            i for i, n in enumerate(names)
            if n == construct and self.parent[i] >= 0 and names[self.parent[i]] == "spheremesh.subdivide")
        m["spheremesh.validate_s"] = total(outermost({construct}))
        m["spheremesh.three_color_s"] = total(outermost({"spheremesh.three_color"}))
        m["spheremesh.audit_s"] = total(outermost({"spheremesh.audit_mesh"}))
        m["spheremesh.export_s"] = total(outermost(
            {"spheremesh.to_off", "spheremesh.sidecar_dumps", "spheremesh.sidecar_document"}))
        m["spheremesh.geometry_per_face"] = _ratio(calls("spheremesh.face_geometry"), self.faces_audited)
        m["spheremesh.gluing.calls"] = calls("spheremesh.gluing_pattern")
        return m
