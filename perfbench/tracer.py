"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

`Recorder.install` replaces every public function bound in a `qperiod`
module's namespace with a wrapper that records one span per call: the
function, start, end and the span that was open when it was called.  A
name imported with `from .x import y` is patched where it is bound, so
calls between modules go through the wrapper as well.  The methods of
`CyclotomicInt` and `HalfLaurent` written in the package source
(including `__post_init__`) are wrapped on their classes.  Spans stay in
memory until `write`.  Nothing is patched unless `install` is called.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("cli", "tau", "liedata", "linkdiag", "qpoly", "cyclo", "modular")
CLASSES = (("cyclo", "CyclotomicInt"), ("qpoly", "HalfLaurent"))


# Work measured from a call's arguments and stored on its span:
# function -> (parameter names, measure).
WORK = {
    "linkdiag.bracket_of_braid": (("b",), lambda b: len(b.letters)),
    "linkdiag.kauffman_bracket": (("d",), lambda d: 2 ** len(d.crossings)),
    "liedata.gauss_sum": (("rs", "r"), lambda rs, r: r**rs.rank),
    "tau.tau_poincare": (("r",), int),
    "tau.tau_brieskorn237": (("r",), int),
    "tau.tau_s3": (("r",), int),
}


def _work_of(fn, name: str):
    if name not in WORK:
        return None
    params, measure = WORK[name]
    sig = inspect.signature(fn)

    def work(args, kwargs) -> int:
        bound = sig.bind(*args, **kwargs).arguments
        return measure(*(bound[p] for p in params))

    return work


def _is_traced_function(obj) -> bool:
    return (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)) and (
        getattr(obj, "__module__", "") or ""
    ).startswith("qperiod.")


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "layer.qualname"
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.fid)

    def wrap(self, fn, name: str):
        """A wrapper that records a span for each call of fn."""
        fid = len(self.names)
        self.names.append(name)
        work = _work_of(fn, name)
        fids, parents, starts, ends, works, stack = (
            self.fid, self.parent, self.start, self.end, self.work, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            works.append(work(args, kwargs) if work else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrapper_for(self, fn, name: str):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self.wrap(fn, name)
        return self._wrappers[id(fn)]

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"qperiod.{m}") for m in MODULES}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_traced_function(obj):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._patch(mod, attr, self._wrapper_for(obj, f"{layer}.{obj.__name__}"))
        for layer, cls_name in CLASSES:
            cls = getattr(mods[layer], cls_name)
            source = inspect.getsourcefile(mods[layer])
            for attr, desc in list(vars(cls).items()):
                kind = type(desc) if isinstance(desc, (classmethod, staticmethod)) else None
                fn = desc.__func__ if kind else desc
                if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                    continue  # dataclass-generated methods are not package source
                w = self._wrapper_for(fn, f"{layer}.{fn.__qualname__}")
                self._patch(cls, attr, kind(w) if kind else w)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def write(self, path: str, first: int = 0) -> None:
        """The spans from index `first` on, one line each: parent line
        (-1 for none), name, start and end in seconds from the first span's
        start, and the work measured from the call's arguments."""
        t0 = self.start[first] if first < len(self.fid) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("parent\tname\tstart_s\tend_s\twork\n")
            for i in range(first, len(self.fid)):
                p = self.parent[i]
                fh.write(f"{p - first if p >= first else -1}\t{self.names[self.fid[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.work[i]}\n")


class SpanTable:
    """Totals derived from spans in one pass: calls, work and self time
    per function, and for chosen groups of functions the time inside the
    group with nested calls counted once.

    A span's self time is its duration minus the durations of its child
    spans.  Parents are recorded before their children, so a forward pass
    over the spans sees every parent first."""

    def __init__(self, names, fid, parent, start, end, work, groups: dict[str, set[str]]):
        self.names = list(names)
        nf = len(self.names)
        self.count = [0] * nf
        self.work = [0] * nf
        self.self_time = [0.0] * nf
        # bit g of gbits[f] is set when function f belongs to group g;
        # anc[i] holds the groups of the spans strictly above span i
        order = list(groups)
        gbits = [sum(1 << g for g, grp in enumerate(order) if name in groups[grp])
                 for name in self.names]
        group_time = [0.0] * len(order)
        anc = array("Q", bytes(8 * len(fid)))
        for i in range(len(fid)):
            f, p, d = fid[i], parent[i], end[i] - start[i]
            self.count[f] += 1
            self.work[f] += work[i]
            self.self_time[f] += d
            a = 0
            if p >= 0:
                self.self_time[fid[p]] -= d  # the parent's self time excludes this span
                a = anc[i] = anc[p] | gbits[fid[p]]
            outer = gbits[f] & ~a
            g = 0
            while outer:
                if outer & 1:
                    group_time[g] += d
                outer >>= 1
                g += 1
        self.group_time = dict(zip(order, group_time))

    def _ids(self, names) -> list[int]:
        return [f for f, name in enumerate(self.names) if name in names]

    def calls(self, names) -> int:
        return sum(self.count[f] for f in self._ids(names))

    def work_sum(self, names) -> int:
        return sum(self.work[f] for f in self._ids(names))

    def inclusive(self, group: str) -> float:
        """Time inside the group's functions, nested calls counted once."""
        return self.group_time[group]

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in zip(self.names, self.self_time)
                   if name.split(".", 1)[0] == layer)


TAU_LEVELS = {"tau.tau_poincare", "tau.tau_brieskorn237", "tau.tau_s3"}
FP = {"modular.fp_rem", "modular.fp_gcd", "modular.fp_divides"}
VERIFY = {"liedata.verify_gauss_magnitude", "liedata.verify_ratio"}

GROUPS = {
    "tau.value": TAU_LEVELS | {"tau.tau_for"},
    "tau.quotient": {"tau.quotient_congruence_test"},
    "cyclo.mul": {"cyclo.CyclotomicInt.__mul__"},
    "cyclo.ohtsuki": {"cyclo.ohtsuki_expansion"},
    "cyclo.ideal_member": {"cyclo.ideal_member"},
    "modular.is_prime": {"modular.is_prime"},
    "modular.fp": FP,
    "qpoly.reduce_mod": {"qpoly.reduce_mod"},
    "linkdiag.transfer": {"linkdiag.bracket_of_braid"},
    "linkdiag.state_sum": {"linkdiag.kauffman_bracket"},
    "linkdiag.parse_pd": {"linkdiag.parse_pd"},
    "liedata.gauss_sum": {"liedata.gauss_sum"},
    "liedata.f_unknot": {"liedata.f_unknot"},
    "liedata.verify": VERIFY,
}

# (metric, unit, how): how is ("calls" | "work", names), ("incl", group)
# or ("self", layer)
LAYER_METRICS = (
    ("cli.calls", "count", ("calls", {"cli.main"})),
    ("cli.self_s", "s", ("self", "cli")),
    ("tau.levels", "count", ("calls", TAU_LEVELS)),
    ("tau.value_s", "s", ("incl", "tau.value")),
    ("tau.self_s", "s", ("self", "tau")),
    ("tau.quotient_s", "s", ("incl", "tau.quotient")),
    ("cyclo.mul_calls", "count", ("calls", GROUPS["cyclo.mul"])),
    ("cyclo.mul_s", "s", ("incl", "cyclo.mul")),
    ("cyclo.elements_built", "count", ("calls", {"cyclo.CyclotomicInt.__post_init__"})),
    ("cyclo.ohtsuki_calls", "count", ("calls", GROUPS["cyclo.ohtsuki"])),
    ("cyclo.ohtsuki_s", "s", ("incl", "cyclo.ohtsuki")),
    ("cyclo.ideal_member_calls", "count", ("calls", GROUPS["cyclo.ideal_member"])),
    ("cyclo.ideal_member_s", "s", ("incl", "cyclo.ideal_member")),
    ("cyclo.self_s", "s", ("self", "cyclo")),
    ("modular.is_prime_calls", "count", ("calls", GROUPS["modular.is_prime"])),
    ("modular.is_prime_s", "s", ("incl", "modular.is_prime")),
    ("modular.fp_calls", "count", ("calls", FP)),
    ("modular.fp_s", "s", ("incl", "modular.fp")),
    ("modular.self_s", "s", ("self", "modular")),
    ("qpoly.mul_calls", "count", ("calls", {"qpoly.HalfLaurent.__mul__"})),
    ("qpoly.from_dict_calls", "count", ("calls", {"qpoly.HalfLaurent.from_dict"})),
    ("qpoly.reduce_mod_calls", "count", ("calls", GROUPS["qpoly.reduce_mod"])),
    ("qpoly.reduce_mod_s", "s", ("incl", "qpoly.reduce_mod")),
    ("qpoly.self_s", "s", ("self", "qpoly")),
    ("linkdiag.transfer_calls", "count", ("calls", GROUPS["linkdiag.transfer"])),
    ("linkdiag.transfer_letters", "count", ("work", GROUPS["linkdiag.transfer"])),
    ("linkdiag.transfer_s", "s", ("incl", "linkdiag.transfer")),
    ("linkdiag.state_sum_calls", "count", ("calls", GROUPS["linkdiag.state_sum"])),
    ("linkdiag.state_sum_states", "count", ("work", GROUPS["linkdiag.state_sum"])),
    ("linkdiag.state_sum_s", "s", ("incl", "linkdiag.state_sum")),
    ("linkdiag.parse_pd_s", "s", ("incl", "linkdiag.parse_pd")),
    ("linkdiag.self_s", "s", ("self", "linkdiag")),
    ("liedata.gauss_sum_calls", "count", ("calls", GROUPS["liedata.gauss_sum"])),
    ("liedata.cosets", "count", ("work", GROUPS["liedata.gauss_sum"])),
    ("liedata.gauss_sum_s", "s", ("incl", "liedata.gauss_sum")),
    ("liedata.f_unknot_s", "s", ("incl", "liedata.f_unknot")),
    ("liedata.verify_s", "s", ("incl", "liedata.verify")),
    ("liedata.self_s", "s", ("self", "liedata")),
)


def layer_metrics(table: SpanTable, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced round."""
    out = {}
    for name, unit, (how, arg) in LAYER_METRICS:
        if how == "calls":
            v = table.calls(arg)
        elif how == "work":
            v = table.work_sum(arg)
        elif how == "incl":
            v = table.inclusive(arg)
        else:
            v = table.layer_self(arg)
        out[name] = (v / rounds, unit)
    return out


def table_of(rec: Recorder) -> SpanTable:
    return SpanTable(rec.names, rec.fid, rec.parent, rec.start, rec.end, rec.work, GROUPS)


def repeats(rec: Recorder, names) -> tuple[int, int]:
    """(calls, distinct (function, work) pairs) among the named functions;
    for the tau levels the work is r, so a pair is one (manifold, r)."""
    ids = {f for f, name in enumerate(rec.names) if name in names}
    keys = [(f, w) for f, w in zip(rec.fid, rec.work) if f in ids]
    return len(keys), len(set(keys))
