"""Run one `qdp` certificate with every layer boundary traced.

    python perfbench/trace_launch.py SPANS_FILE OP_ID CLI_ARG...

The launcher imports `qdp.cli` (timing the import), wraps the public
functions of qdp.groups, qdp.characters, qdp.dimfun, qdp.steenrod,
qdp.fixrank, qdp.reports and qdp.cli under every name they are looked up
by, then calls `qdp.cli.main` with the remaining arguments.  Each wrapped
call records a span (name, start, end, parent, op id) in memory; the
group operations `mul` and `inv` and a few hot leaves are only counted.
The spans and counters are written to SPANS_FILE as JSON at exit, and
stdout and the exit code are those of the CLI.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("groups", "characters", "dimfun", "steenrod", "fixrank", "reports", "cli")

# Called often enough that a span per call would dominate what it measures;
# their time is charged to the span of their caller.
COUNT_ONLY = frozenset({
    "groups.is_prime", "groups.p_part", "steenrod.binom_mod",
    "steenrod.rank_one_power",
})


def _counted(fn, cell: list):
    def counted(*args):
        cell[0] += 1
        return fn(*args)
    return counted


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent span]
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.mul = [0]
        self.inv = [0]

    def _name(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, fn, name: str, post=None):
        """Wrap `fn` so each call records a span; `post(result, record)`
        may add counters derived from the result."""
        idx = self._name(name)
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        mul = self.mul

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1], mul[0], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.bump(f"{layer}.raised_calls")
                raise
            finally:
                rec[2] = clock()
                rec[5] = mul[0]
                stack.pop()
            if post is not None:
                post(result, rec)
            return result

        return wrapper

    def counter(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import qdp.characters
        import qdp.cli
        import qdp.dimfun
        import qdp.fixrank
        import qdp.groups
        import qdp.reports
        import qdp.steenrod

        modules = {layer: getattr(qdp, layer) for layer in LAYERS}

        posts = {
            "groups.subgroup_closure": self._closure_post,
            "steenrod.is_steenrod_closed":
                lambda res, rec: self.bump("steenrod.closed", int(bool(res[0]))),
            "characters.irreducible_characters":
                lambda res, rec: self.bump("characters.irreducibles", len(res)),
        }

        # module-level public functions, patched under every name that
        # refers to them in any qdp module (from-imports make copies)
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    replace[id(obj)] = self.counter(obj, f"{name}.calls")
                else:
                    replace[id(obj)] = self.span(obj, name, posts.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    setattr(mod, attr, replace[id(obj)])

        # group arithmetic: counted, never spanned
        for cls in (qdp.groups.TableGroup, qdp.groups.QdpGroup):
            cls.mul = _counted(cls.__dict__["mul"], self.mul)
            cls.inv = _counted(cls.__dict__["inv"], self.inv)

        handle = qdp.steenrod.IdealHandle
        handle.__init__ = self.counter(handle.__init__, "steenrod.ideals_built")
        handle.contains = self.span(handle.contains, "steenrod.IdealHandle.contains")
        for cls in (qdp.reports.VerificationReport, qdp.reports.Certificate):
            cls.to_json = self.span(cls.to_json, f"reports.{cls.__name__}.to_json")

        # the CLI serializes through its own module reference to json
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.span(json.dumps, "reports.json_dumps")
        qdp.cli.json = proxy

    def _closure_post(self, result, rec) -> None:
        self.bump("groups.closure_members", len(result))
        self.bump("groups.closure_muls", rec[5] - rec[4])

    def dump(self, path: str, import_s: float) -> None:
        counts = dict(self.counts)
        counts["groups.mul_calls"] = self.mul[0]
        counts["groups.inv_calls"] = self.inv[0]
        with open(path, "w") as fh:
            json.dump({"op": self.op_id, "import_s": import_s,
                       "names": self.names,
                       "spans": [[n, s, e, par, self.op_id]
                                 for n, s, e, par, _, _ in self.spans],
                       "counts": counts}, fh)


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: trace_launch.py SPANS_FILE OP_ID CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import qdp.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(op_id)
    tracer.install()
    try:
        code = qdp.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
