"""Per-layer tracing from outside the program.

The tracer replaces every binding of a listed chainext function or method by a
timing wrapper, so no file of the program changes.  A function imported by
name into another module (`from .exactla import solve`) is found by identity
in every chainext module's globals and in module-level dicts such as
`cli.COMMANDS`, and replaced there too.

Each call pushes a frame on one stack.  A call's self time is its duration
minus the time its child calls cover.  Calls of "span" functions are stored
as spans (id, parent span id, name, start, end); calls of hot kernels, which
run millions of times, are aggregated into a counter per (parent span, name)
instead of one span each.  Everything stays in memory until `write_spans`.
"""

import json
from time import perf_counter

# (metric prefix, module, attribute path, hot).  Methods are patched on the
# class; a constructor is traced through its __init__.
WRAP_POINTS = [
    ("exactla.rref", "exactla", "rref", False),
    ("exactla.solve", "exactla", "solve", False),
    ("exactla.rank", "exactla", "rank", False),
    ("exactla.kernel_basis", "exactla", "kernel_basis", False),
    ("exactla.matmul", "exactla", "RatMatrix.__matmul__", True),
    ("exactla.mat_vec", "exactla", "RatMatrix.mat_vec", True),
    ("exactla.RatMatrix", "exactla", "RatMatrix.__init__", True),
    ("complexes.check_l2_conditions", "complexes", "check_l2_conditions", False),
    ("complexes.chain_extend", "complexes", "chain_extend", False),
    ("complexes.verify_nilpotent", "complexes", "verify_nilpotent", False),
    ("complexes.verify_homotopy", "complexes", "verify_homotopy", False),
    ("complexes.total_homology_dims", "complexes", "total_homology_dims", False),
    ("superalg.mul", "superalg", "mul", True),
    ("superalg.antibracket", "superalg", "antibracket", True),
    ("superalg.poisson", "superalg", "poisson", True),
    ("superalg.extend_right_derivation", "superalg",
     "extend_right_derivation", True),
    ("superalg.right_deriv", "superalg", "right_deriv", True),
    ("superalg.left_deriv", "superalg", "left_deriv", True),
    ("superalg.SuperPoly", "superalg", "SuperPoly.__init__", True),
    ("brst.monomial_basis", "brst", "monomial_basis", False),
    ("brst.verify_brst_resolution", "brst", "verify_brst_resolution", False),
    ("brst.build_brst", "brst", "build_brst", False),
    ("brst.check_nilpotent_on_basis", "brst", "check_nilpotent_on_basis", False),
    ("brst.in_constraint_ideal", "brst", "in_constraint_ideal", True),
    ("bv.verify_theorem8", "bv", "verify_theorem8", False),
    ("bv.engine_matrices_match", "bv", "engine_matrices_match", False),
    ("bv.to_homotopy_data", "bv", "to_homotopy_data", False),
    ("bv.find_s0_cocycle", "bv", "find_s0_cocycle", False),
    ("bv.theorem8_maps", "bv", "theorem8_maps", False),
    ("bv.BVModel.bracket", "bv", "BVModel.bracket", True),
    ("shlie.build_shlie", "shlie", "build_shlie", False),
    ("shlie.verify_shlie", "shlie", "verify_shlie", False),
    ("shlie.crosscheck_with_engine", "shlie", "crosscheck_with_engine", False),
    ("shlie.master_relation", "shlie", "master_relation", True),
    ("lie.h2", "lie", "h2", False),
    ("lie.extend_deformation", "lie", "extend_deformation", False),
    ("instances.random_split_instance", "instances",
     "random_split_instance", False),
    ("formats.load", "formats", "load_lie", False),
    ("formats.load", "formats", "load_cochain", False),
    ("formats.load", "formats", "load_brst", False),
    ("formats.load", "formats", "load_bv", False),
    ("formats.load", "formats", "load_extend", False),
] + [("cli.cmd_" + c, "cli", "cmd_" + c, False)
     for c in ("brst", "bv", "shlie", "lie", "extend", "fuzz")]

# Functions reported with inclusive time (`.s`) instead of calls and self time.
INCLUSIVE = {"cli.cmd_" + c for c in ("brst", "bv", "shlie", "lie", "extend",
                                      "fuzz")}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    seen = set()
    for prefix, _, _, _ in WRAP_POINTS:
        if prefix in seen:
            continue
        seen.add(prefix)
        if prefix in INCLUSIVE:
            out.append((prefix + ".s", "s", "lower"))
        elif prefix == "formats.load":
            out.append((prefix + ".self_s", "s", "lower"))
            out.append((prefix + ".bytes", "bytes", "lower"))
        elif prefix == "bv.BVModel.bracket":
            out.append((prefix + ".calls", "count", "lower"))
        else:
            out.append((prefix + ".calls", "count", "lower"))
            out.append((prefix + ".self_s", "s", "lower"))
    out += [
        ("exactla.rref.cells", "count", "lower"),
        ("exactla.rref.nnz_frac", "ratio", "lower"),
        ("exactla.matmul.cells", "count", "lower"),
        ("complexes.check_l2_conditions.solve_calls", "count", "lower"),
        ("superalg.mul.term_pairs", "count", "lower"),
        ("brst.monomial_basis.size", "count", "lower"),
        ("client.wait_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Wraps the listed functions and accumulates calls, self time and spans."""

    def __init__(self):
        self.calls = {}        # prefix -> calls
        self.self_s = {}       # prefix -> summed self time
        self.incl_s = {}       # prefix -> summed inclusive time
        self.counters = {"exactla.rref.cells": 0, "exactla.rref.nnz": 0,
                         "exactla.matmul.cells": 0,
                         "superalg.mul.term_pairs": 0,
                         "brst.monomial_basis.size": 0,
                         "formats.load.bytes": 0}
        self.spans = []        # (id, parent id, name, start, end)
        self.aggregates = {}   # (parent span id, name) -> [calls, incl, self]
        self._stack = [[0.0, 0]]   # frames: [child time, enclosing span id]
        self._next_id = 1
        self._originals = {}   # id(original) -> (original, wrapper)

    # -- observers of arguments and results, for the work counters --------

    def _observe(self, prefix, args, result):
        c = self.counters
        if prefix == "exactla.rref":
            m = args[0]
            c["exactla.rref.cells"] += m.nrows * m.ncols
            c["exactla.rref.nnz"] += sum(1 for row in m.rows for x in row if x)
        elif prefix == "exactla.matmul":
            a, b = args[0], args[1]
            c["exactla.matmul.cells"] += a.nrows * a.ncols * b.ncols
        elif prefix == "superalg.mul":
            c["superalg.mul.term_pairs"] += \
                len(args[0].terms) * len(args[1].terms)
        elif prefix == "brst.monomial_basis":
            c["brst.monomial_basis.size"] += sum(len(g) for g in result)
        elif prefix == "formats.load":
            c["formats.load.bytes"] += len(args[0])

    def _wrap(self, prefix, fn, hot):
        stack = self._stack
        observed = prefix in ("exactla.rref", "exactla.matmul", "superalg.mul",
                              "brst.monomial_basis", "formats.load")
        self.calls.setdefault(prefix, 0)
        self.self_s.setdefault(prefix, 0.0)
        self.incl_s.setdefault(prefix, 0.0)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                parent[0] += dur
                tracer.calls[prefix] += 1
                tracer.self_s[prefix] += own
                tracer.incl_s[prefix] += dur
                if hot:
                    agg = tracer.aggregates.get((parent[1], prefix))
                    if agg is None:
                        agg = tracer.aggregates[(parent[1], prefix)] = \
                            [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
                else:
                    tracer.spans.append((frame[1], parent[1], prefix, t0, t1))
            if observed:
                tracer._observe(prefix, args, result)
                # Counting work is tracing cost: charge it to no layer.
                parent[0] += perf_counter() - t1
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Patch every wrap point of `package` (the imported chainext) and
        every other binding of the same objects.  Raises RuntimeError when a
        wrap point is missing or a binding was left unpatched."""
        modules = {name: getattr(package, name) for name in
                   ("exactla", "complexes", "superalg", "brst", "bv", "shlie",
                    "lie", "instances", "formats", "cli")}
        patched = []
        for prefix, mod_name, path, hot in WRAP_POINTS:
            owner = modules[mod_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                raise RuntimeError("wrap point %s.%s not found"
                                   % (mod_name, path))
            wrapper = self._wrap(prefix, original, hot)
            setattr(owner, attr, wrapper)
            self._originals[id(original)] = (original, wrapper)
            patched.append((owner, attr, wrapper))
        # Rebind names imported elsewhere, and entries of module-level dicts.
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if self._original(value) is not None:
                    setattr(mod, name, self._original(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if self._original(item) is not None:
                            value[key] = self._original(item)
        for owner, attr, wrapper in patched:
            if getattr(owner, attr) is not wrapper:
                raise RuntimeError("wrap point %s.%s was not patched"
                                   % (owner.__name__, attr))
        for mod_name, mod in modules.items():
            for name, value in vars(mod).items():
                items = value.values() if isinstance(value, dict) else [value]
                if any(self._original(v) is not None for v in items):
                    raise RuntimeError("binding %s.%s was left unpatched"
                                       % (mod_name, name))

    def _original(self, value):
        """The wrapper of `value` when it is a traced original, else None."""
        hit = self._originals.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, except trace.overhead_s."""
        out = {}
        for name, _, _ in per_layer_metrics():
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[prefix]
            elif field == "self_s":
                out[name] = self.self_s[prefix]
            elif field == "s":
                out[name] = self.incl_s[prefix]
        c = self.counters
        out.update((k, v) for k, v in c.items() if k != "exactla.rref.nnz")
        out["exactla.rref.nnz_frac"] = (c["exactla.rref.nnz"]
                                        / c["exactla.rref.cells"]
                                        if c["exactla.rref.cells"] else 0.0)
        out["complexes.check_l2_conditions.solve_calls"] = \
            self._solve_calls_under_check_l2()
        # One client, one thread, no queue: no work ever waits.
        out["client.wait_s"] = 0.0
        return out

    def _solve_calls_under_check_l2(self):
        parent_of = {sid: (parent, name) for sid, parent, name, _, _
                     in self.spans}
        count = 0
        for sid, parent, name, _, _ in self.spans:
            if name != "exactla.solve":
                continue
            while parent:
                parent, pname = parent_of[parent]
                if pname == "complexes.check_l2_conditions":
                    count += 1
                    break
        return count

    def write_spans(self, path):
        """Write the spans, then the hot-kernel aggregates, as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            for (parent, name), (n, incl, own) in sorted(
                    self.aggregates.items()):
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": n, "incl_s": incl,
                                     "self_s": own}) + "\n")
