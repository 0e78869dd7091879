"""Child side of the benchmark; each mode runs in a fresh interpreter.

    python3 perfbench/shim.py trace FD -- ARGS...   run `rpl ARGS...` traced
    python3 perfbench/shim.py micro SEED            time ctx.mul and ctx.inv

``trace`` wraps the public layer functions named in ``LAYER_FUNCTIONS``
from outside the program, runs ``rpl.cli.main`` exactly as the console
script would, and writes per-function spans and counters as one JSON
document to file descriptor FD. The program's source is not touched.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import sys
from time import perf_counter_ns

# Public functions timed by the traced run, as "module.function" under rpl.
LAYER_FUNCTIONS = (
    "gf.make_field",
    "gf.prime_powers_upto",
    "gf.solve_power_residue",
    "gf.solve_artin_schreier",
    "homma_family.count_affine",
    "homma_family.count_infinity",
    "gs_tower.count_split_chains",
    "semigroup.weierstrass_semigroup",
    "semigroup.minimal_generators",
    "semigroup.check_generator_bounds",
    "bounds.dq_summary",
    "verify.check_gf",
    "verify.check_homma",
    "verify.check_gs",
    "verify.check_semigroup",
    "verify.check_bounds",
)

# A call is cold when the lru_cache behind it missed during the call.
CACHES = {
    "gf.make_field": "gf._build_field",
    "semigroup.weierstrass_semigroup": "semigroup.weierstrass_semigroup",
}

# Fields sampled by the micro-loop: label -> (p, e, multiplications, inversions).
MICRO_FIELDS = {"q256": (2, 8, 4000, 400), "q65536": (2, 16, 1000, 40)}
MICRO_ROUNDS = 5


def _lookup(qualname: str):
    module_name, attr = qualname.split(".")
    return getattr(sys.modules.get(f"rpl.{module_name}"), attr, None)


def _misses(cache) -> int:
    info = getattr(cache, "cache_info", None)
    return info().misses if info else 0


class Tracer:
    """Spans around wrapped calls, kept in memory until the process ends.

    A call made while a span of the same function is open (recursion) gets
    no span of its own, so only the top-level call is counted.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, ns, self_ns]
        self.counters: dict[str, int] = {}
        self._open: list[list] = []  # [name, ns spent in child spans]

    def call(self, name: str, fn, *args, **kwargs):
        if any(frame[0] == name for frame in self._open):
            return fn(*args, **kwargs)
        frame = [name, 0]
        self._open.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self._open.pop()
            if self._open:
                self._open[-1][1] += elapsed
            totals = self.spans.setdefault(name, [0, 0, 0])
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[1]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, cache):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top_level = not any(frame[0] == name for frame in self._open)
            before = _misses(cache)
            result = self.call(name, fn, *args, **kwargs)
            if top_level and name in CACHES:
                # a cache that a refactor removed makes every call cold
                cold = cache is None or _misses(cache) > before
                self.count(f"{name}.cold", int(cold))
                if name == "semigroup.weierstrass_semigroup" and cold:
                    self.count("semigroup.window_bytes", len(getattr(result, "window", b"")))
            if top_level and name == "semigroup.minimal_generators":
                self.count("semigroup.generators", len(getattr(result, "gens", ())))
            return result

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every LAYER_FUNCTIONS entry wherever rpl looks it up.

    Modules that did ``from .gf import solve_artin_schreier`` hold their own
    reference, and verify dispatches through a dict, so every module global
    and every dict value in a module global that is the original function
    is replaced. Returns the names that no longer exist.
    """
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rpl"]
    absent = []
    for qualname in LAYER_FUNCTIONS:
        original = _lookup(qualname)
        if original is None:
            absent.append(qualname)
            continue
        cache = _lookup(CACHES[qualname]) if qualname in CACHES else None
        wrapper = tracer.wrap(qualname, original, cache)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dict_key, entry in value.items():
                        if entry is original:
                            value[dict_key] = wrapper
    return absent


def trace(fd: int, argv: list[str]) -> int:
    from rpl import cli

    tracer = Tracer()
    absent = install(tracer)
    try:
        code = tracer.call("cli.main", cli.main, argv)
        sys.stdout.flush()
    finally:
        with os.fdopen(fd, "w") as sink:
            json.dump({"spans": tracer.spans, "counters": tracer.counters, "absent": absent}, sink)
    return code


def _ns_per_op(op, operands) -> float:
    """Median over MICRO_ROUNDS of the mean time of one op call."""
    rounds = []
    for _ in range(MICRO_ROUNDS):
        start = perf_counter_ns()
        for args in operands:
            op(*args)
        rounds.append((perf_counter_ns() - start) / len(operands))
    return statistics.median(rounds)


def micro(seed: int) -> int:
    """Seeded loop over the public ctx.mul and ctx.inv; prints ns per call."""
    from rpl.gf import make_field

    rng = random.Random(seed)
    out: dict[str, float] = {}
    wrong = []
    for label, (p, e, n_mul, n_inv) in MICRO_FIELDS.items():
        ctx = make_field(p, e)
        draw = lambda: ctx.element(rng.randrange(1, ctx.q))  # noqa: E731
        pairs = [(draw(), draw()) for _ in range(n_mul)]
        units = [(draw(),) for _ in range(n_inv)]
        out[f"gf.mul.{label}.ns"] = _ns_per_op(ctx.mul, pairs)
        out[f"gf.inv.{label}.ns"] = _ns_per_op(ctx.inv, units)
        if any(ctx.mul(a, b) != ctx.mul(b, a) for a, b in pairs[:100]):
            wrong.append(f"{label}: mul is not commutative")
        if any(ctx.mul(a, ctx.inv(a)) != ctx.one for (a,) in units):
            wrong.append(f"{label}: a * inv(a) != 1")
    print(json.dumps({"metrics": out, "wrong": wrong}))
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "trace":
        if sys.argv[3] != "--":
            sys.exit("usage: shim.py trace FD -- ARGS...")
        sys.exit(trace(int(sys.argv[2]), sys.argv[4:]))
    if mode == "micro":
        sys.exit(micro(int(sys.argv[2])))
    sys.exit(f"unknown mode {mode!r}")
