"""Stress corpus for the route of one diamond distance.

Runs ``diamond_sdp`` on random channel pairs of Kraus rank 2 against rank 3,
drawn as ``tests/helpers.random_channel`` draws them (80 pairs at d = 2 and
tol 1e-9 from seed 1001; 12 pairs at d = 4 from seed 1002, at tol 1e-8 and
1e-9), and on the six route pairs of ``tests/test_sdp.py``. For each input
set it prints how many results each route gave (the bracket at rho = I/d,
the unitary-pair bracket, the reference iteration, the engine, the dual
fallback), how often the reference iteration gave up, the engine's solves
and iterations, the ``NoConvergenceError``s and the wall time.

Every bracket must intersect the one stored for its pair in
``stress_brackets.json`` next to this file: both certify the same distance.
The tool exits 1 on a ``NoConvergenceError`` or on a bracket that does not
intersect its stored one. Run from the repository root:

    PYTHONPATH=src python3 tools/stress.py
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import helpers  # noqa: E402
from test_sdp import _route_pairs  # noqa: E402

from chanapprox import diamond_sdp, sdp  # noqa: E402
from chanapprox.errors import NoConvergenceError  # noqa: E402

STORED = Path(__file__).with_name("stress_brackets.json")
ROUTES = ("I/d", "pair", "iteration", "engine", "dual")


def _random_pairs(d: int, count: int, seed: int) -> list:
    gen = helpers.rng(seed)
    return [
        (helpers.random_channel(d, 2, gen), helpers.random_channel(d, 3, gen))
        for _ in range(count)
    ]


def input_sets() -> dict:
    """Each input set's name and its (a, b, tol) triples."""
    d2, d4 = _random_pairs(2, 80, 1001), _random_pairs(4, 12, 1002)
    return {
        "d2-1e-9": [(a, b, 1e-9) for a, b in d2],
        "d4-1e-8": [(a, b, 1e-8) for a, b in d4],
        "d4-1e-9": [(a, b, 1e-9) for a, b in d4],
        "routes": list(_route_pairs().values()),
    }


class _Census:
    """Wraps the route functions of ``sdp`` while active and logs, per
    distance, the requests and closed forms it passes through, as the route
    test of ``tests/test_sdp.py`` does."""

    def __init__(self):
        self.trail: list[str] = []
        self.iterations = 0
        self._saved = {}

    def __enter__(self):
        trail = self.trail
        brackets, paired, iterated, solve = (
            sdp._brackets, sdp._unitary_pair_solution, sdp._reference_iteration, sdp._solve_batch
        )

        def bracket_census(requests):
            trail.append("I/d")
            return brackets(requests)

        def pair_census(*args):
            trail.append("pair")
            return paired(*args)

        def iteration_census(*args):
            sol = iterated(*args)
            trail.append("iteration" if sol is not None else "iteration gives up")
            return sol

        def solve_census(progs, tols):
            sols = solve(progs, tols)
            trail.extend("dual" if isinstance(p, sdp._DualProgram) else "engine" for p in progs)
            self.iterations += sum(sol.iterations for sol in sols)
            return sols

        patches = {
            "_brackets": bracket_census,
            "_unitary_pair_solution": pair_census,
            "_reference_iteration": iteration_census,
            "_solve_batch": solve_census,
        }
        for name, fn in patches.items():
            self._saved[name] = getattr(sdp, name)
            setattr(sdp, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(sdp, name, fn)


def run_set(triples) -> dict:
    """The brackets of one input set (None for an error) and its census; a
    result is counted under the last route its distance passed through."""
    routes, brackets, errors = Counter(), [], 0
    gave_up = solves = duals = 0
    start = time.perf_counter()
    with _Census() as census:
        for a, b, tol in triples:
            census.trail.clear()
            try:
                res = diamond_sdp(a, b, tol)
            except NoConvergenceError:
                errors += 1
                brackets.append(None)
                continue
            finally:
                gave_up += census.trail.count("iteration gives up")
                solves += census.trail.count("engine")
                duals += census.trail.count("dual")
            routes[census.trail[-1]] += 1
            brackets.append([res.primal, res.dual])
    return {
        "brackets": brackets,
        "routes": routes,
        "gave_up": gave_up,
        "solves": solves,
        "duals": duals,
        "iterations": census.iterations,
        "errors": errors,
        "seconds": time.perf_counter() - start,
    }


def _outside(bracket, stored) -> bool:
    """Whether two brackets [primal, dual] fail to intersect."""
    return bracket is not None and stored is not None and not (
        bracket[0] <= stored[1] and stored[0] <= bracket[1]
    )


def main() -> int:
    stored = json.loads(STORED.read_text())
    failed = False
    total = time.perf_counter()
    for name, triples in input_sets().items():
        result = run_set(triples)
        outside = sum(map(_outside, result["brackets"], stored[name]))
        routes = ", ".join(f"{route} {result['routes'][route]}" for route in ROUTES)
        print(
            f"{name}: {len(triples)} pairs in {result['seconds']:.2f} s; routes: {routes}; "
            f"iteration gave up {result['gave_up']}; {result['solves']} engine solves and "
            f"{result['duals']} dual fallbacks, {result['iterations']} iterations in all; "
            f"{result['errors']} NoConvergenceError; {outside} outside the stored brackets"
        )
        failed |= bool(result["errors"] or outside)
    print(f"total {time.perf_counter() - total:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
