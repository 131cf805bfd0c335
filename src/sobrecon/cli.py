"""Command-line front end: reproduce experiments, verify properties, inspect
expansions, and run free-form sweeps.

Exit code 0 means every checked criterion passed, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench
from .core import as_multiindex, multiindex_range
from .expansion import term_at_point
from .quadrature import QuadratureRule, rule_for
from .targets import available_examples, get_example
from .verify import SUITES, run_suite


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _gamma_for(u, text: str | None):
    if text is None:
        return (0,) * u.domain.ndim
    g = _parse_ints(text)
    if len(g) == 1 and u.domain.ndim > 1:
        g = g * u.domain.ndim
    return as_multiindex(g, ndim=u.domain.ndim)


def _example(args) -> "AnalyticFunction":
    kwargs = {}
    if args.example == "poly-random":
        kwargs["seed"] = args.seed
    return get_example(args.example, **kwargs)


def _sweep_params(args, method: str, default) -> list[int]:
    """The sweep's parameter list: --degrees for a Legendre sweep, --cells
    for a step sweep; the other method's flag, and a parameter the method
    cannot take, are refused."""
    own, other = ("degrees", "cells") if method == "legendre" else ("cells", "degrees")
    if getattr(args, other) is not None:
        raise ValueError(f"--{other} does not apply to a {method} sweep; use --{own}")
    text = getattr(args, own)
    params = list(default if text is None else _parse_ints(text))
    bench.check_sweep(method, params)
    return params


def _csv_name(example: str, method: str, gamma) -> str:
    return f"{example}_{method}_gamma{'-'.join(str(g) for g in gamma)}.csv"


def cmd_reproduce(args) -> int:
    figure = args.figure
    preset = bench.FIGURES[figure]
    u = get_example(preset["example"])
    params = _sweep_params(args, preset["method"], preset["params"])
    bench.check_figure_params(figure, params)
    os.makedirs(args.out, exist_ok=True)

    sweeps = bench.run_sweep(u, preset["method"], preset["gammas"], params)
    for gamma, result in sweeps.items():
        path = os.path.join(args.out, _csv_name(preset["example"],
                                                preset["method"], gamma))
        result.write_csv(path)
        print(f"wrote {path}")
        for param, message in result.failures:
            print(f"  point {param} failed: {message}")

    print(f"\n{figure} criteria:")
    checks = bench.figure_criteria(figure, sweeps)
    for c in checks:
        print("  " + c.line())
    return 0 if all(c.passed for c in checks) else 1


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, trials=args.trials)
    for r in results:
        print(r.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_expand(args) -> int:
    u = _example(args)
    nd = u.domain.ndim
    delta = u.delta if args.delta is None else as_multiindex(
        _parse_ints(args.delta), ndim=nd)
    point = tuple(float(t) for t in args.point.replace(",", " ").split())
    sizes = {"nodes": args.quad_nodes, "panels": args.quad_panels}
    rule = rule_for(u, QuadratureRule(**{k: v for k, v in sizes.items() if v is not None}))
    traces = [u.boundary_trace(alpha, delta) for alpha in multiindex_range(delta)]
    # term_at_point refuses a bad point, so everything is computed before printing
    terms = [term_at_point(trace, point, rule) for trace in traces]
    direct = float(np.asarray(u(*point)))

    print(f"expansion of {u.name or args.example} at point {point}, order {delta}")
    header = f"{'alpha':>12} {'face':>12} {'term':>24}"
    print(header)
    print("-" * len(header))
    total = 0.0
    for trace, term in zip(traces, terms):
        total += term
        print(f"{str(trace.alpha):>12} {str(trace.face):>12} {term:>24.16e}")
    print("-" * len(header))
    print(f"{'sum':>12} {'':>12} {total:>24.16e}")
    print(f"{'direct':>12} {'':>12} {direct:>24.16e}")
    gap = abs(total - direct)
    print(f"difference {gap:.3e}")
    return 0 if gap <= 1e-6 * max(1.0, abs(direct)) else 1


def cmd_sweep(args) -> int:
    u = _example(args)
    gamma = _gamma_for(u, args.gamma)
    params = _sweep_params(args, args.method, (2, 4, 8, 16, 32))
    result = bench.run_sweep(u, args.method, [gamma], params)[gamma]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, _csv_name(args.example, args.method, gamma))
    result.write_csv(path)
    print(f"wrote {path}")
    for param, l2, s, w in zip(result.params, result.l2, result.s, result.w):
        print(f"  param={param:4d}  l2={l2:.6e}  s={s:.6e}  w={w:.6e}")
    for param, message in result.failures:
        print(f"  point {param} failed: {message}")
    if len(params) >= 3 and all(e > 0 for e in result.l2):
        print(f"L2 slope: {bench.fit_slope(result, 'l2'):+.3f}")
    return 0 if not result.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobrecon",
        description="Boundary-trace reconstruction and Sobolev-convergent "
                    "approximation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="rerun a convergence experiment")
    p.add_argument("figure", choices=sorted(bench.FIGURES))
    p.add_argument("--out", default="results")
    p.add_argument("--degrees", default=None, help="comma-separated degree sweep")
    p.add_argument("--cells", default=None, help="comma-separated cell-count sweep")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="print the boundary-trace expansion at a point")
    p.add_argument("--example", required=True, choices=available_examples())
    p.add_argument("--delta", default=None, help="expansion order, e.g. 2,1")
    p.add_argument("--point", required=True, help="evaluation point, e.g. 0.5,0.5")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quad-nodes", type=int, default=None, help="Gauss nodes per panel")
    p.add_argument("--quad-panels", type=int, default=None, help="baseline panels per axis")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("sweep", help="free-form convergence sweep")
    p.add_argument("--example", required=True)
    p.add_argument("--method", choices=sorted(bench.SWEEP_METHODS), required=True)
    p.add_argument("--gamma", default=None, help="projection order, e.g. 3,3")
    p.add_argument("--degrees", default=None)
    p.add_argument("--cells", default=None)
    p.add_argument("--out", default="results")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
