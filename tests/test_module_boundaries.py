"""No sobrecon module reaches into another module's `_`-prefixed names, only
`core` builds TraceFunction values, no function keeps a local it never
reads, no module imports a name it never reads, no function falls back to
a default quadrature rule, no einsum searches a contraction path on every
call or builds its spec at run time, every name in `sobrecon.__all__`
exists, every sobrecon name the benchmark's tracer wraps is still there, the
coefficient algebra (`piecewise`, `legseries`) imports nothing from
`quadrature`, a trace is lifted along an axis only by its a-fold
antiderivative, and every error norm is read by `error_components` alone.

Defining private names is fine; importing one from a sibling module, or
reading one as an attribute of a sibling module, is not.
"""

import ast
import importlib
import importlib.util
import pathlib

import sobrecon

PACKAGE = pathlib.Path(sobrecon.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sobrecon_module(node: ast.ImportFrom) -> str | None:
    """Dotted sobrecon module an import-from statement reads from, or None."""
    if node.level:
        return ".".join(filter(None, ["sobrecon", node.module]))
    if node.module == "sobrecon" or (node.module or "").startswith("sobrecon."):
        return node.module
    return None


def private_uses(source: str, module: str) -> list[str]:
    """Every use, in `source` (the text of sobrecon module `module`), of a
    private name that belongs to another sobrecon module."""
    tree = ast.parse(source)
    module_aliases = {}  # local name -> sobrecon module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = _sobrecon_module(node)
            if origin is None:
                continue
            for alias in node.names:
                if origin == "sobrecon":
                    module_aliases[alias.asname or alias.name] = f"sobrecon.{alias.name}"
                if _is_private(alias.name) and origin != module:
                    found.append(f"line {node.lineno}: from {origin} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "sobrecon":
                    continue
                if any(_is_private(p) for p in parts):
                    found.append(f"line {node.lineno}: import {alias.name}")
                module_aliases[alias.asname or parts[0]] = (
                    alias.name if alias.asname else "sobrecon")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, base = [node.attr], node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name) or base.id not in module_aliases:
            continue
        owner, path = module_aliases[base.id], [base.id]
        for attr in reversed(chain):
            path.append(attr)
            if _is_private(attr) and owner != module:
                found.append(f"line {node.lineno}: {'.'.join(path)} of {owner}")
                break
            owner = f"{owner}.{attr}"
    return sorted(set(found))


def test_no_cross_module_private_names():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "sobrecon" if path.stem == "__init__" else f"sobrecon.{path.stem}"
        uses = private_uses(path.read_text(), module)
        if uses:
            offenders[path.name] = uses
    assert not offenders, offenders


def test_detector_flags_imports_and_attribute_reads():
    source = (
        "from .piecewise import PiecewisePoly, _powers\n"
        "from . import quadrature\n"
        "import sobrecon.core as core\n"
        "def f(rule):\n"
        "    quadrature._face_axes(None, (), rule)\n"
        "    core._helper\n"
        "    quadrature.axis_quadrature\n"
        "    quadrature.__name__\n"
        "    rule._private_of_an_object\n"
        "_mine = 1\n"
    )
    uses = private_uses(source, "sobrecon.expansion")
    assert len(uses) == 3
    assert any("_powers" in u for u in uses)
    assert any("_face_axes" in u for u in uses)
    assert any("_helper" in u for u in uses)


def test_detector_allows_own_private_names():
    source = "from .quadrature import _check_finite\n"
    assert private_uses(source, "sobrecon.quadrature") == []


def trace_constructions(source: str) -> list[int]:
    """Lines of `source` that call TraceFunction(...), by name or attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and "TraceFunction" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_expansion_puts_polynomials_on_breaks_through_the_public_step():
    # reconstruction refines through PiecewisePoly.on_breaks and
    # common_breaks, not through piecewise's own grid helpers
    tree = ast.parse((PACKAGE / "expansion.py").read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not names & {"_refine_axis", "_union", "_accumulate", "_zeros"}


def second_lift_paths(source: str) -> list[str]:
    """`Class.multiply_kernel (line n)` for each class in `source` that
    defines a multiply_kernel method, and `multiply_kernel call (line n)` for
    each call of one: the kernel lift of a trace constant along an axis is
    its a-fold antiderivative there, so it needs no second path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.multiply_kernel (line {f.lineno})" for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name == "multiply_kernel"]
        elif isinstance(node, ast.Call) and "multiply_kernel" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(f"multiply_kernel call (line {node.lineno})")
    return found


def test_one_lift_per_axis():
    # per axis the expansion's operator is the a-fold antiderivative, below
    # top order too, and apply_tensor and reconstruct call it themselves
    offenders = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
                 if (found := second_lift_paths(path.read_text()))}
    assert not offenders, offenders
    tree = ast.parse((PACKAGE / "expansion.py").read_text())
    lifters = {func.name: {n.func.attr for n in ast.walk(func) if isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Attribute)}
               for func in tree.body if isinstance(func, ast.FunctionDef)
               and func.name in ("apply_tensor", "reconstruct")}
    assert set(lifters) == {"apply_tensor", "reconstruct"}
    assert all("antiderivative" in calls for calls in lifters.values()), lifters


def test_second_lift_detector():
    source = (
        "class A:\n"
        "    def multiply_kernel(self, axis, k):\n"
        "        return self\n"
        "    def antiderivative(self, axis, times=1):\n"
        "        return self\n"
        "def lift(f):\n"
        "    return f.multiply_kernel(0, 1).antiderivative(1)\n"
        "multiply_kernel(A(), 0, 1)\n"
    )
    assert sorted(second_lift_paths(source)) == [
        "A.multiply_kernel (line 2)", "multiply_kernel call (line 7)",
        "multiply_kernel call (line 8)"]


def contract_callers(source: str) -> list[str]:
    """Top-level functions of `source` that call contract_axes, by name or
    attribute, in the order they are defined."""
    return [func.name for func in ast.parse(source).body
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and "contract_axes" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None))
                for n in ast.walk(func))]


def test_one_error_norm_reader():
    # every error norm, the dc norm's faces too, is one error_components
    # read: no norm has a squaring loop of its own, and core keeps no
    # second, trace-by-trace face reader
    quadrature = (PACKAGE / "quadrature.py").read_text()
    assert contract_callers(quadrature) == ["integrate", "error_components"]
    core = ast.parse((PACKAGE / "core.py").read_text())
    assert "face_grids" not in {n.name for n in core.body if isinstance(n, ast.FunctionDef)}


def test_contract_caller_detector():
    source = (
        "def integrate(f, domain, rule):\n"
        "    return contract_axes(f, w)\n"
        "def sobolev_error(f, g):\n"
        "    return error_components(f, g)\n"
        "def dc_error(f, g, order):\n"
        "    def face(v):\n"
        "        return core.contract_axes(v, w)\n"
        "    return face(f)\n"
        "class A:\n"
        "    def norm(self):\n"
        "        return contract_axes(self, w)\n"
    )
    assert contract_callers(source) == ["integrate", "dc_error"]


def quadrature_imports(source: str) -> list[int]:
    """Lines of `source` (the text of a sobrecon module) that import
    sobrecon.quadrature or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            origin = _sobrecon_module(node)
            if origin == "sobrecon.quadrature" or (
                    origin == "sobrecon" and any(a.name == "quadrature" for a in node.names)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("sobrecon.quadrature") for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_algebra_modules_do_not_import_quadrature():
    # the piecewise and Legendre algebra is exact calculus on coefficients;
    # quadrature and the exact bundle norm read it, never the other way round
    offenders = {name: lines for name in ("piecewise.py", "legseries.py")
                 if (lines := quadrature_imports((PACKAGE / name).read_text()))}
    assert not offenders, offenders


def test_quadrature_import_detector():
    source = (
        "from .quadrature import axis_quadrature\n"
        "from . import core, quadrature\n"
        "import sobrecon.quadrature as q\n"
        "from sobrecon.quadrature import QuadratureRule\n"
        "from .core import contract_axes\n"
        "from . import core\n"
        "import sobrecon.core\n"
    )
    assert quadrature_imports(source) == [1, 2, 3, 4]


def test_only_core_builds_trace_functions():
    # every trace comes from core.boundary_trace, for every function kind
    offenders = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                 if path.stem != "core"
                 and (lines := trace_constructions(path.read_text()))}
    assert not offenders, offenders


def test_trace_detector_flags_calls_only():
    source = (
        "from .core import TraceFunction\n"
        "def f(x) -> TraceFunction:\n"
        "    core.TraceFunction((0,), x)\n"
        "    return TraceFunction((-1,), 1.0)\n"
    )
    assert trace_constructions(source) == [3, 4]


def dead_locals(source: str) -> list[str]:
    """`function: name (line n)` for each name not starting with `_` that a
    function stores and never reads.  A nested function counts as part of
    the function it sits in, and a read inside the value of an assignment
    to the same name (``x = x and ...``) does not count as a read."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_reads = {
            id(n) for node in ast.walk(func) if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            for n in ast.walk(node.value) if getattr(n, "id", None) == target.id
        }
        declared = {name for node in ast.walk(func)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load) and id(n) not in self_reads}
        found.extend(
            f"{func.name}: {n.id} (line {n.lineno})" for n in names
            if isinstance(n.ctx, ast.Store) and not n.id.startswith("_")
            and n.id not in read | declared
        )
    return sorted(set(found))


def test_no_dead_locals():
    offenders = {path.name: dead for path in sorted(PACKAGE.glob("*.py"))
                 if (dead := dead_locals(path.read_text()))}
    assert not offenders, offenders


def test_dead_local_detector():
    source = (
        "def f(x):\n"
        "    nd = x.ndim\n"
        "    ok = True\n"
        "    for _ in range(3):\n"
        "        ok = ok and x\n"
        "    a, _b = x\n"
        "    total = 0\n"
        "    def g():\n"
        "        return total + a\n"
        "    return g\n"
    )
    assert dead_locals(source) == ["f: nd (line 2)", "f: ok (line 3)", "f: ok (line 5)"]


def unread_imports(source: str) -> list[str]:
    """`name (line n)` for each name a module-level import binds that the
    module never loads.  A name listed in `__all__` counts as read, and
    `from __future__` imports are not bindings."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unread_imports():
    offenders = {path.name: unread for path in sorted(PACKAGE.glob("*.py"))
                 if (unread := unread_imports(path.read_text()))}
    assert not offenders, offenders


def test_unread_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .core import HyperRect, leq\n"
        "from .piecewise import PiecewisePoly\n"
        "__all__ = ['PiecewisePoly']\n"
        "def f(x) -> HyperRect:\n"
        "    return np.sum(x)\n"
    )
    assert unread_imports(source) == ["math (line 2)", "os (line 4)", "leq (line 5)"]


def defaulted_rules(source: str) -> list[str]:
    """`function: what (line n)` for each function with a parameter `rule`
    that defaults to None, and for a `rule_for` that takes `nodes` or
    `panels` beside its base rule."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        defaulted = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaulted += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if any(a.arg == "rule" and isinstance(d, ast.Constant) and d.value is None
               for a, d in defaulted):
            found.append(f"{func.name}: rule=None (line {func.lineno})")
        sizes = [a.arg for a in positional + args.kwonlyargs if a.arg in ("nodes", "panels")]
        if func.name == "rule_for" and sizes:
            found.append(f"rule_for: {', '.join(sizes)} (line {func.lineno})")
    return sorted(found)


def test_no_defaulted_rules():
    # a rule is sized in one place (QuadratureRule's fields) and completed
    # for a target by rule_for; no reader falls back to a flat rule
    offenders = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
                 if (found := defaulted_rules(path.read_text()))}
    assert not offenders, offenders


def test_defaulted_rule_detector():
    source = (
        "def a(f, rule=None):\n    pass\n"
        "def b(f, *, rule=None):\n    pass\n"
        "def c(f, rule, nodes=None):\n    pass\n"
        "def d(f, rule=QuadratureRule()):\n    pass\n"
        "def rule_for(u, base=None, *, nodes=None, panels=None):\n    pass\n"
    )
    assert defaulted_rules(source) == [
        "a: rule=None (line 1)", "b: rule=None (line 3)", "rule_for: nodes, panels (line 9)"]


def unplanned_einsums(source: str) -> list[int]:
    """Lines of `source` that call einsum with a path search (optimize=True
    or a named search such as "greedy"), which searches again on every
    call; a contraction over a tensor grid's axes goes through
    core.contract_axes instead."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "einsum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and any(kw.arg == "optimize" and isinstance(kw.value, ast.Constant)
                and (kw.value.value is True or isinstance(kw.value.value, str))
                for kw in node.keywords)
    )


def test_no_unplanned_einsum():
    offenders = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                 if (lines := unplanned_einsums(path.read_text()))}
    assert not offenders, offenders


def test_unplanned_einsum_detector():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "np.einsum('ij->', a, optimize=True)\n"
        "einsum('i,i->', a, b, optimize='greedy')\n"
        "np.einsum('ij->', a)\n"
        "np.einsum('ij,jk->ik', a, b, optimize=path)\n"
        "np.einsum_path('ij,jk->ik', a, b, optimize='greedy')\n"
        "np.einsum('i->', a, optimize=False)\n"
    )
    assert unplanned_einsums(source) == [3, 4]


def runtime_einsum_specs(source: str) -> list[int]:
    """Lines of `source` that call einsum with a spec that is not a string
    literal: one built at run time (joined, formatted or passed in) or the
    sublist form.  Per-axis contractions go through core.contract_axes."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "einsum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and not (node.args and isinstance(node.args[0], ast.Constant)
                 and isinstance(node.args[0].value, str))
    )


def test_einsum_specs_are_literals():
    offenders = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                 if (lines := runtime_einsum_specs(path.read_text()))}
    assert not offenders, offenders


def test_runtime_einsum_spec_detector():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "np.einsum('ij,j->i', a, b)\n"
        "einsum(spec, a, b)\n"
        "np.einsum(','.join(subs) + '->', *ops)\n"
        "np.einsum(f'{letters}->', a)\n"
        "np.einsum(a, [0, 1], [0])\n"
        "einsum('i->', a, optimize=True)\n"
        "np.einsum_path(spec, a)\n"
    )
    assert runtime_einsum_specs(source) == [4, 5, 6, 7]


def test_all_exports_resolve():
    missing = [name for name in sobrecon.__all__ if not hasattr(sobrecon, name)]
    assert not missing, missing
    assert len(set(sobrecon.__all__)) == len(sobrecon.__all__)


def missing_traced_names(functions, methods, containers) -> list[str]:
    """Names in the tracer's tables that do not resolve: `module.name` for a
    function or container, `module.Class.method` for a method that is not in
    the class's own ``__dict__`` (the tracer wraps it there, so an inherited
    one does not count)."""
    found = []
    for module, name in [(f[1], f[2]) for f in functions] + list(containers):
        if not hasattr(importlib.import_module(module), name):
            found.append(f"{module}.{name}")
    for _, module, cls, name, *_ in methods:
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or name not in vars(owner):
            found.append(f"{module}.{cls}.{name}")
    return found


def test_traced_names_resolve():
    # the benchmark fails when a name it wraps is gone; its own tests are
    # not collected with these, so check its tables here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.METHODS
    missing = missing_traced_names(tracing.FUNCTIONS, tracing.METHODS, tracing.CONTAINERS)
    assert not missing, missing


def test_traced_name_detector():
    functions = (("quadrature.l2_error", "sobrecon.quadrature", "l2_error", None, None),
                 (None, "sobrecon.quadrature", "_no_such_helper", None, None))
    methods = (("piecewise.add", "sobrecon.piecewise", "PiecewisePoly", "__add__", None, None),
               ("piecewise.str", "sobrecon.piecewise", "PiecewisePoly", "__str__", None, None),
               ("gone.eval", "sobrecon.piecewise", "NoSuchClass", "eval_grid", None, None))
    containers = (("sobrecon.verify", "SUITES"), ("sobrecon.verify", "NO_SUCH_TABLE"))
    assert missing_traced_names(functions, methods, containers) == [
        "sobrecon.quadrature._no_such_helper", "sobrecon.verify.NO_SUCH_TABLE",
        "sobrecon.piecewise.PiecewisePoly.__str__", "sobrecon.piecewise.NoSuchClass.eval_grid"]
