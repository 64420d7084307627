"""Abstract-interpretation value-range analysis for hardware bit-fields.

The paper's structures are defined by exact widths (7-bit instruction
IDs, 4-bit PD/PL, 8/10-bit saturating hit counters).  The runtime
contract layer (:mod:`repro.check.contracts`) catches a bad write only
when a test happens to execute it under ``REPRO_CHECK=1``; this module
proves the property statically, over every path the AST admits.

The analysis is a classic integer-interval abstract interpretation,
intra-procedural with depth-limited cross-module call summaries:

* every expression evaluates to an :class:`Interval` ``[lo, hi]``
  (``±inf`` for unknown bounds);
* reads of a *declared field* (``entry.pd``, ``self._pdl[i]``) yield the
  field's full range — any value legally stored there;
* reads of a *bound token* (``pd_max``, ``self._tda_hit_max``) yield the
  exact declared maximum, so ``min(x, pd_max)`` clamps precisely;
* branch tests refine intervals along each arm (``if x < pd_max``,
  truthiness, ``if nasc < 0: raise`` refining the fall-through), the
  clamp idiom ``x if x < m else m`` is evaluated per-arm, and loops run
  a two-pass join so facts established inside the body survive;
* local aliases of the packed engine's arrays (``pdl = self._pdl``;
  tuple unpacking included) are tracked, so the fast engine's packed
  code is analyzed against the same widths as the reference model;
* calls to functions defined in the same module or imported from a
  sibling ``repro`` module are summarized (their return interval is
  computed from the callee's body, depth-limited); everything else is
  conservatively unknown.

A *violation* is any store into a declared field whose interval may
leave ``[0, 2**bits - 1]``.  The analysis is deliberately unsound in
the small ways a linter can afford (``break``/``continue`` are
pass-through, ``try`` bodies are joined conservatively, method calls do
not invalidate the whole heap) and conservative everywhere it matters:
an unknown value written to a field is a finding, not a pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

INF = float("inf")

#: Cross-module call summaries stop at this depth; deeper calls are TOP.
MAX_SUMMARY_DEPTH = 3


# ----------------------------------------------------------------------
# the interval domain
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``±inf`` for no bound.

    ``lo > hi`` never occurs — the empty interval is represented by
    :data:`BOTTOM` (checked with :meth:`is_bottom`), produced only by
    infeasible refinements (``if x < 0`` on ``x in [0, 15]``).
    """

    lo: float
    hi: float

    # -- constructors --------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return TOP

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def of_bits(bits: int) -> "Interval":
        """The legal range of an unsigned ``bits``-wide field."""
        return Interval(0, (1 << bits) - 1)

    # -- predicates ----------------------------------------------------

    def is_bottom(self) -> bool:
        return self.lo > self.hi

    def is_const(self) -> bool:
        return self.lo == self.hi and self.lo not in (INF, -INF)

    def within(self, lo: int, hi: int) -> bool:
        return self.lo >= lo and self.hi <= hi

    # -- lattice -------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        if self.is_bottom():
            return BOTTOM
        return Interval(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        corners = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if 0 in (a, b):  # avoid 0 * inf -> nan
                    corners.append(0)
                else:
                    corners.append(a * b)
        return Interval(min(corners), max(corners))

    def rshift(self, other: "Interval") -> "Interval":
        """``x >> k``; precise only for non-negative x and constant k."""
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        if other.is_const() and other.lo >= 0 and self.lo >= 0:
            k = int(other.lo)
            hi = self.hi if self.hi == INF else int(self.hi) >> k
            return Interval(int(self.lo) >> k, hi)
        return TOP

    def lshift(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        if other.is_const() and other.lo >= 0 and self.lo >= 0:
            k = int(other.lo)
            hi = INF if self.hi == INF else int(self.hi) << k
            return Interval(int(self.lo) << k, hi)
        return TOP

    def bitand(self, other: "Interval") -> "Interval":
        """``x & m``: for a constant non-negative mask, ``[0, m]`` when
        x may be anything non-negative (the fold-to-width idiom)."""
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        if other.is_const() and other.lo >= 0:
            mask = int(other.lo)
            if self.lo >= 0:
                hi = min(self.hi, mask)
                return Interval(0, hi)
            return Interval(0, mask)  # CPython & of neg int with mask >= 0
        if self.is_const() and self.lo >= 0:
            return other.bitand(self)
        return TOP

    def mod(self, other: "Interval") -> "Interval":
        """``x % m`` for a known-positive modulus is ``[0, m-1]``."""
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        if other.lo > 0:
            return Interval(0, other.hi - 1)
        return TOP

    def floordiv(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        if other.is_const() and other.lo > 0 and self.lo >= 0:
            d = int(other.lo)
            hi = INF if self.hi == INF else int(self.hi) // d
            return Interval(int(self.lo) // d, hi)
        return TOP

    def min_(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_(self, other: "Interval") -> "Interval":
        if self.is_bottom() or other.is_bottom():
            return BOTTOM
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def __str__(self) -> str:
        def fmt(v: float) -> str:
            return "inf" if v == INF else "-inf" if v == -INF else str(int(v))
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


TOP = Interval(-INF, INF)
BOTTOM = Interval(1, 0)


# ----------------------------------------------------------------------
# field / token tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldTable:
    """What the analyzer knows about the modeled hardware.

    ``scalar_fields``
        attribute name -> width in bits, for object-style fields
        (``entry.pd``, ``line.protected_life``, ``self._gpd``).
    ``packed_fields``
        array attribute name -> width in bits, for the fast engine's
        struct-of-arrays encoding (``self._pdl[i]``); reads and writes
        through local aliases of these arrays are tracked too.
    ``bound_tokens``
        name -> exact maximum value; reads evaluate to that constant so
        ``min(x, pd_max)`` proves the clamp.  Ablation runs that widen a
        field widen its runtime contract with it — the static proof is
        against the paper's declared widths.
    ``const_names``
        module-level width constants resolved by name.
    """

    scalar_fields: Dict[str, int]
    packed_fields: Dict[str, int]
    bound_tokens: Dict[str, int]
    const_names: Dict[str, int]

    def scalar_range(self, attr: str) -> Optional[Interval]:
        bits = self.scalar_fields.get(attr)
        return None if bits is None else Interval.of_bits(bits)

    def packed_range(self, name: str) -> Optional[Interval]:
        bits = self.packed_fields.get(name)
        return None if bits is None else Interval.of_bits(bits)


@dataclass(frozen=True)
class WidthViolation:
    """One store whose value interval may leave the field's width."""

    node: ast.AST
    field_name: str
    bits: int
    interval: Interval

    def describe(self) -> str:
        legal = Interval.of_bits(self.bits)
        return (
            f"write to {self.bits}-bit field {self.field_name!r} has "
            f"value range {self.interval}, outside {legal} — clamp, "
            f"mask, or guard the value before storing"
        )


# environments map canonical expression strings (``ast.unparse``) to
# intervals; ``None`` marks an unreachable program point.
Env = Optional[Dict[str, Interval]]

#: Functions whose calls never mutate analyzer-visible state.
_PURE_CALLEES = frozenset({"min", "max", "abs", "len", "range", "int",
                           "bool", "sorted", "sum", "isinstance"})

#: Known return ranges for calls the summarizer cannot (or should not)
#: follow.  ``hash_pc`` folds a PC to the PDPT index width.
_KNOWN_RETURNS: Dict[str, Interval] = {
    "repro.utils.hashing.hash_pc": Interval(0, 127),
    "hash_pc": Interval(0, 127),
}


# ----------------------------------------------------------------------
# module-level resolution (imports, constants, function defs)
# ----------------------------------------------------------------------

class ModuleContext:
    """Per-module name resolution: local defs, ``repro`` imports,
    function aliases and module constants."""

    def __init__(self, tree: ast.Module, package_root: Optional[Path]) -> None:
        self.tree = tree
        self.package_root = package_root
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.imports: Dict[str, Tuple[str, str]] = {}  # name -> (module, orig)
        self.constants: Dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro" and node.level == 0:
                    for alias in node.names:
                        self.imports[alias.asname or alias.name] = (
                            node.module, alias.name,
                        )
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if isinstance(node.value, ast.Constant) and isinstance(
                        node.value.value, int
                    ) and not isinstance(node.value.value, bool):
                        self.constants[target.id] = node.value.value

    def qualified(self, name: str) -> Optional[str]:
        """Dotted origin of an imported name, or None for locals."""
        origin = self.imports.get(name)
        if origin is None:
            return None
        return f"{origin[0]}.{origin[1]}"

    def module_file(self, dotted: str) -> Optional[Path]:
        if self.package_root is None:
            return None
        parts = dotted.split(".")
        if parts[0] != "repro":
            return None
        candidate = self.package_root.joinpath(*parts[1:]).with_suffix(".py")
        return candidate if candidate.is_file() else None


class ValueRangeAnalyzer:
    """Drives the per-function analysis over one module's AST."""

    def __init__(
        self,
        table: FieldTable,
        package_root: Optional[Path] = None,
    ) -> None:
        self.table = table
        self.package_root = package_root
        self._module_cache: Dict[Path, ModuleContext] = {}

    # -- public entry points -------------------------------------------

    def analyze_module(self, tree: ast.Module) -> List[WidthViolation]:
        """Every width violation in every function (and class body) of
        one parsed module."""
        ctx = ModuleContext(tree, self.package_root)
        violations: List[WidthViolation] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                violations.extend(self._analyze_function(node, ctx))
            elif isinstance(node, ast.ClassDef):
                violations.extend(self._check_class_defaults(node))
        return violations

    # -- class-body field defaults -------------------------------------

    def _check_class_defaults(self, cls: ast.ClassDef) -> List[WidthViolation]:
        """Dataclass-style defaults: ``pd: int = 0`` in a class body is
        a store into the field; constant defaults are checked, factory
        calls are left to the runtime contracts."""
        out: List[WidthViolation] = []
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            bits = self.table.scalar_fields.get(stmt.target.id)
            if bits is None:
                continue
            if isinstance(stmt.value, ast.Constant) and isinstance(
                stmt.value.value, int
            ):
                iv = Interval.const(int(stmt.value.value))
                if not iv.within(0, (1 << bits) - 1):
                    out.append(
                        WidthViolation(stmt, stmt.target.id, bits, iv)
                    )
        return out

    # -- per-function driver -------------------------------------------

    def _analyze_function(
        self,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        ctx: ModuleContext,
    ) -> List[WidthViolation]:
        runner = _FunctionRunner(self, ctx, collect=True)
        env = runner.seed_params(func)
        runner.run_block(func.body, env)
        return runner.violations

    # -- call summaries ------------------------------------------------

    def summarize(
        self,
        func: ast.FunctionDef,
        ctx: ModuleContext,
        args: Sequence[object],
        depth: int,
        stack: Tuple[int, ...],
    ) -> object:
        """Return-value interval (or tuple of intervals) of ``func``
        called with ``args`` interval values.  Depth-limited;
        recursion returns TOP."""
        if depth <= 0 or id(func) in stack:
            return TOP
        runner = _FunctionRunner(
            self, ctx, collect=False, depth=depth - 1,
            stack=stack + (id(func),),
        )
        env = runner.seed_params(func, args)
        runner.run_block(func.body, env)
        result: object = BOTTOM
        for value in runner.returns:
            result = _join_values(result, value)
        if isinstance(result, Interval) and result.is_bottom():
            return TOP  # no return statement seen -> unknown (None)
        return result

    def module_context(self, path: Path) -> Optional[ModuleContext]:
        cached = self._module_cache.get(path)
        if cached is not None:
            return cached
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return None
        ctx = ModuleContext(tree, self.package_root)
        self._module_cache[path] = ctx
        return ctx


def _join_values(a: object, b: object) -> object:
    """Join of summary values: intervals elementwise, tuples by arity."""
    if isinstance(a, Interval) and a.is_bottom():
        return b
    if isinstance(b, Interval) and b.is_bottom():
        return a
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.join(b)
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return tuple(_join_values(x, y) for x, y in zip(a, b))
    return TOP


# ----------------------------------------------------------------------
# the abstract machine
# ----------------------------------------------------------------------

@dataclass
class _FunctionRunner:
    """Abstract execution of one function body."""

    analyzer: ValueRangeAnalyzer
    ctx: ModuleContext
    collect: bool
    depth: int = MAX_SUMMARY_DEPTH
    stack: Tuple[int, ...] = ()
    violations: List[WidthViolation] = dataclass_field(default_factory=list)
    returns: List[object] = dataclass_field(default_factory=list)
    # local name -> packed array field it aliases (``pdl`` -> ``_pdl``)
    array_aliases: Dict[str, str] = dataclass_field(default_factory=dict)
    # local name -> dotted origin for function aliases (hash_pc_local)
    func_aliases: Dict[str, str] = dataclass_field(default_factory=dict)
    _reporting: bool = True

    # -- environment seeding -------------------------------------------

    def seed_params(
        self,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        args: Optional[Sequence[object]] = None,
    ) -> Env:
        """Parameter conventions: a parameter *named like* a declared
        field or bound token carries that range (``insn_id`` arrives
        already folded to 7 bits; ``pl_max`` is the declared maximum).
        Explicit argument intervals from a call site take precedence."""
        env: Dict[str, Interval] = {}
        table = self.analyzer.table
        params = func.args.posonlyargs + func.args.args
        for i, arg in enumerate(params):
            value: object = None
            if args is not None and i < len(args):
                value = args[i]
            if isinstance(value, Interval) and value is not TOP:
                env[arg.arg] = value
                continue
            rng = table.scalar_range(arg.arg)
            if rng is not None:
                env[arg.arg] = rng
                continue
            bound = table.bound_tokens.get(arg.arg)
            if bound is not None:
                env[arg.arg] = Interval.const(bound)
        return env

    # -- block / statement execution -----------------------------------

    def run_block(self, body: Sequence[ast.stmt], env: Env) -> Env:
        for stmt in body:
            if env is None:
                break
            env = self.run_stmt(stmt, env)
        return env

    def run_stmt(self, stmt: ast.stmt, env: Env) -> Env:
        if env is None:
            return None
        if isinstance(stmt, ast.Assign):
            return self._do_assign(stmt, env)
        if isinstance(stmt, ast.AnnAssign):
            return self._do_ann_assign(stmt, env)
        if isinstance(stmt, ast.AugAssign):
            return self._do_aug_assign(stmt, env)
        if isinstance(stmt, ast.If):
            return self._do_if(stmt, env)
        if isinstance(stmt, (ast.While, ast.For)):
            return self._do_loop(stmt, env)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns.append(self.eval(stmt.value, env))
            else:
                self.returns.append(TOP)
            return None
        if isinstance(stmt, ast.Raise):
            return None
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            self._invalidate_call_effects(stmt.value, env)
            return env
        if isinstance(stmt, ast.Try):
            return self._do_try(stmt, env)
        if isinstance(stmt, ast.With):
            return self.run_block(stmt.body, env)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return env  # nested defs analyzed on their own walk
        if isinstance(stmt, ast.Assert):
            return _refine(self, stmt.test, env, assume=True)
        # break/continue/pass/import/global/delete: pass-through
        return env

    # -- assignment forms ----------------------------------------------

    def _do_assign(self, stmt: ast.Assign, env: Dict[str, Interval]) -> Env:
        value = self.eval(stmt.value, env)
        for target in stmt.targets:
            self._assign_target(target, stmt.value, value, env, stmt)
        return env

    def _do_ann_assign(self, stmt: ast.AnnAssign, env: Dict[str, Interval]) -> Env:
        if stmt.value is None:
            return env
        value = self.eval(stmt.value, env)
        self._assign_target(stmt.target, stmt.value, value, env, stmt)
        return env

    def _do_aug_assign(self, stmt: ast.AugAssign, env: Dict[str, Interval]) -> Env:
        current = self.eval(stmt.target, env)
        delta = self.eval(stmt.value, env)
        value = _apply_binop(stmt.op, _as_interval(current), _as_interval(delta))
        self._assign_target(stmt.target, None, value, env, stmt)
        return env

    def _assign_target(
        self,
        target: ast.expr,
        value_node: Optional[ast.expr],
        value: object,
        env: Dict[str, Interval],
        stmt: ast.stmt,
    ) -> None:
        table = self.analyzer.table
        if isinstance(target, ast.Name):
            self._drop_derived(env, target.id)
            self.array_aliases.pop(target.id, None)
            self.func_aliases.pop(target.id, None)
            # alias tracking: ``pli = self._pli`` / ``f = hash_pc``
            if isinstance(value_node, ast.Attribute):
                if value_node.attr in table.packed_fields:
                    self.array_aliases[target.id] = value_node.attr
            elif isinstance(value_node, ast.Name):
                origin = self._callable_origin(value_node.id)
                if origin is not None:
                    self.func_aliases[target.id] = origin
                if value_node.id in self.array_aliases:
                    self.array_aliases[target.id] = (
                        self.array_aliases[value_node.id]
                    )
            env[target.id] = _as_interval(value)
        elif isinstance(target, ast.Attribute):
            bits = table.scalar_fields.get(target.attr)
            packed_bits = table.packed_fields.get(target.attr)
            if bits is not None:
                iv = self._value_for_store(value_node, value, env)
                self._check_store(stmt, target.attr, bits, iv)
                env[_key(target)] = iv.meet(Interval.of_bits(bits))
            elif packed_bits is not None:
                # whole-array rebind of a packed field: check the literal
                # elements, but keep no element fact for the array itself
                iv = self._value_for_store(value_node, value, env)
                self._check_store(stmt, target.attr, packed_bits, iv)
                env[_key(target)] = _as_interval(value)
            else:
                env[_key(target)] = _as_interval(value)
        elif isinstance(target, ast.Subscript):
            packed = self._packed_field_of(target.value)
            key = _key(target)
            if packed is not None:
                bits = table.packed_fields[packed]
                iv = _as_interval(value)
                self._check_store(stmt, packed, bits, iv)
                self._drop_subscripts(env, target)
                env[key] = iv.meet(Interval.of_bits(bits))
            else:
                self._drop_subscripts(env, target)
                env[key] = _as_interval(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts: Sequence[object]
            if isinstance(value, tuple) and len(value) == len(target.elts):
                parts = value
            elif isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                parts = [self.eval(e, env) for e in value_node.elts]
            else:
                parts = [TOP] * len(target.elts)
            value_elts = (
                value_node.elts
                if isinstance(value_node, (ast.Tuple, ast.List))
                and len(value_node.elts) == len(target.elts)
                else [None] * len(target.elts)
            )
            for sub, sub_node, sub_value in zip(target.elts, value_elts, parts):
                self._assign_target(sub, sub_node, sub_value, env, stmt)

    def _value_for_store(
        self,
        value_node: Optional[ast.expr],
        value: object,
        env: Dict[str, Interval],
    ) -> Interval:
        """Whole-array rebinds of packed fields (``self._pdl = [0] * n``)
        are checked against the join of the literal elements."""
        iv = _as_interval(value)
        if iv != TOP or value_node is None:
            return iv
        elements = _array_literal_elements(value_node)
        if elements is not None:
            joined = BOTTOM
            for element in elements:
                joined = joined.join(_as_interval(self.eval(element, env)))
            return TOP if joined.is_bottom() else joined
        return iv

    def _check_store(
        self, stmt: ast.stmt, field_name: str, bits: int, iv: Interval
    ) -> None:
        if not self.collect or not self._reporting:
            return
        if iv.is_bottom():  # unreachable store
            return
        if not iv.within(0, (1 << bits) - 1):
            self.violations.append(WidthViolation(stmt, field_name, bits, iv))

    # -- packed-array whole-assign check needs literal elements --------

    def _packed_field_of(self, base: ast.expr) -> Optional[str]:
        """The packed-field name an array expression refers to, if any:
        ``self._pdl`` directly, or a tracked local alias ``pdl``."""
        table = self.analyzer.table
        if isinstance(base, ast.Attribute) and base.attr in table.packed_fields:
            return base.attr
        if isinstance(base, ast.Name):
            if base.id in self.array_aliases:
                return self.array_aliases[base.id]
            if base.id in table.packed_fields:
                return base.id
        return None

    # -- control flow --------------------------------------------------

    def _do_if(self, stmt: ast.If, env: Dict[str, Interval]) -> Env:
        then_env = self.run_block(
            stmt.body, _refine(self, stmt.test, dict(env), assume=True)
        )
        else_env = _refine(self, stmt.test, dict(env), assume=False)
        if stmt.orelse:
            else_env = self.run_block(stmt.orelse, else_env)
        return _join_envs(then_env, else_env)

    def _do_loop(self, stmt: Union[ast.While, ast.For], env: Dict[str, Interval]) -> Env:
        """Two-pass loop analysis: pass 1 discovers what the body may
        change, the join with the entry state feeds pass 2, and only
        pass 2 reports — so facts that survive iteration (guarded
        decrements, clamped updates) are proven rather than widened to
        unknown."""
        joined: Env = dict(env)
        reporting = self._reporting
        for final in (False, True):
            self._reporting = reporting and final
            body_env: Env = dict(joined) if joined is not None else None
            if isinstance(stmt, ast.While):
                body_env = _refine(self, stmt.test, body_env, assume=True)
            else:
                if body_env is not None:
                    self._bind_loop_target(stmt, body_env)
            body_env = self.run_block(stmt.body, body_env)
            joined = _join_envs(dict(env), body_env)
        self._reporting = reporting
        if joined is None:
            joined = dict(env)
        if isinstance(stmt, ast.While):
            # normal exit refines with the negated test; break exits are
            # joined in conservatively by keeping the pre-test state too
            exit_env = _refine(self, stmt.test, dict(joined), assume=False)
            joined = _join_envs(exit_env, joined if _has_break(stmt) else None)
        if joined is not None and stmt.orelse:
            joined = self.run_block(stmt.orelse, joined)
        return joined

    def _bind_loop_target(self, stmt: ast.For, env: Dict[str, Interval]) -> None:
        iv = TOP
        it = stmt.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and (
            it.func.id == "range"
        ):
            args = [_as_interval(self.eval(a, env)) for a in it.args]
            if len(args) == 1:
                iv = Interval(0, args[0].hi - 1)
            elif len(args) >= 2:
                iv = Interval(args[0].lo, args[1].hi - 1)
            if iv.is_bottom():
                iv = TOP
        self._assign_target(stmt.target, None, iv, env, stmt)

    def _do_try(self, stmt: ast.Try, env: Dict[str, Interval]) -> Env:
        body_env = self.run_block(stmt.body, dict(env))
        out = _join_envs(body_env, dict(env))
        for handler in stmt.handlers:
            out = _join_envs(out, self.run_block(handler.body, dict(env)))
        if out is None:
            out = dict(env)
        if stmt.finalbody:
            out = self.run_block(stmt.finalbody, out)
        return out

    # -- expression evaluation -----------------------------------------

    def eval(self, node: ast.expr, env: Dict[str, Interval]) -> object:
        table = self.analyzer.table
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Interval.const(int(node.value))
            if isinstance(node.value, int):
                return Interval.const(node.value)
            return TOP
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.ctx.constants:
                return Interval.const(self.ctx.constants[node.id])
            if node.id in table.const_names:
                return Interval.const(table.const_names[node.id])
            bound = table.bound_tokens.get(node.id)
            if bound is not None:
                return Interval.const(bound)
            return TOP
        if isinstance(node, ast.Attribute):
            key = _key(node)
            if key in env:
                return env[key]
            bound = table.bound_tokens.get(node.attr)
            if bound is not None:
                return Interval.const(bound)
            rng = table.scalar_range(node.attr)
            if rng is not None:
                return rng
            if node.attr in self.ctx.constants:
                return Interval.const(self.ctx.constants[node.attr])
            if node.attr in table.const_names:
                return Interval.const(table.const_names[node.attr])
            return TOP
        if isinstance(node, ast.Subscript):
            key = _key(node)
            if key in env:
                return env[key]
            packed = self._packed_field_of(node.value)
            if packed is not None:
                return Interval.of_bits(table.packed_fields[packed])
            return TOP
        if isinstance(node, ast.BinOp):
            left = _as_interval(self.eval(node.left, env))
            right = _as_interval(self.eval(node.right, env))
            return _apply_binop(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = _as_interval(self.eval(node.operand, env))
            if isinstance(node.op, ast.USub):
                return operand.neg()
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.Not):
                return Interval(0, 1)
            return TOP
        if isinstance(node, ast.IfExp):
            then = self.eval(
                node.body, _refine_copy(self, node.test, env, assume=True)
            )
            other = self.eval(
                node.orelse, _refine_copy(self, node.test, env, assume=False)
            )
            return _join_values(then, other)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e, env) for e in node.elts)
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return Interval(0, 1)
        return TOP

    # -- calls ----------------------------------------------------------

    def _callable_origin(self, name: str) -> Optional[str]:
        """Dotted origin for a name that refers to a known function."""
        if name in self.func_aliases:
            return self.func_aliases[name]
        qualified = self.ctx.qualified(name)
        if qualified is not None:
            return qualified
        if name in self.ctx.functions:
            return f"<local>.{name}"
        return None

    def _eval_call(self, node: ast.Call, env: Dict[str, Interval]) -> object:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            args = [self.eval(a, env) for a in node.args]
            ivs = [_as_interval(a) for a in args]
            if name == "min" and ivs:
                out = ivs[0]
                for iv in ivs[1:]:
                    out = out.min_(iv)
                return out
            if name == "max" and ivs:
                out = ivs[0]
                for iv in ivs[1:]:
                    out = out.max_(iv)
                return out
            if name == "abs" and len(ivs) == 1:
                iv = ivs[0]
                if iv.lo >= 0:
                    return iv
                return Interval(0, max(abs(iv.lo), abs(iv.hi)))
            if name == "len":
                return Interval(0, INF)
            if name == "bool":
                return Interval(0, 1)
            return self._summarize_named(name, args)
        # method calls and other callables: unknown value
        for arg in node.args:
            self.eval(arg, env)
        return TOP

    def _summarize_named(self, name: str, args: Sequence[object]) -> object:
        origin = self._callable_origin(name)
        if origin is None:
            known = _KNOWN_RETURNS.get(name)
            return known if known is not None else TOP
        if origin in _KNOWN_RETURNS:
            return _KNOWN_RETURNS[origin]
        tail = origin.rsplit(".", 1)[-1]
        if tail in _KNOWN_RETURNS and not origin.startswith("<local>"):
            return _KNOWN_RETURNS[tail]
        if origin.startswith("<local>."):
            func = self.ctx.functions.get(tail)
            if func is None:
                return TOP
            return self.analyzer.summarize(
                func, self.ctx, args, self.depth, self.stack
            )
        # imported from a sibling repro module: load and summarize there
        module_dotted, func_name = origin.rsplit(".", 1)
        path = self.ctx.module_file(module_dotted)
        if path is None:
            return TOP
        other = self.analyzer.module_context(path)
        if other is None:
            return TOP
        func = other.functions.get(func_name)
        if func is None:
            return TOP
        return self.analyzer.summarize(
            func, other, args, self.depth, self.stack
        )

    # -- invalidation ---------------------------------------------------

    def _drop_derived(self, env: Dict[str, Interval], name: str) -> None:
        """Rebinding ``entry`` invalidates every ``entry.*`` fact."""
        prefix_dot = name + "."
        prefix_sub = name + "["
        for key in [k for k in env
                    if k.startswith(prefix_dot) or k.startswith(prefix_sub)]:
            del env[key]
        env.pop(name, None)

    def _drop_subscripts(self, env: Dict[str, Interval], target: ast.Subscript) -> None:
        """A store through ``arr[i]`` invalidates facts about every
        other subscript of the same array (``arr[j]`` may alias)."""
        base = _key(target.value)
        prefix = base + "["
        for key in [k for k in env if k.startswith(prefix)]:
            del env[key]

    def _invalidate_call_effects(self, node: ast.expr, env: Dict[str, Interval]) -> None:
        """A method call may mutate its receiver and arguments: drop
        attribute/subscript facts rooted at those names."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in _PURE_CALLEES:
                continue
            roots: List[str] = []
            if isinstance(func, ast.Attribute):
                base = func.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name):
                    roots.append(base.id)
            for arg in call.args:
                if isinstance(arg, ast.Name):
                    roots.append(arg.id)
            for root in roots:
                prefix_dot = root + "."
                prefix_sub = root + "["
                for key in [
                    k for k in env
                    if k.startswith(prefix_dot) or k.startswith(prefix_sub)
                ]:
                    del env[key]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _key(node: ast.expr) -> str:
    """Canonical environment key for a storable expression."""
    return ast.unparse(node)


def _as_interval(value: object) -> Interval:
    return value if isinstance(value, Interval) else TOP


def _apply_binop(op: ast.operator, left: Interval, right: Interval) -> Interval:
    if isinstance(op, ast.Add):
        return left.add(right)
    if isinstance(op, ast.Sub):
        return left.sub(right)
    if isinstance(op, ast.Mult):
        return left.mul(right)
    if isinstance(op, ast.RShift):
        return left.rshift(right)
    if isinstance(op, ast.LShift):
        return left.lshift(right)
    if isinstance(op, ast.BitAnd):
        return left.bitand(right)
    if isinstance(op, ast.Mod):
        return left.mod(right)
    if isinstance(op, ast.FloorDiv):
        return left.floordiv(right)
    return TOP


def _join_envs(a: Env, b: Env) -> Env:
    """Pointwise join; keys absent from either side are dropped (their
    value is unknown on that path).  ``None`` marks an unreachable arm
    and is the join identity."""
    if a is None:
        return b
    if b is None:
        return a
    out: Dict[str, Interval] = {}
    for key in a.keys() & b.keys():
        joined = a[key].join(b[key])
        if joined is not TOP:
            out[key] = joined
    return out


def _has_break(stmt: Union[ast.While, ast.For]) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Break):
            return True
    return False


def _array_literal_elements(node: ast.expr) -> Optional[List[ast.expr]]:
    """Elements of ``[c] * n`` / ``[a, b]`` array literals, or None."""
    if isinstance(node, ast.List):
        return list(node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        for side in (node.left, node.right):
            if isinstance(side, ast.List):
                return list(side.elts)
    return None


# ----------------------------------------------------------------------
# condition refinement
# ----------------------------------------------------------------------

def _refine_copy(
    runner: _FunctionRunner, test: ast.expr, env: Dict[str, Interval],
    assume: bool,
) -> Dict[str, Interval]:
    refined = _refine(runner, test, dict(env), assume)
    return refined if refined is not None else dict(env)


def _refine(
    runner: _FunctionRunner, test: ast.expr, env: Env, assume: bool
) -> Env:
    """Narrow ``env`` under the assumption that ``test`` is ``assume``.

    Handles comparisons against evaluable bounds, truthiness of tracked
    expressions, ``not``, and ``and``/``or`` in their refinable
    polarity.  Unknown forms refine nothing (sound)."""
    if env is None:
        return None
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _refine(runner, test.operand, env, not assume)
    if isinstance(test, ast.BoolOp):
        if isinstance(test.op, ast.And) and assume:
            for value in test.values:
                env = _refine(runner, value, env, True)
                if env is None:
                    return None
            return env
        if isinstance(test.op, ast.Or) and not assume:
            for value in test.values:
                env = _refine(runner, value, env, False)
                if env is None:
                    return None
            return env
        return env
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        return _refine_compare(
            runner, test.left, test.ops[0], test.comparators[0], env, assume
        )
    # truthiness of a tracked integer expression
    key, current = _tracked(runner, test, env)
    if key is not None and current is not None:
        if assume:
            if current.lo == 0 and current.hi >= 0:
                refined = Interval(1, current.hi)
                if refined.is_bottom():
                    return None
                env[key] = refined
        else:
            refined = current.meet(Interval.const(0))
            if refined.is_bottom():
                return None
            env[key] = refined
    return env


def _refine_compare(
    runner: _FunctionRunner,
    left: ast.expr,
    op: ast.cmpop,
    right: ast.expr,
    env: Dict[str, Interval],
    assume: bool,
) -> Env:
    # normalise to ``tracked OP value`` — flip when the tracked side is
    # on the right (``0 < x``)
    flips = {
        ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE,
        ast.Eq: ast.Eq, ast.NotEq: ast.NotEq,
    }
    negations = {
        ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    }
    if not assume:
        negated = negations.get(type(op))
        if negated is None:
            return env  # is/in: no interval content
        return _refine_compare(runner, left, negated(), right, env, True)

    for tracked_side, other_side, flip in ((left, right, False), (right, left, True)):
        key, current = _tracked(runner, tracked_side, env)
        if key is None or current is None:
            continue
        bound = _as_interval(runner.eval(other_side, env))
        if bound is TOP:
            continue
        eff_op: type = type(op)
        if flip:
            eff = flips.get(eff_op)
            if eff is None:
                continue
            eff_op = eff
        if eff_op is ast.Lt:
            refined = current.meet(Interval(-INF, bound.hi - 1))
        elif eff_op is ast.LtE:
            refined = current.meet(Interval(-INF, bound.hi))
        elif eff_op is ast.Gt:
            refined = current.meet(Interval(bound.lo + 1, INF))
        elif eff_op is ast.GtE:
            refined = current.meet(Interval(bound.lo, INF))
        elif eff_op is ast.Eq:
            refined = current.meet(bound)
        elif eff_op is ast.NotEq:
            if bound.is_const() and current.lo == bound.lo:
                refined = Interval(current.lo + 1, current.hi)
            elif bound.is_const() and current.hi == bound.hi:
                refined = Interval(current.lo, current.hi - 1)
            else:
                refined = current
        else:
            continue
        if refined.is_bottom():
            return None
        env[key] = refined
    return env


def _tracked(
    runner: _FunctionRunner, node: ast.expr, env: Dict[str, Interval]
) -> Tuple[Optional[str], Optional[Interval]]:
    """(env key, current interval) for refinable expressions: names,
    attributes and subscripts.  The current interval falls back to the
    table-declared range so guards on fresh field reads refine too."""
    if not isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
        return None, None
    key = _key(node)
    value = runner.eval(node, env)
    iv = _as_interval(value)
    return key, iv
