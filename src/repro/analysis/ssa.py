"""SSA construction over the CFG, plus its two scalar client analyses.

The precision layer (see :mod:`repro.ir.preprocess`) needs facts the
region-based D-IR translation cannot provide on its own:

* which branches are **statically dead** (their guard is a constant the
  program computes), so lint blockers inside them can be discharged before
  the extractor gives up on the loop;
* which variable uses are **provably copies** of another variable that is
  still live in the same version, so copy chains can be collapsed to the
  form the fold templates and the cursor-``while`` normaliser recognise.

Both are classic SSA clients: sparse conditional constant propagation
(Wegman–Zadeck) and copy propagation.  SSA itself is built with the
standard recipe over the existing machinery: dominance frontiers from
:func:`repro.analysis.dominators.immediate_dominators`
(Cooper–Harvey–Kennedy), iterated-frontier φ placement, and Cytron-style
renaming down the dominator tree.

Two departures from the textbook, both driven by soundness:

* **Opaque redefinitions.**  MiniJava values have reference semantics, so a
  variable passed to a call the analysis cannot see through (undefined or
  recursive callee, or a known callee that mutates the parameter) must be
  treated as *redefined* at the call.  Likewise receivers of mutating
  methods (``list.add``, ``rs.next``, entity setters) and the iterable of a
  ``ForEach`` (iterating may consume a forward-only cursor).  These defs
  produce ``kind="mutate"``/``"opaque"`` values that deliberately stop
  constant and copy propagation.
* **Per-statement environments.**  Renaming records, for every statement,
  the variable → SSA-value map in force on entry
  (:attr:`SSAForm.env_before`).  Copy propagation is only valid at a use
  site when the copy's *source* still holds the same SSA version it held at
  the copy — comparing the two snapshots is exactly that check, and it is
  what makes mapping SSA facts back onto the (non-SSA) AST sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..interp.values import setter_to_column
from ..lang import (
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    FloatLit,
    ForEach,
    FunctionDef,
    If,
    IntLit,
    MethodCall,
    Name,
    Stmt,
    StringLit,
    Ternary,
    Unary,
    statement_expressions,
)
from .cfg import CFG, build_cfg
from .dataflow import STATIC_RECEIVERS, _MUTATING_METHODS, expr_facts
from .dominators import immediate_dominators
from .effects import BUILTIN_CALLS, EffectSummary


# ----------------------------------------------------------------------
# Dominance frontiers


def dominance_frontiers(cfg: CFG, idom: dict[int, int]) -> dict[int, set[int]]:
    """Per-block dominance frontier (Cooper–Harvey–Kennedy)."""
    frontiers: dict[int, set[int]] = {block: set() for block in idom}
    for block in idom:
        preds = [p for p in cfg.blocks[block].predecessors if p in idom]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner = pred
            while runner != idom[block]:
                frontiers[runner].add(block)
                runner = idom[runner]
    return frontiers


# ----------------------------------------------------------------------
# SSA form


@dataclass
class SSAValue:
    """One SSA definition of one source variable.

    ``kind`` records what produced the value:

    ``param``   function parameter (defined at entry);
    ``assign``  the target of an :class:`~repro.lang.Assign`;
    ``cursor``  a ``ForEach`` loop variable (redefined per iteration);
    ``mutate``  receiver of a mutating method / consumed iterable;
    ``opaque``  conservative redefinition at an un-analysable call;
    ``phi``     a join point (operands align with the block's in-graph
                predecessor order, ``-1`` marking a path with no def);
    ``undef``   use of a never-defined variable.
    """

    vid: int
    var: str
    kind: str
    sid: int = -1
    block: int = -1
    rhs: Expr | None = None
    operands: list[int] = field(default_factory=list)

    @property
    def copy_of(self) -> str | None:
        """Source variable name when this def is a plain variable copy."""
        if self.kind == "assign" and isinstance(self.rhs, Name):
            return self.rhs.ident
        return None

    def describe(self) -> str:
        base = f"{self.var}#{self.vid} [{self.kind}]"
        if self.kind == "phi":
            ops = ", ".join(f"#{o}" if o >= 0 else "⊥" for o in self.operands)
            return f"{base} = φ({ops})"
        if self.sid >= 0:
            base += f" @s{self.sid}"
        return base


@dataclass
class SSAForm:
    """SSA view of one function, with per-statement environment snapshots."""

    func: FunctionDef
    cfg: CFG
    idom: dict[int, int]
    frontiers: dict[int, set[int]]
    values: list[SSAValue] = field(default_factory=list)
    #: statement sid → variable → SSA value id, on entry to the statement.
    env_before: dict[int, dict[str, int]] = field(default_factory=dict)
    #: block index → φ value ids placed at that block.
    phis: dict[int, list[int]] = field(default_factory=dict)

    def value(self, vid: int) -> SSAValue:
        return self.values[vid]

    def use(self, sid: int, var: str) -> int | None:
        """The SSA value a use of ``var`` at statement ``sid`` resolves to."""
        return self.env_before.get(sid, {}).get(var)

    def variables(self) -> list[str]:
        return sorted({v.var for v in self.values})

    def block_preds(self, index: int) -> list[int]:
        """In-dominator-graph predecessors, in φ-operand order."""
        return [p for p in self.cfg.blocks[index].predecessors if p in self.idom]


#: Methods that advance or invalidate their receiver when called.
_CONSUMING_METHODS = _MUTATING_METHODS | {"next", "close"}


def _stmt_defs(
    stmt: Stmt,
    effects: dict[str, EffectSummary] | None,
) -> list[tuple[str, str, Expr | None]]:
    """Direct (variable, kind, rhs) definitions of one statement.

    Uses are always resolved against the environment *before* the
    statement, so the relative order of multiple defs does not matter.
    """
    defs: list[tuple[str, str, Expr | None]] = []
    if isinstance(stmt, Assign):
        defs.append((stmt.target, "assign", stmt.value))
    elif isinstance(stmt, ForEach):
        defs.append((stmt.var, "cursor", None))
        if isinstance(stmt.iterable, Name):
            # Iterating may consume a forward-only cursor.
            defs.append((stmt.iterable.ident, "mutate", None))

    for expr in statement_expressions(stmt):
        for node in expr_facts(expr).calls:
            if isinstance(node, MethodCall):
                if (
                    isinstance(node.receiver, Name)
                    and node.receiver.ident not in STATIC_RECEIVERS
                    and (
                        node.method in _CONSUMING_METHODS
                        or setter_to_column(node.method) is not None
                    )
                ):
                    defs.append((node.receiver.ident, "mutate", None))
            elif isinstance(node, Call) and node.func not in BUILTIN_CALLS:
                summary = (effects or {}).get(node.func)
                for pos, arg in enumerate(node.args):
                    if not isinstance(arg, Name):
                        continue
                    if summary is None or summary.opaque:
                        defs.append((arg.ident, "opaque", None))
                    elif pos in summary.mutates_params:
                        defs.append((arg.ident, "mutate", None))
    return defs


def build_ssa(
    func: FunctionDef,
    effects: dict[str, EffectSummary] | None = None,
) -> SSAForm:
    """Construct SSA form for a (statement-numbered) function.

    ``effects`` sharpens opaque-redefinition modelling for calls to
    functions defined in the same program; without it every non-builtin
    call conservatively redefines its variable arguments.
    """
    cfg = build_cfg(func)
    idom = immediate_dominators(cfg)
    frontiers = dominance_frontiers(cfg, idom)
    ssa = SSAForm(func=func, cfg=cfg, idom=idom, frontiers=frontiers)

    # -- collect def sites per variable --------------------------------
    def_blocks: dict[str, set[int]] = {}
    stmt_defs: dict[int, list] = {}  # by id(stmt), for renaming below
    for block in cfg.blocks:
        if block.index not in idom:
            continue
        for stmt in block.statements:
            stmt_defs[id(stmt)] = defs = _stmt_defs(stmt, effects)
            for var, _kind, _rhs in defs:
                def_blocks.setdefault(var, set()).add(block.index)
    for param in func.params:
        def_blocks.setdefault(param, set()).add(cfg.entry)

    # -- iterated dominance frontier φ placement -----------------------
    phi_vars: dict[int, list[str]] = {b: [] for b in idom}
    for var, blocks in sorted(def_blocks.items()):
        placed: set[int] = set()
        work = sorted(blocks)
        while work:
            block = work.pop()
            for target in sorted(frontiers.get(block, ())):
                if target in placed:
                    continue
                placed.add(target)
                phi_vars[target].append(var)
                if target not in blocks:
                    work.append(target)

    def new_value(var: str, kind: str, sid: int, block: int, rhs=None) -> int:
        vid = len(ssa.values)
        ssa.values.append(
            SSAValue(vid=vid, var=var, kind=kind, sid=sid, block=block, rhs=rhs)
        )
        return vid

    # Pre-create every φ so predecessors can fill operand slots regardless
    # of dominator-tree visit order.
    for block_index in sorted(idom):
        phi_ids = []
        for var in phi_vars.get(block_index, ()):
            vid = new_value(var, "phi", -1, block_index)
            ssa.values[vid].operands = [-1] * len(ssa.block_preds(block_index))
            phi_ids.append(vid)
        ssa.phis[block_index] = phi_ids

    # -- renaming down the dominator tree ------------------------------
    children: dict[int, list[int]] = {b: [] for b in idom}
    for block, dom in idom.items():
        if block != cfg.entry:
            children[dom].append(block)
    for kids in children.values():
        kids.sort()

    stacks: dict[str, list[int]] = {}
    for param in func.params:
        stacks[param] = [new_value(param, "param", -1, cfg.entry)]

    def rename(block_index: int) -> None:
        pushed: list[str] = []
        block = cfg.blocks[block_index]
        for vid in ssa.phis.get(block_index, ()):  # φ defs first
            var = ssa.values[vid].var
            stacks.setdefault(var, []).append(vid)
            pushed.append(var)

        for stmt in block.statements:
            ssa.env_before[stmt.sid] = {
                var: stack[-1] for var, stack in stacks.items() if stack
            }
            for var, kind, rhs in stmt_defs[id(stmt)]:
                vid = new_value(var, kind, stmt.sid, block_index, rhs)
                stacks.setdefault(var, []).append(vid)
                pushed.append(var)

        for succ in block.successors:
            if succ not in idom:
                continue
            slot = ssa.block_preds(succ).index(block_index)
            for vid in ssa.phis.get(succ, ()):
                stack = stacks.get(ssa.values[vid].var)
                if stack:
                    ssa.values[vid].operands[slot] = stack[-1]

        for child in children.get(block_index, ()):
            rename(child)

        for var in reversed(pushed):
            stacks[var].pop()

    rename(cfg.entry)
    return ssa


# ----------------------------------------------------------------------
# Client 1: sparse conditional constant propagation (Wegman–Zadeck)


class _Top:
    def __repr__(self):  # pragma: no cover - debug aid
        return "⊤"


class _Bottom:
    def __repr__(self):  # pragma: no cover - debug aid
        return "⊥"


TOP = _Top()
BOTTOM = _Bottom()

#: Operators folded over known constants.  Division and modulo are left out
#: on purpose: the interpreter's semantics for them must stay the single
#: source of truth for corner cases (negative truncation).
_INT_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}
_CMP_OPS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _same_const(a, b) -> bool:
    if isinstance(a, (_Top, _Bottom)) or isinstance(b, (_Top, _Bottom)):
        return a is b
    return type(a) is type(b) and a == b


def _meet(a, b):
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    return a if _same_const(a, b) else BOTTOM


@dataclass
class SCCPResult:
    """Constant facts and reachability proven by SCCP."""

    ssa: SSAForm
    lattice: dict[int, object] = field(default_factory=dict)
    executable_blocks: set[int] = field(default_factory=set)
    #: If-statement sid → the branch proven dead ("then" or "else").
    dead_branches: dict[int, str] = field(default_factory=dict)

    def const_of(self, vid: int):
        """The proven constant for an SSA value, or ``None``."""
        value = self.lattice.get(vid, BOTTOM)
        return None if value is TOP or value is BOTTOM else value

    def const_at(self, sid: int, var: str):
        """The proven constant for a use of ``var`` at ``sid``, or None."""
        vid = self.ssa.use(sid, var)
        return None if vid is None else self.const_of(vid)

    def eval_at(self, sid: int, expr: Expr):
        """Constant-evaluate an arbitrary expression at a statement."""
        value = _eval_expr(expr, self.ssa.env_before.get(sid, {}), self.lattice)
        return None if value is TOP or value is BOTTOM else value

    def constants(self) -> dict[str, object]:
        """``variable#vid`` → constant, for reporting."""
        out = {}
        for vid, value in sorted(self.lattice.items()):
            if not isinstance(value, (_Top, _Bottom)):
                ssa_value = self.ssa.value(vid)
                out[f"{ssa_value.var}#{vid}"] = value
        return out


def _eval_expr(expr: Expr, env: dict[str, int], lattice: dict[int, object]):
    """Constant-evaluate an expression under the SSA lattice.

    Anything the model does not cover (calls, getters, field reads, object
    construction, floats) is BOTTOM; only same-type literal operations
    fold, and only side-effect-free ones — calls never fold, which is what
    makes pruning a branch guarded by a folded condition sound.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, StringLit):
        return expr.value
    if isinstance(expr, FloatLit):
        return BOTTOM  # no float identities: rounding must stay runtime-owned
    if isinstance(expr, Name):
        vid = env.get(expr.ident)
        return BOTTOM if vid is None else lattice.get(vid, BOTTOM)
    if isinstance(expr, Unary):
        operand = _eval_expr(expr.operand, env, lattice)
        if operand is TOP or operand is BOTTOM:
            return operand
        if expr.op == "-" and _is_int(operand):
            return -operand
        if expr.op == "!" and isinstance(operand, bool):
            return not operand
        return BOTTOM
    if isinstance(expr, Binary):
        left = _eval_expr(expr.left, env, lattice)
        right = _eval_expr(expr.right, env, lattice)
        if left is TOP or right is TOP:
            return TOP
        if left is BOTTOM or right is BOTTOM:
            return BOTTOM
        both_int = _is_int(left) and _is_int(right)
        if expr.op in _INT_OPS and both_int:
            return _INT_OPS[expr.op](left, right)
        if expr.op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if expr.op in _CMP_OPS and both_int:
            return _CMP_OPS[expr.op](left, right)
        if (
            expr.op in ("==", "!=")
            and isinstance(left, (str, bool))
            and type(left) is type(right)
        ):
            return (left == right) if expr.op == "==" else (left != right)
        if expr.op == "&&" and isinstance(left, bool) and isinstance(right, bool):
            return left and right
        if expr.op == "||" and isinstance(left, bool) and isinstance(right, bool):
            return left or right
        return BOTTOM
    if isinstance(expr, Ternary):
        cond = _eval_expr(expr.cond, env, lattice)
        if cond is TOP:
            return TOP
        if isinstance(cond, bool):
            return _eval_expr(expr.if_true if cond else expr.if_false, env, lattice)
        return BOTTOM
    return BOTTOM


def sccp(ssa: SSAForm) -> SCCPResult:
    """Sparse conditional constant propagation over an :class:`SSAForm`.

    Unreachable predecessors do not contribute to φ meets, which is what
    lets a constant survive a join with a statically-dead branch.
    """
    cfg = ssa.cfg
    lattice: dict[int, object] = {}
    for value in ssa.values:
        if value.kind in ("phi", "assign"):
            lattice[value.vid] = TOP
        else:
            lattice[value.vid] = BOTTOM  # params, mutations, cursors, undef

    defs_index: dict[int, list[SSAValue]] = {}
    for value in ssa.values:
        if value.sid >= 0:
            defs_index.setdefault(value.sid, []).append(value)

    # SSA value → blocks whose (re-)evaluation reads it.
    block_of_sid: dict[int, int] = {}
    for block in cfg.blocks:
        for stmt in block.statements:
            block_of_sid[stmt.sid] = block.index
    users: dict[int, set[int]] = {}
    for sid, env in ssa.env_before.items():
        owner = block_of_sid.get(sid)
        if owner is None:
            continue
        for vid in env.values():
            users.setdefault(vid, set()).add(owner)
    for phi_block, vids in ssa.phis.items():
        for vid in vids:
            for operand in ssa.values[vid].operands:
                if operand >= 0:
                    users.setdefault(operand, set()).add(phi_block)

    executable_edges: set[tuple[int, int]] = set()
    work: list[int] = [cfg.entry]

    def enqueue(index: int) -> None:
        if index not in work:
            work.append(index)

    def mark_edge(src: int, dst: int) -> None:
        if (src, dst) not in executable_edges:
            executable_edges.add((src, dst))
            enqueue(dst)

    def block_executable(index: int) -> bool:
        if index == cfg.entry:
            return True
        return any(
            (pred, index) in executable_edges
            for pred in cfg.blocks[index].predecessors
        )

    def descend(old, new):
        """One lattice step for a def: TOP → const → BOTTOM, never up."""
        if old is TOP:
            return new
        if old is BOTTOM or new is TOP:
            return old
        if new is BOTTOM or not _same_const(old, new):
            return BOTTOM
        return old

    def eval_block(index: int) -> None:
        block = cfg.blocks[index]
        changed_vids: list[int] = []

        # φ meets over executable incoming edges only.
        preds = ssa.block_preds(index)
        for vid in ssa.phis.get(index, ()):
            value = ssa.values[vid]
            result = TOP
            for slot, pred in enumerate(preds):
                if (pred, index) not in executable_edges:
                    continue
                operand = value.operands[slot]
                result = _meet(
                    result,
                    BOTTOM if operand < 0 else lattice.get(operand, BOTTOM),
                )
            new = descend(lattice.get(vid, TOP), result)
            if not _same_const(lattice.get(vid, TOP), new):
                lattice[vid] = new
                changed_vids.append(vid)

        last_if: If | None = None
        for stmt in block.statements:
            env = ssa.env_before.get(stmt.sid, {})
            for value in defs_index.get(stmt.sid, []):
                new = (
                    _eval_expr(value.rhs, env, lattice)
                    if value.kind == "assign"
                    else BOTTOM
                )
                descended = descend(lattice.get(value.vid, TOP), new)
                if not _same_const(lattice.get(value.vid, TOP), descended):
                    lattice[value.vid] = descended
                    changed_vids.append(value.vid)
            if isinstance(stmt, If):
                last_if = stmt

        # Successor edges: a constant If guard enables only one arm.
        if (
            last_if is not None
            and block.statements
            and block.statements[-1] is last_if
            and len(block.successors) >= 2
        ):
            cond = _eval_expr(
                last_if.cond, ssa.env_before.get(last_if.sid, {}), lattice
            )
            if isinstance(cond, bool):
                mark_edge(index, block.successors[0 if cond else 1])
            elif cond is BOTTOM:
                for succ in block.successors:
                    mark_edge(index, succ)
            # TOP: inputs unresolved; a user-block re-enqueue returns here.
        else:
            for succ in block.successors:
                mark_edge(index, succ)

        for vid in changed_vids:
            for dependent in users.get(vid, ()):
                if block_executable(dependent):
                    enqueue(dependent)

    iterations = 0
    limit = 64 * max(1, len(cfg.blocks)) * max(1, len(ssa.values))
    while work and iterations < limit:
        iterations += 1
        index = work.pop(0)
        if block_executable(index):
            eval_block(index)

    result = SCCPResult(
        ssa=ssa,
        lattice=lattice,
        executable_blocks={
            b.index for b in cfg.blocks if block_executable(b.index)
        },
    )

    # Dead-branch verdicts: an If in an executable block whose condition is
    # a proven boolean constant.  Conditions containing calls never fold
    # (calls evaluate to BOTTOM), so a folded guard is side-effect free and
    # the pruned branch is genuinely unreachable.
    for block in cfg.blocks:
        if block.index not in result.executable_blocks:
            continue
        for stmt in block.statements:
            if not isinstance(stmt, If):
                continue
            cond = _eval_expr(
                stmt.cond, ssa.env_before.get(stmt.sid, {}), lattice
            )
            if cond is True:
                result.dead_branches[stmt.sid] = "else"
            elif cond is False:
                result.dead_branches[stmt.sid] = "then"
    return result


# ----------------------------------------------------------------------
# Client 2: copy/φ-aware value propagation


def resolve_copy(ssa: SSAForm, sid: int, var: str, max_depth: int = 32) -> str | None:
    """The variable a use of ``var`` at ``sid`` provably equals, or None.

    Follows copy chains (``x = y``) and same-value φs.  A hop from ``x`` to
    ``y`` is valid only when ``y``'s SSA version at the *use* site equals
    its version at the copy — i.e. ``y`` was not redefined in between on
    any path.  That check is what makes mapping the SSA fact back onto the
    non-SSA AST sound (see module docstring).
    """
    env = ssa.env_before.get(sid)
    if env is None or var not in env:
        return None
    current = var
    vid = env[current]
    for _hop in range(max_depth):
        vid = resolve_same_value_phi(ssa, vid)
        value = ssa.value(vid)
        source = value.copy_of
        if source is None:
            break
        copy_env = ssa.env_before.get(value.sid)
        if copy_env is None:
            break
        source_at_copy = copy_env.get(source)
        source_at_use = env.get(source)
        if source_at_copy is None or source_at_copy != source_at_use:
            break
        current = source
        vid = source_at_use
    return current if current != var else None


def resolve_same_value_phi(ssa: SSAForm, vid: int) -> int:
    """Collapse φs whose operands all (transitively) name one value."""
    seen: set[int] = set()

    def resolve(v: int) -> int | None:
        if v in seen:
            return None  # back edge into the cycle: contributes nothing
        seen.add(v)
        value = ssa.value(v)
        if value.kind != "phi":
            return v
        resolved: int | None = None
        for operand in value.operands:
            if operand < 0:
                return -1  # a path with no definition: not a same-value φ
            inner = resolve(operand)
            if inner is None:
                continue
            if inner < 0:
                return -1
            if resolved is None:
                resolved = inner
            elif resolved != inner:
                return -1
        return resolved

    result = resolve(vid)
    return vid if result is None or result < 0 else result
