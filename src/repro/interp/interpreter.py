"""Interpreter for MiniJava programs over the DB substrate.

It is the semantic oracle of equivalence checking (the extracted SQL must
give the value the imperative code computes, paper Theorem 1) and the
runtime of Experiments 5–8.  ``executeQuery("...")`` strings may hold named
parameters (``:x``), bound from the program environment at call time as the
paper's D-IR binds them.  A function is compiled into closures on its first
run; every later run, by any :class:`Interpreter`, reuses them.
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import partial
from typing import Any, Callable

from ..db import Connection
from ..lang import (
    Assign, Binary, Block, BoolLit, Break, Call, Continue, Expr, ExprStmt, FieldAccess,
    FloatLit, ForEach, FunctionDef, If, IntLit, MethodCall, Name, New, NullLit, Program,
    Return, Stmt, StringLit, Ternary, TryCatch, Unary, While,
)
from ..sqlparse import parse_query, template_params
from .values import (
    Entity, ResultCursor, StringBuilder, getter_to_column, setter_to_column, to_display,
)


class InterpreterError(Exception):
    """Raised on runtime failures in interpreted programs."""


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class Interpreter:
    """Executes a MiniJava :class:`Program` against a :class:`Connection`."""

    def __init__(self, program: Program, connection: Connection, max_steps: int = 10_000_000):
        self._program = program
        self._connection = connection
        self._max_steps = max_steps
        self._steps = 0
        self.output: list[str] = []
        #: Final value of the ``__out__`` collection of the last-run
        #: function (set by print-preprocessing; used by equivalence tests).
        self.last_out: Any = None

    # ------------------------------------------------------------------
    # Entry points

    def run(self, function_name: str, *args: Any) -> Any:
        """Run a named function with positional arguments; return its value."""
        func = self._program.function(function_name)
        return self._call_function(func, list(args))

    def _call_function(self, func: FunctionDef, args: list[Any]) -> Any:
        if len(args) != len(func.params):
            raise InterpreterError(f"{func.name} expects {len(func.params)} args, got {len(args)}")
        env = dict(zip(func.params, args))
        try:
            _compiled(func)(self, env)
        except _ReturnSignal as signal:
            self.last_out = env.get("__out__", self.last_out)
            return signal.value
        self.last_out = env.get("__out__", self.last_out)
        return None

    def _run_query(self, text: str, env: dict[str, Any]) -> list[dict]:
        if not isinstance(text, str):
            raise InterpreterError("executeQuery argument must be a string")
        params: dict[str, Any] = {}
        query = parse_query(text, params)
        for name in template_params(query):
            if name not in env:
                raise InterpreterError(f"query parameter :{name} is unbound")
            params[name] = env[name]
        return self._connection.execute_query(query, params)

    # ------------------------------------------------------------------
    # Receivers: a method call looks its receiver's exact type up in
    # ``_RECEIVERS`` when it runs.

    @staticmethod
    def _cursor_method(receiver: ResultCursor, method: str, args: list[Any]) -> Any:
        if method == "next":
            return receiver.next()
        # Delegate JDBC getters to the current row.
        try:
            row = receiver.current
        except RuntimeError as unpositioned:
            raise InterpreterError(str(unpositioned)) from None
        return _RECEIVERS.get(type(row), _cannot_call)(row, method, args)

    @staticmethod
    def _entity_method(receiver: Entity, method: str, args: list[Any]) -> Any:
        if method in _JDBC_GETTERS:
            value = _column(receiver, args[0])
            if method == "getInt" and value is not None:
                return int(value)
            if method == "getDouble" and value is not None:
                return float(value)
            return value
        column = getter_to_column(method)
        if column is not None and not args:
            return _column(receiver, column)
        column = setter_to_column(method)
        if column is not None and len(args) == 1:
            receiver.row[column] = args[0]
            return None
        raise InterpreterError(f"unknown entity method {method!r}")

    @staticmethod
    def _builder_method(receiver: StringBuilder, method: str, args: list[Any]) -> Any:
        if method == "append":
            return receiver.append(args[0])
        if method == "toString":
            return receiver.to_string()
        raise InterpreterError(f"unknown StringBuilder method {method!r}")

    @staticmethod
    def _tuple_method(receiver: tuple, method: str, args: list[Any]) -> Any:
        if method in ("getFirst", "getKey", "getCol0"):
            return receiver[0]
        if method in ("getSecond", "getValue", "getCol1"):
            return receiver[1]
        if method == "get":
            return receiver[args[0]]
        return _cannot_call(receiver, method, args)

    @staticmethod
    def _number_method(receiver: int | float, method: str, args: list[Any]) -> Any:
        if method in ("intValue", "doubleValue", "longValue"):
            return receiver
        if method == "compareTo":
            return (receiver > args[0]) - (receiver < args[0])
        if method == "equals":
            return receiver == args[0]
        return _cannot_call(receiver, method, args)

    @staticmethod
    def _list_method(receiver: list, method: str, args: list[Any]) -> Any:
        if method in ("add", "append"):
            receiver.append(args[0])
            return True
        if method == "addAll":
            receiver.extend(args[0])
            return True
        if method == "get":
            index = args[0]
            if not 0 <= index < len(receiver):
                raise InterpreterError(
                    f"IndexOutOfBoundsException: Index {index} out of bounds"
                    f" for length {len(receiver)}"
                )
            return receiver[index]
        if method == "size":
            return len(receiver)
        if method == "isEmpty":
            return not receiver
        if method == "contains":
            return args[0] in receiver
        if method == "remove":
            receiver.remove(args[0])
            return True
        if method == "clear":
            receiver.clear()
            return None
        if method == "iterator":
            return list(receiver)
        raise InterpreterError(f"unknown list method {method!r}")

    @staticmethod
    def _set_method(receiver: set, method: str, args: list[Any]) -> Any:
        if method in ("add", "insert"):
            added = args[0] not in receiver
            receiver.add(args[0])
            return added
        if method == "addAll":
            receiver.update(args[0])
            return True
        if method == "size":
            return len(receiver)
        if method == "isEmpty":
            return not receiver
        if method == "contains":
            return args[0] in receiver
        if method == "remove":
            receiver.discard(args[0])
            return True
        raise InterpreterError(f"unknown set method {method!r}")

    @staticmethod
    def _map_method(receiver: dict, method: str, args: list[Any]) -> Any:
        if method == "put":
            receiver[args[0]] = args[1]
            return None
        if method == "get":
            return receiver.get(args[0])
        if method == "containsKey":
            return args[0] in receiver
        if method == "size":
            return len(receiver)
        if method == "isEmpty":
            return not receiver
        if method == "keySet":
            return set(receiver.keys())
        if method == "values":
            return list(receiver.values())
        raise InterpreterError(f"unknown map method {method!r}")

    @staticmethod
    def _string_method(receiver: str, method: str, args: list[Any]) -> Any:
        if method == "length":
            return len(receiver)
        if method == "toUpperCase":
            return receiver.upper()
        if method == "toLowerCase":
            return receiver.lower()
        if method == "trim":
            return receiver.strip()
        if method == "equals":
            return receiver == args[0]
        if method == "equalsIgnoreCase":
            return receiver.lower() == str(args[0]).lower()
        if method == "contains":
            return args[0] in receiver
        if method == "startsWith":
            return receiver.startswith(args[0])
        if method == "endsWith":
            return receiver.endswith(args[0])
        if method == "substring":
            if len(args) == 2:
                return receiver[args[0] : args[1]]
            return receiver[args[0] :]
        if method == "indexOf":
            return receiver.find(args[0])
        if method == "concat":
            return receiver + args[0]
        if method == "isEmpty":
            return not receiver
        raise InterpreterError(f"unknown string method {method!r}")


_STEP_LIMIT = "step limit exceeded (possible infinite loop)"
_JDBC_GETTERS = {"getString", "getInt", "getDouble", "getLong", "getBoolean", "getObject"}


def _cannot_call(receiver: Any, method: str, args: list[Any]) -> Any:
    if receiver is None:
        raise InterpreterError(f"null pointer: cannot call {method!r} on null")
    raise InterpreterError(f"cannot call {method!r} on {type(receiver).__name__}")


def _column(entity: Entity, column: str) -> Any:
    try:
        return entity.get(column)
    except KeyError as missing:
        raise InterpreterError(missing.args[0]) from None


def _truthy(value: Any) -> bool:
    if value is None:
        return False
    if type(value) is bool:
        return value
    raise InterpreterError(f"condition evaluated to non-boolean {value!r}")


def _iterate(value: Any):
    if isinstance(value, (ResultCursor, list, tuple, set)):
        return iter(value)
    raise InterpreterError(f"value of type {type(value).__name__} is not iterable")


def _java_add(left: Any, right: Any) -> Any:
    if isinstance(left, str) or isinstance(right, str):
        return to_display(left) + to_display(right)
    return left + right


def _java_div(left: Any, right: Any) -> Any:
    """Java ``/``: integer division truncates toward zero and raises on a
    zero divisor; with a double operand a zero divisor gives ±Infinity, or
    NaN for a zero or NaN dividend."""
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise InterpreterError("ArithmeticException: / by zero")
        quotient = abs(left) // abs(right)
        return quotient if (left < 0) == (right < 0) else -quotient
    if right == 0:
        if left == 0 or left != left:
            return math.nan
        return math.copysign(math.inf, left) * math.copysign(1.0, right)
    return left / right


def _java_mod(left: Any, right: Any) -> Any:
    """Java ``%``: the remainder takes the dividend's sign (``math.fmod``);
    an integer zero divisor raises, a double one gives NaN."""
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise InterpreterError("ArithmeticException: / by zero")
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    if right == 0 or math.isinf(left):
        return math.nan
    return math.fmod(left, right)


def _java_parse(convert: Callable[[Any], Any]) -> Callable[[list[Any]], Any]:
    """``Integer.parseInt``/``Double.parseDouble``: input that is not a
    number raises Java's ``NumberFormatException``."""
    def parse(args: list[Any]) -> Any:
        try:
            return convert(args[0])
        except (TypeError, ValueError):
            raise InterpreterError(
                f'NumberFormatException: For input string: "{args[0]}"'
            ) from None
    return parse


def _register_temp_table(interp: Interpreter, env: dict, args: list[Any]) -> None:
    rows = [
        {k: v for k, v in e.row.items() if "." not in k} if isinstance(e, Entity) else {"val": e}
        for e in args[1]
    ]
    interp._connection.ship_temp_table(args[0], rows)


def _print(interp: Interpreter, env: dict, args: list[Any]) -> None:
    interp.output.append("".join(map(to_display, args)))


# Receiver dispatch is keyed on the exact type: ``bool``, the one runtime
# value that subclasses a receiver kind, is listed so that it reaches the
# numeric methods as ``int`` does.
_RECEIVERS = {
    ResultCursor: Interpreter._cursor_method, Entity: Interpreter._entity_method,
    list: Interpreter._list_method, set: Interpreter._set_method,
    dict: Interpreter._map_method, str: Interpreter._string_method,
    StringBuilder: Interpreter._builder_method, tuple: Interpreter._tuple_method,
    int: Interpreter._number_method, float: Interpreter._number_method,
    bool: Interpreter._number_method,
}
_BINARY = {
    "+": _java_add, "-": operator.sub, "*": operator.mul, "/": _java_div,
    "%": _java_mod, "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}
#: What each query call makes of the rows of its one argument's query.
_QUERIES = {
    "executeQuery": lambda rows: [Entity(row) for row in rows],
    "executeQueryCursor": ResultCursor, "executeExists": bool,
    "executeScalar": lambda rows: next(
        (v for k, v in rows[0].items() if "." not in k), None) if rows else None,
}
#: Constructors by class name, applied to the evaluated arguments.
_NEW = {
    **dict.fromkeys(("ArrayList", "LinkedList", "List", "Vector"),
                    lambda args: list(args[0]) if args else []),
    **dict.fromkeys(("HashSet", "TreeSet", "Set", "LinkedHashSet"),
                    lambda args: set(args[0]) if args else set()),
    **dict.fromkeys(("HashMap", "TreeMap", "Map", "LinkedHashMap"), lambda args: {}),
    "StringBuilder": lambda args: StringBuilder(args[0] if args else ""),
    "Pair": tuple, "Tuple": tuple,
}
#: Static library calls by (class, method), applied to the evaluated
#: arguments (``Integer``, ``Double`` and ``String`` evaluate only the first).
_STATIC = {
    ("Math", "max"): max, ("Math", "min"): min, ("Math", "abs"): lambda args: abs(args[0]),
    ("Integer", "parseInt"): _java_parse(int),
    ("Double", "parseDouble"): _java_parse(float),
    ("String", "valueOf"): lambda args: to_display(args[0]),
    ("Collections", "sort"): lambda args: args[0].sort(),
    ("Collections", "max"): lambda args: max(args[0]),
    ("Collections", "min"): lambda args: min(args[0]),
}


# ----------------------------------------------------------------------
# Compilation: each node becomes a closure ``(interp, env)`` with its fields,
# operator, literal value and callee kind read once.  The closures charge
# the step budget before running any child: a block one step per statement,
# every expression one step, ``while`` one per iteration.  A node that
# cannot run (unknown node type, operator or class) raises when it runs.

_Code = Callable[[Interpreter, dict], Any]

#: ``id(func)`` → (weak reference to ``func``, its compiled body): keyed on
#: identity outside the node, because ``clone_statements`` copies a node's
#: ``__dict__`` and AST dataclasses are unhashable.  A function edited in
#: place after its first run keeps its old closures; editors clone first.
_COMPILED: dict[int, tuple[weakref.ref, _Code]] = {}


def _compiled(func: FunctionDef) -> _Code:
    """``func``'s body, compiled on its first run."""
    key = id(func)
    entry = _COMPILED.get(key)
    if entry is not None and entry[0]() is func:
        return entry[1]
    body = _compile_function(func)
    def forget(ref: weakref.ref, key: int = key) -> None:
        if _COMPILED.get(key, (None,))[0] is ref:
            del _COMPILED[key]
    _COMPILED[key] = (weakref.ref(func, forget), body)
    return body


def _compile_function(func: FunctionDef) -> _Code:
    """Compile ``func``'s body: the one compile entry point (CI counts it)."""
    return _block(func.body)


def _expr(expr: Expr) -> _Code:
    compile_ = _COMPILE_EXPR.get(type(expr))
    if compile_ is None:
        return _failing(f"cannot evaluate {type(expr).__name__}")
    return compile_(expr)


def _failing(message: str, children: tuple[_Code, ...] = ()) -> _Code:
    """An expression that charges its step, runs ``children``, then raises."""
    def fail(interp: Interpreter, env: dict, values: list[Any]) -> Any:
        raise InterpreterError(message)
    return _builtin(fail, children)


def _block(block: Block) -> _Code:
    codes = tuple(map(_stmt, block.statements))
    def run_block(interp: Interpreter, env: dict) -> None:
        for code in codes:
            interp._steps += 1
            if interp._steps > interp._max_steps:
                raise InterpreterError(_STEP_LIMIT)
            code(interp, env)
    return run_block


def _stmt(stmt: Stmt) -> _Code:
    compile_ = _COMPILE_STMT.get(type(stmt))
    if compile_ is None:
        return _raiser(partial(InterpreterError, f"cannot execute {type(stmt).__name__}"))
    return compile_(stmt)


def _assign(stmt: Assign) -> _Code:
    target, value = stmt.target, _expr(stmt.value)
    def assign(interp: Interpreter, env: dict) -> None:
        env[target] = value(interp, env)
    return assign


def _if(stmt: If) -> _Code:
    cond, then = _expr(stmt.cond), _block(stmt.then_body)
    otherwise = None if stmt.else_body is None else _block(stmt.else_body)
    def if_(interp: Interpreter, env: dict) -> None:
        if _truthy(cond(interp, env)):
            then(interp, env)
        elif otherwise is not None:
            otherwise(interp, env)
    return if_


def _foreach(stmt: ForEach) -> _Code:
    var, iterable, body = stmt.var, _expr(stmt.iterable), _block(stmt.body)
    def foreach(interp: Interpreter, env: dict) -> None:
        for item in _iterate(iterable(interp, env)):
            env[var] = item
            try:
                body(interp, env)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
    return foreach


def _while(stmt: While) -> _Code:
    cond, body = _expr(stmt.cond), _block(stmt.body)
    def while_(interp: Interpreter, env: dict) -> None:
        while _truthy(cond(interp, env)):
            interp._steps += 1
            if interp._steps > interp._max_steps:
                raise InterpreterError(_STEP_LIMIT)
            try:
                body(interp, env)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
    return while_


def _return(stmt: Return) -> _Code:
    value = None if stmt.value is None else _expr(stmt.value)
    def return_(interp: Interpreter, env: dict) -> None:
        raise _ReturnSignal(None if value is None else value(interp, env))
    return return_


def _raiser(make: Callable[[], Exception]) -> _Code:
    def raise_(interp: Interpreter, env: dict) -> None:
        raise make()
    return raise_


def _try(stmt: TryCatch) -> _Code:
    body = _block(stmt.try_body)
    handler = None if stmt.catch_body is None else _block(stmt.catch_body)
    final = None if stmt.finally_body is None else _block(stmt.finally_body)
    def try_(interp: Interpreter, env: dict) -> None:
        try:
            body(interp, env)
        except InterpreterError:
            if handler is None:
                raise
            handler(interp, env)
        finally:
            if final is not None:
                final(interp, env)
    return try_


def _constant(value: Any) -> _Code:
    def constant(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        return value
    return constant


def _name(expr: Name) -> _Code:
    ident = expr.ident
    def name(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        try:
            return env[ident]
        except KeyError:
            raise InterpreterError(f"unbound variable {ident!r}") from None
    return name


def _unary(expr: Unary) -> _Code:
    operand, apply = _expr(expr.operand), {"-": operator.neg, "!": operator.not_}.get(expr.op)
    if apply is None:
        return _failing(f"unknown unary operator {expr.op!r}", (operand,))
    return _builtin(lambda interp, env, values: apply(values[0]), (operand,))


def _binary(expr: Binary) -> _Code:
    op, left, right = expr.op, _expr(expr.left), _expr(expr.right)
    apply = _BINARY.get(op)
    if op in ("&&", "||"):
        decided = op == "||"  # the left value that decides the result
        def logical(interp: Interpreter, env: dict) -> bool:
            interp._steps += 1
            if interp._steps > interp._max_steps:
                raise InterpreterError(_STEP_LIMIT)
            if _truthy(left(interp, env)) is decided:
                return decided
            return _truthy(right(interp, env))
        return logical
    if apply is None:
        return _failing(f"unknown binary operator {op!r}", (left, right))
    def binary(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        return apply(left(interp, env), right(interp, env))
    return binary


def _ternary(expr: Ternary) -> _Code:
    cond, if_true, if_false = _expr(expr.cond), _expr(expr.if_true), _expr(expr.if_false)
    def ternary(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        if _truthy(cond(interp, env)):
            return if_true(interp, env)
        return if_false(interp, env)
    return ternary


def _field(expr: FieldAccess) -> _Code:
    field = expr.field
    def other(value: Any) -> Any:
        raise InterpreterError(f"cannot access field {field!r} on {type(value).__name__}")
    return _column_read(_expr(expr.receiver), field, other)


def _column_read(receiver: _Code, column: str, other: Callable[[Any], Any]) -> _Code:
    """Read ``column`` of an entity receiver; ``other`` takes any other value."""
    def read(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        value = receiver(interp, env)
        if type(value) is Entity:
            row = value.row
            return row[column] if column in row else _column(value, column)
        return other(value)
    return read


def _new(expr: New) -> _Code:
    args, make = tuple(map(_expr, expr.args)), _NEW.get(expr.class_name)
    if make is None:
        return _failing(f"unknown class {expr.class_name!r}", args)
    return _builtin(lambda interp, env, values: make(values), args)


def _builtin(apply: Callable[[Interpreter, dict, list], Any], args: tuple[_Code, ...]) -> _Code:
    """A node that evaluates every argument, then applies ``apply`` to them."""
    def builtin(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        return apply(interp, env, [a(interp, env) for a in args])
    return builtin


def _call(expr: Call) -> _Code:
    """A free call, specialised by its name.  A program function is looked
    up (and compiled on its first run) when the call runs."""
    func, args = expr.func, tuple(map(_expr, expr.args))
    shape = _QUERIES.get(func)
    if func in ("executeQuery", "executeQueryCursor") and len(args) != 1:
        return _failing("executeQuery takes exactly one argument")
    if func in ("print", "println"):
        return _builtin(_print, args)
    if func == "registerTempTable":
        return _builtin(_register_temp_table, args[:2])
    if shape is not None:  # a query runs its first argument's text
        return _builtin(
            lambda interp, env, values: shape(interp._run_query(values[0], env)), args[:1]
        )
    def call(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        try:
            function = interp._program.function(func)
        except KeyError:
            raise InterpreterError(f"unknown function {func!r}") from None
        return interp._call_function(function, [a(interp, env) for a in args])
    return call


def _method_call(expr: MethodCall) -> _Code:
    target, method, args = expr.receiver, expr.method, tuple(map(_expr, expr.args))
    if type(target) is FieldAccess and getattr(target.receiver, "ident", None) == "System":
        return _builtin(_print, args)  # System.out.println(...)
    dynamic = _receiver_call(_expr(target), method, args)
    ident = target.ident if type(target) is Name else None
    static = _STATIC.get((ident, method))
    if static is None and ident not in ("Math", "Collections"):
        return dynamic
    evaluated = args[:1] if ident in ("Integer", "Double", "String") else args
    # ``Math.max(...)`` and the like, while no variable of the class's name
    # is bound.  A ``Collections`` method not in ``_STATIC`` falls through.
    def static_call(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        if ident not in env:
            values = [a(interp, env) for a in evaluated]
            if static is not None:
                return static(values)
            if ident == "Math":
                raise InterpreterError(f"unknown Math method {method!r}")
        interp._steps -= 1  # ``dynamic`` charges this call's step again
        return dynamic(interp, env)
    return static_call


def _receiver_call(receiver: _Code, method: str, args: tuple[_Code, ...]) -> _Code:
    """A call on a receiver, specialised by the method's name: a bean getter
    reads an entity's column, anything else dispatches through ``_RECEIVERS``."""
    column = getter_to_column(method)
    if column is not None and not args and method not in _JDBC_GETTERS:
        def other(value: Any) -> Any:
            return _RECEIVERS.get(type(value), _cannot_call)(value, method, [])
        return _column_read(receiver, column, other)
    def method_call(interp: Interpreter, env: dict) -> Any:
        interp._steps += 1
        if interp._steps > interp._max_steps:
            raise InterpreterError(_STEP_LIMIT)
        value = receiver(interp, env)
        values = [a(interp, env) for a in args] if args else []
        return _RECEIVERS.get(type(value), _cannot_call)(value, method, values)
    return method_call


_COMPILE_STMT: dict[type, Callable[[Any], _Code]] = {
    Assign: _assign, ExprStmt: lambda stmt: _expr(stmt.expr), Block: _block, If: _if,
    ForEach: _foreach, While: _while, Return: _return, TryCatch: _try,
    Break: lambda stmt: _raiser(_BreakSignal), Continue: lambda stmt: _raiser(_ContinueSignal),
}
_COMPILE_EXPR: dict[type, Callable[[Any], _Code]] = {
    **dict.fromkeys((IntLit, FloatLit, StringLit, BoolLit), lambda e: _constant(e.value)),
    NullLit: lambda e: _constant(None), Name: _name, Binary: _binary, Unary: _unary,
    Ternary: _ternary, Call: _call, MethodCall: _method_call, FieldAccess: _field,
    New: _new,
}


def run_program(
    source_or_program: str | Program, connection: Connection, function: str = "main",
    args: tuple = (),
) -> tuple[Any, list[str]]:
    """Parse (if needed) and run a program; return (result, printed output)."""
    from ..lang import parse_program

    if isinstance(source_or_program, str):
        program = parse_program(source_or_program)
    else:
        program = source_or_program
    interp = Interpreter(program, connection)
    result = interp.run(function, *args)
    return result, interp.output
