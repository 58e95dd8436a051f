"""AST-based concurrency lint for the serving tier.

The serving stack is lock-rich — swap/requests locks in the service
frontend, the rolling-buffer lock, batcher queue/flush locks, the
process tier's lane gates and spawn/stats locks — and its two classic
failure modes are lock-order inversion (deadlock) and slow work
performed while holding a hot lock (latency collapse).  Neither shows up
reliably under test load, so this module proves their absence statically
by walking the AST:

``L-LOCK-ORDER``
    Locks must be acquired consistently with
    :data:`CANONICAL_LOCK_ORDER` (outermost first).  Acquiring a lock
    that ranks *before* one already held — directly, or transitively
    through a same-module call — is an inversion: two threads taking the
    same pair in opposite orders can deadlock.  Locks the catalogue does
    not name are tracked (for ``L-BLOCK``) but never ranked.
``L-BLOCK``
    Blocking calls under a held lock: sleeps, file/NPZ I/O, ``os.replace``
    / ``shutil`` / ``subprocess``, future ``.result()``, thread/process
    ``.join()``, and plan compiles (``compile_module`` /
    ``build_plan_spec`` / ``trace_module``).  ``Condition.wait`` is
    deliberately *not* flagged — it releases the lock while waiting.
``L-SPAWN``
    Process-tier spawn-safety: every ``Process(...)`` construction must
    target a module-level function (not a lambda, bound method, or
    function nested in the spawning scope — none of which survive the
    ``spawn`` start method's pickling) and must not smuggle lambdas
    through ``args``.
``L-RETRY``
    Retry-loop hygiene: a loop that swallows an exception and
    ``continue``s (a re-dispatch loop) must back off before the next
    attempt — a bare ``while True: try/except: continue`` hot-spins the
    failing dependency, and a bounded ``for`` retry without any
    sleep/backoff/delay call hammers it just as hard.  Loops with a
    backoff call anywhere in their body (``time.sleep``, a
    ``*_backoff*``/``*_delay*`` helper) pass; use
    :class:`repro.serving.RetryPolicy` for the canonical bounded,
    jittered implementation.

Findings reuse the plan verifier's :class:`~.plan.Diagnostic` with
``path``/``line`` set.  Suppress a finding by putting the comment
``#lint:disable=RULE`` (spaces allowed after ``#`` and ``:``;
comma-separate several rules, or ``all``) on the flagged line or the line
directly above it.

The analysis is intra-procedural per class with a transitive summary
pass: each function's acquired locks and blocking calls propagate
through ``self.method()`` and bare same-module calls to a fixpoint, so a
blocking call two frames below a ``with self._lock:`` still fires.
Nested function bodies are skipped for lock context (they run later, not
at definition time) but are still scanned for spawn-safety.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .plan import Diagnostic

__all__ = ["CANONICAL_LOCK_ORDER", "LINT_RULES", "lint_paths", "lint_source"]

#: Lint rule ids, in severity order.
LINT_RULES = ("L-LOCK-ORDER", "L-BLOCK", "L-SPAWN", "L-RETRY")

#: Canonical outermost-to-innermost lock acquisition order across
#: ``repro.serving``.  A thread may only acquire rightward: the service
#: swap/request locks wrap everything, routing wraps batching, the
#: resilience layer's breaker/retry bookkeeping sits inside the flush it
#: instruments, the buffer/monitor/cache ``_lock`` family nests inside
#: those, the process tier's queue condition and spawn lock nest further
#: in, and the stats locks are innermost leaves (never held across
#: another acquisition).
CANONICAL_LOCK_ORDER = (
    "_swap_lock",
    "_requests_lock",
    "_route_lock",
    "_flush_lock",
    "_breaker_lock",
    "_retry_lock",
    "_lock",
    "_queue_lock",
    "_cond",
    "_spawn_lock",
    "_stats_lock",
)

_RANK = {name: index for index, name in enumerate(CANONICAL_LOCK_ORDER)}

#: Bare-name calls that block (I/O or compilation).
_BLOCKING_NAMES = {
    "open": "file I/O (open)",
    "compile_module": "plan compilation",
    "compile_plan": "plan compilation",
    "build_plan_spec": "plan compilation",
    "trace_module": "plan tracing",
}

#: ``receiver.attr`` calls that block, keyed by receiver name.
_BLOCKING_RECEIVERS = {
    "time": {"sleep"},
    "np": {"load", "save", "savez", "savez_compressed"},
    "numpy": {"load", "save", "savez", "savez_compressed"},
    "os": {"replace", "rename", "fsync"},
}

#: Path-object I/O methods (flagged on any receiver).
_PATH_IO_ATTRS = {"read_text", "read_bytes", "write_text", "write_bytes"}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\-\s]+)")


def _lock_attr(expr: ast.expr) -> Optional[str]:
    """Lock name if ``expr`` is ``self.<attr>`` naming a lock/condition."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and (expr.attr.endswith("lock") or expr.attr.endswith("cond"))
    ):
        return expr.attr
    return None


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    if isinstance(func.value, ast.Name):
        return func.value.id
    return None


def _is_numeric_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_numeric_constant(node.operand)
    return False


def _blocking_reason(call: ast.Call) -> Optional[str]:
    """Why ``call`` blocks, or ``None`` if it doesn't (statically)."""
    func = call.func
    if isinstance(func, ast.Name):
        return _BLOCKING_NAMES.get(func.id)
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    if attr in _BLOCKING_NAMES:
        return _BLOCKING_NAMES[attr]
    receiver = _receiver_name(func)
    if receiver in ("shutil", "subprocess"):
        return f"{receiver}.{attr}"
    if receiver in _BLOCKING_RECEIVERS and attr in _BLOCKING_RECEIVERS[receiver]:
        return f"{receiver}.{attr}"
    if attr in _PATH_IO_ATTRS:
        return f"path I/O (.{attr})"
    if attr == "result":
        # future.result() blocks; zero positional args or a timeout kwarg.
        if not call.args or all(kw.arg == "timeout" for kw in call.keywords):
            return "future .result()"
    if attr == "join":
        # thread/process join: no args, timeout kwarg, or one numeric
        # positional.  str.join / os.path.join take non-numeric operands.
        if not call.args and all(kw.arg == "timeout" for kw in call.keywords):
            return "thread/process .join()"
        if len(call.args) == 1 and _is_numeric_constant(call.args[0]) and not call.keywords:
            return "thread/process .join()"
    return None


# ----------------------------------------------------------------------
# Pass 1: per-function summaries + transitive closure
# ----------------------------------------------------------------------

@dataclass
class _Summary:
    acquires: Set[str] = field(default_factory=set)
    blocking: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)  # qualified local callees


def _function_nodes(tree: ast.Module):
    """Yield ``(qualified_name, class_name, node)`` for every top-level
    function and method (nested defs excluded — see module docstring)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{child.name}", node.name, child


def _iter_body(node, *, into_defs: bool = False):
    """``ast.walk`` that optionally stops at nested function boundaries."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if not into_defs and isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _summarise(
    name: str,
    class_name: Optional[str],
    node,
    method_classes: Dict[str, Set[str]],
    module_functions: Set[str],
) -> _Summary:
    summary = _Summary()
    for child in _iter_body(node):
        if isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                lock = _lock_attr(item.context_expr)
                if lock:
                    summary.acquires.add(lock)
        elif isinstance(child, ast.Call):
            reason = _blocking_reason(child)
            if reason:
                summary.blocking.add(reason)
            callee = _local_callee(child, class_name, method_classes, module_functions)
            if callee:
                summary.calls.add(callee)
    return summary


def _local_callee(
    call: ast.Call,
    class_name: Optional[str],
    method_classes: Dict[str, Set[str]],
    module_functions: Set[str],
) -> Optional[str]:
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and class_name is not None
        and class_name in method_classes.get(func.attr, set())
    ):
        return f"{class_name}.{func.attr}"
    if isinstance(func, ast.Name) and func.id in module_functions:
        return func.id
    return None


def _close_summaries(summaries: Dict[str, _Summary]) -> None:
    """Propagate acquires/blocking through local calls to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for summary in summaries.values():
            for callee in summary.calls:
                target = summaries.get(callee)
                if target is None:
                    continue
                if not target.acquires <= summary.acquires:
                    summary.acquires |= target.acquires
                    changed = True
                if not target.blocking <= summary.blocking:
                    summary.blocking |= target.blocking
                    changed = True


# ----------------------------------------------------------------------
# Pass 2: report findings with lock context
# ----------------------------------------------------------------------

def _check_order(
    lock: str,
    held: List[Tuple[str, int]],
    line: int,
    path: str,
    via: str,
    out: List[Diagnostic],
) -> None:
    rank = _RANK.get(lock)
    if rank is None:
        return
    for held_lock, held_line in held:
        held_rank = _RANK.get(held_lock)
        if held_rank is None or held_lock == lock:
            continue
        if rank < held_rank:
            out.append(Diagnostic(
                "L-LOCK-ORDER",
                f"acquires {lock!r}{via} while holding {held_lock!r} "
                f"(line {held_line}); canonical order is "
                f"{lock!r} before {held_lock!r}",
                path=path,
                line=line,
            ))


def _lint_function(
    name: str,
    class_name: Optional[str],
    node,
    path: str,
    summaries: Dict[str, _Summary],
    method_classes: Dict[str, Set[str]],
    module_functions: Set[str],
    out: List[Diagnostic],
) -> None:
    nested_defs = {
        child.name
        for child in _iter_body(node, into_defs=True)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and child is not node
    }

    def visit(statements, held: List[Tuple[str, int]]) -> None:
        for stmt in statements:
            visit_node(stmt, held)

    def visit_node(stmt, held: List[Tuple[str, int]]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # runs later, not under these locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = 0
            for item in stmt.items:
                scan_expr(item.context_expr, held)
                lock = _lock_attr(item.context_expr)
                if lock:
                    _check_order(lock, held, item.context_expr.lineno, path, "", out)
                    held.append((lock, item.context_expr.lineno))
                    acquired += 1
            visit(stmt.body, held)
            for _ in range(acquired):
                held.pop()
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                scan_expr(child, held)
            else:
                visit_node(child, held)

    def scan_expr(expr, held: List[Tuple[str, int]]) -> None:
        for node_ in [expr] + [
            n for n in _iter_body(expr) if isinstance(n, ast.Call)
        ]:
            if not isinstance(node_, ast.Call):
                continue
            _check_spawn(node_, nested_defs, path, out)
            if not held:
                continue
            reason = _blocking_reason(node_)
            if reason:
                out.append(Diagnostic(
                    "L-BLOCK",
                    f"{reason} while holding {held[-1][0]!r} "
                    f"(acquired line {held[-1][1]})",
                    path=path,
                    line=node_.lineno,
                ))
            callee = _local_callee(node_, class_name, method_classes, module_functions)
            summary = summaries.get(callee) if callee else None
            if summary is None:
                continue
            for lock in sorted(summary.acquires):
                _check_order(
                    lock, held, node_.lineno, path, f" via {callee}()", out
                )
            for reason_ in sorted(summary.blocking):
                out.append(Diagnostic(
                    "L-BLOCK",
                    f"{reason_} via {callee}() while holding {held[-1][0]!r} "
                    f"(acquired line {held[-1][1]})",
                    path=path,
                    line=node_.lineno,
                ))

    visit(node.body, [])


_BACKOFF_HINTS = ("sleep", "backoff", "delay")


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _has_backoff(loop) -> bool:
    """True when the loop body contains a sleep/backoff/delay call."""
    for node in _iter_body(loop):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name and any(hint in name for hint in _BACKOFF_HINTS):
                return True
    return False


def _handler_continues(handler: ast.ExceptHandler) -> bool:
    """True when ``handler`` re-enters its loop with ``continue``.

    Only the handler's own loop counts: a ``continue`` inside a loop (or
    function) nested within the handler targets that inner construct.
    """
    stack = list(handler.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, ast.Continue):
            return True
        if isinstance(
            stmt, (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        stack.extend(
            child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.stmt)
        )
    return False


_ATTEMPT_HINTS = ("attempt", "retry", "retries", "tries")


def _is_retry_shaped(loop) -> bool:
    """Is ``loop`` a *re-attempt* loop (vs. iterating over alternatives)?

    ``while True`` re-runs the same body; so does ``for attempt in
    range(...)`` when the loop variable or the range bound is named after
    attempts.  A ``for item in collection`` that skips failing *items*
    with ``continue`` is not a retry — each iteration targets new work.
    """
    if isinstance(loop, ast.While):
        return isinstance(loop.test, ast.Constant) and bool(loop.test.value)
    iterator = loop.iter
    if not (
        isinstance(iterator, ast.Call)
        and isinstance(iterator.func, ast.Name)
        and iterator.func.id == "range"
    ):
        return False
    names = []
    if isinstance(loop.target, ast.Name):
        names.append(loop.target.id)
    for arg in iterator.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.append(sub.attr)
    return any(hint in name.lower() for name in names for hint in _ATTEMPT_HINTS)


def _check_retry(node, path: str, out: List[Diagnostic]) -> None:
    """Flag retry loops (except -> continue) that hot-spin without backoff."""
    for loop in _iter_body(node):
        if not isinstance(loop, (ast.While, ast.For)) or not _is_retry_shaped(loop):
            continue
        retry_handlers: List[ast.ExceptHandler] = []
        stack = list(loop.body)
        while stack:
            stmt = stack.pop()
            if isinstance(
                stmt, (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue  # inner loops are their own retry scopes
            if isinstance(stmt, ast.Try):
                retry_handlers.extend(
                    handler for handler in stmt.handlers
                    if _handler_continues(handler)
                )
            stack.extend(
                child for child in ast.iter_child_nodes(stmt)
                if isinstance(child, ast.stmt)
            )
        if not retry_handlers or _has_backoff(loop):
            continue
        unbounded = isinstance(loop, ast.While) and (
            isinstance(loop.test, ast.Constant) and bool(loop.test.value)
        )
        shape = (
            "unbounded retry loop (`while True` with `except: continue`)"
            if unbounded
            else "retry loop (`except: continue`)"
        )
        out.append(Diagnostic(
            "L-RETRY",
            f"{shape} without backoff before the next attempt; bound the "
            "attempts and back off (RetryPolicy is the canonical helper)",
            path=path,
            line=retry_handlers[0].lineno,
        ))


def _check_spawn(
    call: ast.Call,
    nested_defs: Set[str],
    path: str,
    out: List[Diagnostic],
) -> None:
    func = call.func
    is_process = (isinstance(func, ast.Name) and func.id == "Process") or (
        isinstance(func, ast.Attribute) and func.attr == "Process"
    )
    if not is_process:
        return
    target = next((kw.value for kw in call.keywords if kw.arg == "target"), None)
    if target is not None:
        if isinstance(target, ast.Lambda):
            out.append(Diagnostic(
                "L-SPAWN",
                "Process target is a lambda; spawn start methods cannot "
                "pickle it — use a module-level function",
                path=path,
                line=target.lineno,
            ))
        elif isinstance(target, ast.Attribute) and (
            isinstance(target.value, ast.Name) and target.value.id == "self"
        ):
            out.append(Diagnostic(
                "L-SPAWN",
                f"Process target is the bound method self.{target.attr}; "
                "pickling it drags the whole object graph through spawn — "
                "use a module-level function",
                path=path,
                line=target.lineno,
            ))
        elif isinstance(target, ast.Name) and target.id in nested_defs:
            out.append(Diagnostic(
                "L-SPAWN",
                f"Process target {target.id!r} is defined inside the "
                "spawning function; spawn start methods cannot import it — "
                "move it to module level",
                path=path,
                line=target.lineno,
            ))
    args_kw = next((kw.value for kw in call.keywords if kw.arg == "args"), None)
    if isinstance(args_kw, (ast.Tuple, ast.List)):
        for element in args_kw.elts:
            if isinstance(element, ast.Lambda):
                out.append(Diagnostic(
                    "L-SPAWN",
                    "Process args contain a lambda; worker arguments must "
                    "be picklable",
                    path=path,
                    line=element.lineno,
                ))


# ----------------------------------------------------------------------
# Suppression + entry points
# ----------------------------------------------------------------------

def _suppressed_rules(source: str) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            suppressions[number] = rules
    return suppressions


def _is_suppressed(finding: Diagnostic, suppressions: Dict[int, Set[str]]) -> bool:
    if finding.line is None:
        return False
    for line in (finding.line, finding.line - 1):
        rules = suppressions.get(line)
        if rules and (finding.rule in rules or "all" in rules):
            return True
    return False


def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one python source string; returns unsuppressed findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Diagnostic(
            "L-SPAWN",
            f"unparseable source: {error.msg}",
            path=path,
            line=error.lineno,
        )]
    functions = list(_function_nodes(tree))
    module_functions = {name for name, cls, _n in functions if cls is None}
    method_classes: Dict[str, Set[str]] = {}
    for qualified, cls, node in functions:
        if cls is not None:
            method_classes.setdefault(node.name, set()).add(cls)
    summaries = {
        qualified: _summarise(qualified, cls, node, method_classes, module_functions)
        for qualified, cls, node in functions
    }
    _close_summaries(summaries)
    findings: List[Diagnostic] = []
    for qualified, cls, node in functions:
        _lint_function(
            qualified, cls, node, path, summaries, method_classes,
            module_functions, findings,
        )
        _check_retry(node, path, findings)
    suppressions = _suppressed_rules(source)
    kept = [f for f in findings if not _is_suppressed(f, suppressions)]
    kept.sort(key=lambda f: (f.line or 0, f.rule))
    return kept


def lint_paths(paths: Sequence[Union[str, Path]]) -> List[Diagnostic]:
    """Lint files and/or directories (``*.py``, recursively)."""
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    findings: List[Diagnostic] = []
    for file in files:
        findings.extend(lint_source(file.read_text(), path=str(file)))
    return findings
