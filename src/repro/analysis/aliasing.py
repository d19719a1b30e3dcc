"""Aliasing/in-place analyzer: may-alias taint pass over the hot modules.

PR 7's fused :class:`~repro.core.plan.AttentionPlan` reuses the compressed
score buffer as the probability buffer, and the softmax cores write through
caller-provided ``out=`` arrays — *intentional* in-place reuse that is
bit-exact by construction.  The failure mode this pass defends against is the
*unintentional* version: an in-place op that mutates an array still reachable
from a function parameter (the caller's data) or from a cached structure (the
LRU'd ``PaddedCSRMatrix``/``NMSparseMatrix`` index tables shared across
``with_values`` siblings), corrupting state that outlives the call.

Semantics — a deliberately simple *may-alias* taint pass per function scope:

* Sources: every function parameter, plus anything reached from one through
  attribute access (``scores.values``), subscripts (``values[valid]``), and
  view-returning methods (``reshape``/``ravel``/…).  ``np.asarray`` and
  friends propagate taint (they may return their argument); ``np.array``
  copies and does not.  ``zip``/``enumerate``/``reversed`` over a tainted
  argument propagate it too, so their loop targets are tainted.
* Kill: a *top-level* assignment ``name = <fresh expr>`` (binary op, copying
  call) removes the taint.  Assignments nested under ``if``/``for``/… only
  ever *add* taint — they may not execute, so the old binding may survive.
* Nested functions are separate scopes seeded from their own parameters;
  closure variables are not tainted (the enclosing scope is analyzed on its
  own lines).

Sinks (each against a tainted target):

* **AL001** — augmented assignment (``buf += …``, ``tile *= …``).
* **AL002** — subscript/slice assignment (``out[valid] = …``).
* **AL003** — a ``out=`` keyword argument (the numpy ufunc write-through
  convention).
* **AL004** — ``np.copyto`` into its first argument.

A site is *waived* by a ``# repro: owns-buffer`` comment on the same line or
the line directly above; text after the marker is kept as the waiver note and
inventoried in the report.  Waivers document intent — they never hide a site.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import ERROR, Finding, WAIVER_MARKER

#: Default scope of the aliasing pass: the modules that orchestrate buffer
#: reuse around kernel inputs and cached structures (repo-relative).
ALIASING_SCOPE = (
    "src/repro/core/plan.py",
    "src/repro/core/attention.py",
    "src/repro/core/jobs.py",
    "src/repro/core/multicore.py",
    "src/repro/core/nm_attention.py",
    "src/repro/core/row_block.py",
    "src/repro/core/softmax.py",
    "src/repro/nn/sparse_attention.py",
)

#: ndarray methods that (may) return a view of the receiver.
_VIEW_METHODS = {
    "reshape",
    "view",
    "transpose",
    "swapaxes",
    "squeeze",
    "ravel",
    "diagonal",
    "real",
    "imag",
}

#: Module-level functions that may return (a view of) their first argument.
_PROPAGATING_FUNCS = {
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "atleast_1d",
    "atleast_2d",
    "atleast_3d",
    "broadcast_to",
    "expand_dims",
    "moveaxis",
    "swapaxes",
    "transpose",
    "ravel",
    "reshape",
    "squeeze",
}

#: Builtins whose items are (tuples of) the items of their arguments: a loop
#: over ``zip(planes, keep)`` binds the same memory as a loop over ``planes``.
_ITERATING_BUILTINS = {"enumerate", "reversed", "zip"}

_BRANCHING = (ast.If, ast.For, ast.While, ast.With, ast.Try)


class _Waivers:
    """Waiver lookup against the raw source (ast drops comments)."""

    def __init__(self, source: str) -> None:
        self._lines = source.splitlines()

    def note(self, line: int) -> Optional[str]:
        """The waiver note covering ``line`` (same line or the line above)."""
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self._lines):
                text = self._lines[lineno - 1]
                idx = text.find(WAIVER_MARKER)
                if idx >= 0 and "#" in text[:idx]:
                    return text[idx + len(WAIVER_MARKER):].strip(" -—:\t")
        return None


def _call_func_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Scope:
    """Taint state and sink detection for one function body."""

    def __init__(
        self,
        func: ast.FunctionDef,
        file: str,
        qualname: str,
        waivers: _Waivers,
    ) -> None:
        self.func = func
        self.file = file
        self.qualname = qualname
        self.waivers = waivers
        args = func.args
        self.tainted: Set[str] = {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        if args.vararg:
            self.tainted.add(args.vararg.arg)
        if args.kwarg:
            self.tainted.add(args.kwarg.arg)
        self.findings: List[Finding] = []

    # -------------------------------------------------------------- taint
    def expr_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Subscript):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Starred):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.IfExp):
            return self.expr_tainted(node.body) or self.expr_tainted(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self.expr_tainted(e) for e in node.elts)
        if isinstance(node, ast.NamedExpr):
            return self.expr_tainted(node.value)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            # items of a comprehension over a tainted iterable may be its memory
            saved = set(self.tainted)
            for gen in node.generators:
                self._bind(gen.target, self.expr_tainted(gen.iter), top_level=False)
            try:
                return self.expr_tainted(node.elt)
            finally:
                self.tainted = saved
        if isinstance(node, ast.Call):
            name = _call_func_name(node.func)
            if isinstance(node.func, ast.Attribute) and name in _VIEW_METHODS:
                # tainted.reshape(...) is still the same memory
                return self.expr_tainted(node.func.value)
            if name in _PROPAGATING_FUNCS and node.args:
                return self.expr_tainted(node.args[0])
            if isinstance(node.func, ast.Name) and name in _ITERATING_BUILTINS:
                return any(self.expr_tainted(arg) for arg in node.args)
            return False  # fresh allocation (np.array, np.zeros, arithmetic…)
        return False  # literals, BinOp/UnaryOp/Compare allocate fresh arrays

    def _bind(self, target: ast.AST, tainted: bool, top_level: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
            elif top_level:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                # element-level taint is unknowable statically: may-add only
                self._bind(elt, tainted, top_level=False)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tainted, top_level=False)
        # Attribute/Subscript targets mutate, they don't bind — handled as sinks

    # --------------------------------------------------------------- sinks
    def _flag(self, rule: str, line: int, message: str) -> None:
        note = self.waivers.note(line)
        self.findings.append(
            Finding(
                rule=rule,
                severity=ERROR,
                file=self.file,
                line=line,
                message=message,
                waived=note is not None,
                waiver_note=note or "",
            )
        )

    def _describe(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"

    def _check_call(self, call: ast.Call) -> None:
        if _call_func_name(call.func) == "copyto" and call.args:
            if self.expr_tainted(call.args[0]):
                self._flag(
                    "AL004",
                    call.lineno,
                    f"{self.qualname}: copyto({self._describe(call.args[0])}, …) "
                    f"writes into a buffer that may alias a parameter or cached "
                    f"structure",
                )
        for kw in call.keywords:
            if kw.arg == "out" and self.expr_tainted(kw.value):
                self._flag(
                    "AL003",
                    call.lineno,
                    f"{self.qualname}: out={self._describe(kw.value)} writes "
                    f"through a buffer that may alias a parameter or cached "
                    f"structure",
                )

    # ---------------------------------------------------------------- walk
    def run(self) -> List[Finding]:
        self._walk(self.func.body, depth=0)
        return self.findings

    def _walk(self, body: Sequence[ast.stmt], depth: int) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scope, analyzed separately
            self._visit_stmt(stmt, depth)

    def _visit_stmt(self, stmt: ast.stmt, depth: int) -> None:
        if isinstance(stmt, ast.Assign):
            tainted = self.expr_tainted(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    if self.expr_tainted(target.value):
                        self._flag(
                            "AL002",
                            stmt.lineno,
                            f"{self.qualname}: subscript assignment "
                            f"{self._describe(target)} = … mutates a buffer that "
                            f"may alias a parameter or cached structure",
                        )
                else:
                    self._bind(target, tainted, top_level=(depth == 0))
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                self._bind(
                    stmt.target, self.expr_tainted(stmt.value), top_level=(depth == 0)
                )
        elif isinstance(stmt, ast.AugAssign):
            target = stmt.target
            base = target.value if isinstance(target, (ast.Subscript, ast.Attribute)) else target
            if self.expr_tainted(base):
                self._flag(
                    "AL001",
                    stmt.lineno,
                    f"{self.qualname}: augmented assignment to "
                    f"{self._describe(target)} mutates a buffer that may alias "
                    f"a parameter or cached structure",
                )

        if isinstance(stmt, _BRANCHING):
            # header expressions only — body statements get their own visit
            for expr in self._header_exprs(stmt):
                self._scan_calls(expr)
            if isinstance(stmt, ast.For):
                self._bind(stmt.target, self.expr_tainted(stmt.iter), top_level=False)
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind(
                            item.optional_vars,
                            self.expr_tainted(item.context_expr),
                            top_level=False,
                        )
            for field in ("body", "orelse", "finalbody"):
                self._walk(getattr(stmt, field, []) or [], depth + 1)
            for handler in getattr(stmt, "handlers", []) or []:
                self._walk(handler.body, depth + 1)
        else:
            self._scan_calls(stmt)

    @staticmethod
    def _header_exprs(stmt: ast.stmt) -> List[ast.AST]:
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, ast.For):
            return [stmt.iter]
        if isinstance(stmt, ast.With):
            return [item.context_expr for item in stmt.items]
        return []

    def _scan_calls(self, node: ast.AST) -> None:
        """Check every call in ``node``'s subtree, pruning nested scopes."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            self._check_call(node)
        for child in ast.iter_child_nodes(node):
            self._scan_calls(child)


def _iter_scopes(tree: ast.Module) -> List[Tuple[str, ast.FunctionDef]]:
    scopes: List[Tuple[str, ast.FunctionDef]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                scopes.append((qual, child))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return scopes


def check_aliasing(files: Sequence[Path], root: Optional[Path] = None):
    """Run the aliasing pass over ``files``; returns ``(findings, stats)``."""
    findings: List[Finding] = []
    functions = 0
    parsed = 0
    for path in files:
        try:
            source = Path(path).read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            findings.append(
                Finding(
                    rule="AL000",
                    severity=ERROR,
                    file=_rel(path, root),
                    line=getattr(exc, "lineno", 1) or 1,
                    message=f"could not parse file: {exc}",
                )
            )
            continue
        parsed += 1
        rel = _rel(path, root)
        waivers = _Waivers(source)
        for qualname, func in _iter_scopes(tree):
            functions += 1
            findings.extend(_Scope(func, rel, qualname, waivers).run())
    stats: Dict[str, int] = {
        "aliasing_files": parsed,
        "functions_analyzed": functions,
    }
    return findings, stats


def _rel(path: Path, root: Optional[Path]) -> str:
    path = Path(path).resolve()
    if root is not None:
        try:
            return path.relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
