"""Kernel-contract checker: AST pass over every kernel registration site.

A site is a ``@register_kernel(name, backend)`` function, or a job class
decorated ``@register_job_kernel(name, …)`` (:mod:`repro.core.jobs`), which
registers the ``fast`` and ``multicore`` backends of ``name`` with the
constructor's signature, ``self`` aside.

The whole pipeline rests on the contract that the registry kernels honour the
same interface regardless of backend and that fast backends never fall back to
dense O(n²) intermediates.  Parity tests only cover the shapes they run; this
pass proves the contract *statically* for every registered kernel:

* **KC001 / KC002** — every kernel name must carry both a ``reference``
  backend (the loop oracle the parity suite compares against) and at least one
  fast (non-reference) backend.  A kernel with only one of the two is either
  untestable or unusable at speed.
* **KC003** — cross-backend signature consistency: all backends of one kernel
  name must accept the same parameter names in the same order, so a
  ``backend=`` switch can never change call semantics.
* **KC004** — dense materialisation in a fast-path kernel: ``np.zeros((n, n))``
  style allocations whose shape repeats one extent (the dense score-tile
  smell), ``.toarray()`` calls, and ``.to_dense()`` on a compressed operand.
  Fast kernels work on bounded row tiles and read a compressed operand
  through its stored values and metadata (``values``, ``indices``,
  ``column_indices()``, a saved selection or key block), never through a
  dense copy.
* **KC006** (warning) — kernel bodies reaching into private layout internals
  (``_shared``, ``_scatter_cache``, …) instead of the layout's public
  attributes.

The checker never imports the code it analyses — files are parsed with
:mod:`ast`, so seeded-violation fixtures can register impossible kernels
without polluting the live registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import ERROR, WARNING, Finding

#: Backend constant names resolvable without importing the module.
_BACKEND_CONSTANTS = {"FAST": "fast", "REFERENCE": "reference"}

#: The backends one ``@register_job_kernel`` job class registers.
_JOB_BACKENDS = ("fast", "multicore")

#: Private layout attributes a kernel body must not touch (KC006).
_PRIVATE_LAYOUT_ATTRS = (
    "_shared",
    "_shared_caches",
    "_scatter_cache",
    "_column_cache",
    "_scatter_cols",
    "_flat_scatter_indices",
    "_row_leads",
)


@dataclass
class KernelImpl:
    """One implementation site: a registered function, or a job class."""

    kernel: str
    backend: Optional[str]  # None when not statically resolvable
    func_name: str
    params: Tuple[str, ...]
    file: str
    line: int
    node: ast.AST = field(repr=False)


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _backend_name(node: ast.AST) -> Optional[str]:
    lit = _literal_str(node)
    if lit is not None:
        return lit
    if isinstance(node, ast.Name):
        return _BACKEND_CONSTANTS.get(node.id, node.id.lower())
    if isinstance(node, ast.Attribute):
        return _BACKEND_CONSTANTS.get(node.attr, node.attr.lower())
    return None


def _called_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _registration_args(call: ast.Call) -> Optional[Tuple[str, Optional[str]]]:
    """``(kernel, backend)`` of a ``register_kernel(...)`` call, else None."""
    if _called_name(call.func) != "register_kernel" or not call.args:
        return None
    kernel = _literal_str(call.args[0])
    if kernel is None:
        return None
    backend = _backend_name(call.args[1]) if len(call.args) > 1 else None
    return kernel, backend


def _param_names(node: ast.FunctionDef) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    return tuple(names)


def collect_kernels(tree: ast.Module, file: str) -> List[KernelImpl]:
    """Every kernel implementation registered in one parsed module.

    Handles the decorator form, the module-level call form
    ``register_kernel("name", BACKEND)(existing_function)``, and job classes
    decorated with ``register_job_kernel("name", …)``.
    """
    impls: List[KernelImpl] = []
    defs: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, node)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call):
                    reg = _registration_args(dec)
                    if reg is not None:
                        impls.append(
                            KernelImpl(
                                kernel=reg[0],
                                backend=reg[1],
                                func_name=node.name,
                                params=_param_names(node),
                                file=file,
                                line=node.lineno,
                                node=node,
                            )
                        )
        elif isinstance(node, ast.ClassDef):
            init = next((n for n in node.body if getattr(n, "name", None) == "__init__"), None)
            for dec in node.decorator_list:
                if not (
                    isinstance(dec, ast.Call)
                    and _called_name(dec.func) == "register_job_kernel"
                    and dec.args
                    and _literal_str(dec.args[0]) is not None
                    and isinstance(init, ast.FunctionDef)
                ):
                    continue
                for backend in _JOB_BACKENDS:
                    impls.append(
                        KernelImpl(
                            kernel=_literal_str(dec.args[0]),
                            backend=backend,
                            func_name=node.name,
                            params=_param_names(init)[1:],
                            file=file,
                            line=node.lineno,
                            node=node,
                        )
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Call):
            # register_kernel("name", BACKEND)(fn)
            reg = _registration_args(node.func)
            if reg is not None and node.args and isinstance(node.args[0], ast.Name):
                fn = defs.get(node.args[0].id)
                if fn is not None:
                    impls.append(
                        KernelImpl(
                            kernel=reg[0],
                            backend=reg[1],
                            func_name=fn.name,
                            params=_param_names(fn),
                            file=file,
                            line=node.lineno,
                            node=fn,
                        )
                    )
    return impls


# ----------------------------------------------------------------- KC004/006
def _shape_tuple_repeats_extent(shape: ast.AST) -> bool:
    """True for shape tuples like ``(n, n)`` that square one extent."""
    if not isinstance(shape, (ast.Tuple, ast.List)) or len(shape.elts) < 2:
        return False
    rendered = [ast.dump(e) for e in shape.elts]
    return len(set(rendered)) < len(rendered)


def _dense_materialization_findings(impl: KernelImpl) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(impl.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("zeros", "empty", "ones", "full")
            and node.args
            and _shape_tuple_repeats_extent(node.args[0])
        ):
            findings.append(
                Finding(
                    rule="KC004",
                    severity=ERROR,
                    file=impl.file,
                    line=node.lineno,
                    message=(
                        f"fast kernel {impl.func_name!r} ({impl.kernel}/{impl.backend}) "
                        f"allocates a dense tile whose shape repeats an extent "
                        f"(np.{func.attr}((n, n))-style O(n²) intermediate); fast "
                        f"kernels must work on bounded row tiles of their operands"
                    ),
                )
            )
        elif isinstance(func, ast.Attribute) and func.attr in ("toarray", "to_dense"):
            findings.append(
                Finding(
                    rule="KC004",
                    severity=ERROR,
                    file=impl.file,
                    line=node.lineno,
                    message=(
                        f"fast kernel {impl.func_name!r} ({impl.kernel}/{impl.backend}) "
                        f"densifies a compressed operand via .{func.attr}(); read its "
                        f"stored values and metadata tile by tile instead"
                    ),
                )
            )
    return findings


def _private_access_findings(impl: KernelImpl) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(impl.node):
        if isinstance(node, ast.Attribute) and node.attr in _PRIVATE_LAYOUT_ATTRS:
            findings.append(
                Finding(
                    rule="KC006",
                    severity=WARNING,
                    file=impl.file,
                    line=node.lineno,
                    message=(
                        f"kernel {impl.func_name!r} ({impl.kernel}/{impl.backend}) reaches "
                        f"into private layout internal {node.attr!r}; only the layout's "
                        f"public attributes are contract-stable"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------- pass
def check_contracts(files: Sequence[Path], root: Optional[Path] = None):
    """Run the kernel-contract checks over ``files``.

    Returns ``(findings, stats)`` where ``stats`` counts kernels and
    registered backends.  ``root`` relativises paths in the findings.
    """
    findings: List[Finding] = []
    by_kernel: Dict[str, List[KernelImpl]] = {}
    parsed = 0
    for path in files:
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            findings.append(
                Finding(
                    rule="KC000",
                    severity=ERROR,
                    file=_rel(path, root),
                    line=getattr(exc, "lineno", 1) or 1,
                    message=f"could not parse file: {exc}",
                )
            )
            continue
        parsed += 1
        rel = _rel(path, root)
        for impl in collect_kernels(tree, rel):
            by_kernel.setdefault(impl.kernel, []).append(impl)

    registrations = 0
    for kernel, impls in sorted(by_kernel.items()):
        registrations += len(impls)
        backends = {i.backend for i in impls if i.backend is not None}
        anchor = impls[0]
        if "reference" not in backends:
            findings.append(
                Finding(
                    rule="KC001",
                    severity=ERROR,
                    file=anchor.file,
                    line=anchor.line,
                    message=(
                        f"kernel {kernel!r} has no 'reference' backend — every kernel "
                        f"needs the loop oracle the parity suite compares against "
                        f"(registered: {sorted(backends) or 'none'})"
                    ),
                )
            )
        if not (backends - {"reference"}):
            findings.append(
                Finding(
                    rule="KC002",
                    severity=ERROR,
                    file=anchor.file,
                    line=anchor.line,
                    message=(
                        f"kernel {kernel!r} has no fast backend — a reference-only "
                        f"kernel cannot serve the default dispatch path"
                    ),
                )
            )
        # signature consistency: anchor on the reference backend when present
        ref = next((i for i in impls if i.backend == "reference"), anchor)
        for impl in impls:
            if impl is ref:
                continue
            if impl.params != ref.params:
                findings.append(
                    Finding(
                        rule="KC003",
                        severity=ERROR,
                        file=impl.file,
                        line=impl.line,
                        message=(
                            f"kernel {kernel!r} backend {impl.backend!r} signature "
                            f"{impl.params} differs from {ref.backend!r} backend "
                            f"{ref.params} at {ref.file}:{ref.line} — a backend= "
                            f"switch must never change call semantics"
                        ),
                    )
                )
        for impl in impls:
            if impl.backend is not None and impl.backend != "reference":
                findings.extend(_dense_materialization_findings(impl))
            findings.extend(_private_access_findings(impl))

    stats = {
        "files_scanned": parsed,
        "kernels": len(by_kernel),
        "kernel_registrations": registrations,
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
