#!/usr/bin/env python3
"""AST linter for the repo's hand-defended invariants.

These properties were long protected by review alone; this makes them
machine-checked:

1. **Byte-identical replay** — everything that runs inside the
   replayed simulation must draw all randomness from the seeded kernel
   RNG and all time from simulated time.  Unseeded ``random.*`` calls
   and wall-clock reads (``time.time``, ``datetime.now``, ...) anywhere
   in ``src/repro`` outside the HTTP gateway (``src/repro/server/gateway``)
   break determinism silently.
2. **Single-threaded simulator** — gateway/HTTP-worker code must reach
   the simulator only through the command pump (``pump.py``).  A direct
   ``.sim`` attribute access anywhere else in
   ``src/repro/server/gateway`` is a thread-safety hazard.
3. **No unused imports** — every name a module imports is used in it,
   in ``src``, ``tests``, ``benchmarks``, ``bench``, ``examples`` and
   ``scripts``.  A name counts as used when it is read as a name,
   listed in ``__all__`` or named inside a quoted annotation.  Package
   ``__init__.py`` files import to re-export and are not checked, and
   an import inside a ``try`` that catches ``ImportError`` is a probe
   whose success is its use.
4. **No unreferenced definitions** — every function, method and class
   under ``src/repro`` has its name read somewhere in those six
   directories: as a name, as an attribute or as a keyword argument
   (f-strings included, since their fields are expressions).  Dunder
   methods are called by Python itself and are not checked.  A def
   that only its own body names still counts as read.
5. **No unread attributes** — every ``self.<name> = ...`` assignment
   under ``src/repro`` stores a value something reads: ``<name>`` is
   read in one of those six directories as an attribute, a name, a
   keyword argument or an identifier string constant (``getattr``).
   A counter or time stamp that is only ever written is dead state.
6. **Kernel-private state stays in the kernel** — outside
   ``src/repro/sim``, no code under ``src/repro`` reads or writes an
   underscore attribute through a simulator reference (``sim._x``,
   ``self.sim._x``, ``self._sim._x``, ``<expr>.sim._x``).  The event
   key format and the kernel's position are one module's decision;
   other layers use its public methods and the ``Owner`` handles.
7. **The campaign and server layers are fidelity-neutral** — under
   ``src/repro/campaign`` and ``src/repro/server``, no code reads an
   attribute named ``pirte_of`` or ``ecm_pirte``.  Those reach into a
   full vehicle's PIRTEs, which a statistical vehicle does not have;
   these layers use the calls both fidelities answer.
8. **A vehicle has one server link** — outside ``src/repro/network``,
   no code under ``src/repro`` calls ``connect`` on a name or attribute
   called ``fabric`` or ``_fabric``.  A vehicle reaches its trusted
   server through :class:`~repro.network.sockets.Uplink` alone, so the
   dial, the offline buffer and the flush are written once for every
   fidelity.

Violations are keyed ``relpath::scope::rule`` (scope = enclosing
function qualname; for rule 4, the definition's own qualname; for
rule 5, ``Class.attribute``), so entries survive line drift.  Existing,
reviewed-and-accepted occurrences live in ``scripts/lint_allowlist.txt``;
anything not listed there fails the build.  So does a stale allowlist
entry, so the list shrinks as code is cleaned up.

Usage: ``python scripts/lint_invariants.py`` (exit 1 on new violations
or stale allowlist entries).
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "lint_allowlist.txt"

#: The HTTP gateway: its threads may read the wall clock, but reach the
#: simulator through the command pump only (rule scope 2).  Every other
#: file under ``src/repro`` must be deterministic (rule scope 1).
GATEWAY_DIR = "src/repro/server/gateway"
GATEWAY_EXEMPT_FILES = ("pump.py",)

#: The simulation kernel, the one package that touches its private
#: state (rule 6).
KERNEL_DIR = "src/repro/sim"

#: The layers that must treat every vehicle fidelity alike (rule 7),
#: and the full-fidelity-only attributes they may not read.
FIDELITY_NEUTRAL_DIRS = ("src/repro/campaign", "src/repro/server")
FULL_FIDELITY_ATTRIBUTES = ("pirte_of", "ecm_pirte")

#: The package that may dial a fabric (rule 8), and the names a fabric
#: goes by.
NETWORK_DIR = "src/repro/network"
FABRIC_NAMES = ("fabric", "_fabric")

#: Dotted call names that read the wall clock.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "date.today",
    "datetime.date.today",
}

RULE_RANDOM = "unseeded-random"
RULE_WALL_CLOCK = "wall-clock"
RULE_SIM_ACCESS = "sim-access"
RULE_UNUSED_IMPORT = "unused-import"
RULE_UNREFERENCED_DEF = "unreferenced-def"
RULE_UNREAD_ATTRIBUTE = "unread-attribute"
RULE_KERNEL_PRIVATE = "kernel-private"
RULE_FIDELITY_NEUTRAL = "fidelity-neutral"
RULE_ONE_SERVER_LINK = "one-server-link"

#: Directories the unused-import rule checks and the unreferenced-def
#: and unread-attribute rules read names in.
IMPORT_SCAN_DIRS = (
    "src", "tests", "benchmarks", "bench", "examples", "scripts",
)

#: Exceptions whose handler makes the imports of a ``try`` body probes.
IMPORT_PROBE_ERRORS = {"ImportError", "ModuleNotFoundError"}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _simulator_reference(node: ast.AST) -> bool:
    """``sim``, ``<expr>.sim`` or ``<expr>._sim``."""
    if isinstance(node, ast.Name):
        return node.id == "sim"
    return isinstance(node, ast.Attribute) and node.attr in ("sim", "_sim")


class Visitor(ast.NodeVisitor):
    """Collects (scope, rule, lineno, detail) violations of one file."""

    def __init__(
        self, deterministic: bool, gateway: bool, kernel: bool,
        neutral: bool, network: bool,
    ) -> None:
        self.deterministic = deterministic
        self.gateway = gateway
        #: Whether the file is the kernel's own (exempt from rule 6).
        self.kernel = kernel
        #: Whether the file is in a fidelity-neutral layer (rule 7).
        self.neutral = neutral
        #: Whether the file is the network layer's (exempt from rule 8).
        self.network = network
        self.scope: list[str] = []
        self.violations: list[tuple[str, str, int, str]] = []

    def _scope(self) -> str:
        return ".".join(self.scope) if self.scope else "<module>"

    def _flag(self, rule: str, node: ast.AST, detail: str) -> None:
        self.violations.append((self._scope(), rule, node.lineno, detail))

    # -- scope tracking ----------------------------------------------------

    def _visit_scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_ClassDef = _visit_scoped

    # -- rules -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.deterministic:
            name = dotted_name(node.func)
            if name is not None:
                if name.startswith("random.") and name != "random.Random":
                    self._flag(RULE_RANDOM, node, name)
                elif name in WALL_CLOCK_CALLS:
                    self._flag(RULE_WALL_CLOCK, node, name)
        func = node.func
        if (
            not self.network
            and isinstance(func, ast.Attribute)
            and func.attr == "connect"
            and (
                isinstance(func.value, ast.Name)
                and func.value.id in FABRIC_NAMES
                or isinstance(func.value, ast.Attribute)
                and func.value.attr in FABRIC_NAMES
            )
        ):
            self._flag(
                RULE_ONE_SERVER_LINK, node,
                dotted_name(func) or "<expr>.fabric.connect",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.gateway and node.attr == "sim":
            self._flag(
                RULE_SIM_ACCESS, node, dotted_name(node) or "<expr>.sim"
            )
        if (
            not self.kernel
            and node.attr.startswith("_")
            and _simulator_reference(node.value)
        ):
            self._flag(
                RULE_KERNEL_PRIVATE, node,
                dotted_name(node) or f"<expr>.sim.{node.attr}",
            )
        if self.neutral and node.attr in FULL_FIDELITY_ATTRIBUTES:
            self._flag(
                RULE_FIDELITY_NEUTRAL, node,
                dotted_name(node) or f"<expr>.{node.attr}",
            )
        self.generic_visit(node)


class ImportUses(ast.NodeVisitor):
    """Collects the names one module imports and the names it uses."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.imports: list[tuple[str, str, int]] = []  # scope, name, line
        self.used: set[str] = set()
        self._probing = False

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _bind(self, name: str, node: ast.stmt) -> None:
        if not self._probing:
            scope = ".".join(self.scope) if self.scope else "<module>"
            self.imports.append((scope, name, node.lineno))

    def _quoted(self, annotation: ast.AST | None) -> None:
        """Count the names inside string parts of an annotation."""
        if annotation is None:
            return
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                self.used.update(
                    n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
                )

    def visit_FunctionDef(self, node) -> None:
        self._quoted(node.returns)
        self._scoped(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = _scoped

    def visit_arg(self, node: ast.arg) -> None:
        self._quoted(node.annotation)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._quoted(node.annotation)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._bind(alias.asname or alias.name.split(".")[0], node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name != "*":
                self._bind(alias.asname or alias.name, node)

    def visit_Try(self, node: ast.Try) -> None:
        caught: set[str] = set()
        for handler in node.handlers:
            types = handler.type
            items = types.elts if isinstance(types, ast.Tuple) else [types]
            caught.update(i.id for i in items if isinstance(i, ast.Name))
        outer = self._probing
        self._probing = outer or bool(caught & IMPORT_PROBE_ERRORS)
        for stmt in node.body:
            self.visit(stmt)
        self._probing = outer
        for part in (node.handlers, node.orelse, node.finalbody):
            for child in part:
                self.visit(child)

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.used.add(node.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            self.used.update(
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
        self.generic_visit(node)


def unused_imports(path: Path) -> list[tuple[str, str, int, str]]:
    """The imports of ``path`` that nothing in the module uses (none for
    a package ``__init__.py``, which imports to re-export)."""
    if path.name == "__init__.py":
        return []
    visitor = ImportUses()
    visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return [
        (scope, RULE_UNUSED_IMPORT, lineno, name)
        for scope, name, lineno in visitor.imports
        if name not in visitor.used
    ]


class DefsAndReads(ast.NodeVisitor):
    """Collects the functions and classes one module defines, the
    ``self`` attributes its classes assign, every name it reads as a
    name, an attribute or a keyword argument, and its identifier string
    constants."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.classes: list[str] = []  # qualnames of the enclosing classes
        self.defs: list[tuple[str, str, int]] = []  # qualname, name, line
        # Class.attribute, attribute, line
        self.assigned: list[tuple[str, str, int]] = []
        self.read: set[str] = set()
        self.strings: set[str] = set()

    def _define(self, node) -> None:
        self.scope.append(node.name)
        self.defs.append((".".join(self.scope), node.name, node.lineno))
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _define
    visit_AsyncFunctionDef = _define

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(".".join([*self.scope, node.name]))
        self._define(node)
        self.classes.pop()

    def _assign(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.classes
        ):
            self.assigned.append(
                (f"{self.classes[-1]}.{target.attr}", target.attr,
                 target.lineno)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._assign(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._assign(node.target)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.strings.add(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.read.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.read.add(node.attr)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg is not None:
            self.read.add(node.arg)
        self.generic_visit(node)


def _scan(
    defining: list[Path], reading: list[Path]
) -> tuple[set[str], set[str], dict[Path, DefsAndReads]]:
    """The names and identifier strings every file of ``reading``
    reads, and the visitor of each file of ``defining``."""
    read: set[str] = set()
    strings: set[str] = set()
    visitors: dict[Path, DefsAndReads] = {}
    for path in dict.fromkeys(reading + defining):
        visitor = DefsAndReads()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        read |= visitor.read
        strings |= visitor.strings
        if path in defining:
            visitors[path] = visitor
    return read, strings, visitors


def unreferenced_defs(
    defining: list[Path], reading: list[Path]
) -> dict[Path, list[tuple[str, str, int, str]]]:
    """Per file of ``defining``, the non-dunder functions, methods and
    classes whose name no file of ``reading`` reads."""
    read, __, visitors = _scan(defining, reading)
    return {
        path: [
            (qualname, RULE_UNREFERENCED_DEF, lineno, name)
            for qualname, name, lineno in visitor.defs
            if name not in read
            and not (name.startswith("__") and name.endswith("__"))
        ]
        for path, visitor in visitors.items()
    }


def unread_attributes(
    defining: list[Path], reading: list[Path]
) -> dict[Path, list[tuple[str, str, int, str]]]:
    """Per file of ``defining``, the ``self`` attributes its classes
    assign that no file of ``reading`` reads as a name, an attribute, a
    keyword argument or an identifier string; each attribute once, at
    its first assignment."""
    read, strings, visitors = _scan(defining, reading)
    found: dict[Path, list[tuple[str, str, int, str]]] = {}
    for path, visitor in visitors.items():
        seen: set[str] = set()
        found[path] = []
        for owner, name, lineno in visitor.assigned:
            if name in read or name in strings or owner in seen:
                continue
            seen.add(owner)
            found[path].append((owner, RULE_UNREAD_ATTRIBUTE, lineno, name))
    return found


def lint_source(source: str, rel: str) -> list[tuple[str, str, int, str]]:
    """Rules 1, 2, 6, 7 and 8 on the source of the file at repo path
    ``rel``."""
    in_gateway = rel.startswith(GATEWAY_DIR + "/")
    exempt = rel.rsplit("/", 1)[-1] in GATEWAY_EXEMPT_FILES
    visitor = Visitor(
        deterministic=not in_gateway,
        gateway=in_gateway and not exempt,
        kernel=rel.startswith(KERNEL_DIR + "/"),
        neutral=rel.startswith(
            tuple(d + "/" for d in FIDELITY_NEUTRAL_DIRS)
        ),
        network=rel.startswith(NETWORK_DIR + "/"),
    )
    visitor.visit(ast.parse(source, filename=rel))
    return visitor.violations


def lint_file(path: Path) -> list[tuple[str, str, int, str]]:
    return lint_source(path.read_text(), path.relative_to(ROOT).as_posix())


def load_allowlist() -> set[str]:
    if not ALLOWLIST.exists():
        return set()
    entries = set()
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def main() -> int:
    allowed = load_allowlist()
    used: set[str] = set()
    failures: list[str] = []
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    scanned = [
        path for directory in IMPORT_SCAN_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    unreferenced = unreferenced_defs(sources, scanned)
    unread = unread_attributes(sources, scanned)
    checks = [(path, lint_file) for path in sources]
    checks += [(path, unused_imports) for path in scanned]
    checks += [(path, unreferenced.__getitem__) for path in sources]
    checks += [(path, unread.__getitem__) for path in sources]
    for path, check in checks:
        for scope, rule, lineno, detail in check(path):
            rel = path.relative_to(ROOT).as_posix()
            key = f"{rel}::{scope}::{rule}"
            if key in allowed:
                used.add(key)
                continue
            failures.append(f"{rel}:{lineno}: [{rule}] {detail} in {scope}")
    stale = sorted(allowed - used)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    for entry in stale:
        print(f"FAIL stale allowlist entry {entry}", file=sys.stderr)
    allowlist = os.path.relpath(ALLOWLIST, ROOT)
    if failures:
        print(
            f"\n{len(failures)} invariant violation(s). Either fix them or, "
            f"for reviewed exceptions, add the printed key to {allowlist}.",
            file=sys.stderr,
        )
    if stale:
        print(
            f"\nDelete the stale entries from {allowlist}.", file=sys.stderr
        )
    if failures or stale:
        return 1
    print(
        f"ok   lint_invariants: no new violations "
        f"({len(used)}/{len(allowed)} allowlist entries in use)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
