#!/usr/bin/env python3
"""Which defs in `src/repro` no consumer reaches.

    python tools/reach.py
runs every consumer of the package (the figure suite and its README check,
the eight examples, one traced serving run and its report, and m2bench's timed, probe and traced workers at full size) in its
own subprocess under a call recorder, then prints, module by module, each
top-level function and method no consumer called, with its line count.  A
nested def belongs to the def around it; a decorated def is matched on its
first decorator's line, which is what `co_firstlineno` holds.  Dunders and
the `KEEP` rows (a def that stays on purpose, and why) are not listed; a
`KEEP` row that is reached or names no def is printed as stale.  It also
prints each module-level UPPER_CASE constant of `src/repro` that no `.py`
file under `src/`, `benchmarks/`, `bench/`, `examples/` or `tools/` names
outside its own assignment (a static word match), and each defaulted
parameter of a def in `src/repro` (not of an `EXPERIMENTS` driver) that
no call in those files passes, by keyword, by position or through
`*`/`**` (a static match by name, printed as `unpassed parameter:
path:qualname(name)`: one value in use, so a constant in all but name),
and each name an import in `src/repro` binds that its module never reads
and no scanned file takes from it (`unused import: path:name`; an
`__init__.py` reads what its `__all__` lists).  Outside `config.py` (whose
model inputs have reader tests of their own) it prints each defaulted
dataclass field that no call of its class, `replace()` or attribute write
in those files sets (`unset field: path:Class.name`), and each field that
no file reads outside its class's own `__post_init__` (`unread field:`).
A line the `SURVIVORS` table names is printed with its reason.
The figure suite's output is compared with the committed `FIDELITY.json`.
Exit 1 when a consumer exits non-zero, the golden differs or a `KEEP` row
names no def; the lists themselves and a reached `KEEP` row gate nothing
here (tests/test_reach.py holds each list to its `SURVIVORS` rows).
About 5 minutes; `static_lines()` alone takes about 2 s.

    python tools/reach.py --record DIR -- (SCRIPT | -m MODULE) [ARGS...]
runs one program under the recorder (`sys.setprofile`) and writes the
`(co_filename, co_firstlineno, co_name)` of every code object it called
to a file in DIR.
"""
import ast
import filecmp
import functools
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PACKAGE = HERE / "src" / "repro"
SCANNED = ("src", "benchmarks", "bench", "examples", "tools")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
KINDS = ("unreferenced constant", "unpassed parameter", "unused import",
         "unset field", "unread field")
WORKLOADS = ("kv_get_serve", "kv_mixed_serve", "stream_warm_serve",
             "shape_churn_serve", "cluster_fanout16", "kernel_cold_sweep")

# path:qualname -> why it stays.  Each reason names one of:
#   cli       a README-documented entry point over the system's own output
#   paper     a Table II M2func function
#   isa       the semantics of an OPCODES mnemonic (tests/exec/test_lane_isa)
#   reference a scalar path a tier-1 test compares the batch path against
#   golden    reached by tests/obs/test_fault_goldens.py
#   safety    an error constructor or an invalidation hook
#   branch    called from a reached def, on a branch no consumer takes
KEEP = {
    "obs/incidents.py:render_bundle":
        "cli: `python -m repro.obs.incidents` renders a bundle",
    "obs/incidents.py:main": "cli: the incident bundle renderer's entry",
    "ndp/controller.py:NDPController._unregister":
        "paper: ndpUnregisterKernel",
    "ndp/controller.py:NDPController._poll": "paper: ndpPollKernelStatus",
    "ndp/controller.py:NDPController._shootdown":
        "paper: ndpShootdownTlbEntry",
    "ndp/tlb.py:TLB.shootdown": "paper: what ndpShootdownTlbEntry does",
    "ndp/tlb.py:DRAMTLB.shootdown": "paper: what ndpShootdownTlbEntry does",
    "host/api.py:M2NDPRuntime.unregister_kernel":
        "paper: ndpUnregisterKernel",
    "host/api.py:M2NDPRuntime.poll_kernel_status":
        "paper: ndpPollKernelStatus",
    "host/api.py:M2NDPRuntime.shootdown_tlb": "paper: ndpShootdownTlbEntry",
    "cluster/runtime.py:ClusterRuntime.unregister_kernel":
        "paper: ndpUnregisterKernel on every device",
    "isa/executor.py:MemoryInterface.load":
        "isa: the memory every load mnemonic runs against",
    "isa/executor.py:MemoryInterface.store":
        "isa: the memory every store mnemonic runs against",
    "isa/executor.py:MemoryInterface.amo":
        "isa: the memory every AMO mnemonic runs against",
    "isa/executor.py:_int_div": "isa: div",
    "isa/executor.py:_int_rem": "isa: rem",
    "isa/executor.py:_fsqrt": "isa: fsqrt.d",
    "isa/executor.py:_bind_vgather": "isa: indexed vector loads",
    "isa/executor.py:_bind_vscatter": "isa: indexed vector stores",
    "isa/executor.py:_plain": "isa: fence",
    "isa/vectorops.py:_magnitudes": "isa: vector mulhu",
    "isa/vectorops.py:_np_div": "isa: vector div",
    "isa/vectorops.py:_np_rem": "isa: vector rem",
    "isa/vectorops.py:_np_mulhu": "isa: vector mulhu",
    "isa/vectorops.py:LaneISA._splat": "isa: vmv.v.x / vfmv.v.f",
    "exec/simt.py:_PhaseWalk._exec_vgather": "isa: indexed vector loads",
    "exec/simt.py:_PhaseWalk._exec_vscatter": "isa: indexed vector stores",
    "cxl/hdm.py:_line_hash":
        "reference: HDMCoherence.access (tests/mem/test_batch_paths.py)",
    "cxl/hdm.py:HDMCoherence._is_host_dirty":
        "reference: HDMCoherence.access (tests/mem/test_batch_paths.py)",
    "cxl/hdm.py:HDMCoherence.access":
        "reference: of access_batch in tests/mem/test_batch_paths.py",
    "cxl/link.py:CXLLink.back_invalidate_round_trip":
        "reference: HDMCoherence.access's snoop (test_batch_paths.py)",
    "sim/engine.py:IssueServer.service_batch":
        "reference: of IssueBank.charge in tests/ndp/test_issue_bank.py",
    "sim/engine.py:IssueServer.busy_until":
        "reference: the state test_issue_bank.py compares IssueBank to",
    "sim/engine.py:BandwidthServer.occupancy_end":
        "reference: the state test_batch_paths.py compares the buses to",
    "mem/cache.py:SectorCache.access":
        "reference: of access_batch in tests/mem/test_batch_paths.py",
    "ndp/subcore.py:SubCore.issue":
        "reference: of the interpreter's compiled bursts "
        "(tests/exec/test_interpreter_bursts.py)",
    "mem/cache.py:SectorCache.resident_lines":
        "reference: the state test_batch_paths.py compares scalar and "
        "batch caches on",
    "faults/health.py:HealthMonitor.state": "golden: injector snapshots",
    "faults/health.py:HealthMonitor.partitions":
        "golden: injector snapshots",
    "faults/health.py:HealthMonitor.render": "golden: health rows",
    "faults/injector.py:FaultInjector._on_poison": "golden: poison rows",
    "faults/injector.py:FaultInjector.snapshot": "golden: health rows",
    "isa/executor.py:_unhandled": "safety: a mnemonic with no semantics",
    "ndp/device.py:M2NDPDevice._bump_translation_version":
        "safety: a remapped page invalidates cached traces",
    "exec/point.py:_lin_scale": "branch: slli / neg of a traced address",
    "ndp/device.py:M2NDPDevice.dram_tlb_timed_fetch":
        "branch: a DRAM-TLB miss",
    "obs/monitor.py:SLOMonitor._horizon_samples":
        "branch: a finite P99_CEILING_NS",
    "serve/arrivals.py:DiurnalArrivals._initial":
        "branch: the diurnal ArrivalSpec kind",
    "serve/qos.py:RequestQueue.pop": "branch: DROP_EXPIRED set",
    "serve/stats.py:ServingStats.shed": "branch: admission sheds",
    "serve/stats.py:ServingStats.expired": "branch: DROP_EXPIRED set",
}

# A line of the static lists -> why what it names stays.  Each list holds
# exactly these rows (tests/test_reach.py), so an option, field or import
# that only a test uses fails tier-1 until it goes or gets a row here.
SURVIVORS = {
    "unpassed parameter: faults/health.py:HealthMonitor.state(partition)":
        "a query, not a setting: it picks the scope to read (a DOWN "
        "device downs its partitions), as the partition-fault tests do",
    "unread field: exec/trace_cache.py:PointFamily.compiles":
        "the whole-text recompile count test_point_compiled.py pins "
        "(ROADMAP H2 step 2 deletes the recompiles)",
    "unread field: host/api.py:M2Call.ack_ns":
        "the M2func write's ack (a call is a write, then a read); "
        "test_api_details.py orders it before the read's completion",
    "unread field: mem/cache.py:AccessResult.hit_sectors":
        "part of the scalar cache result test_cache_goldens.py hashes",
    "unread field: workloads/kvstore.py:KVTable.nodes_addr":
        "where the table's nodes start; test_point_compiled.py reads "
        "them back after kv launches",
}


def record(out_dir: str, argv: list[str]) -> None:
    """Run ``argv`` (a script or ``-m module``) as ``__main__`` and write
    every code object it called to ``out_dir/<pid>.txt``."""
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes.setdefault(id(frame.f_code), frame.f_code)

    module = argv[1] if argv[0] == "-m" else None
    sys.argv = argv[1:] if module else argv
    sys.path[0] = (os.getcwd() if module
                   else os.path.dirname(os.path.abspath(argv[0])))
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if module:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        lines = {f"{os.path.realpath(code.co_filename)}\t"
                 f"{code.co_firstlineno}\t{code.co_name}"
                 for code in codes.values()}
        Path(out_dir, f"{os.getpid()}.txt").write_text("\n".join(lines))


def calls(record_dir: Path) -> set[tuple[str, int, str]]:
    """Every ``(path, first line, name)`` the recorded processes called."""
    seen = set()
    for path in Path(record_dir).glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, lineno, name = line.split("\t")
            seen.add((filename, int(lineno), name))
    return seen


@functools.lru_cache(maxsize=None)
def _parse(file: Path) -> ast.Module:
    """``file``'s syntax tree, parsed once per run."""
    return ast.parse(file.read_text())


def _functions(root: Path):
    """``(file, path:Class.name, node, class name or None)`` for each
    module-level function and method under ``root``."""
    def visit(body, file, key, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, file, f"{key}{node.name}.",
                                 node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield file, f"{key}{node.name}", node, cls

    for file in sorted(root.rglob("*.py")):
        yield from visit(_parse(file).body, file,
                         f"{file.relative_to(root).as_posix()}:", None)


def defs(root: Path) -> dict[str, tuple[str, int, str, int]]:
    """``path:Class.name`` -> ``(file, first line, name, lines)`` for each
    module-level function and method under ``root``."""
    found = {}
    for file, key, node, _ in _functions(root):
        first = min([node.lineno] + [decorator.lineno for decorator
                                     in node.decorator_list])
        found[key] = (os.path.realpath(file), first, node.name,
                      node.end_lineno - first + 1)
    return found


def audit(root: Path, seen: set, keep: dict) -> tuple[dict, dict]:
    """The unreached defs not in ``keep`` (key -> lines), and the stale
    ``keep`` rows (key -> ``"reached"`` or ``"gone"``)."""
    unreached, stale, found = {}, {}, defs(root)
    for key, (file, first, name, lines) in found.items():
        reached = (file, first, name) in seen
        if key in keep:
            if reached:
                stale[key] = "reached"
        elif not reached and not (name.startswith("__")
                                  and name.endswith("__")):
            unreached[key] = lines
    stale.update((key, "gone") for key in keep
                 if key not in found)
    return unreached, stale


def unreferenced_constants(root: Path, trees: list[Path]) -> list[str]:
    """``path:NAME`` of each module-level UPPER_CASE assignment under
    ``root`` whose name no file under ``trees`` spells more often than it
    is assigned."""
    found = {}
    for file in sorted(root.rglob("*.py")):
        module = file.relative_to(root).as_posix()
        for node in _parse(file).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for name in ast.walk(node):     # the stored names are targets
                if (isinstance(name, ast.Name)
                        and isinstance(name.ctx, ast.Store)
                        and CONSTANT.fullmatch(name.id)):
                    found[f"{module}:{name.id}"] = name.id
    words = Counter(word for tree in trees for file in tree.rglob("*.py")
                    for word in re.findall(r"\w+", file.read_text()))
    assigned = Counter(found.values())
    return [key for key, name in found.items()
            if words[name] <= assigned[name]]


def unused_imports(root: Path, trees: list[Path]) -> list[str]:
    """``path:name`` of each name an import under ``root`` binds that its
    module never reads and no file under ``trees`` takes from it (by a
    ``from`` import, or as an attribute of a name bound to the module).
    A ``__future__`` import binds none, and the names an ``__init__.py``
    lists in ``__all__`` count as read."""
    taken = set()   # (module, name) some file takes from the module
    for tree in trees:
        for file in tree.rglob("*.py"):
            nodes = list(ast.walk(_parse(file)))
            bound = {}
            for node in nodes:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        taken.add((node.module, alias.name))
                        bound[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
                elif isinstance(node, ast.Import):
                    bound.update((alias.asname, alias.name)
                                 for alias in node.names if alias.asname)
            taken.update((bound[node.value.id], node.attr) for node in nodes
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name)
                         and node.value.id in bound)
    found = []
    for file in sorted(root.rglob("*.py")):
        tree = _parse(file)
        path = file.relative_to(root.parent).with_suffix("").parts
        module = ".".join(path[:-1] if path[-1] == "__init__" else path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        if file.name == "__init__.py":
            read.update(name for node in tree.body
                        if isinstance(node, ast.Assign)
                        and _name(node.targets[0]) == "__all__"
                        for name in ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read and (module, name) not in taken:
                        found.append(
                            f"{file.relative_to(root).as_posix()}:{name}")
    return found


def _name(node) -> str | None:
    """The name a call through ``node`` goes by: ``f`` of ``f`` or ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _walk(node, scope="", cls=None):
    """Every node under ``node`` with the name of the def it is in ("" at
    module level) and the class it is in (None outside one)."""
    yield node, scope, cls
    if isinstance(node, ast.ClassDef):
        cls = node
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, scope, cls)


def _signatures(root: Path):
    """``(path:qualname, call name, def name, positional names, defaulted
    names)`` of each module-level function and method under ``root``; a
    method's positional names start after ``self``, and ``__init__`` is
    called by its class's name."""
    found = []
    for _, key, node, cls in _functions(root):
        args = node.args
        positional = args.posonlyargs + args.args
        if cls and "staticmethod" not in map(_name, node.decorator_list):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                      if default is not None]
        found.append((key, cls if node.name == "__init__" else node.name,
                      node.name, [arg.arg for arg in positional],
                      [arg.arg for arg in defaulted]))
    return found


def _key(node, scope: str):
    """Where ``node`` binds: a bare name in its def, an attribute (or a
    module-level name) everywhere."""
    if isinstance(node, ast.Name):
        return scope, node.id
    return ("", node.attr) if isinstance(node, ast.Attribute) else None


def _values(node, scope: str):
    """The keys ``node`` may stand for: a name, or the names in a tuple,
    list, set or dict literal (its values)."""
    if _key(node, scope):
        yield _key(node, scope)
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _values(element, scope)
    elif isinstance(node, ast.Dict):
        for value in node.values:
            yield from _values(value, scope)


def _passed(trees: list[Path], signatures) -> dict[str, set]:
    """Call name -> what the calls of that name in a file under ``trees``
    pass: keywords, positions, or ``"*"`` for a ``*``/``**`` call.  A call
    matches every def of its name in ``signatures`` (``super().__init__``
    the bases' ``__init__``).  A call through a name bound to others (by
    assignment, as a loop variable or as an argument; ``table[key](...)``
    through ``table``) passes what it passes to them too."""
    params = defaultdict(list)
    for _, name, scope, names, _ in signatures:
        params[name].append((scope, names))
    passed = defaultdict(set)   # call name -> what its calls pass
    through = defaultdict(set)  # key -> what calls through it pass
    bound = defaultdict(set)    # key -> the keys it may stand for
    for tree in trees:
        for file in sorted(tree.rglob("*.py")):
            for node, scope, cls in _walk(_parse(file)):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if _key(target, scope):
                            bound[_key(target, scope)].update(
                                _values(node.value, scope))
                elif isinstance(node, (ast.For, ast.comprehension)):
                    for target in ast.walk(node.target):
                        if isinstance(target, ast.Name):
                            bound[scope, target.id].update(
                                _values(node.iter, scope))
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if any(isinstance(arg, ast.Starred) for arg in node.args) or \
                        any(kw.arg is None for kw in node.keywords):
                    got = {"*"}
                else:
                    got = set(range(len(node.args)))
                    got.update(kw.arg for kw in node.keywords)
                if isinstance(func, ast.Subscript):
                    func = func.value
                name = _name(func)
                if name == "__init__" and isinstance(func.value, ast.Call) \
                        and _name(func.value.func) == "super":
                    for base in filter(None, map(_name, cls.bases
                                                 if cls else ())):
                        passed[base] |= got
                    continue
                passed[name] |= got
                if _key(func, scope):
                    through[_key(func, scope)] |= got
                for callee, names in params[name]:
                    for i, arg in enumerate(node.args[:len(names)]):
                        bound[callee, names[i]].update(_values(arg, scope))
                    for kw in node.keywords:
                        if kw.arg:
                            bound[callee, kw.arg].update(
                                _values(kw.value, scope))
    grown = True
    while grown:
        grown = False
        for alias, keys in bound.items():
            got = through[alias]
            for scope, name in keys:
                for sink in (through[scope, name], through["", name],
                             passed[name]):
                    if not got <= sink:
                        sink |= got
                        grown = True
    return passed


def _unset(passed: set, names: list[str], defaulted: list[str]):
    """The ``defaulted`` names no call that passed ``passed`` sets."""
    if "*" in passed:
        return []
    return [arg for arg in defaulted if arg not in passed
            and not (arg in names and names.index(arg) in passed)]


def unpassed_parameters(root: Path, trees: list[Path],
                        exclude=frozenset()) -> list[str]:
    """``path:qualname(name)`` of each defaulted parameter of a def under
    ``root`` (but not of a def named in ``exclude``) that no call in a
    file under ``trees`` passes, by keyword, by position or through
    ``*``/``**`` (matched as `_passed` says)."""
    signatures = _signatures(root)
    passed = _passed(trees, signatures)
    return [f"{key}({arg})"
            for key, name, _, names, defaulted in signatures
            if name not in exclude
            for arg in _unset(passed[name], names, defaulted)]


def _dataclasses(root: Path, skip=()):
    """``(file, class node, field names, defaulted field names)`` of each
    ``@dataclass`` under ``root``, but not in a module ``skip`` names.  A
    ``field(default_factory=...)`` is not defaulted: each instance gets an
    object of its own (state it fills, such as a list), not a value."""
    for file in sorted(root.rglob("*.py")):
        if file.relative_to(root).as_posix() in skip:
            continue
        for node in ast.walk(_parse(file)):
            if not (isinstance(node, ast.ClassDef) and any(
                    _name(getattr(decorator, "func", decorator))
                    == "dataclass" for decorator in node.decorator_list)):
                continue
            names, defaulted = [], []
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    names.append(item.target.id)
                    value = item.value
                    if value is not None and not (
                            isinstance(value, ast.Call)
                            and _name(value.func) == "field"
                            and "default" not in {kw.arg for kw
                                                  in value.keywords}):
                        defaulted.append(item.target.id)
            yield file, node, names, defaulted


def unset_fields(root: Path, trees: list[Path],
                 skip=("config.py",)) -> list[str]:
    """``path:Class.name`` of each defaulted field of a dataclass under
    ``root`` (not in a module ``skip`` names) that no file under ``trees``
    sets: no call of the class passes it (as `_passed` matches calls), no
    ``replace()`` call names it (a ``**`` one names every field), and no
    attribute write, ``setattr`` or ``__setattr__`` of that name exists."""
    classes = list(_dataclasses(root, skip))
    passed = _passed(trees, [(None, node.name, "__init__", names, defaulted)
                             for _, node, names, defaulted in classes])
    written = set()
    for tree in trees:
        for file in sorted(tree.rglob("*.py")):
            replace = {"replace"}
            for node in ast.walk(_parse(file)):
                if isinstance(node, ast.ImportFrom) and \
                        node.module == "dataclasses":
                    replace.update(alias.asname for alias in node.names
                                   if alias.name == "replace")
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store):
                    written.add(node.attr)
                elif isinstance(node, ast.Call):
                    name = _name(node.func)
                    if name in replace:
                        written.update(kw.arg or "*" for kw in node.keywords)
                    elif name in ("setattr", "__setattr__") and \
                            len(node.args) > 1 and \
                            isinstance(node.args[1], ast.Constant):
                        written.add(node.args[1].value)
    return [f"{file.relative_to(root).as_posix()}:{node.name}.{arg}"
            for file, node, names, defaulted in classes
            if "*" not in written
            for arg in _unset(passed[node.name], names, defaulted)
            if arg not in written]


def unread_fields(root: Path, trees: list[Path],
                  skip=("config.py",)) -> list[str]:
    """``path:Class.name`` of each field of a dataclass under ``root`` (not
    in a module ``skip`` names) that no file under ``trees`` reads, by an
    attribute load of that name or by ``getattr`` with it.  A read in the
    class's own ``__post_init__`` (which checks or derives) is not one."""
    # name -> (class node or None, def name); ``_parse`` parses a file
    # once, so a class node here is the very node ``_dataclasses`` yields
    readers = defaultdict(set)
    for tree in trees:
        for file in sorted(tree.rglob("*.py")):
            for node, scope, cls in _walk(_parse(file)):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    readers[node.attr].add((cls, scope))
                elif isinstance(node, ast.Call) and \
                        _name(node.func) == "getattr" and \
                        len(node.args) > 1 and \
                        isinstance(node.args[1], ast.Constant):
                    readers[node.args[1].value].add((cls, scope))
    return [f"{file.relative_to(root).as_posix()}:{node.name}.{name}"
            for file, node, names, _ in _dataclasses(root, skip)
            for name in names
            if not readers[name] - {(node, "__post_init__")}]


def experiment_drivers(registry: Path) -> set[str]:
    """The names of the functions ``EXPERIMENTS`` maps ids to."""
    for node in ast.parse(registry.read_text()).body:
        if isinstance(node, ast.Assign) and \
                _name(node.targets[0]) == "EXPERIMENTS":
            return set(map(_name, node.value.values))
    return set()


def consumers(scratch: Path) -> list[tuple[list[str], Path]]:
    """``(argv, cwd)`` of each consumer, in the order they must run."""
    trace = scratch / "serving.trace.json"
    report = ["-m", "repro.obs.report", str(trace)]
    return ([(["benchmarks/figures.py", str(scratch / "FIDELITY.json")], HERE),
             (["benchmarks/figures.py", "--check", "README.md"], HERE)]
            + [([f"examples/{example.name}"], HERE)
               for example in sorted((HERE / "examples").glob("*.py"))]
            + [(["-m", "repro.experiments.serving", "--trace", "serving"],
                scratch), (report, HERE), (report + ["--format", "json"], HERE)]
            + [(["bench/worker.py", mode, "--workload", workload], HERE)
               for workload in WORKLOADS
               for mode in ("timed", "probe", "traced")])


def main() -> int:
    if sys.argv[1:2] == ["--record"] and sys.argv[3:4] == ["--"]:
        record(sys.argv[2], sys.argv[4:])
        return 0
    env = dict(os.environ, PYTHONPATH=str(HERE / "src"))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        scratch, records = Path(tmp), Path(tmp, "records")
        records.mkdir()
        for argv, cwd in consumers(scratch):
            done = subprocess.run(
                [sys.executable, __file__, "--record", str(records), "--",
                 *argv], cwd=cwd, env=env, stdout=subprocess.DEVNULL)
            print(f"exit {done.returncode}  {' '.join(argv)}", flush=True)
            if done.returncode:
                failed.append(" ".join(argv))
        golden = scratch / "FIDELITY.json"
        if not (golden.exists() and filecmp.cmp(golden, HERE / "FIDELITY.json",
                                                shallow=False)):
            failed.append("cmp FIDELITY.json: the regenerated golden differs")
        unreached, stale = audit(PACKAGE, calls(records), KEEP)
    by_module = defaultdict(list)
    for key, lines in unreached.items():
        by_module[key.partition(":")[0]].append((key.partition(":")[2], lines))
    for module, rows in by_module.items():
        print(f"\n{module}  ({len(rows)} defs, "
              f"{sum(lines for _, lines in rows)} lines)")
        for qualname, lines in rows:
            print(f"  {lines:5d}  {qualname}")
    found = defs(PACKAGE)
    print(f"\nunreached: {len(unreached)} defs, {sum(unreached.values())} "
          f"lines of {len(found)} defs, "
          f"{sum(row[3] for row in found.values())} lines "
          f"({len(KEEP)} kept on purpose)")
    lines = static_lines()
    for line in lines:
        kept = f"  (kept: {SURVIVORS[line]})" if line in SURVIVORS else ""
        print(line + kept)
    counts = Counter(line.partition(":")[0] for line in lines)
    for kind in KINDS:
        print(f"{kind}s: {counts[kind]}")
    for line in SURVIVORS.keys() - set(lines):
        print(f"stale survivor row: {line}")
    return verdict(stale, failed)


def static_lines() -> list[str]:
    """Every line of the static lists of ``src/repro``, ``kind: key``."""
    trees = [HERE / d for d in SCANNED]
    drivers = experiment_drivers(PACKAGE / "experiments" / "registry.py")
    lists = (unreferenced_constants(PACKAGE, trees),
             unpassed_parameters(PACKAGE, trees, drivers),
             unused_imports(PACKAGE, trees),
             unset_fields(PACKAGE, trees),
             unread_fields(PACKAGE, trees))
    return [f"{kind}: {key}" for kind, keys in zip(KINDS, lists)
            for key in keys]


def verdict(stale: dict, failed: list[str]) -> int:
    """Print each stale ``KEEP`` row and each failure; 1 on a failure or
    on a row that names no def (a reached row is only a warning)."""
    for key, why in stale.items():
        print(f"stale KEEP row ({why}): {key}")
    failed = failed + [f"KEEP row names no def: {key}"
                       for key, why in stale.items() if why == "gone"]
    for line in failed:
        print(f"FAILED: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
