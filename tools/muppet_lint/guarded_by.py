"""Pass 4: GUARDED_BY coverage.

Any class that owns a muppet::Mutex/SharedMutex has opted into the
concurrency contract; a member that is *mutated after construction* is
expected to be either

  * annotated MUPPET_GUARDED_BY / MUPPET_PT_GUARDED_BY (so the Clang
    thread-safety job proves every access point), or
  * std::atomic (lock-free by construction), or
  * const / constexpr / a reference (immutable), or
  * another synchronization object (Mutex, SharedMutex, CondVar), or
  * explicitly justified with `// muppet-lint: allow(guarded): why`.

"Mutated after construction" means a write site — assignment (plain,
compound, or through operator[]), ++/--, or a mutating container call
(push_back, clear, erase, ...) — in a method other than the lifecycle
set {constructor, destructor, Start, Stop}. Members only ever written
during single-threaded setup/teardown are not flagged: nothing races
on them. Writes inside lambdas are never lifecycle-exempt even when
the lambda is spawned from Start — that code runs on worker threads.

A nested struct that owns its own mutex (a lock stripe or cache shard,
e.g. `struct Shard { Mutex mutex; ... }` inside `SlateCache`) usually
has no methods: the enclosing class writes its members through a
reference (`shard.lru.push_front(...)`, `shards_[i].count++`). For such
owners the enclosing class's method bodies are searched for writes
through any object, with the enclosing class's lifecycle set exempt.
"""

from __future__ import annotations

import re

from cpp_model import (ClassInfo, Finding, FunctionInfo, MemberField,
                       SourceFile, extract_lambdas, parse_classes,
                       parse_functions)

CHECK = "guarded"

SYNC_TYPES = ("Mutex", "SharedMutex", "CondVar")
SCOPE_DIRS = ("src/",)
EXEMPT_FILES = ("src/common/sync.h", "src/common/sync.cc")

LIFECYCLE_NAMES = ("Start", "Stop")

# Types that are internally synchronized or value-constant by idiom.
# Counter/Gauge/Histogram (common/metrics.h) are std::atomic inside and
# wait-free by contract; pointers to them only ever see Add/Record.
SELF_SYNCED_RE = re.compile(
    r"^std::atomic\b|\batomic<|^LockLevel$")
SELF_SYNCED_TYPES = ("Counter", "Gauge", "Histogram")

# Method names whose invocation on a member mutates it.
MUTATORS = (
    "push_back", "pop_back", "push_front", "pop_front", "emplace",
    "emplace_back", "emplace_front", "insert", "erase", "clear",
    "assign", "resize", "reserve", "swap", "merge", "extract",
    "append", "reset", "release", "store", "exchange", "Add", "Set",
)


def _in_scope(sf: SourceFile) -> bool:
    return (any(sf.rel.startswith(d) for d in SCOPE_DIRS)
            and sf.rel not in EXEMPT_FILES)


def _write_res(name: str, through_object: bool = False) -> list[re.Pattern]:
    """Regexes matching a write to member `name` inside a body.

    By default the lookbehind rejects `other->name = ...` /
    `other.name = ...` (a write to some other object's member of the
    same name); `this->` qualification is still accepted. With
    `through_object` only writes through an object are matched:
    `obj.name`, `obj->name`, `objs[i].name`.
    """
    if through_object:
        ref = (r"(?<![\w.>])[A-Za-z_]\w*(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
               r"\b" + re.escape(name) + r"\b")
    else:
        ref = r"(?<![\w.>])(?:this\s*->\s*)?\b" + re.escape(name)
    return [
        # name = / name[i] = / name += ... (not ==, <=, >=, !=)
        re.compile(ref + r"\s*(?:\[[^\]]*\]\s*)?"
                   r"(?:(?:[+\-*/%&|^]|<<|>>)=|(?<![=!<>])=(?!=))"),
        # ++name / name++ / --name / name--
        re.compile(r"(?:\+\+|--)\s*" + ref + r"\b"),
        re.compile(ref + r"\s*(?:\+\+|--)"),
        # name.push_back(...) and friends
        re.compile(ref + r"\s*(?:\.|->)\s*(?:" +
                   "|".join(MUTATORS) + r")\s*\("),
    ]


def run(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []

    # Pass A: classes owning a mutex, with their candidate fields.
    owners: dict[str, tuple[ClassInfo, list[MemberField]]] = {}
    nested: set[str] = set()  # every nested class, qualified
    for sf in files:
        if not _in_scope(sf):
            continue
        for ci in parse_classes(sf):
            if ci.enclosing:
                nested.add(ci.qualified)
            has_mutex = any(
                _base_type(f.type_text) in ("Mutex", "SharedMutex")
                or _is_derived_mutex(ci, f) for f in ci.fields)
            if not has_mutex:
                continue
            cands: list[MemberField] = []
            for fld in ci.fields:
                if fld.is_static or fld.is_constexpr or fld.is_const:
                    continue
                base = _base_type(fld.type_text)
                if base in SYNC_TYPES or _is_derived_mutex(ci, fld):
                    continue
                if SELF_SYNCED_RE.search(fld.type_text):
                    continue
                if base in SELF_SYNCED_TYPES:
                    continue
                if fld.type_text.endswith("&"):
                    continue
                if fld.annotation("MUPPET_GUARDED_BY",
                                  "MUPPET_PT_GUARDED_BY") is not None:
                    continue
                if sf.allows(CHECK, fld.line):
                    continue
                cands.append(fld)
            if cands and ci.qualified not in owners:
                owners[ci.qualified] = (ci, cands)
    if not owners:
        return findings

    # Pass B: every method body of an owner class, or of the class
    # enclosing a nested owner (including out-of-line definitions in .cc
    # files), with lambdas split out as non-lifecycle pseudo-methods --
    # their bodies run on worker threads. Bodies are keyed by qualified
    # class, so a nested `Cache::Shard` and an unrelated top-level `Shard`
    # never share a scope.
    known = set(owners)
    enclosing_of: dict[str, str] = {}
    for ci, _ in owners.values():
        if ci.enclosing:
            outer = _enclosing_class(ci)
            enclosing_of[ci.qualified] = outer
            known.add(outer)
    bodies: dict[str, list[tuple[FunctionInfo, str]]] = {}
    for sf in files:
        if not _in_scope(sf):
            continue
        classes = parse_classes(sf)
        counter = [0]
        for fn in parse_functions(sf, classes):
            key = _class_key(fn, classes, nested)
            if key not in known:
                continue
            blanked, lambdas = extract_lambdas(sf, fn, counter)
            bodies.setdefault(key, []).append((fn, blanked))
            for lam in lambdas:
                bodies.setdefault(key, []).append(
                    (lam, sf.code[lam.body_start:lam.body_end]))

    for cls in sorted(owners):
        ci, cands = owners[cls]
        # (qualified class whose methods are searched, its short name for
        # the lifecycle set, write regexes for a field)
        scopes = [(cls, ci.name, _write_res)]
        if cls in enclosing_of:
            scopes.append((enclosing_of[cls], ci.enclosing,
                           lambda name: _write_res(name, through_object=True)))
        for fld in cands:
            site: tuple[FunctionInfo, int] | None = None
            for scope, short, write_res in scopes:
                site = _first_write(bodies.get(scope, []), short,
                                    write_res(fld.name))
                if site:
                    break
            if site is None:
                continue
            fn, wline = site
            findings.append(Finding(
                CHECK, ci.file.rel, fld.line,
                f"{cls}::{fld.name} ({fld.type_text}) is written by "
                f"{fn.key} ({fn.file.rel}:{wline}) outside "
                f"construction but has no MUPPET_GUARDED_BY; annotate "
                f"it, make it atomic, or justify with "
                f"`// muppet-lint: allow(guarded): why`"))
    return findings


def _first_write(methods: list[tuple[FunctionInfo, str]], cls: str,
                 res: list[re.Pattern]) -> tuple[FunctionInfo, int] | None:
    """The first write matching `res` outside `cls`'s lifecycle methods."""
    for fn, body in methods:
        lifecycle = (not fn.is_lambda
                     and (fn.name == cls or fn.name == "~" + cls
                          or fn.name in LIFECYCLE_NAMES))
        if lifecycle:
            continue
        for wre in res:
            m = wre.search(body)
            if m:
                return fn, fn.file.line_of(fn.body_start + m.start())
    return None


def _enclosing_class(ci: ClassInfo) -> str:
    """Qualified name of the class whose body holds nested class `ci`."""
    for c in parse_classes(ci.file):
        if (c.name == ci.enclosing
                and c.body_start <= ci.start < c.body_end):
            return c.qualified
    return ci.enclosing


def _class_key(fn: FunctionInfo, classes: list[ClassInfo],
               nested: set[str]) -> str:
    """Qualified class of a method, as ClassInfo.qualified spells it.

    An in-class definition belongs to the innermost class whose body holds
    it; an out-of-line one is named by its last two qualifier components
    (`Outer::Inner::Foo`) when those name a nested class in `nested`, and
    otherwise by its last one.
    """
    inner: ClassInfo | None = None
    for c in classes:
        if (c.body_start <= fn.body_start < c.body_end
                and (inner is None or c.body_start > inner.body_start)):
            inner = c
    if inner is not None:
        return inner.qualified
    parts = fn.qual.split("::") if fn.qual else []
    if len(parts) >= 2 and "::".join(parts[-2:]) in nested:
        return "::".join(parts[-2:])
    return parts[-1] if parts else ""


def _base_type(type_text: str) -> str:
    t = type_text.split("::")[-1].strip()
    return re.sub(r"[<>*&\s\[].*$", "", t)


def _is_derived_mutex(ci, fld) -> bool:
    """Members typed as a nested struct deriving Mutex (stripe mutexes)."""
    base = _base_type(fld.type_text)
    # Search the file for `struct <base> : Mutex`.
    return bool(re.search(
        r"\b(class|struct)\s+" + re.escape(base) +
        r"\s*(?:final\s*)?:\s*(?:public\s+)?(?:muppet::)?(Mutex|SharedMutex)\b",
        ci.file.code))
