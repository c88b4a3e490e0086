#!/usr/bin/env python3
"""Architecture-invariant linter: the cross-subsystem rules no compiler flag
or unit test can see, enforced as CI-failing checks over src/.

Rules (each has a stable id, used in the allowlist):

  thread-outside-pool     std::thread / std::jthread / std::async / .detach()
                          anywhere but support/thread_pool.* — all parallelism
                          flows through support::ThreadPool so saturation
                          deadlock rules and worker-thread detection hold.
  result-cache-write      writes to the engine result cache (cache_.insert)
                          outside Engine::complete's guarded path — the
                          single seam where the completeness/cancellation
                          checks run before an entry becomes replayable.
  workspace-ref-capture   a lambda handed to submit()/parallel_for() that
                          captures by reference and touches a part::Workspace
                          — workspaces are single-run scratch; sharing one
                          across pool tasks is the exact race WorkspaceLease
                          aborts on in Debug.
  raw-new-delete          raw `new` / `delete` in src/ — ownership is
                          unique_ptr/shared_ptr/containers; the deliberate
                          leaked singletons (ThreadPool/Tracer/Metrics
                          globals) are allowlisted, not idiomatic.
  workspace-pool-lease    an ad-hoc `Workspace <name>` local/member declared
                          in src/engine/ — engine code (warm-start tasks
                          especially, which run concurrently on the pool)
                          must lease exclusive scratch from the engine-owned
                          part::WorkspacePool; a stray local silently forfeits
                          warm-buffer reuse and dodges the pool's
                          growth-counter snapshots, and a stray member
                          reintroduces the shared-workspace serialization the
                          pool exists to remove.

Exceptions live in tools/invariant_allowlist.txt, one per line:

    <rule-id> <path-substring>[:<enclosing-function>]   # comment

An entry that excuses no finding is itself a finding (stale-allowlist), so
the file cannot rot.

Usage:
    python3 tools/check_invariants.py [--root DIR]   # lint src/, exit 1 on findings
    python3 tools/check_invariants.py --self-test    # prove every rule fires

Pure stdlib; runs as a ctest (invariants_lint, invariants_selftest) and in
the CI fast job.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Source preprocessing


def strip_comments_and_strings(text: str) -> str:
    """Blanks out //, /* */ comments and string/char literals, preserving
    line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


FUNC_DEF_RE = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s]*?\b([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+|[A-Za-z_]\w*)"
    r"\s*\([^;]*$"
)


def enclosing_function(lines: list[str], line_no: int) -> str:
    """Best-effort name of the function containing 1-based `line_no`: the
    nearest preceding column-0 definition-looking line."""
    for i in range(line_no - 1, -1, -1):
        line = lines[i]
        if not line or line[0].isspace() or line.startswith(("}", "#")):
            continue
        m = FUNC_DEF_RE.match(line)
        if m:
            return m.group(1)
    return "?"


# --------------------------------------------------------------------------
# Findings and rules


@dataclasses.dataclass
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    func: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message} (in {self.func})"


def _findings_for(rule, pattern, path, stripped, lines, message):
    found = []
    for m in pattern.finditer(stripped):
        line_no = stripped.count("\n", 0, m.start()) + 1
        found.append(
            Finding(rule, path, line_no, enclosing_function(lines, line_no), message)
        )
    return found


THREAD_RE = re.compile(r"std::(?:thread|jthread)\b|std::async\b|\.detach\s*\(")


def rule_thread_outside_pool(path, stripped, lines):
    if "support/thread_pool" in path:
        return []
    return _findings_for(
        "thread-outside-pool",
        THREAD_RE,
        path,
        stripped,
        lines,
        "raw thread primitive; route work through support::ThreadPool",
    )


CACHE_WRITE_RE = re.compile(r"\bcache_\s*\.\s*(?:insert|put|emplace)\s*\(")


def rule_result_cache_write(path, stripped, lines):
    if "/engine/" not in path:
        return []
    return _findings_for(
        "result-cache-write",
        CACHE_WRITE_RE,
        path,
        stripped,
        lines,
        "result-cache write outside the guarded completion path",
    )


POOL_CALL_RE = re.compile(r"\b(?:submit|parallel_for)\s*\(")
LAMBDA_REF_CAPTURE_RE = re.compile(r"\[\s*&")
WS_TOUCH_RE = re.compile(r"\bWorkspace\b|\bworkspace\b|\bws\b")


def _lambda_for_call(stripped, call_end):
    """Returns (capture+body snippet, offset) of the lambda argument of a
    pool call: inline `[...]...` right at the argument, or a named lambda
    `auto name = [...]` defined in the preceding 50 lines."""
    tail = stripped[call_end : call_end + 600]
    m = re.match(r"\s*(?:\[|.*?,\s*\[)", tail, re.S)
    if m and "[" in m.group(0):
        return tail, call_end
    # Named argument: resolve `auto <name> = [` backwards.
    arg = re.match(r"[\w:\s,]*?\b([A-Za-z_]\w*)\s*[,)]", tail)
    if not arg:
        return None, 0
    name = arg.group(1)
    window_start = max(0, call_end - 4000)
    window = stripped[window_start:call_end]
    defn = None
    for m in re.finditer(r"\bauto\s+" + re.escape(name) + r"\s*=\s*\[", window):
        defn = m
    if defn is None:
        return None, 0
    start = window_start + defn.start()
    return stripped[start:call_end], start


def rule_workspace_ref_capture(path, stripped, lines):
    if "support/thread_pool" in path:
        return []  # the pool's own machinery
    found = []
    for call in POOL_CALL_RE.finditer(stripped):
        snippet, offset = _lambda_for_call(stripped, call.end())
        if snippet is None:
            continue
        if LAMBDA_REF_CAPTURE_RE.search(snippet) and WS_TOUCH_RE.search(snippet):
            line_no = stripped.count("\n", 0, offset) + 1
            found.append(
                Finding(
                    "workspace-ref-capture",
                    path,
                    line_no,
                    enclosing_function(lines, line_no),
                    "by-reference lambda over a Workspace handed to the pool",
                )
            )
    return found


NEW_DELETE_RE = re.compile(r"(?<![=\w])\s*\b(new|delete)\b(?!\s*\()")


def rule_raw_new_delete(path, stripped, lines):
    found = []
    for m in re.finditer(r"\bnew\b|\bdelete\b(\s*\[\s*\])?", stripped):
        before = stripped[: m.start()].rstrip()
        if m.group(0).startswith("delete") and before.endswith("="):
            continue  # `= delete;` special member suppression
        line_no = stripped.count("\n", 0, m.start()) + 1
        found.append(
            Finding(
                "raw-new-delete",
                path,
                line_no,
                enclosing_function(lines, line_no),
                "raw new/delete; use make_unique/make_shared or containers",
            )
        )
    return found


WORKSPACE_DECL_RE = re.compile(
    r"\b(?:part\s*::\s*)?Workspace\s+[A-Za-z_]\w*\s*[;{=(]"
)


def rule_workspace_pool_lease(path, stripped, lines):
    if "/engine/" not in path:
        return []
    return _findings_for(
        "workspace-pool-lease",
        WORKSPACE_DECL_RE,
        path,
        stripped,
        lines,
        "ad-hoc Workspace in engine code; acquire a WorkspacePool lease",
    )


RULES = [
    rule_thread_outside_pool,
    rule_result_cache_write,
    rule_workspace_ref_capture,
    rule_raw_new_delete,
    rule_workspace_pool_lease,
]


# --------------------------------------------------------------------------
# Allowlist


ALLOWLIST = "tools/invariant_allowlist.txt"


@dataclasses.dataclass
class AllowEntry:
    rule: str
    path_sub: str
    func: str | None
    used: bool = False

    def matches(self, f: Finding) -> bool:
        if self.rule != f.rule or self.path_sub not in f.path:
            return False
        return self.func is None or self.func == f.func

    def __str__(self) -> str:
        return f"{self.rule} {self.path_sub}" + (f":{self.func}" if self.func else "")


def load_allowlist(path: pathlib.Path) -> list[AllowEntry]:
    entries = []
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(f"{path}: bad allowlist line: {raw!r}")
        rule, target = parts
        if ":" in target:
            # First colon: paths never contain one, function names may
            # (Engine::complete).
            path_sub, func = target.split(":", 1)
        else:
            path_sub, func = target, None
        entries.append(AllowEntry(rule, path_sub, func))
    return entries


# --------------------------------------------------------------------------
# Driver


def lint_text(path: str, text: str) -> list[Finding]:
    stripped = strip_comments_and_strings(text)
    lines = text.splitlines()
    found = []
    for rule in RULES:
        found.extend(rule(path, stripped, lines))
    return found


def lint_files(files, allowlist: list[AllowEntry]) -> list[str]:
    """Findings over (path, text) pairs that no allowlist entry excuses,
    then one stale-allowlist finding per entry that excused nothing."""
    problems = []
    for path, text in files:
        for f in lint_text(path, text):
            entry = next((e for e in allowlist if e.matches(f)), None)
            if entry is None:
                problems.append(str(f))
            else:
                entry.used = True
    problems.extend(
        f"{ALLOWLIST}: [stale-allowlist] {entry} excuses no finding; delete it"
        for entry in allowlist
        if not entry.used
    )
    return problems


def lint_tree(root: pathlib.Path) -> int:
    files = [
        (file.relative_to(root).as_posix(), file.read_text())
        for ext in ("*.hpp", "*.cpp")
        for file in sorted((root / "src").rglob(ext))
    ]
    problems = lint_files(files, load_allowlist(root / ALLOWLIST))
    for p in problems:
        print(p)
    if problems:
        print(f"check_invariants: {len(problems)} violation(s)")
        return 1
    print("check_invariants: ok")
    return 0


# --------------------------------------------------------------------------
# Self test: every rule must fire on a seeded violation and stay silent on
# the idiomatic counterpart.

SELF_TESTS = [
    # (rule, path, bad snippet, good snippet)
    (
        "thread-outside-pool",
        "src/engine/engine.cpp",
        "void f() {\n  std::thread t([] {});\n  t.detach();\n}\n",
        "void f() {\n  support::ThreadPool::global().submit([] {});\n}\n",
    ),
    (
        "result-cache-write",
        "src/engine/engine.cpp",
        "void Engine::serve_warm() {\n  cache_.insert(key, snapshot);\n}\n",
        "void Engine::serve_warm() {\n  auto hit = cache_.lookup(key);\n}\n",
    ),
    (
        "workspace-ref-capture",
        "src/partition/initial.cpp",
        "void f(Workspace& ws) {\n  pool.submit([&] { ws.fm.log.clear(); });\n}\n",
        "void f(Workspace& ws) {\n"
        "  auto run = [&](std::size_t r) { results[r] = grow(r); };\n"
        "  parallel_for(0, n, run);\n  ws.fm.log.clear();\n}\n",
    ),
    (
        "raw-new-delete",
        "src/support/metrics.cpp",
        "void f() {\n  auto* p = new Counter();\n  delete p;\n}\n",
        "struct T {\n  T(const T&) = delete;\n"
        "  std::unique_ptr<int> p = std::make_unique<int>(3);  // new-free\n}\n",
    ),
    (
        "workspace-pool-lease",
        "src/engine/engine.cpp",
        "void Engine::run_warm_task() {\n"
        "  part::Workspace scratch;\n  req.workspace = &scratch;\n}\n",
        "void Engine::run_warm_task() {\n"
        "  part::WorkspacePool::Lease lease = warm_pool_.acquire();\n"
        "  req.workspace = lease.get();\n}\n",
    ),
]


def self_test() -> int:
    failures = 0
    for rule, path, bad, good in SELF_TESTS:
        fired = [f for f in lint_text(path, bad) if f.rule == rule]
        quiet = [f for f in lint_text(path, good) if f.rule == rule]
        if not fired:
            print(f"self-test FAIL: {rule} did not fire on the seeded violation")
            failures += 1
        if quiet:
            print(f"self-test FAIL: {rule} misfired on idiomatic code: {quiet[0]}")
            failures += 1
    # The comment/string stripper must mask lookalikes.
    masked = lint_text(
        "src/engine/x.cpp",
        '// std::thread in a comment\nconst char* s = "new delete";\n',
    )
    if masked:
        print(f"self-test FAIL: stripper leaked a masked token: {masked[0]}")
        failures += 1
    # An allowlist entry excuses its finding; once the finding is gone the
    # same entry is stale, and stale is a failure.
    bad = ("src/support/metrics.cpp", "void f() {\n  auto* p = new int;\n}\n")
    good = ("src/support/metrics.cpp", "void f() {\n  int p = 0;\n}\n")

    def allow():
        return [AllowEntry("raw-new-delete", "src/support/metrics.cpp", "f")]

    if lint_files([bad], allow()):
        print("self-test FAIL: an allowlist entry did not excuse its finding")
        failures += 1
    if not any("stale-allowlist" in p for p in lint_files([good], allow())):
        print("self-test FAIL: a stale allowlist entry passed the lint")
        failures += 1
    if failures:
        return 1
    print(f"check_invariants --self-test: ok ({len(SELF_TESTS)} rules)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent's parent)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded rule tests instead of linting the tree",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return lint_tree(args.root)


if __name__ == "__main__":
    sys.exit(main())
