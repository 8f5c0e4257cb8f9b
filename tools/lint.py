#!/usr/bin/env python3
"""Repo lint runner: clang-tidy (when installed) plus MSV-custom rules.

Usage:
    tools/lint.py [--fix-none] [paths...]          # default: src tools
    tools/lint.py --no-clang-tidy src tests
    tools/lint.py --require-clang-tidy src         # CI: fail if missing
    tools/lint.py --diff origin/main src           # clang-tidy only on
                                                   # files changed vs REF

Custom rules (things clang-tidy cannot express for this repo):

  msv-status-nodiscard   class Status / class Result must carry
                         [[nodiscard]] so ignored error returns are
                         compile-time warnings everywhere.
  msv-status-ignored     a Status must not be discarded by bolting
                         `.ok();` onto a call statement or by a bare
                         `(void)call(...);` cast. The sanctioned idiom is
                         `status.IgnoreError();  // why` (see status.h).
  msv-include-guard      headers use #ifndef MSV_<PATH>_H_ guards derived
                         from their path (src/ stripped; tests/, bench/,
                         tools/ kept), with the closing
                         `#endif  // GUARD` comment.
  msv-naked-new          no naked new/delete outside src/io: `new` only
                         immediately wrapped in unique_ptr/shared_ptr or
                         make_unique/make_shared; `delete` not at all.
  msv-no-bare-assert     library code uses MSV_CHECK / MSV_DCHECK (which
                         log the failing expression) instead of assert().
  msv-stats-direct       I/O stats structs (stats_/totals_/baseline_
                         members) may only be mutated inside the
                         instrumented accessors in src/io/disk_model.cc
                         and src/io/buffer_pool.cc, which keep the
                         structs and the metrics registry in lock-step.
  msv-no-raw-seek        no fseek/fseeko/ftell/ftello/rewind in src/
                         outside the Env implementation (src/io/env.cc).
                         Seek-then-read on a shared FILE* races and the
                         long offset truncates past 2 GiB; all file I/O
                         goes through Env's positional Read/Write.
  msv-batched-io         no scalar Read()/ReadExact() calls inside loops
                         in the src/core and src/extsort hot paths: a
                         page-per-call loop pays one modeled device
                         access per page, where one Read/ReadExact of
                         the contiguous range pays one. Nothing below
                         the caller coalesces reads.
  msv-hot-path-alloc     no per-record std::string construction and no
                         calls through stored std::function callables
                         inside batch loops in src/core / src/sampling:
                         the hot path works on RecordSpans backed by the
                         per-query Arena and folds batches through
                         compiled FieldAccessors (DESIGN.md §15). Cold
                         paths (builders, manifest parsing) carry
                         `// NOLINT(msv-hot-path-alloc)` with a reason.
  msv-raw-logging        no raw stderr diagnostics (fprintf(stderr, ...),
                         std::cerr/std::clog, perror, fputs to stderr)
                         in src/ outside src/obs/log.cc: library code
                         logs through MSV_LOG / obs::LogEvent so every
                         message is leveled, rate-limited and mirrored
                         to the JSON sink. The structured logger's own
                         stderr emission and the CHECK-failure crash
                         path carry `// NOLINT(msv-raw-logging)` with a
                         justification.
  msv-raw-sync           no raw std sync primitives (std::mutex,
                         std::shared_mutex, std::lock_guard,
                         std::unique_lock, std::shared_lock,
                         std::scoped_lock, std::condition_variable, or
                         their <mutex>/<shared_mutex>/
                         <condition_variable> includes) outside
                         src/util/sync.h. The capability-annotated
                         wrappers there are what Clang's -Wthread-safety
                         analysis checks; a raw primitive is invisible
                         to it. Exemption: `// NOLINT(msv-raw-sync)`
                         with a justifying comment.

A finding is suppressed by `// NOLINT` or `// NOLINT(<rule>)` on the
same line. Exit code: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CC_EXTS = {".cc", ".cpp", ".cxx"}
H_EXTS = {".h", ".hpp"}

NOLINT_RE = re.compile(r"//\s*NOLINT(?:\((?P<rules>[^)]*)\))?")


def is_suppressed(line: str, rule: str) -> bool:
    m = NOLINT_RE.search(line)
    if not m:
        return False
    rules = m.group("rules")
    return rules is None or rule in rules


class Finding:
    def __init__(self, path: Path, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Crude but sufficient: drop // comments and string/char literals so
    rule regexes do not fire on prose or formats."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    return line.split("//", 1)[0]


# --- msv-include-guard -----------------------------------------------------

def expected_guard(path: Path) -> str:
    rel = path.relative_to(REPO_ROOT)
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return f"MSV_{stem.upper()}_"  # foo.h -> MSV_..._FOO_H_


def check_include_guard(path: Path, lines: list[str], findings: list[Finding]):
    guard = expected_guard(path)
    ifndef_re = re.compile(r"#ifndef\s+(\S+)")
    found = None
    for no, line in enumerate(lines, 1):
        m = ifndef_re.search(line)
        if m:
            found = (no, m.group(1))
            break
    if found is None:
        findings.append(Finding(path, 1, "msv-include-guard",
                                f"missing include guard (expected {guard})"))
        return
    no, actual = found
    if actual != guard:
        if is_suppressed(lines[no - 1], "msv-include-guard"):
            return
        findings.append(Finding(path, no, "msv-include-guard",
                                f"guard {actual} != expected {guard}"))
        return
    define_ok = any(re.search(rf"#define\s+{re.escape(guard)}\b", l)
                    for l in lines[no - 1:no + 2])
    if not define_ok:
        findings.append(Finding(path, no, "msv-include-guard",
                                f"#ifndef {guard} not followed by #define"))
    endif_re = re.compile(rf"#endif\s*//\s*{re.escape(guard)}\s*$")
    tail = [l for l in lines[-5:] if l.strip()]
    if not any(endif_re.search(l) for l in tail):
        findings.append(Finding(path, len(lines), "msv-include-guard",
                                f"missing trailing '#endif  // {guard}'"))


# --- msv-status-nodiscard --------------------------------------------------

def check_status_nodiscard(findings: list[Finding]):
    for rel, cls in (("src/util/status.h", "Status"),
                     ("src/util/result.h", "Result")):
        path = REPO_ROOT / rel
        if not path.exists():
            continue
        text = path.read_text()
        decl = re.search(rf"class\s+(\[\[nodiscard\]\]\s+)?{cls}\b", text)
        if decl is None or decl.group(1) is None:
            line_no = text[:decl.start()].count("\n") + 1 if decl else 1
            findings.append(Finding(path, line_no, "msv-status-nodiscard",
                                    f"class {cls} must be [[nodiscard]]"))


# --- msv-status-ignored ----------------------------------------------------

# A statement that ends in `.ok();` without consuming the bool: the
# classic way to launder a [[nodiscard]] Status.
OK_DISCARD_RE = re.compile(r"[\w\)\]]\s*\.\s*ok\s*\(\s*\)\s*;\s*$")
OK_DISCARD_KEYWORD_RE = re.compile(r"^(return|if|while|for|do)\b")


def is_ok_discard(line: str) -> bool:
    s = line.strip()
    if not OK_DISCARD_RE.search(s):
        return False
    # `bool b = f().ok();`, `x == f().ok();`, control flow, and stream
    # output all consume the bool; a plain call statement does not.
    return (OK_DISCARD_KEYWORD_RE.match(s) is None and "=" not in s
            and "<<" not in s)
# `(void)foo(...)` / `(void)obj->foo(...)`: discards a call result. Plain
# `(void)identifier;` (unused-parameter silencing) stays legal.
VOID_CALL_RE = re.compile(r"\(\s*void\s*\)\s*[\w:>.\->]+\s*\(")


def check_status_ignored(path: Path, lines: list[str],
                         findings: list[Finding]):
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if is_ok_discard(line):
            if not is_suppressed(raw, "msv-status-ignored"):
                findings.append(Finding(
                    path, no, "msv-status-ignored",
                    "Status discarded via '.ok();' — use "
                    "IgnoreError() with a justifying comment"))
        elif VOID_CALL_RE.search(line):
            if not is_suppressed(raw, "msv-status-ignored"):
                findings.append(Finding(
                    path, no, "msv-status-ignored",
                    "call result discarded via '(void)' cast — if it "
                    "returns Status, use IgnoreError(); otherwise NOLINT "
                    "with a reason"))


# --- msv-naked-new ---------------------------------------------------------

NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_:<]")
DELETE_RE = re.compile(r"(?<![\w.])delete(\[\])?\s+[A-Za-z_(*]")
SMART_WRAP_RE = re.compile(r"unique_ptr|shared_ptr|make_unique|make_shared")


def check_naked_new(path: Path, lines: list[str], findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[:2] == ("src", "io"):
        return  # the raw-I/O layer may manage memory manually
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        prev = strip_comments_and_strings(lines[no - 2]) if no >= 2 else ""
        if NEW_RE.search(line):
            # `new X` is fine when the smart-pointer wrap is on the same
            # or the preceding line (continuation of the wrap call).
            if SMART_WRAP_RE.search(line) or SMART_WRAP_RE.search(prev):
                continue
            if is_suppressed(raw, "msv-naked-new"):
                continue
            findings.append(Finding(
                path, no, "msv-naked-new",
                "naked 'new' outside src/io — wrap in "
                "unique_ptr/make_unique"))
        if DELETE_RE.search(line) and "= delete" not in line:
            if is_suppressed(raw, "msv-naked-new"):
                continue
            findings.append(Finding(
                path, no, "msv-naked-new",
                "naked 'delete' outside src/io — use owning smart "
                "pointers"))


# --- msv-no-bare-assert ----------------------------------------------------

ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


def check_bare_assert(path: Path, lines: list[str], findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[0] != "src":
        return  # tests/bench may use gtest/assert freely
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if ASSERT_RE.search(line) and "static_assert" not in line:
            if is_suppressed(raw, "msv-no-bare-assert"):
                continue
            findings.append(Finding(
                path, no, "msv-no-bare-assert",
                "bare assert() — use MSV_CHECK/MSV_DCHECK so the failing "
                "expression is logged (see util/logging.h)"))


# --- msv-stats-direct ------------------------------------------------------

# Files that own the stats structs and mirror every mutation into the
# metrics registry. Everywhere else, writes to these members bypass the
# instrumentation and desynchronize struct totals from traced deltas.
STATS_ALLOWED = {
    ("src", "io", "disk_model.cc"),
    ("src", "io", "buffer_pool.cc"),
}
# No member is named baseline_ any more (the stats epochs are gone); it
# stays listed only so a reintroduced baseline cannot bypass the rule.
STATS_MEMBER = r"(?:stats_|totals_|baseline_)"
# Field writes (stats_.reads += n, ++totals_.reads, totals_.busy_us = x)
# and whole-struct writes (baseline_ = totals_).
STATS_WRITE_RE = re.compile(
    rf"(?:(?:\+\+|--)\s*{STATS_MEMBER}\s*\."
    rf"|\b{STATS_MEMBER}\s*\.\s*\w+\s*(?:\+\+|--|[+\-*/|&^]?=[^=])"
    rf"|\b{STATS_MEMBER}\s*=[^=])")


def check_stats_direct(path: Path, lines: list[str],
                       findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[0] != "src" or rel.parts in STATS_ALLOWED:
        return
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if STATS_WRITE_RE.search(line):
            if is_suppressed(raw, "msv-stats-direct"):
                continue
            findings.append(Finding(
                path, no, "msv-stats-direct",
                "direct mutation of an I/O stats struct outside the "
                "instrumented accessors — route it through "
                "DiskDevice/BufferPool so the metrics registry stays in "
                "sync"))


# --- msv-no-raw-seek -------------------------------------------------------

# Seek-based stdio positioning in library code: `fseek(f, long, ...)`
# silently truncates offsets past 2 GiB, and seek-then-read on a FILE*
# shared across threads races the cursor. Env's positional Read/Write
# (pread/pwrite underneath) has neither problem, so raw seeks are only
# tolerated inside the Env implementation itself.
RAW_SEEK_ALLOWED = {
    ("src", "io", "env.cc"),
}
RAW_SEEK_RE = re.compile(r"(?<![\w.])(?:fseeko?|ftello?|rewind)\s*\(")


def check_raw_seek(path: Path, lines: list[str], findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[0] != "src" or rel.parts in RAW_SEEK_ALLOWED:
        return
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if RAW_SEEK_RE.search(line):
            if is_suppressed(raw, "msv-no-raw-seek"):
                continue
            findings.append(Finding(
                path, no, "msv-no-raw-seek",
                "raw fseek/ftell/rewind outside src/io/env.cc — stdio "
                "offsets truncate past 2 GiB and seek-then-read races; "
                "use Env's positional Read/Write"))


# --- msv-batched-io --------------------------------------------------------

# Hot-path page-fetch loops in the sampler and external-sort layers must
# not read page by page: a scalar Read per iteration pays one modeled
# device access per page, where one Read/ReadExact of the contiguous
# range pays one. No layer below the caller coalesces reads, File::ReadBatch
# included (one Read per request).
# ace_verify.cc is exempt — the scrubber walks pages one at a time on
# purpose so a torn page is attributed precisely.
BATCHED_IO_DIRS = {("src", "core"), ("src", "extsort")}
BATCHED_IO_ALLOWED = {("src", "core", "ace_verify.cc")}
LOOP_HEAD_RE = re.compile(r"(?<![\w.])(?:for|while)\s*\(")
SCALAR_READ_RE = re.compile(r"(?:->|\.)\s*(?:Read|ReadExact)\s*\(")


def check_batched_io(path: Path, lines: list[str], findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if (path.suffix not in CC_EXTS or rel.parts[:2] not in BATCHED_IO_DIRS
            or rel.parts in BATCHED_IO_ALLOWED):
        return
    # Lexical loop tracker: brace depth plus the depths at which loop
    # bodies opened. Crude (single-statement loop bodies without braces
    # are missed) but dependency-free and good enough to keep scalar
    # read loops from creeping back into the hot paths.
    depth = 0
    loop_depths: list[int] = []
    pending_loop = False
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if LOOP_HEAD_RE.search(line):
            pending_loop = True
        for ch in line:
            if ch == "{":
                depth += 1
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
            elif ch == "}":
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                depth -= 1
        if loop_depths and SCALAR_READ_RE.search(line):
            if is_suppressed(raw, "msv-batched-io"):
                continue
            findings.append(Finding(
                path, no, "msv-batched-io",
                "scalar Read()/ReadExact() in a loop on a hot path — "
                "read the contiguous range with one Read/ReadExact "
                "(one modeled device access per range instead of one "
                "per page)"))


# --- msv-hot-path-alloc ----------------------------------------------------

# The per-record budget on the sampling hot path (DESIGN.md §15) is a few
# nanoseconds; a std::string construction or a std::function call inside
# a batch loop is 10-100x that. Inside loops in src/core and src/sampling
# .cc files, flag (a) std::string objects (declarations/temporaries —
# references and pointers are free) and (b) calls through stored
# callables (data members end in `_`, so `name_(...)` is a functor
# invocation, std::function on every offender to date). Cold paths
# (builders, manifest parsing) carry `// NOLINT(msv-hot-path-alloc)`
# with a justifying comment.
HOT_PATH_DIRS = {("src", "core"), ("src", "sampling")}
HOT_PATH_STRING_RE = re.compile(r"\bstd\s*::\s*string\b(?!\s*[&*>])")
HOT_PATH_FUNCTOR_RE = re.compile(r"(?<![\w.>])[a-z]\w*_\s*\(")


def check_hot_path_alloc(path: Path, lines: list[str],
                         findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if path.suffix not in CC_EXTS or rel.parts[:2] not in HOT_PATH_DIRS:
        return
    # Same lexical loop tracker as msv-batched-io, plus: a braceless
    # single-statement loop (`for (...) stmt;`) must not leave the
    # pending flag armed, or the next unrelated `{` would be mistaken
    # for a loop body. Clearing on a semicolon-only line can miss a
    # loop whose multi-line header splits before the `{` — crude, but
    # missing a loop beats flagging a whole function.
    depth = 0
    loop_depths: list[int] = []
    pending_loop = False
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if LOOP_HEAD_RE.search(line):
            pending_loop = True
        for ch in line:
            if ch == "{":
                depth += 1
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
            elif ch == "}":
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                depth -= 1
        if pending_loop and "{" not in line and ";" in line:
            pending_loop = False
        if not loop_depths:
            continue
        if HOT_PATH_STRING_RE.search(line):
            if not is_suppressed(raw, "msv-hot-path-alloc"):
                findings.append(Finding(
                    path, no, "msv-hot-path-alloc",
                    "std::string constructed inside a batch loop on the "
                    "hot path — use RecordSpan + the per-query Arena "
                    "(see combine_engine.cc), or NOLINT with a reason if "
                    "this is a cold path"))
        elif HOT_PATH_FUNCTOR_RE.search(line):
            if not is_suppressed(raw, "msv-hot-path-alloc"):
                findings.append(Finding(
                    path, no, "msv-hot-path-alloc",
                    "call through a stored callable inside a batch loop — "
                    "compile the expression to a storage::FieldAccessor "
                    "(record_view.h), or NOLINT with a reason if this is "
                    "a cold path"))


# --- msv-raw-logging -------------------------------------------------------

# Library diagnostics must flow through MSV_LOG / obs::LogEvent (leveled,
# rate-limited, mirrored to the JSON sink). A raw stderr write bypasses
# all of that and is invisible to log collectors. Only the structured
# logger itself may write stderr directly; the two sanctioned raw sites
# (the logger's human-readable line, the CHECK crash path in
# util/logging.cc) carry per-line NOLINTs with reasons. tools/ and
# tests/ are out of scope — CLI output is their interface.
RAW_LOGGING_ALLOWED = {
    ("src", "obs", "log.cc"),
}
RAW_LOGGING_RE = re.compile(
    r"(?:fprintf|fputs|fputc|fwrite)\s*\([^()]*\bstderr\b"
    r"|\bstd\s*::\s*c(?:err|log)\b"
    r"|(?<![\w.])perror\s*\(")


def check_raw_logging(path: Path, lines: list[str],
                      findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[0] != "src" or rel.parts in RAW_LOGGING_ALLOWED:
        return
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if RAW_LOGGING_RE.search(line):
            if is_suppressed(raw, "msv-raw-logging"):
                continue
            findings.append(Finding(
                path, no, "msv-raw-logging",
                "raw stderr logging outside src/obs/log.cc — use MSV_LOG "
                "or obs::LogEvent so the message is leveled, rate-limited "
                "and reaches the JSON sink"))


# --- msv-raw-sync ----------------------------------------------------------

# The only file allowed to touch std sync primitives: the capability-
# annotated wrapper layer itself. Everywhere else uses msv::Mutex /
# SharedMutex / MutexLock / ReaderLock / WriterLock / CondVar so the
# thread-safety analysis sees every acquire and release.
RAW_SYNC_ALLOWED = {
    ("src", "util", "sync.h"),
}
RAW_SYNC_TYPE_RE = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std\s*::\s*shared_(?:timed_)?mutex\b"
    r"|std\s*::\s*(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std\s*::\s*condition_variable(?:_any)?\b")
RAW_SYNC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")


def check_raw_sync(path: Path, lines: list[str], findings: list[Finding]):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts in RAW_SYNC_ALLOWED:
        return
    for no, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if RAW_SYNC_TYPE_RE.search(line) or RAW_SYNC_INCLUDE_RE.search(line):
            if is_suppressed(raw, "msv-raw-sync"):
                continue
            findings.append(Finding(
                path, no, "msv-raw-sync",
                "raw std sync primitive outside src/util/sync.h — use the "
                "capability-annotated wrappers (Mutex/MutexLock/CondVar...) "
                "so -Wthread-safety checks the locking discipline"))


# --- clang-tidy ------------------------------------------------------------

def run_clang_tidy(paths: list[Path], require: bool) -> int:
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        if require:
            print("lint.py: clang-tidy not found but --require-clang-tidy "
                  "is set; install clang-tidy or drop the flag",
                  file=sys.stderr)
            return 2
        print("lint.py: clang-tidy not found; skipping clang-tidy checks",
              file=sys.stderr)
        return 0
    build_dir = None
    for cand in ("build", "build-dev", "build-ci", "build-asan-ubsan"):
        if (REPO_ROOT / cand / "compile_commands.json").exists():
            build_dir = REPO_ROOT / cand
            break
    if build_dir is None:
        cfg = subprocess.run(
            ["cmake", "-B", "build-dev", "-S", str(REPO_ROOT),
             "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        if cfg.returncode != 0:
            print("lint.py: cmake configure for compile_commands failed:\n"
                  + cfg.stderr, file=sys.stderr)
            return 2 if require else 0
        build_dir = REPO_ROOT / "build-dev"
    sources = [p for p in paths if p.suffix in CC_EXTS]
    if not sources:
        return 0
    cmd = [tidy, "-p", str(build_dir), "--quiet",
           *[str(s) for s in sources]]
    proc = subprocess.run(cmd, cwd=REPO_ROOT)
    return 1 if proc.returncode != 0 else 0


# --- driver ----------------------------------------------------------------

def collect_files(args_paths: list[str]) -> list[Path]:
    roots = [REPO_ROOT / p for p in (args_paths or ["src", "tools"])]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        if not root.is_dir():
            print(f"lint.py: no such path: {root}", file=sys.stderr)
            sys.exit(2)
        for p in sorted(root.rglob("*")):
            if p.suffix in CC_EXTS | H_EXTS and "sanitizers" not in p.parts:
                files.append(p)
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src tools)")
    ap.add_argument("--no-clang-tidy", action="store_true",
                    help="run only the MSV-custom rules")
    ap.add_argument("--require-clang-tidy", action="store_true",
                    help="fail (exit 2) when clang-tidy is unavailable")
    ap.add_argument("--diff", metavar="REF",
                    help="restrict clang-tidy to files changed since git "
                         "REF (custom rules still scan everything)")
    args = ap.parse_args()

    files = collect_files(args.paths)
    findings: list[Finding] = []
    check_status_nodiscard(findings)
    for path in files:
        lines = path.read_text().splitlines()
        if path.suffix in H_EXTS:
            check_include_guard(path, lines, findings)
        check_status_ignored(path, lines, findings)
        check_naked_new(path, lines, findings)
        check_bare_assert(path, lines, findings)
        check_stats_direct(path, lines, findings)
        check_raw_seek(path, lines, findings)
        check_batched_io(path, lines, findings)
        check_hot_path_alloc(path, lines, findings)
        check_raw_logging(path, lines, findings)
        check_raw_sync(path, lines, findings)

    for f in findings:
        print(f)

    tidy_files = files
    if args.diff:
        proc = subprocess.run(
            ["git", "diff", "--name-only", args.diff, "--"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"lint.py: git diff {args.diff} failed:\n{proc.stderr}",
                  file=sys.stderr)
            return 2
        changed = {(REPO_ROOT / name.strip()).resolve()
                   for name in proc.stdout.splitlines() if name.strip()}
        tidy_files = [p for p in files if p.resolve() in changed]

    tidy_rc = 0
    if not args.no_clang_tidy:
        tidy_rc = run_clang_tidy(tidy_files, args.require_clang_tidy)
    if tidy_rc == 2:
        return 2
    if findings or tidy_rc:
        print(f"lint.py: {len(findings)} custom-rule finding(s)"
              + (", clang-tidy reported issues" if tidy_rc else ""),
              file=sys.stderr)
        return 1
    print(f"lint.py: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
