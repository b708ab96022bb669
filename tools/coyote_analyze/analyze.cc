#include "tools/coyote_analyze/analyze.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <sstream>

#include "tools/coyote_analyze/frontend.h"

namespace coyote {
namespace analyze {
namespace {

using frontend::LexedFile;
using frontend::LooksLikeCall;
using frontend::Prev;
using frontend::PrevIsMemberAccess;
using frontend::TokKind;
using frontend::Token;

// ---------------------------------------------------------------------------
// Primitive vocabularies, one definition each. A per-file rule reports a hit
// at its own line; a context rule records it unconditionally and only
// reports it when context propagation proves the enclosing function runs in
// the context the rule protects. A rule that needs a wider set extends a
// shared one instead of restating it.
// ---------------------------------------------------------------------------

const std::set<std::string>& NondetCalls() {
  static const std::set<std::string> s = {
      "rand",   "srand",     "random",       "drand48",       "lrand48",  "mrand48",
      "time",   "clock",     "gettimeofday", "clock_gettime", "localtime", "gmtime",
      "getenv", "setenv",    "putenv"};
  return s;
}

// Random engines: seeded from ambient entropy or a fixed default, never from
// a sim::Rng stream.
const std::set<std::string>& RandomEngines() {
  static const std::set<std::string> s = {
      "random_device", "mt19937",  "mt19937_64", "minstd_rand",   "minstd_rand0",
      "default_random_engine",     "knuth_b",    "ranlux24",      "ranlux48",
      "ranlux24_base", "ranlux48_base"};
  return s;
}

const std::set<std::string>& WallClocks() {
  static const std::set<std::string> s = {"system_clock", "steady_clock",
                                          "high_resolution_clock"};
  return s;
}

const std::set<std::string>& BlockingCalls() {
  static const std::set<std::string> s = {
      "sleep",     "usleep",    "nanosleep", "sleep_for", "sleep_until", "system",
      "popen",     "fork",      "vfork",     "waitpid",   "pause",       "flock",
      "fsync",     "fdatasync", "epoll_wait"};
  return s;
}

// Host IO blocks a callback (callback-blocking extends BlockingCalls with
// it); outside callback context it is a harness's business.
const std::set<std::string>& IoCalls() {
  static const std::set<std::string> s = {
      "fopen", "fread", "fwrite", "fclose", "fprintf", "printf", "fscanf",
      "scanf", "fflush", "puts",  "fputs",  "getchar", "getline"};
  return s;
}

// Bare `.lock()` is deliberately absent: weak_ptr::lock() is pervasive and
// harmless, and idiomatic mutex use goes through the RAII lock types (which
// BlockingTypes() catches). `.unlock()` stays — only a manually-locked mutex
// has one.
const std::set<std::string>& BlockingMemberCalls() {
  static const std::set<std::string> s = {"unlock",     "wait", "wait_for", "wait_until",
                                          "join",       "acquire", "release_and_wait"};
  return s;
}

const std::set<std::string>& BlockingTypes() {
  static const std::set<std::string> s = {
      "lock_guard", "unique_lock", "scoped_lock",  "shared_lock",       "condition_variable",
      "promise",    "packaged_task", "counting_semaphore", "binary_semaphore",
      "ifstream",   "ofstream",   "fstream",      "cout",              "cerr",
      "clog"};
  return s;
}

const std::set<std::string>& UnorderedTypes() {
  static const std::set<std::string> s = {"unordered_map", "unordered_set",
                                          "unordered_multimap", "unordered_multiset"};
  return s;
}

const std::set<std::string>& ContainerTypes() {
  static const std::set<std::string> s = [] {
    std::set<std::string> c = {"vector", "map",   "set",   "deque",         "list",
                               "multimap", "multiset", "queue", "stack", "priority_queue"};
    c.insert(UnorderedTypes().begin(), UnorderedTypes().end());
    return c;
  }();
  return s;
}

const std::set<std::string>& MutatorCalls() {
  static const std::set<std::string> s = {
      "insert", "emplace", "emplace_back", "emplace_front", "emplace_hint", "push_back",
      "push_front", "pop_back", "pop_front", "erase",        "clear",        "resize",
      "assign", "push",    "pop"};
  return s;
}

const std::set<std::string>& IterCalls() {
  static const std::set<std::string> s = {"begin", "cbegin", "rbegin", "equal_range"};
  return s;
}

// Calls whose callable argument runs in event-callback context. ScheduleOn /
// Post place events on engines; *Async APIs register completion callbacks
// fired from engine context; SetCompletionCallback is the cThread's
// shard-safe completion path the serving fabric's node executors use.
const std::set<std::string>& CallbackSinks() {
  static const std::set<std::string> s = {"ScheduleAt", "ScheduleAfter", "Post", "ScheduleOn",
                                          "SetCompletionCallback"};
  return s;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// For a container type at toks[i] followed by its template argument list:
// the index of the declared name after the closing '>' and any `const`,
// `&` or `*` (reference-returning getters), or toks.size() when no name
// follows. Sets `*is_const` when a `const` was skipped.
size_t DeclaredName(const std::vector<Token>& toks, size_t i, bool* is_const) {
  size_t j = i + 1;
  int depth = 0;
  for (; j < toks.size(); ++j) {
    if (toks[j].text == "<") {
      ++depth;
    } else if (toks[j].text == ">") {
      if (--depth == 0) {
        break;
      }
    }
  }
  ++j;
  while (j < toks.size() &&
         ((toks[j].kind == TokKind::kPunct && (toks[j].text == "&" || toks[j].text == "*")) ||
          (toks[j].kind == TokKind::kIdent && toks[j].text == "const"))) {
    if (toks[j].kind == TokKind::kIdent) {
      *is_const = true;
    }
    ++j;
  }
  return j < toks.size() && toks[j].kind == TokKind::kIdent ? j : toks.size();
}

// Every name declared with an unordered container type: variables, members,
// parameters and functions returning one (`for (auto& x :
// MakeUnorderedSet())` iterates a nondeterministic temporary just the same),
// plus `using Alias = std::unordered_map<...>` aliases. Analyze merges the
// per-file lists into the project-wide table both iteration rules consult,
// so a member declared in a header is caught when a .cc iterates it.
void CollectUnorderedNames(const LexedFile& lexed, std::vector<std::string>* names) {
  const auto& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || UnorderedTypes().count(toks[i].text) == 0) {
      continue;
    }
    // `using Alias = std::unordered_map<...>`: scan back a few tokens.
    for (size_t back = 1; back <= 6 && back <= i; ++back) {
      if (toks[i - back].kind == TokKind::kIdent && toks[i - back].text == "using" &&
          back >= 2 && toks[i - back + 1].kind == TokKind::kIdent) {
        names->push_back(toks[i - back + 1].text);
        break;
      }
    }
    if (i + 1 >= toks.size() || toks[i + 1].text != "<") {
      continue;
    }
    bool is_const = false;
    const size_t j = DeclaredName(toks, i, &is_const);
    if (j < toks.size()) {
      names->push_back(toks[j].text);
    }
  }
}

// The identifiers of the range expression of a range-for whose `for` sits at
// toks[i], in order. False for any other `for`.
bool RangeForNames(const std::vector<Token>& toks, size_t i, std::vector<std::string>* names) {
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") {
    return false;
  }
  int depth = 0;
  size_t colon = 0;
  size_t close = 0;
  for (size_t j = i + 1; j < toks.size(); ++j) {
    if (toks[j].text == "(") {
      ++depth;
    } else if (toks[j].text == ")") {
      if (--depth == 0) {
        close = j;
        break;
      }
    } else if (toks[j].text == ":" && depth == 1 && colon == 0) {
      colon = j;
    }
  }
  if (colon == 0 || close == 0) {
    return false;
  }
  for (size_t j = colon + 1; j < close; ++j) {
    if (toks[j].kind == TokKind::kIdent) {
      names->push_back(toks[j].text);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-file rules. Each judges one file from its own tokens and path; the
// findings are stored in the file's index entry.
// ---------------------------------------------------------------------------

struct FileCtx {
  const std::string& path;
  const LexedFile& lexed;
  FileIndex* out;
};

void Report(const FileCtx& ctx, uint32_t line, const std::string& rule, const std::string& tag,
            const std::string& message) {
  if (!frontend::Suppressed(ctx.lexed, line, tag)) {
    ctx.out->findings.push_back(Finding{ctx.path, line, rule, message, {}});
  }
}

// nondet — no ambient randomness or wall-clock reads. All randomness must
// flow through sim::Rng streams; all time through sim::Engine::Now().
void RuleNondet(const FileCtx& ctx) {
  static const std::set<std::string> kDistributions = {
      "uniform_int_distribution", "uniform_real_distribution", "normal_distribution",
      "bernoulli_distribution",   "poisson_distribution",      "exponential_distribution",
      "discrete_distribution"};
  static const std::set<std::string> kBannedIncludes = {"random", "ctime", "sys/time.h",
                                                        "chrono"};
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    std::string header;
    if (frontend::AngleInclude(toks, &i, &header)) {
      if (kBannedIncludes.count(header) != 0) {
        Report(ctx, t.line, "nondet", "nondet-ok",
               "#include <" + header + "> is banned in simulation code: randomness must flow "
               "through sim::Rng and time through sim::Engine::Now()");
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    if ((RandomEngines().count(t.text) != 0 || kDistributions.count(t.text) != 0 ||
         WallClocks().count(t.text) != 0) &&
        !PrevIsMemberAccess(toks, i)) {
      Report(ctx, t.line, "nondet", "nondet-ok",
             "'" + t.text + "' is nondeterministic (platform-dependent or ambient state); " +
                 "use sim::Rng / sim::Engine::Now() instead");
      continue;
    }
    if (NondetCalls().count(t.text) != 0 && LooksLikeCall(toks, i)) {
      Report(ctx, t.line, "nondet", "nondet-ok",
             "call to '" + t.text + "()' breaks seed-replay determinism; use sim::Rng / " +
                 "sim::Engine::Now() instead");
    }
  }
}

// raw-alloc — no raw new/delete outside allocator shims. Everything in the
// simulator owns memory via containers or smart pointers; raw allocation is
// where the sanitizer jobs find their leaks and double-frees.
void RuleRawAlloc(const FileCtx& ctx) {
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    const Token* p = Prev(toks, i);
    if (t.text == "new") {
      if (p != nullptr && p->kind == TokKind::kIdent && p->text == "operator") {
        continue;  // allocator shim definition
      }
      Report(ctx, t.line, "raw-alloc", "raw-alloc-ok",
             "raw 'new': own memory via containers or std::make_unique/make_shared");
    } else if (t.text == "delete") {
      if (p != nullptr &&
          ((p->kind == TokKind::kPunct && p->text == "=") ||   // deleted function
           (p->kind == TokKind::kIdent && p->text == "operator"))) {
        continue;
      }
      Report(ctx, t.line, "raw-alloc", "raw-alloc-ok",
             "raw 'delete': own memory via containers or smart pointers");
    }
  }
}

// blocking — no blocking syscalls or thread primitives. Engine callbacks must
// complete without yielding to the OS: a sleep or wait inside an event
// callback stalls simulated time against wall time and makes run duration
// (and any timeout-adjacent behavior) machine-dependent.
void RuleBlocking(const FileCtx& ctx) {
  static const std::set<std::string> kBannedIncludes = {"thread", "mutex",
                                                        "condition_variable", "future",
                                                        "semaphore"};
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    std::string header;
    if (frontend::AngleInclude(toks, &i, &header)) {
      if (kBannedIncludes.count(header) != 0) {
        Report(ctx, t.line, "blocking", "blocking-ok",
               "#include <" + header + ">: the simulator is single-threaded by design; "
               "threads and blocking waits have no place in engine callbacks");
      }
      continue;
    }
    if (t.kind == TokKind::kIdent && BlockingCalls().count(t.text) != 0 &&
        LooksLikeCall(toks, i)) {
      Report(ctx, t.line, "blocking", "blocking-ok",
             "call to '" + t.text + "()' blocks; engine callbacks must not yield to the OS");
    }
  }
}

// wall-clock — simulation code keeps time with the engine's virtual clock,
// never the host's. std::chrono clock reads and thread sleeps in src/ make
// behavior depend on machine speed and wall time; only files explicitly
// annotated `// lint: host-boundary <why>` (benchmark harness timers, the
// shard-worker coordination layer) may touch the host clock. The nondet and
// blocking rules ban the underlying types and includes everywhere; this rule
// pins the specific ::now()/sleep_for call sites in src/ so a host-boundary
// file is still told exactly where it reads host time.
void RuleWallClock(const FileCtx& ctx) {
  if (!StartsWith(ctx.path, "src/")) {
    return;  // bench/tests own their wall-clock policy (wall_-prefixed stats)
  }
  if (frontend::HasFileAnnotation(ctx.lexed, "host-boundary")) {
    return;
  }
  static const std::set<std::string> kSleeps = {"sleep_for", "sleep_until"};
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    // system_clock::now() / steady_clock::now(...)
    if (WallClocks().count(t.text) != 0 && i + 3 < toks.size() && toks[i + 1].text == "::" &&
        toks[i + 2].text == "now" && toks[i + 3].text == "(") {
      Report(ctx, t.line, "wall-clock", "wall-clock-ok",
             "'" + t.text + "::now()' reads the host clock; simulation code must use "
             "sim::Engine::Now() (annotate the file '// lint: host-boundary <why>' if it "
             "really sits on the host side)");
      continue;
    }
    if (kSleeps.count(t.text) != 0 &&
        (LooksLikeCall(toks, i) || PrevIsMemberAccess(toks, i) ||
         (Prev(toks, i) != nullptr && Prev(toks, i)->text == "::"))) {
      Report(ctx, t.line, "wall-clock", "wall-clock-ok",
             "'" + t.text + "' stalls simulated time against wall time; schedule a future "
             "event on the engine instead");
    }
  }
}

// header-guard — headers carry a canonical include guard derived from their
// project-relative path (SRC_SIM_ENGINE_H_ style).
std::string ExpectedGuard(const std::string& path) {
  std::string guard;
  for (char c : path) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

void RuleHeaderGuard(const FileCtx& ctx) {
  if (!frontend::IsHeaderPath(ctx.path)) {
    return;
  }
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "#") {
      continue;
    }
    if (toks[i + 1].text == "pragma" && i + 2 < toks.size() && toks[i + 2].text == "once") {
      return;  // accepted (though the codebase convention is #ifndef guards)
    }
    if (toks[i + 1].text == "ifndef" && i + 2 < toks.size()) {
      const std::string macro = toks[i + 2].text;
      const std::string expected = ExpectedGuard(ctx.path);
      if (macro != expected) {
        Report(ctx, toks[i + 2].line, "header-guard", "header-ok",
               "include guard '" + macro + "' should be '" + expected + "'");
      }
      if (!(i + 5 < toks.size() && toks[i + 3].text == "#" && toks[i + 4].text == "define" &&
            toks[i + 5].text == macro)) {
        Report(ctx, toks[i + 2].line, "header-guard", "header-ok",
               "#ifndef " + macro + " is not followed by a matching #define");
      }
      return;
    }
    // Any other directive (or code) before the guard means there is no guard.
    break;
  }
  Report(ctx, 1, "header-guard", "header-ok",
         "missing include guard (expected '" + ExpectedGuard(ctx.path) + "')");
}

// using-ns-header — no `using namespace` at any scope in headers.
void RuleUsingNamespaceHeader(const FileCtx& ctx) {
  if (!frontend::IsHeaderPath(ctx.path)) {
    return;
  }
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "using" &&
        toks[i + 1].kind == TokKind::kIdent && toks[i + 1].text == "namespace") {
      Report(ctx, toks[i].line, "using-ns-header", "using-ok",
             "'using namespace' in a header leaks into every includer");
    }
  }
}

// hot-copy — no by-value payload parameters on the packet hot paths.
// StreamPacket and std::vector<uint8_t> travel through every per-packet call
// in src/axi, src/dyn, src/net and src/memsys; accepting them by value costs
// a copy (and before BufferView, an allocation) per hop per packet. Take
// `const T&` for borrowed payloads or `T&&`/BufferView for transfers; sites
// that copy deliberately (e.g. a sink that must own the packet) annotate
// with "// lint: hot-copy-ok".
void RuleHotCopy(const FileCtx& ctx) {
  static const std::vector<std::string> kHotDirs = {"src/axi/", "src/dyn/", "src/net/",
                                                    "src/memsys/"};
  if (std::none_of(kHotDirs.begin(), kHotDirs.end(),
                   [&ctx](const std::string& dir) { return StartsWith(ctx.path, dir); })) {
    return;
  }
  const auto& toks = ctx.lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) {
      continue;
    }
    // Match the payload type and remember where its spelling ends.
    size_t type_end;
    std::string pretty;
    if (toks[i].text == "StreamPacket") {
      type_end = i;
      pretty = "StreamPacket";
    } else if (toks[i].text == "vector" && i + 3 < toks.size() && toks[i + 1].text == "<" &&
               toks[i + 2].kind == TokKind::kIdent && toks[i + 2].text == "uint8_t" &&
               toks[i + 3].text == ">") {
      type_end = i + 3;
      pretty = "std::vector<uint8_t>";
    } else {
      continue;
    }
    // Walk back over namespace qualifiers and `const` to the token that opens
    // the parameter slot; only `(` and `,` put us in a parameter list. This
    // rejects return types, member declarations, locals and template args.
    size_t b = i;
    while (b >= 2 && toks[b - 1].kind == TokKind::kPunct && toks[b - 1].text == "::" &&
           toks[b - 2].kind == TokKind::kIdent) {
      b -= 2;
    }
    if (b >= 1 && toks[b - 1].kind == TokKind::kIdent && toks[b - 1].text == "const") {
      b -= 1;
    }
    const Token* opener = Prev(toks, b);
    if (opener == nullptr || opener->kind != TokKind::kPunct ||
        (opener->text != "(" && opener->text != ",")) {
      continue;
    }
    // `StreamPacket(...)` / `StreamPacket{...}` right after the type is a
    // constructor call inside an argument list, not a parameter.
    if (type_end + 1 < toks.size() &&
        (toks[type_end + 1].text == "(" || toks[type_end + 1].text == "{")) {
      continue;
    }
    // The token after the type decides: `&` or `*` means the payload is
    // borrowed or moved, `,` `)` or `=` ends a by-value parameter, anything
    // else is not a plain parameter declaration.
    bool by_value = false;
    for (size_t j = type_end + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct) {
        continue;
      }
      const std::string& tx = toks[j].text;
      by_value = tx == "," || tx == ")" || tx == "=";
      break;
    }
    if (by_value) {
      Report(ctx, toks[i].line, "hot-copy", "hot-copy-ok",
             "by-value '" + pretty + "' parameter copies the payload on a per-packet path; "
             "take 'const " + pretty + "&' (borrow) or '" + pretty + "&&'/BufferView (transfer)");
    }
  }
}

// The rule table. A per-file rule carries its check; Analyze evaluates the
// rest (null): unordered-iter from the indexed iteration sites, the context
// rules over the call graph.
struct RuleEntry {
  RuleInfo info;
  void (*check)(const FileCtx&);
};

const std::vector<RuleEntry>& RuleTable() {
  static const std::vector<RuleEntry> table = {
      {{"nondet", "nondet-ok",
        "no ambient randomness or wall-clock reads; use sim::Rng / Engine::Now()"},
       RuleNondet},
      {{"unordered-iter", "ordered-ok",
        "no iteration over unordered containers (order is implementation-defined)"},
       nullptr},
      {{"raw-alloc", "raw-alloc-ok", "no raw new/delete outside allocator shims"},
       RuleRawAlloc},
      {{"blocking", "blocking-ok", "no blocking syscalls or thread primitives"},
       RuleBlocking},
      {{"wall-clock", "wall-clock-ok",
        "src/ keeps time with sim::Engine::Now(); host clock reads/sleeps only in "
        "'// lint: host-boundary' files"},
       RuleWallClock},
      {{"header-guard", "header-ok", "headers carry a canonical path-derived include guard"},
       RuleHeaderGuard},
      {{"using-ns-header", "using-ok", "no 'using namespace' in headers"},
       RuleUsingNamespaceHeader},
      {{"hot-copy", "hot-copy-ok",
        "no by-value StreamPacket / std::vector<uint8_t> parameters on packet hot paths"},
       RuleHotCopy},
      {{"callback-blocking", "callback-blocking-ok",
        "no blocking/sleep/IO/mutex acquisition reachable from event-callback context"},
       nullptr},
      {{"sim-nondet", "sim-nondet-ok",
        "no nondeterminism source (wall clock, rand, pointer hashing, unordered iteration) "
        "reachable from simulation context"},
       nullptr},
      {{"cross-shard", "cross-shard-ok",
        "callbacks reach other shards only through the ShardedEngine mailbox API (Post)"},
       nullptr},
      {{"guard-state", "guard-ok (reason required)",
        "mutable containers mutated from callback context register a sim::AccessGuard or "
        "carry a justified suppression"},
       nullptr},
  };
  return table;
}

// ---------------------------------------------------------------------------
// Indexer: one pass over a file's token stream with an explicit scope stack.
// Understands namespaces, class bodies, function/method definitions
// (including out-of-line `Class::Method` and constructors with init lists)
// and lambdas; everything else nests as an anonymous block. Deliberately not
// an AST — see the header comment for what that buys and costs.
// ---------------------------------------------------------------------------

class Indexer {
 public:
  Indexer(const std::string& path, const LexedFile& lexed, FileIndex* out)
      : path_(path), lexed_(lexed), toks_(lexed.tokens), out_(out) {}

  void Run() {
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kPunct && t.text == "#") {
        // A directive yields only iteration sites (a macro body may loop).
        const size_t end = SkipDirective(i);
        while (i < end) {
          RecordIter(++i, -1);
        }
        stmt_head_ = i + 1;
        continue;
      }
      if (t.kind == TokKind::kPunct) {
        HandlePunct(i);
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        RecordIter(i, CurrentFn());
        HandleIdent(i);
      }
    }
  }

 private:
  struct ScopeFrame {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
    std::string name;  // namespace / class name
    int fn = -1;       // index into out_->functions (kFunction only)
    int cls = -1;      // index into out_->classes (kClass only)
  };
  struct Paren {
    std::string call;       // ident immediately before the '(' ("" if none)
    std::string qualifier;  // Q in `Q::call(`
  };

  size_t SkipDirective(size_t i) const {
    const uint32_t line = toks_[i].line;
    while (i + 1 < toks_.size() && toks_[i + 1].line == line) {
      ++i;
    }
    return i;
  }

  int CurrentFn() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == ScopeFrame::kFunction) {
        return it->fn;
      }
    }
    return -1;
  }

  int CurrentClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == ScopeFrame::kClass) {
        return it->cls;
      }
      if (it->kind == ScopeFrame::kFunction) {
        break;  // a local block inside a method is not class scope
      }
    }
    return -1;
  }

  std::string ScopePrefix() const {
    std::string p;
    for (const ScopeFrame& s : scopes_) {
      if ((s.kind == ScopeFrame::kNamespace || s.kind == ScopeFrame::kClass) &&
          !s.name.empty()) {
        p += s.name + "::";
      }
    }
    return p;
  }

  void HandlePunct(size_t i) {
    const std::string& tx = toks_[i].text;
    if (tx == "(") {
      Paren p;
      const Token* prev = frontend::Prev(toks_, i);
      if (prev != nullptr && prev->kind == TokKind::kIdent) {
        p.call = prev->text;
        if (i >= 3 && toks_[i - 2].text == "::" && toks_[i - 3].kind == TokKind::kIdent) {
          p.qualifier = toks_[i - 3].text;
        }
      }
      parens_.push_back(p);
    } else if (tx == ")") {
      if (!parens_.empty()) {
        parens_.pop_back();
      }
    } else if (tx == ";") {
      if (parens_.empty()) {
        stmt_head_ = i + 1;
      }
    } else if (tx == "{") {
      OpenBrace(i);
      stmt_head_ = i + 1;
    } else if (tx == "}") {
      if (!scopes_.empty()) {
        scopes_.pop_back();
      }
      stmt_head_ = i + 1;
    }
  }

  // --- brace classification -------------------------------------------------

  bool IsLambdaBrace(size_t i) const {
    size_t j = i;  // exclusive end of the pre-'{' qualifier run
    while (j > stmt_head_) {
      const Token& t = toks_[j - 1];
      if (t.kind == TokKind::kIdent &&
          (t.text == "mutable" || t.text == "noexcept" || t.text == "constexpr")) {
        --j;
        continue;
      }
      break;
    }
    // Skip a trailing-return spelling back to its "->".
    size_t k = j;
    bool arrow = false;
    while (k > stmt_head_) {
      const Token& t = toks_[k - 1];
      if (t.kind == TokKind::kPunct && t.text == "->") {
        arrow = true;
        --k;
        break;
      }
      if (t.kind == TokKind::kIdent || t.kind == TokKind::kNumber ||
          (t.kind == TokKind::kPunct &&
           (t.text == "::" || t.text == "<" || t.text == ">" || t.text == "*" ||
            t.text == "&" || t.text == ","))) {
        --k;
        continue;
      }
      break;
    }
    if (arrow) {
      j = k;
    }
    if (j <= stmt_head_ || j == 0) {
      return false;
    }
    const Token& last = toks_[j - 1];
    if (last.kind != TokKind::kPunct) {
      return false;
    }
    if (last.text == "]") {
      return true;  // capture-only lambda: `[x] {`
    }
    if (last.text != ")") {
      return false;
    }
    // Match the ')' back to its '(' and look for the ']' of a capture list.
    int depth = 1;
    size_t p = j - 1;
    while (p > 0 && depth > 0) {
      --p;
      if (toks_[p].text == ")") {
        ++depth;
      } else if (toks_[p].text == "(") {
        --depth;
      }
    }
    return depth == 0 && p > 0 && toks_[p - 1].kind == TokKind::kPunct &&
           toks_[p - 1].text == "]";
  }

  // Attempts to parse head [stmt_head_, i) as a function definition header.
  bool MatchFunction(size_t i, std::string* name, std::string* cls,
                     std::vector<std::string>* qual) {
    size_t p = toks_.size();
    for (size_t j = stmt_head_; j < i; ++j) {
      if (toks_[j].kind == TokKind::kPunct) {
        if (toks_[j].text == "=") {
          return false;  // initializer, not a definition
        }
        if (toks_[j].text == "(") {
          p = j;
          break;
        }
      }
    }
    if (p == toks_.size() || p <= stmt_head_) {
      return false;
    }
    const Token& fn_tok = toks_[p - 1];
    if (fn_tok.kind != TokKind::kIdent || frontend::NonCallKeywords().count(fn_tok.text) != 0) {
      return false;
    }
    *name = fn_tok.text;
    size_t q = p - 1;
    while (q >= stmt_head_ + 2 && toks_[q - 1].text == "::" &&
           toks_[q - 2].kind == TokKind::kIdent) {
      qual->insert(qual->begin(), toks_[q - 2].text);
      q -= 2;
    }
    if (!qual->empty()) {
      *cls = qual->back();
    }
    return true;
  }

  void OpenBrace(size_t i) {
    // Lambda bodies can open anywhere, including mid-expression.
    if (IsLambdaBrace(i)) {
      PushLambda(i);
      return;
    }
    // Namespace?
    size_t h = stmt_head_;
    if (h < i && toks_[h].kind == TokKind::kIdent && toks_[h].text == "inline") {
      ++h;
    }
    if (h < i && toks_[h].kind == TokKind::kIdent && toks_[h].text == "namespace") {
      std::string name;
      for (size_t j = h + 1; j < i; ++j) {
        if (toks_[j].kind == TokKind::kIdent) {
          name = toks_[j].text;  // last ident wins (nested-name rare)
        }
      }
      scopes_.push_back({ScopeFrame::kNamespace, name, -1, -1});
      return;
    }
    const ScopeFrame::Kind outer =
        scopes_.empty() ? ScopeFrame::kNamespace : scopes_.back().kind;
    // Function definition? (only at namespace/class scope)
    if (outer == ScopeFrame::kNamespace || outer == ScopeFrame::kClass) {
      std::string name, cls;
      std::vector<std::string> qual;
      if (MatchFunction(i, &name, &cls, &qual)) {
        if (cls.empty() && outer == ScopeFrame::kClass) {
          cls = scopes_.back().name;
        }
        FunctionInfo fn;
        fn.short_name = name;
        fn.class_name = cls;
        std::string qual_path;
        for (const std::string& qc : qual) {
          qual_path += qc + "::";
        }
        fn.name = ScopePrefix() + qual_path + name;
        fn.file = path_;
        fn.line = toks_[i].line;
        out_->functions.push_back(std::move(fn));
        scopes_.push_back({ScopeFrame::kFunction, name,
                           static_cast<int>(out_->functions.size() - 1), -1});
        return;
      }
    }
    // Class / struct / enum / union?
    for (size_t j = stmt_head_; j < i; ++j) {
      const Token& t = toks_[j];
      if (t.kind == TokKind::kPunct && t.text == "(") {
        break;  // parameter list before any class keyword: not a class head
      }
      if (t.kind == TokKind::kIdent &&
          (t.text == "class" || t.text == "struct" || t.text == "union" || t.text == "enum")) {
        std::string name;
        for (size_t k = j + 1; k < i; ++k) {
          if (toks_[k].kind == TokKind::kIdent && toks_[k].text != "class" &&
              toks_[k].text != "final" && toks_[k].text != "alignas") {
            name = toks_[k].text;
            break;
          }
          if (toks_[k].kind == TokKind::kPunct && toks_[k].text == ":") {
            break;  // unnamed `enum : int`
          }
        }
        ClassInfo ci;
        ci.name = name;
        ci.file = path_;
        ci.line = toks_[i].line;
        out_->classes.push_back(std::move(ci));
        scopes_.push_back({ScopeFrame::kClass, name, -1,
                           static_cast<int>(out_->classes.size() - 1)});
        return;
      }
    }
    scopes_.push_back({ScopeFrame::kBlock, "", -1, -1});
  }

  void PushLambda(size_t i) {
    const int encloser = CurrentFn();
    FunctionInfo fn;
    fn.is_lambda = true;
    fn.file = path_;
    fn.line = toks_[i].line;
    // The short name doubles as the call-graph key for the encloser edge, so
    // it must be globally unique: embed the path.
    fn.short_name = path_ + ":lambda@" + std::to_string(toks_[i].line);
    const std::string base =
        encloser >= 0 ? out_->functions[static_cast<size_t>(encloser)].name : ScopePrefix();
    fn.name = base + (base.empty() || EndsWith(base, "::") ? "" : "::") + "lambda@" +
              std::to_string(toks_[i].line);
    if (encloser >= 0) {
      fn.class_name = out_->functions[static_cast<size_t>(encloser)].class_name;
    }
    // Event-callback root? Either the lambda is an argument of a schedule
    // sink / *Async registration, or it is being stored into an
    // InlineCallback / Engine::Callback variable.
    if (!parens_.empty() &&
        (CallbackSinks().count(parens_.back().call) != 0 ||
         (parens_.back().call.size() > 5 && EndsWith(parens_.back().call, "Async")))) {
      fn.root = "callback";
    } else {
      bool saw_cb_type = false;
      bool saw_assign = false;
      for (size_t j = stmt_head_; j < i; ++j) {
        if (toks_[j].kind == TokKind::kIdent &&
            (toks_[j].text == "InlineCallback" || toks_[j].text == "Callback")) {
          saw_cb_type = true;
        }
        if (toks_[j].kind == TokKind::kPunct && toks_[j].text == "=") {
          saw_assign = true;
        }
      }
      if (saw_cb_type && saw_assign) {
        fn.root = "callback";
      }
    }
    out_->functions.push_back(fn);
    const int id = static_cast<int>(out_->functions.size() - 1);
    if (encloser >= 0) {
      // The encloser "calls" the lambda: a lambda run inline (algorithms,
      // immediate invocation) executes in its encloser's context; a callback
      // root additionally seeds the stricter context.
      out_->functions[static_cast<size_t>(encloser)].calls.push_back(
          CallSite{fn.short_name, "", toks_[i].line, false});
    }
    scopes_.push_back({ScopeFrame::kFunction, fn.short_name, id, -1});
  }

  // --- identifier-driven extraction ----------------------------------------

  // A range-for at toks_[i] with at least one identifier in its range
  // expression, or `x.begin(` / `x->equal_range(` and friends with the
  // receiver at toks_[i]: one iteration site, owned by function `fn`.
  void RecordIter(size_t i, int fn) {
    const Token& t = toks_[i];
    if (t.kind != TokKind::kIdent) {
      return;
    }
    IterSite site{{}, "", t.line, fn, false, false};
    if (t.text == "for") {
      if (!RangeForNames(toks_, i, &site.names) || site.names.empty()) {
        return;
      }
    } else if (i + 3 < toks_.size() && (toks_[i + 1].text == "." || toks_[i + 1].text == "->") &&
               toks_[i + 2].kind == TokKind::kIdent && IterCalls().count(toks_[i + 2].text) != 0 &&
               toks_[i + 3].text == "(") {
      site.names = {t.text};
      site.call = toks_[i + 2].text;
    } else {
      return;
    }
    site.ordered_ok = frontend::Suppressed(lexed_, t.line, "ordered-ok");
    site.sim_nondet_ok = frontend::Suppressed(lexed_, t.line, "sim-nondet-ok");
    out_->iters.push_back(std::move(site));
  }

  void HandleIdent(size_t i) {
    const int fn = CurrentFn();
    if (fn < 0) {
      HandleDeclScopeIdent(i);
      return;
    }
    FunctionInfo& f = out_->functions[static_cast<size_t>(fn)];
    const Token& t = toks_[i];
    const Token* nx = frontend::Next(toks_, i);
    const bool call_like = nx != nullptr && nx->kind == TokKind::kPunct && nx->text == "(";
    const bool member = frontend::PrevIsMemberAccess(toks_, i);

    if (t.text == "static") {
      HandleLocalStatic(i, &f);
      return;
    }
    // hash<...*...>: pointer-keyed hashing — value depends on ASLR.
    if (t.text == "hash" && nx != nullptr && nx->text == "<") {
      int depth = 0;
      for (size_t j = i + 1; j < toks_.size() && j < i + 40; ++j) {
        if (toks_[j].text == "<") {
          ++depth;
        } else if (toks_[j].text == ">") {
          if (--depth == 0) {
            break;
          }
        } else if (toks_[j].text == "*") {
          AddPrimitive(&f, "sim-nondet", t.line, "std::hash over a pointer type",
                       "sim-nondet-ok");
          break;
        }
      }
      return;
    }
    // steady_clock::now() and friends.
    if (WallClocks().count(t.text) != 0 && i + 3 < toks_.size() && toks_[i + 1].text == "::" &&
        toks_[i + 2].text == "now" && toks_[i + 3].text == "(") {
      AddPrimitive(&f, "sim-nondet", t.line, t.text + "::now() wall-clock read",
                   "sim-nondet-ok");
      return;
    }
    if (!member && RandomEngines().count(t.text) != 0) {
      AddPrimitive(&f, "sim-nondet", t.line, "'" + t.text + "' nondeterministic source",
                   "sim-nondet-ok");
      return;
    }
    if (!member && BlockingTypes().count(t.text) != 0 && !call_like) {
      // cout/cerr stream writes and RAII lock types used as expressions.
      AddPrimitive(&f, "callback-blocking", t.line, "'" + t.text + "' (blocking/IO)",
                   "callback-blocking-ok");
      return;
    }
    if (call_like && BlockingTypes().count(t.text) != 0) {
      AddPrimitive(&f, "callback-blocking", t.line,
                   "'" + t.text + "' construction (blocking/IO)", "callback-blocking-ok");
      return;
    }
    if (!call_like) {
      HandleMutationCandidate(i, &f);
      return;
    }

    // From here on: `ident (` — a call (or declaration, filtered below).
    std::string qualifier;
    if (i >= 2 && toks_[i - 1].text == "::" && toks_[i - 2].kind == TokKind::kIdent) {
      qualifier = toks_[i - 2].text;
    }
    if (member) {
      if (BlockingMemberCalls().count(t.text) != 0) {
        AddPrimitive(&f, "callback-blocking", t.line, "'." + t.text + "()' blocking wait/lock",
                     "callback-blocking-ok");
      }
      if (t.text == "shard" || t.text == "ScheduleOn") {
        AddPrimitive(&f, "cross-shard", t.line,
                     "'." + t.text + "()' reaches into another shard's engine",
                     "cross-shard-ok");
      }
      f.calls.push_back(CallSite{t.text, qualifier, t.line, true});
      return;
    }
    if (frontend::NonCallKeywords().count(t.text) != 0) {
      return;
    }
    if (!qualifier.empty() || frontend::LooksLikeCall(toks_, i)) {
      if (BlockingCalls().count(t.text) != 0 || IoCalls().count(t.text) != 0) {
        AddPrimitive(&f, "callback-blocking", t.line, "'" + t.text + "()' blocks",
                     "callback-blocking-ok");
      }
      if (NondetCalls().count(t.text) != 0) {
        AddPrimitive(&f, "sim-nondet", t.line, "'" + t.text + "()' nondeterministic call",
                     "sim-nondet-ok");
      }
      if (t.text == "ScheduleOn") {
        AddPrimitive(&f, "cross-shard", t.line,
                     "'ScheduleOn()' host-side placement API called from simulation",
                     "cross-shard-ok");
      }
      f.calls.push_back(CallSite{t.text, qualifier, t.line, false});
    }
  }

  void HandleLocalStatic(size_t i, FunctionInfo* f) {
    bool is_const = false;
    for (size_t j = i + 1; j < toks_.size() && j < i + 8; ++j) {
      if (toks_[j].kind == TokKind::kIdent && toks_[j].text == "const") {
        is_const = true;
      }
      if (toks_[j].kind == TokKind::kIdent && ContainerTypes().count(toks_[j].text) != 0 &&
          j + 1 < toks_.size() && toks_[j + 1].text == "<") {
        if (!is_const) {
          std::string reason;
          if (frontend::SuppressedWithReason(lexed_, toks_[i].line, "guard-ok", &reason)) {
            if (reason.empty()) {
              f->primitives.push_back(PrimitiveSite{
                  "guard-state", toks_[i].line,
                  "function-local static mutable container (guard-ok needs a reason)", true});
            }
            return;
          }
          f->primitives.push_back(PrimitiveSite{
              "guard-state", toks_[i].line,
              "function-local static mutable '" + toks_[j].text +
                  "' is shared singleton state invisible to sim::AccessGuard",
              false});
        }
        return;
      }
      if (toks_[j].kind == TokKind::kPunct && toks_[j].text != "::") {
        return;
      }
    }
  }

  // `entries_.insert(...)` / `entries_[k] = v` — container mutation of a
  // member (trailing underscore) or a namespace-scope global.
  void HandleMutationCandidate(size_t i, FunctionInfo* f) {
    const Token& t = toks_[i];
    if (frontend::PrevIsMemberAccess(toks_, i)) {
      return;  // x.y_ — a member of some other object; resolution hopeless
    }
    const Token* nx = frontend::Next(toks_, i);
    if (nx == nullptr || nx->kind != TokKind::kPunct) {
      return;
    }
    bool mutation = false;
    if ((nx->text == "." || nx->text == "->") && i + 3 < toks_.size() &&
        toks_[i + 2].kind == TokKind::kIdent && MutatorCalls().count(toks_[i + 2].text) != 0 &&
        toks_[i + 3].text == "(") {
      mutation = true;
    } else if (nx->text == "[") {
      // `name[...] = v` (single '=', not '==').
      int depth = 0;
      for (size_t j = i + 1; j < toks_.size(); ++j) {
        if (toks_[j].text == "[") {
          ++depth;
        } else if (toks_[j].text == "]") {
          if (--depth == 0) {
            mutation = j + 1 < toks_.size() && toks_[j + 1].text == "=" &&
                       (j + 2 >= toks_.size() || toks_[j + 2].text != "=");
            break;
          }
        }
      }
    }
    if (!mutation) {
      return;
    }
    std::string reason;
    if (frontend::SuppressedWithReason(lexed_, t.line, "guard-ok", &reason)) {
      if (reason.empty()) {
        f->primitives.push_back(PrimitiveSite{
            "guard-state", t.line,
            "mutation of '" + t.text + "' (guard-ok suppression needs a reason)", true});
      }
      return;
    }
    f->mutations.push_back(MutationSite{t.text, t.line, !EndsWith(t.text, "_")});
  }

  // Declaration scope (namespace or class body, outside any function):
  // container members, AccessGuard registrations, namespace-scope mutable
  // globals.
  void HandleDeclScopeIdent(size_t i) {
    if (!parens_.empty()) {
      return;  // inside a function signature: parameters are not globals
    }
    const Token& t = toks_[i];
    const int cls = CurrentClass();
    if (t.text == "AccessGuard" && cls >= 0) {
      out_->classes[static_cast<size_t>(cls)].has_access_guard = true;
      return;
    }
    if (ContainerTypes().count(t.text) == 0) {
      return;
    }
    const Token* nx = frontend::Next(toks_, i);
    if (nx == nullptr || nx->text != "<") {
      return;
    }
    // Reject alias heads (`using X = std::map<...>`): an alias is not state.
    bool alias_head = false;
    for (size_t j = stmt_head_; j < i; ++j) {
      if (toks_[j].kind == TokKind::kIdent &&
          (toks_[j].text == "using" || toks_[j].text == "typedef")) {
        alias_head = true;
        break;
      }
    }
    bool is_const = false;
    for (size_t j = stmt_head_; j < i; ++j) {
      if (toks_[j].kind == TokKind::kIdent && toks_[j].text == "const") {
        is_const = true;
        break;
      }
    }
    const size_t j = DeclaredName(toks_, i, &is_const);
    if (j >= toks_.size()) {
      return;
    }
    const std::string declared = toks_[j].text;
    const Token* after = frontend::Next(toks_, j);
    const bool is_function = after != nullptr && after->text == "(";
    if (alias_head || is_function || is_const) {
      return;
    }
    std::string reason;
    const bool suppressed =
        frontend::SuppressedWithReason(lexed_, toks_[j].line, "guard-ok", &reason);
    if (cls >= 0) {
      out_->classes[static_cast<size_t>(cls)].container_members.push_back(
          MemberInfo{declared, toks_[j].line, suppressed, suppressed && !reason.empty()});
    } else {
      out_->globals.push_back(
          GlobalInfo{declared, toks_[j].line, suppressed, suppressed && !reason.empty()});
    }
  }

  void AddPrimitive(FunctionInfo* f, const std::string& rule, uint32_t line,
                    const std::string& detail, const std::string& tag) {
    if (frontend::Suppressed(lexed_, line, tag)) {
      return;
    }
    f->primitives.push_back(PrimitiveSite{rule, line, detail, false});
  }

  const std::string& path_;
  const LexedFile& lexed_;
  const std::vector<Token>& toks_;
  FileIndex* out_;
  std::vector<ScopeFrame> scopes_;
  std::vector<Paren> parens_;
  size_t stmt_head_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> infos = [] {
    std::vector<RuleInfo> v;
    for (const RuleEntry& e : RuleTable()) {
      v.push_back(e.info);
    }
    return v;
  }();
  return infos;
}

Index BuildIndex(const std::vector<SourceFile>& files) {
  Index index;
  index.files.reserve(files.size());
  for (const SourceFile& f : files) {
    FileIndex fi;
    fi.path = f.first;
    const LexedFile lexed = frontend::Lex(f.second);
    Indexer(fi.path, lexed, &fi).Run();
    CollectUnorderedNames(lexed, &fi.unordered_names);
    std::sort(fi.unordered_names.begin(), fi.unordered_names.end());
    fi.unordered_names.erase(
        std::unique(fi.unordered_names.begin(), fi.unordered_names.end()),
        fi.unordered_names.end());
    const FileCtx ctx{fi.path, lexed, &fi};
    for (const RuleEntry& rule : RuleTable()) {
      if (rule.check != nullptr) {
        rule.check(ctx);
      }
    }
    index.files.push_back(std::move(fi));
  }
  return index;
}

Index IndexPaths(const std::string& root_dir, const std::vector<std::string>& relative_paths) {
  return BuildIndex(frontend::ReadFiles(root_dir, relative_paths));
}

// ---------------------------------------------------------------------------
// Analysis: call-graph assembly, context propagation, rule evaluation.
// ---------------------------------------------------------------------------

namespace {

struct Graph {
  std::vector<const FunctionInfo*> fns;
  std::vector<std::vector<const IterSite*>> iters;  // per fns entry, sim-nondet-ok ones left out
  std::map<std::string, std::vector<int>> by_short;
  std::map<std::string, const ClassInfo*> classes;
  std::set<std::string> unordered;
  std::map<std::string, const GlobalInfo*> globals;
};

// Harness code: checked by the per-file rules, left out of the call graph.
bool TestContext(const std::string& file) {
  return StartsWith(file, "tests/") || StartsWith(file, "bench/") ||
         StartsWith(file, "examples/") || StartsWith(file, "tools/");
}

std::vector<int> Resolve(const Graph& g, int caller, const CallSite& call) {
  auto it = g.by_short.find(call.name);
  if (it == g.by_short.end()) {
    return {};
  }
  const std::vector<int>& cands = it->second;
  std::vector<int> out;
  if (!call.qualifier.empty()) {
    for (int c : cands) {
      if (g.fns[static_cast<size_t>(c)]->class_name == call.qualifier) {
        out.push_back(c);
      }
    }
    return out;
  }
  if (call.member) {
    return cands;  // receiver type unknown: any method of that name (over-approx)
  }
  // Unqualified free call: same-class methods shadow free functions.
  const std::string& cls = g.fns[static_cast<size_t>(caller)]->class_name;
  if (!cls.empty()) {
    for (int c : cands) {
      if (g.fns[static_cast<size_t>(c)]->class_name == cls) {
        out.push_back(c);
      }
    }
    if (!out.empty()) {
      return out;
    }
  }
  for (int c : cands) {
    if (g.fns[static_cast<size_t>(c)]->class_name.empty()) {
      out.push_back(c);
    }
  }
  return out;
}

struct Reach {
  int parent = -1;        // function we were reached from (-1: root)
  uint32_t call_line = 0; // line of the call in the parent's file
};

// BFS from `seeds` (which carry their initial Reach), expanding over resolved
// call edges. Deterministic: seeds and edge expansion follow index order.
void Propagate(const Graph& g, std::map<int, Reach>* reached) {
  std::deque<int> queue;
  for (const auto& [id, r] : *reached) {
    queue.push_back(id);
  }
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    const FunctionInfo* f = g.fns[static_cast<size_t>(cur)];
    for (const CallSite& call : f->calls) {
      for (int callee : Resolve(g, cur, call)) {
        if (callee == cur || reached->count(callee) != 0) {
          continue;
        }
        (*reached)[callee] = Reach{cur, call.line};
        queue.push_back(callee);
      }
    }
  }
}

std::vector<std::string> Chain(const Graph& g, const std::map<int, Reach>& reached, int fn,
                               const std::string& context, const std::string& prim_detail,
                               const std::string& prim_file, uint32_t prim_line) {
  std::vector<std::string> rev;
  int cur = fn;
  while (cur >= 0) {
    const auto it = reached.find(cur);
    const FunctionInfo* f = g.fns[static_cast<size_t>(cur)];
    if (it == reached.end() || it->second.parent < 0) {
      rev.push_back(context + " root " + f->name + " (" + f->file + ":" +
                    std::to_string(f->line) + ")");
      break;
    }
    const FunctionInfo* p = g.fns[static_cast<size_t>(it->second.parent)];
    rev.push_back("-> " + f->name + " (" + p->file + ":" +
                  std::to_string(it->second.call_line) + ")");
    cur = it->second.parent;
  }
  std::vector<std::string> chain(rev.rbegin(), rev.rend());
  chain.push_back("-> " + prim_detail + " (" + prim_file + ":" + std::to_string(prim_line) +
                  ")");
  return chain;
}

}  // namespace

std::string Finding::ChainString() const {
  std::string s;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) {
      s += " ";
    }
    s += chain[i];
  }
  return s;
}

std::vector<Finding> Analyze(const Index& index, const Options& options) {
  const auto enabled = [&options](const std::string& id) {
    return options.rules.empty() ||
           std::find(options.rules.begin(), options.rules.end(), id) != options.rules.end();
  };
  // Per-file rules report every hit; context findings collapse to one per
  // (file, line, rule, message) below.
  std::vector<Finding> findings;
  std::vector<Finding> context_findings;
  const auto add = [&context_findings](const std::string& file, uint32_t line,
                                       const std::string& rule, std::string message,
                                       std::vector<std::string> chain) {
    context_findings.push_back(Finding{file, line, rule, std::move(message), std::move(chain)});
  };

  // unordered-iter — no iteration over unordered containers. Hash-map
  // iteration order is implementation-defined and changes with rehashing,
  // so any iteration result that feeds event ordering, stats fingerprints,
  // or packet emission silently breaks replay. Point lookups are fine. Sites
  // resolve against the unordered names of every file given, test harnesses
  // included.
  std::set<std::string> unordered;
  for (const FileIndex& fi : index.files) {
    unordered.insert(fi.unordered_names.begin(), fi.unordered_names.end());
  }
  for (const FileIndex& fi : index.files) {
    for (const Finding& f : fi.findings) {
      if (enabled(f.rule)) {
        findings.push_back(f);
      }
    }
    for (const IterSite& s : fi.iters) {
      if (s.ordered_ok || !enabled("unordered-iter")) {
        continue;
      }
      // A range-for reports the first unordered name (or literal unordered
      // temporary) in its range expression.
      const auto hit = std::find_if(s.names.begin(), s.names.end(), [&](const std::string& n) {
        return unordered.count(n) != 0 || (s.call.empty() && UnorderedTypes().count(n) != 0);
      });
      if (hit == s.names.end()) {
        continue;
      }
      findings.push_back(Finding{
          fi.path, s.line, "unordered-iter",
          s.call.empty()
              ? "range-for over unordered container '" + *hit +
                    "': iteration order is implementation-defined and breaks seed replay; "
                    "use an ordered container or sort first"
              : "'" + *hit + "." + s.call +
                    "()' iterates an unordered container; order is implementation-defined",
          {}});
    }
  }

  // Context rules. The call graph holds simulator code only: harness code may
  // block and seed from the clock, and indexing it would resolve harness calls
  // into the simulator by name.
  Graph g;
  for (const FileIndex& fi : index.files) {
    if (TestContext(fi.path)) {
      continue;
    }
    const size_t base = g.fns.size();
    for (const FunctionInfo& fn : fi.functions) {
      g.by_short[fn.short_name].push_back(static_cast<int>(g.fns.size()));
      g.fns.push_back(&fn);
    }
    g.iters.resize(g.fns.size());
    for (const IterSite& s : fi.iters) {
      if (s.fn >= 0 && !s.sim_nondet_ok) {
        g.iters[base + static_cast<size_t>(s.fn)].push_back(&s);
      }
    }
    for (const ClassInfo& ci : fi.classes) {
      if (!ci.name.empty() && g.classes.count(ci.name) == 0) {
        g.classes[ci.name] = &ci;
      }
    }
    for (const GlobalInfo& gl : fi.globals) {
      if (g.globals.count(gl.name) == 0) {
        g.globals[gl.name] = &gl;
      }
    }
    g.unordered.insert(fi.unordered_names.begin(), fi.unordered_names.end());
  }

  // Context roots. Event-callback context: indexer-marked lambdas/functions
  // (schedule sinks, InlineCallback construction) plus the shard worker body.
  // Simulation context additionally covers the engine internals in src/sim —
  // everything there executes inside or between event dispatches.
  std::map<int, Reach> callback;
  for (size_t i = 0; i < g.fns.size(); ++i) {
    const FunctionInfo* f = g.fns[i];
    if (f->root == "callback" ||
        (f->short_name == "WorkerMain" && EndsWith(f->file, "sim/sharded_engine.cc"))) {
      callback[static_cast<int>(i)] = Reach{};
    }
  }
  Propagate(g, &callback);

  std::map<int, Reach> sim = callback;
  for (size_t i = 0; i < g.fns.size(); ++i) {
    if (StartsWith(g.fns[i]->file, "src/sim/") && sim.count(static_cast<int>(i)) == 0) {
      sim[static_cast<int>(i)] = Reach{};
    }
  }
  Propagate(g, &sim);

  for (const auto& [id, reach] : callback) {
    const FunctionInfo* f = g.fns[static_cast<size_t>(id)];
    for (const PrimitiveSite& p : f->primitives) {
      if (p.rule == "sim-nondet") {
        continue;  // evaluated under the (wider) simulation context below
      }
      if (!enabled(p.rule)) {
        continue;
      }
      if (p.rule == "cross-shard" && f->class_name == "ShardedEngine") {
        continue;  // the mailbox implementation IS the sanctioned path
      }
      if (p.rule == "guard-state" && StartsWith(f->file, "src/sim/")) {
        continue;  // the engine/ledger machinery cannot guard itself
      }
      add(f->file, p.line, p.rule,
          p.detail + (p.needs_reason ? "" : " reachable from event-callback context"),
          Chain(g, callback, id, "callback", p.detail, f->file, p.line));
    }
    // The event machinery in src/sim/ is exempt from guard-state: the engine's
    // own heap/pool containers and the AccessLedger's logs are what the
    // guards are *built from* — registering guards on them would be circular
    // (every guard touch mutates ledger state from callback context).
    if (enabled("guard-state") && !StartsWith(f->file, "src/sim/")) {
      for (const MutationSite& m : f->mutations) {
        if (m.global) {
          const auto git = g.globals.find(m.name);
          if (git == g.globals.end()) {
            continue;
          }
          if (git->second->suppressed && git->second->has_reason) {
            continue;
          }
          add(f->file, m.line, "guard-state",
              git->second->suppressed
                  ? "guard-ok suppression on global '" + m.name + "' requires a reason"
                  : "global container '" + m.name +
                        "' is mutated from callback context but is not registered with "
                        "sim::AccessGuard",
              Chain(g, callback, id, "callback", "mutation of global '" + m.name + "'",
                    f->file, m.line));
          continue;
        }
        const auto cit = g.classes.find(f->class_name);
        if (cit == g.classes.end()) {
          continue;
        }
        const ClassInfo* ci = cit->second;
        if (ci->has_access_guard) {
          continue;
        }
        const MemberInfo* mi = nullptr;
        for (const MemberInfo& cand : ci->container_members) {
          if (cand.name == m.name) {
            mi = &cand;
            break;
          }
        }
        if (mi == nullptr || (mi->suppressed && mi->has_reason)) {
          continue;
        }
        add(f->file, m.line, "guard-state",
            mi->suppressed
                ? "guard-ok suppression on '" + f->class_name + "::" + m.name +
                      "' requires a reason"
                : "mutable container '" + f->class_name + "::" + m.name +
                      "' is mutated from callback context but " + f->class_name +
                      " registers no sim::AccessGuard (add a guard member or suppress with "
                      "'// lint: guard-ok <reason>')",
            Chain(g, callback, id, "callback", "mutation of '" + m.name + "'", f->file,
                  m.line));
      }
    }
  }

  if (enabled("sim-nondet")) {
    for (const auto& [id, reach] : sim) {
      const FunctionInfo* f = g.fns[static_cast<size_t>(id)];
      const std::string context = callback.count(id) != 0 ? "callback" : "sim";
      const std::map<int, Reach>& reached = callback.count(id) != 0 ? callback : sim;
      for (const PrimitiveSite& p : f->primitives) {
        if (p.rule != "sim-nondet") {
          continue;
        }
        add(f->file, p.line, "sim-nondet", p.detail + " reachable from simulation context",
            Chain(g, reached, id, context, p.detail, f->file, p.line));
      }
      // A literal unordered type in a range expression is an iteration over
      // an unordered temporary: nondeterministic on the spot.
      for (const IterSite* it : g.iters[static_cast<size_t>(id)]) {
        for (const std::string& name : it->names) {
          std::string detail;
          if (it->call.empty() && UnorderedTypes().count(name) != 0) {
            detail = "iteration over an unordered temporary ('" + name + "')";
          } else if (g.unordered.count(name) != 0) {
            detail = "iteration over unordered container '" + name + "'";
          } else {
            continue;
          }
          add(f->file, it->line, "sim-nondet", detail + " reachable from simulation context",
              Chain(g, reached, id, context, detail, f->file, it->line));
        }
      }
    }
  }

  const auto by_site = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.rule != b.rule) {
      return a.rule < b.rule;
    }
    return a.message < b.message;
  };
  std::sort(context_findings.begin(), context_findings.end(), by_site);
  context_findings.erase(std::unique(context_findings.begin(), context_findings.end(),
                                     [](const Finding& a, const Finding& b) {
                                       return a.file == b.file && a.line == b.line &&
                                              a.rule == b.rule && a.message == b.message;
                                     }),
                         context_findings.end());
  findings.insert(findings.end(), context_findings.begin(), context_findings.end());
  std::sort(findings.begin(), findings.end(), by_site);
  return findings;
}

std::string FormatReport(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    for (const std::string& link : f.chain) {
      out << "    " << link << "\n";
    }
  }
  out << "coyote_analyze: " << findings.size() << " finding"
      << (findings.size() == 1 ? "" : "s") << "\n";
  return out.str();
}

}  // namespace analyze
}  // namespace coyote
