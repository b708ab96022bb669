// coyote-verify static analyzer: one tool, one index, two rule families.
//
// Per-file rules judge a file from its own tokens, one site at a time, and
// apply to every path given: nondet (ambient randomness and wall-clock
// reads), unordered-iter (hash-container iteration order), raw-alloc,
// blocking (sleeps, thread primitives), wall-clock (host clock reads in
// src/), header-guard and using-ns-header (headers), hot-copy (by-value
// payload parameters on the packet paths).
//
// Context rules close the gap between a line-at-a-time check and the
// runtime AccessGuard, which checks one execution at a time. They run on a
// function/method symbol table and call graph built from the files outside
// tests/ bench/ examples/ tools/ (harness code may sleep, print and seed
// from the clock, and indexing it would resolve harness calls into the
// simulator by name). The analyzer classifies *contexts* — which functions
// are event-callback bodies (passed to sim::Engine::ScheduleAt/ScheduleAfter
// or ShardedEngine::Post, or shard worker bodies) and which run in
// simulation context — propagates them transitively through the call graph,
// and enforces:
//
//   callback-blocking   nothing reachable from an event callback may block:
//                       no sleeps, no mutex/condvar acquisition, no IO, no
//                       fork/wait. A callback that blocks stalls its whole
//                       shard's window and couples simulated time to wall
//                       time.
//   sim-nondet          no nondeterminism source reachable from simulation
//                       context, however many calls deep: wall-clock reads,
//                       rand(), pointer hashing, unordered-container
//                       iteration.
//   cross-shard         callbacks touch other shards only through the
//                       ShardedEngine mailbox API (Post); reaching for
//                       another shard's Engine via shard()/ScheduleOn from
//                       callback context bypasses the merge-order contract.
//   guard-state         every mutable member/global container mutated from
//                       callback context belongs to a class that registers a
//                       sim::AccessGuard, or carries an explicit suppression
//                       *with a written reason* — the static mirror of the
//                       runtime race detector's state inventory.
//
// Context findings come with a full call-chain trace ("callback → A() → B()
// → std::unordered_map iteration"), so the report names not just the
// offending line but the path by which callback context reaches it. Every
// rule is suppressed with a `// lint: <tag>` comment at the reported site;
// for a context rule that is the *primitive* site (the deepest frame of the
// chain).
//
// The analyzer is heuristic by design: it is built on a token-level
// frontend (frontend.h), not a compiler. The function indexer understands
// namespaces, classes, out-of-line methods and lambdas; it does not do
// template instantiation or overload resolution, so calls resolve by name
// (same-class methods first, then free functions, then any method of that
// name — an over-approximation that errs toward flagging). The cases the
// heuristics get wrong are exactly what the per-site suppressions are for.

#ifndef TOOLS_COYOTE_ANALYZE_ANALYZE_H_
#define TOOLS_COYOTE_ANALYZE_ANALYZE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace coyote {
namespace analyze {

// One source file by (project-relative) path and content.
using SourceFile = std::pair<std::string, std::string>;

// --- Index entities ---------------------------------------------------------

struct Finding {
  std::string file;
  uint32_t line = 0;
  std::string rule;
  std::string message;
  // Interprocedural trace, outermost first: "<context> root F (file:line)",
  // then one entry per call edge, ending at the primitive. Empty for a
  // per-file rule.
  std::vector<std::string> chain;
  std::string ChainString() const;  // "callback → A() → B() → <detail>"
};

// A call site inside a function body. `qualifier` is the explicit `Q::name`
// scope if written; `member` is true for `obj.name(...)` / `obj->name(...)`.
struct CallSite {
  std::string name;
  std::string qualifier;
  uint32_t line = 0;
  bool member = false;
};

// A context-rule primitive found in a function body (a blocking call, a
// nondeterminism source, a cross-shard access, a static container). The
// primitive only becomes a finding when the enclosing function is reached by
// the context the rule guards, so collection is unconditional at index time.
// `needs_reason` marks a site whose suppression tag demands a justification
// but carried none.
struct PrimitiveSite {
  std::string rule;  // "callback-blocking" | "sim-nondet" | "cross-shard" | "guard-state"
  uint32_t line = 0;
  std::string detail;
  bool needs_reason = false;
};

// A container-iteration site: a range-for whose range expression names
// `names` (call ""), or `names[0].call()` for begin()/equal_range() and
// friends. Both iteration rules read it: unordered-iter every site,
// sim-nondet the sites inside function `fn` once that function runs in
// simulation context. Whether a name is unordered depends on the
// *project-wide* unordered-name table, so resolution happens at analyze
// time, after every file's declarations are merged.
struct IterSite {
  std::vector<std::string> names;  // never empty
  std::string call;
  uint32_t line = 0;
  int fn = -1;                 // index into FileIndex::functions; -1 outside any body
  bool ordered_ok = false;     // suppressed for unordered-iter
  bool sim_nondet_ok = false;  // suppressed for sim-nondet
};

// A mutation of a container member (`entries_.insert(...)`, `table_[k] = v`)
// or of a namespace-scope container. Checked against the guard-state
// inventory when the mutating function runs in callback context.
struct MutationSite {
  std::string name;
  uint32_t line = 0;
  bool global = false;
};

struct FunctionInfo {
  std::string name;        // qualified: coyote::sim::Engine::Step, ...::lambda@42
  std::string short_name;  // Step, lambda@42
  std::string class_name;  // enclosing class or out-of-line qualifier ("" = free)
  std::string file;
  uint32_t line = 0;
  bool is_lambda = false;
  // "" (plain), "callback" (event-callback root: lambda passed to a schedule
  // sink, InlineCallback construction, shard worker body).
  std::string root;
  std::vector<CallSite> calls;
  std::vector<PrimitiveSite> primitives;
  std::vector<MutationSite> mutations;
};

struct MemberInfo {
  std::string name;
  uint32_t line = 0;
  bool suppressed = false;    // carries `// lint: guard-ok ...`
  bool has_reason = false;    // ... with non-empty justification text
};

struct ClassInfo {
  std::string name;
  std::string file;
  uint32_t line = 0;
  bool has_access_guard = false;  // declares a sim::AccessGuard member
  std::vector<MemberInfo> container_members;
};

struct GlobalInfo {
  std::string name;
  uint32_t line = 0;
  bool suppressed = false;
  bool has_reason = false;
};

// Everything extracted from one file.
struct FileIndex {
  std::string path;
  std::vector<FunctionInfo> functions;
  std::vector<ClassInfo> classes;
  std::vector<GlobalInfo> globals;
  std::vector<std::string> unordered_names;  // unordered containers declared here
  std::vector<IterSite> iters;
  // Per-file rule findings, except unordered-iter: it needs the project-wide
  // unordered-name table, so Analyze judges it from `iters`.
  std::vector<Finding> findings;
};

struct Index {
  std::vector<FileIndex> files;
};

// --- Analysis ---------------------------------------------------------------

struct Options {
  // Empty: all rules. Otherwise only the listed rule ids run.
  std::vector<std::string> rules;
};

struct RuleInfo {
  std::string id;
  std::string suppression;
  std::string summary;
};

// The rule table: the per-file rules, then the context rules.
const std::vector<RuleInfo>& Rules();

// Indexes in-memory sources (lex, per-file rules, function/lambda
// extraction, call sites, primitives, class inventories).
Index BuildIndex(const std::vector<SourceFile>& files);

// Per-file findings, then call-graph assembly + context propagation +
// context-rule evaluation. Findings are deterministic: ordered by (file,
// line, rule, message).
std::vector<Finding> Analyze(const Index& index, const Options& options);

// Formats findings the way the CLI and the CI artifact print them: one
// `path:line: [rule] message` line followed by indented chain lines, then a
// `coyote_analyze: N finding(s)` summary. Stable across runs and machines.
std::string FormatReport(const std::vector<Finding>& findings);

// Convenience: read `relative_paths` under `root_dir` (frontend::ReadFiles)
// and index them.
Index IndexPaths(const std::string& root_dir, const std::vector<std::string>& relative_paths);

}  // namespace analyze
}  // namespace coyote

#endif  // TOOLS_COYOTE_ANALYZE_ANALYZE_H_
