// Tests for the coyote-verify static analyzer (tools/coyote_analyze).
//
// Per-file rules: fixture files on disk (tests/lint_fixtures/, excluded from
// the repo-wide walk) prove each rule fires on realistic bad code and that
// the per-rule suppression comments silence it; in-memory sources pin down
// the trickier tokenizer behaviors (comments, strings, member access, the
// project-wide unordered-name symbol table).
//
// Context rules: seeded fixture files (tests/analyzer_fixtures/) prove each
// rule class fires *through* helper frames and reports the correct
// call-chain trace; a golden clean-repo test pins the repo-wide report the
// analyze_repo gate and CI artifact rely on; in-memory sources pin down a
// callback's direct blocking call, braced-list range-fors and primitive-site
// suppressions.
//
// The fixture helpers (LintFixture/LintSnippet, AnalyzeFixture) narrow to
// their own rule family with Options::rules, so a fixture seeded for one
// family is judged by that family alone.

#include "tools/coyote_analyze/analyze.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/coyote_analyze/frontend.h"

namespace coyote {
namespace analyze {
namespace {

#ifndef LINT_FIXTURE_DIR
#error "LINT_FIXTURE_DIR must be defined by the build"
#endif
#ifndef ANALYZER_FIXTURE_DIR
#error "ANALYZER_FIXTURE_DIR must be defined by the build"
#endif
#ifndef PROJECT_SOURCE_DIR
#error "PROJECT_SOURCE_DIR must be defined by the build"
#endif

using frontend::CollectFiles;

const Options kFileRules{{"nondet", "unordered-iter", "raw-alloc", "blocking", "wall-clock",
                          "header-guard", "using-ns-header", "hot-copy"}};
const Options kContextRules{{"callback-blocking", "sim-nondet", "cross-shard", "guard-state"}};

// ===========================================================================
// Per-file rules
// ===========================================================================

// All per-file rules unless `options` names its own.
std::vector<Finding> LintProject(const std::vector<SourceFile>& files, const Options& options) {
  return Analyze(BuildIndex(files), options.rules.empty() ? kFileRules : options);
}

std::vector<Finding> LintPaths(const std::string& root_dir,
                               const std::vector<std::string>& relative_paths,
                               const Options& options) {
  return Analyze(IndexPaths(root_dir, relative_paths),
                 options.rules.empty() ? kFileRules : options);
}

std::vector<Finding> LintFixture(const std::string& name) {
  return LintPaths(LINT_FIXTURE_DIR, {name}, Options{});
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&rule](const Finding& f) { return f.rule == rule; });
}

bool HasRuleAtLine(const std::vector<Finding>& findings, const std::string& rule,
                   uint32_t line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

std::vector<Finding> LintSnippet(const std::string& path, const std::string& content) {
  return LintProject({{path, content}}, Options{});
}

TEST(LintFixtures, NondetRuleFiresOnEveryBannedForm) {
  const auto findings = LintFixture("bad_nondet.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 4));   // #include <random>
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 7));   // std::random_device
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 8));   // std::mt19937
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 13));  // srand
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 14));  // rand
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 18));  // time(nullptr)
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 22));  // getenv
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "nondet") << f.file << ":" << f.line << " " << f.message;
  }
}

TEST(LintFixtures, UnorderedIterRuleFiresOnRangeForAndBegin) {
  const auto findings = LintFixture("bad_unordered.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 10));  // range-for
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 18));  // members.begin()
}

TEST(LintFixtures, UnorderedIterRuleFiresOnTemporaries) {
  const auto findings = LintFixture("bad_unordered_temp.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 12));  // MakeUnorderedSet()
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 20));  // BorrowUnorderedSet() (by-ref)
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 28));  // inline unordered_set{...}
}

TEST(LintFixtures, SuppressionAboveMultiLineStatementIsHonored) {
  // The flagged tokens sit on continuation lines; the comment above the
  // statement's first line must still cover them.
  EXPECT_TRUE(LintFixture("suppressed_multiline.cc").empty());
}

TEST(LintFixtures, WallClockRuleFiresInSimulatorSources) {
  const auto findings = LintFixture("src/bad_wall_clock.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "wall-clock", 8));   // steady_clock::now()
  EXPECT_TRUE(HasRuleAtLine(findings, "wall-clock", 13));  // system_clock::now()
  EXPECT_TRUE(HasRuleAtLine(findings, "wall-clock", 17));  // sleep_for
}

TEST(LintFixtures, WallClockRuleIgnoresNonSrcPaths) {
  // Identical content outside src/: bench/tests own their wall-clock policy.
  const auto findings =
      LintSnippet("bench/timing.cc", "long Now() {\n"
                                     "  return std::chrono::steady_clock::now()\n"
                                     "      .time_since_epoch().count();\n"
                                     "}\n");
  EXPECT_FALSE(HasRule(findings, "wall-clock"));
}

TEST(LintFixtures, HostBoundaryAnnotationDisablesWallClock) {
  EXPECT_FALSE(HasRule(LintFixture("src/host_boundary_ok.cc"), "wall-clock"));
}

TEST(LintFixtures, RawAllocRuleFiresOnNewAndDelete) {
  const auto findings = LintFixture("bad_alloc.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "raw-alloc", 3));  // new
  EXPECT_TRUE(HasRuleAtLine(findings, "raw-alloc", 8));  // delete
}

TEST(LintFixtures, BlockingRuleFiresOnSleepSystemAndThreadInclude) {
  const auto findings = LintFixture("bad_blocking.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "blocking", 2));  // #include <thread>
  EXPECT_TRUE(HasRuleAtLine(findings, "blocking", 5));  // sleep_for
  EXPECT_TRUE(HasRuleAtLine(findings, "blocking", 9));  // system
}

TEST(LintFixtures, HeaderRulesFireOnBadHeader) {
  const auto findings = LintFixture("bad_header.h");
  EXPECT_TRUE(HasRule(findings, "header-guard"));    // non-canonical guard name
  EXPECT_TRUE(HasRule(findings, "using-ns-header"));  // using namespace std
}

TEST(LintFixtures, HeaderGuardRuleFiresOnMissingGuard) {
  const auto findings = LintFixture("bad_header_missing.h");
  EXPECT_TRUE(HasRule(findings, "header-guard"));
}

TEST(LintFixtures, SuppressionCommentsSilenceEveryRule) {
  EXPECT_TRUE(LintFixture("suppressed_ok.cc").empty());
}

TEST(LintFixtures, CleanCodeProducesNoFindings) {
  EXPECT_TRUE(LintFixture("clean.cc").empty());
}

TEST(LintFixtures, RuleFilterRunsOnlySelectedRules) {
  Options only_alloc;
  only_alloc.rules = {"raw-alloc"};
  const auto findings = LintPaths(LINT_FIXTURE_DIR, {"bad_nondet.cc", "bad_alloc.cc"},
                                  only_alloc);
  EXPECT_FALSE(findings.empty());
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "raw-alloc");
  }
}

// --- Tokenizer behaviors -----------------------------------------------------

TEST(LintTokenizer, CommentsAndStringsAreNotCode) {
  const auto findings = LintSnippet("t.cc",
                                    "// rand() in a comment\n"
                                    "/* srand(1); time(nullptr); */\n"
                                    "const char* s = \"rand() getenv\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, MemberAccessIsNotACall) {
  // Engine events carry a `.time` field; member access must not trip the
  // wall-clock ban, and a declaration `Type rand(` is not a call either.
  const auto findings = LintSnippet("t.cc",
                                    "struct Ev { long time; };\n"
                                    "long F(Ev e) { return e.time; }\n"
                                    "long G(Ev* e) { return e->time; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, StdQualifiedCallIsStillACall) {
  const auto findings = LintSnippet("t.cc", "long F() { return std::time(nullptr); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet");
}

TEST(LintTokenizer, DeletedFunctionsAreNotRawDelete) {
  const auto findings = LintSnippet("t.h",
                                    "#ifndef T_H_\n#define T_H_\n"
                                    "struct S {\n"
                                    "  S(const S&) = delete;\n"
                                    "  S& operator=(const S&) = delete;\n"
                                    "};\n"
                                    "#endif  // T_H_\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSymbols, UnorderedNamesAreCollectedAcrossFiles) {
  // Declaration in one file (a header), iteration in another: the symbol
  // table is project-wide, mirroring member declarations in .h files used by
  // the .cc that iterates them.
  const std::vector<SourceFile> files = {
      {"s.h",
       "#ifndef S_H_\n#define S_H_\n#include <unordered_map>\n"
       "struct S { std::unordered_map<int, int> lookup_; };\n"
       "#endif  // S_H_\n"},
      {"s.cc",
       "#include \"s.h\"\n"
       "int Sum(S& s) { int n = 0; for (auto& [k, v] : s.lookup_) n += v; return n; }\n"}};
  const auto findings = LintProject(files, Options{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].file, "s.cc");
}

TEST(LintSymbols, OrderedMapIterationIsFine) {
  const auto findings = LintSnippet(
      "t.cc",
      "#include <map>\nint F() { std::map<int, int> m; int n = 0;\n"
      "for (auto& [k, v] : m) n += v; return n; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtures, HotCopyRuleFiresOnByValuePayloadParams) {
  const auto findings = LintFixture("src/net/bad_hotcopy.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "hot-copy", 9));   // StreamPacket by value
  EXPECT_TRUE(HasRuleAtLine(findings, "hot-copy", 10));  // vector<uint8_t> by value
  EXPECT_TRUE(HasRuleAtLine(findings, "hot-copy", 11));  // const-value still copies
  // Everything else in the fixture — refs, moves, pointers, return types,
  // members, locals, constructor calls, the suppressed sink — is clean.
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "hot-copy") << f.file << ":" << f.line;
    EXPECT_LE(f.line, 11u) << f.file << ":" << f.line << " " << f.message;
  }
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintRules, HotCopyOnlyAppliesToHotPathDirectories) {
  // The same by-value signature outside src/{axi,dyn,net,memsys} is not the
  // lint's business: cold paths may copy for clarity.
  const std::string source =
      "struct StreamPacket { int x; };\n"
      "void Deliver(StreamPacket pkt);\n";
  EXPECT_TRUE(LintSnippet("src/runtime/cold.cc", source).empty());
  EXPECT_TRUE(LintSnippet("tests/some_test.cc", source).empty());
  EXPECT_EQ(LintSnippet("src/net/hot.cc", source).size(), 1u);
  EXPECT_EQ(LintSnippet("src/memsys/hot.cc", source).size(), 1u);
}

TEST(LintRules, RuleTableExposesSuppressionsForEveryRule) {
  const auto& rules = Rules();
  ASSERT_GE(rules.size(), 6u);
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.suppression.empty()) << rule.id;
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
  }
}

TEST(LintWalk, CollectSkipsFixtureAndBuildDirectories) {
  // Walking the real tests/ directory must not pick up lint_fixtures/.
  const auto files = CollectFiles(PROJECT_SOURCE_DIR, {"tests"});
  EXPECT_FALSE(files.empty());
  for (const auto& f : files) {
    EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
    EXPECT_EQ(f.find("CMakeFiles"), std::string::npos) << f;
  }
}

TEST(LintRepo, WholeTreeIsClean) {
  // The per-file half of the analyze_repo gate, in-process: src/, tests/,
  // bench/, examples/ and the analyzer itself produce zero findings.
  const auto files = CollectFiles(PROJECT_SOURCE_DIR,
                                  {"src", "tests", "bench", "examples", "tools"});
  ASSERT_GT(files.size(), 100u);
  const auto findings = LintPaths(PROJECT_SOURCE_DIR, files, Options{});
  for (const auto& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  }
}

// ===========================================================================
// Context rules
// ===========================================================================

std::vector<Finding> AnalyzeFixture(const std::string& name) {
  const Index index = IndexPaths(ANALYZER_FIXTURE_DIR, {name});
  return Analyze(index, kContextRules);
}

const Finding* FindAtLine(const std::vector<Finding>& findings, const std::string& rule,
                          uint32_t line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.line == line) {
      return &f;
    }
  }
  return nullptr;
}

bool AnyAtLine(const std::vector<Finding>& findings, uint32_t line) {
  return std::any_of(findings.begin(), findings.end(),
                     [line](const Finding& f) { return f.line == line; });
}

bool ChainContains(const Finding& f, const std::string& needle) {
  return f.ChainString().find(needle) != std::string::npos;
}

// --- Rule fixtures: detection with correct interprocedural traces -----------

TEST(AnalyzerFixtures, BlockingViaHelperIsTracedThreeFramesDeep) {
  const auto findings = AnalyzeFixture("blocking_via_helper.cc");
  const Finding* f = FindAtLine(findings, "callback-blocking", 15);
  ASSERT_NE(f, nullptr) << FormatReport(findings);
  EXPECT_NE(f->message.find("'sleep_for()' blocks"), std::string::npos) << f->message;
  // callback root lambda -> Commit -> FlushToDisk -> sleep_for: four links.
  ASSERT_EQ(f->chain.size(), 4u) << f->ChainString();
  EXPECT_NE(f->chain[0].find("callback root"), std::string::npos) << f->chain[0];
  EXPECT_NE(f->chain[0].find("lambda@25"), std::string::npos) << f->chain[0];
  EXPECT_NE(f->chain[1].find("Commit"), std::string::npos) << f->chain[1];
  EXPECT_NE(f->chain[2].find("FlushToDisk"), std::string::npos) << f->chain[2];
  EXPECT_NE(f->chain[3].find("sleep_for"), std::string::npos) << f->chain[3];
}

TEST(AnalyzerFixtures, NondetIsFoundThreeCallsDeep) {
  const auto findings = AnalyzeFixture("nondet_two_deep.cc");
  const Finding* rand_f = FindAtLine(findings, "sim-nondet", 22);
  ASSERT_NE(rand_f, nullptr) << FormatReport(findings);
  EXPECT_NE(rand_f->message.find("'rand()' nondeterministic call"), std::string::npos)
      << rand_f->message;
  // lambda -> Draw -> Reseed -> rand(): the primitive is three calls from the
  // root, which is exactly what a line-at-a-time lint cannot see.
  EXPECT_TRUE(ChainContains(*rand_f, "Draw")) << rand_f->ChainString();
  EXPECT_TRUE(ChainContains(*rand_f, "Reseed")) << rand_f->ChainString();

  const Finding* iter_f = FindAtLine(findings, "sim-nondet", 15);
  ASSERT_NE(iter_f, nullptr) << FormatReport(findings);
  EXPECT_NE(iter_f->message.find("unordered container 'table_'"), std::string::npos)
      << iter_f->message;
  EXPECT_TRUE(ChainContains(*iter_f, "Sum")) << iter_f->ChainString();
}

TEST(AnalyzerFixtures, UnguardedStateInventoryChecksGuardsAndReasons) {
  const auto findings = AnalyzeFixture("unguarded_state.cc");
  // FlowTable registers no guard: flagged.
  const Finding* unguarded = FindAtLine(findings, "guard-state", 12);
  ASSERT_NE(unguarded, nullptr) << FormatReport(findings);
  EXPECT_NE(unguarded->message.find("FlowTable::rows_"), std::string::npos)
      << unguarded->message;
  EXPECT_NE(unguarded->message.find("registers no sim::AccessGuard"), std::string::npos)
      << unguarded->message;
  EXPECT_TRUE(ChainContains(*unguarded, "Record")) << unguarded->ChainString();
  // ScratchPad suppresses without a reason: still flagged, asking for one.
  const Finding* no_reason = FindAtLine(findings, "guard-state", 20);
  ASSERT_NE(no_reason, nullptr) << FormatReport(findings);
  EXPECT_NE(no_reason->message.find("requires a reason"), std::string::npos)
      << no_reason->message;
  // AuditLog suppresses with a written reason: clean.
  EXPECT_FALSE(AnyAtLine(findings, 29)) << FormatReport(findings);
}

TEST(AnalyzerFixtures, CrossShardDirectAccessFlaggedMailboxAllowed) {
  const auto findings = AnalyzeFixture("cross_shard.cc");
  const Finding* shard_f = FindAtLine(findings, "cross-shard", 18);
  ASSERT_NE(shard_f, nullptr) << FormatReport(findings);
  EXPECT_NE(shard_f->message.find("'.shard()'"), std::string::npos) << shard_f->message;
  EXPECT_TRUE(ChainContains(*shard_f, "StealWork")) << shard_f->ChainString();
  const Finding* schedule_on_f = FindAtLine(findings, "cross-shard", 22);
  ASSERT_NE(schedule_on_f, nullptr) << FormatReport(findings);
  EXPECT_TRUE(ChainContains(*schedule_on_f, "MirrorEvent")) << schedule_on_f->ChainString();
  // ForwardEvent goes through Post — the sanctioned mailbox path stays clean.
  EXPECT_FALSE(AnyAtLine(findings, 26)) << FormatReport(findings);
}

TEST(AnalyzerFixtures, OrchestratorContextGuardsStateMapsAndMailboxOnly) {
  const auto findings = AnalyzeFixture("orchestrator_ctx.cc");
  // The bolt-on ledger mutates from the heartbeat callback with no guard.
  const Finding* ledger = FindAtLine(findings, "guard-state", 54);
  ASSERT_NE(ledger, nullptr) << FormatReport(findings);
  EXPECT_NE(ledger->message.find("EvacLedger::pending_"), std::string::npos)
      << ledger->message;
  EXPECT_TRUE(ChainContains(*ledger, "ArmControlPlane")) << ledger->ChainString();
  EXPECT_TRUE(ChainContains(*ledger, "Record")) << ledger->ChainString();
  // The rebalance helper bypasses the mailbox with .shard().
  const Finding* drain = FindAtLine(findings, "cross-shard", 63);
  ASSERT_NE(drain, nullptr) << FormatReport(findings);
  EXPECT_TRUE(ChainContains(*drain, "Drain")) << drain->ChainString();
  // The control plane's own state maps register an AccessGuard member: both
  // handler mutations are clean, as is the sanctioned Post forward.
  EXPECT_FALSE(AnyAtLine(findings, 37)) << FormatReport(findings);
  EXPECT_FALSE(AnyAtLine(findings, 41)) << FormatReport(findings);
  EXPECT_FALSE(AnyAtLine(findings, 67)) << FormatReport(findings);
  EXPECT_EQ(findings.size(), 2u) << FormatReport(findings);
}

TEST(AnalyzerFixtures, TieringContextFlagsUnguardedHeatSamplerOnly) {
  const auto findings = AnalyzeFixture("tiering_ctx.cc");
  // The bolt-on sampler mutates from the epoch-tick callback with no guard.
  const Finding* sampler = FindAtLine(findings, "guard-state", 47);
  ASSERT_NE(sampler, nullptr) << FormatReport(findings);
  EXPECT_NE(sampler->message.find("HeatSampler::samples_"), std::string::npos)
      << sampler->message;
  EXPECT_TRUE(ChainContains(*sampler, "ArmTiering")) << sampler->ChainString();
  EXPECT_TRUE(ChainContains(*sampler, "Sample")) << sampler->ChainString();
  // The tiering service's own heat-table mutations are covered by its
  // registered AccessGuard: both the access-stream and decay writes are clean.
  EXPECT_FALSE(AnyAtLine(findings, 29)) << FormatReport(findings);
  EXPECT_FALSE(AnyAtLine(findings, 34)) << FormatReport(findings);
  EXPECT_EQ(findings.size(), 1u) << FormatReport(findings);
}

// --- Golden clean reports ---------------------------------------------------

TEST(AnalyzerFixtures, CleanFixtureProducesTheGoldenEmptyReport) {
  const auto findings = AnalyzeFixture("clean.cc");
  EXPECT_EQ(FormatReport(findings), "coyote_analyze: 0 findings\n");
}

TEST(AnalyzerRepo, WholeRepoSrcIsCleanAndReportIsStable) {
  // All twelve rules over the simulator sources the context rules judge (the
  // analyze_repo gate and the CI artifact add the harness roots). Every real
  // violation in src/ is either fixed or carries a reasoned suppression, so
  // the report is byte-stable: the golden empty report.
  const auto files = frontend::CollectFiles(PROJECT_SOURCE_DIR, {"src"});
  ASSERT_FALSE(files.empty());
  const Index index = IndexPaths(PROJECT_SOURCE_DIR, files);
  const auto findings = Analyze(index, Options{});
  EXPECT_EQ(FormatReport(findings), "coyote_analyze: 0 findings\n") << FormatReport(findings);
}

// --- In-memory sources -------------------------------------------------------

const char kSinkDecl[] =
    "class E {\n public:\n  void ScheduleAt(long when, void (*fn)());\n};\n";

TEST(AnalyzerInMemory, BlockingCallInACallbackLambdaIsOneFinding) {
  const std::vector<SourceFile> files = {
      {"alpha.cc", std::string(kSinkDecl) + "void Arm(E& e) { e.ScheduleAt(1, [] { usleep(5); }); }\n"}};
  const auto findings = Analyze(BuildIndex(files), kContextRules);
  ASSERT_EQ(findings.size(), 1u) << FormatReport(findings);
  EXPECT_EQ(findings[0].rule, "callback-blocking");
}

// A range-for over a braced list names no container, so it is no iteration
// site; the loops after it and in the next file still are.
TEST(AnalyzerInMemory, LiteralListLoopIsSkippedAndTheLoopsAfterItAreNot) {
  const std::vector<SourceFile> files = {
      {"src/sim/alpha.cc",
       "std::unordered_map<int, int> table;\n"
       "int Sum() {\n"
       "  int s = 0;\n"
       "  for (int n : {1, 2}) { s += n; }\n"
       "  for (const auto& kv : table) { s += kv.second; }\n"
       "  return s;\n"
       "}\n"},
      {"src/sim/beta.cc", "void Beta(std::unordered_set<int>& u) { for (int x : u) { Use(x); } }\n"}};
  const auto findings = Analyze(BuildIndex(files), Options{});
  ASSERT_EQ(findings.size(), 4u) << FormatReport(findings);
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 5)) << FormatReport(findings);
  EXPECT_TRUE(HasRuleAtLine(findings, "sim-nondet", 5)) << FormatReport(findings);
}

// --- Suppressions at the primitive site -------------------------------------

TEST(AnalyzerSuppression, PrimitiveSiteTagSilencesTheWholeChain) {
  const std::vector<SourceFile> files = {
      {"alpha.cc", std::string(kSinkDecl) +
                       "void Helper() {\n"
                       "  usleep(5);  // lint: callback-blocking-ok boot-time settle\n"
                       "}\n"
                       "void Arm(E& e) { e.ScheduleAt(1, [] { Helper(); }); }\n"}};
  const auto findings = Analyze(BuildIndex(files), Options{});
  EXPECT_TRUE(findings.empty()) << FormatReport(findings);
}

TEST(AnalyzerSuppression, RuleFilterRunsOnlySelectedRules) {
  const std::vector<SourceFile> files = {
      {"alpha.cc", std::string(kSinkDecl) +
                       "void Arm(E& e) { e.ScheduleAt(1, [] { usleep(5); rand(); }); }\n"}};
  const Index index = BuildIndex(files);
  Options only_nondet;
  only_nondet.rules = {"sim-nondet"};
  const auto findings = Analyze(index, only_nondet);
  ASSERT_EQ(findings.size(), 1u) << FormatReport(findings);
  EXPECT_EQ(findings[0].rule, "sim-nondet");
}

TEST(AnalyzerRules, AllFourRulesAreRegisteredWithSuppressions) {
  std::vector<std::string> ids;
  for (const RuleInfo& r : Rules()) {
    ids.push_back(r.id);
    EXPECT_FALSE(r.suppression.empty()) << r.id;
  }
  const std::vector<std::string> expected = {"callback-blocking", "sim-nondet", "cross-shard",
                                             "guard-state"};
  for (const std::string& id : expected) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

}  // namespace
}  // namespace analyze
}  // namespace coyote
