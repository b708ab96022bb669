// coyote-verify frontend: the lexical layer under coyote_analyze.
//
// Every rule works from the same view of a C++ source file: a token stream
// with comments and literals stripped out, a per-line comment map (the
// suppression comments live there), and a statement-start map so that a
// suppression written above a statement also covers violations reported on
// the statement's continuation lines. A `// lint: <tag>` therefore means the
// same thing to a per-file rule and to a context rule.
//
// The frontend is deliberately not a compiler: it tokenizes, it does not
// build an AST. The analyzer layers its per-file rules and its function
// index and call graph on top of the token stream.

#ifndef TOOLS_COYOTE_ANALYZE_FRONTEND_H_
#define TOOLS_COYOTE_ANALYZE_FRONTEND_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace coyote {
namespace frontend {

enum class TokKind : uint8_t { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  TokKind kind;
  // Identifier / number / punctuation spelling. For kString tokens this is
  // the literal's *content* (quotes stripped, escapes left as written): the
  // analyzer cross-checks AccessGuard resource names against their
  // registration strings. kChar tokens carry no text.
  std::string text;
  uint32_t line;
};

struct LexedFile {
  std::vector<Token> tokens;
  // line -> concatenated comment text on that line (suppressions live here).
  std::map<uint32_t, std::string> comments;
  // line -> line on which the enclosing statement's first token sits.
  // Statements are delimited by `;` (at parenthesis depth 0), `{`, `}` and
  // preprocessor directives; a multi-line call expression maps every
  // continuation line back to its first line, which is what lets a
  // suppression comment above the statement cover the whole statement.
  std::map<uint32_t, uint32_t> stmt_start;
};

// One source file by (project-relative) path and content.
using SourceFile = std::pair<std::string, std::string>;

// Strips comments and literals, splits the rest into identifier / number /
// punctuation tokens. "::" and "->" are combined; everything else is
// single-character punctuation. Fills the comment and statement-start maps.
LexedFile Lex(const std::string& src);

// True when a finding at `line` is suppressed by a comment containing
// "lint:" and `tag` on that line, the line above, the first line of the
// enclosing statement, or the line above that (so suppressions keep working
// when the offending token sits on a continuation line).
bool Suppressed(const LexedFile& lexed, uint32_t line, const std::string& tag);

// Like Suppressed, but also returns the free text following the tag in the
// suppression comment (trimmed). Rules that demand a *justified* suppression
// (the analyzer's guard-state inventory) require this to be non-empty.
bool SuppressedWithReason(const LexedFile& lexed, uint32_t line, const std::string& tag,
                          std::string* reason);

// True when a comment in the file's leading comment block (before the first
// code token) carries "lint:" and `tag` — file-level annotations such as
// `// lint: host-boundary`. Mentions past the first code line are prose.
bool HasFileAnnotation(const LexedFile& lexed, const std::string& tag);

// --- Token helpers shared by the tools --------------------------------------

bool IsHeaderPath(const std::string& path);

inline const Token* Prev(const std::vector<Token>& toks, size_t i) {
  return i > 0 ? &toks[i - 1] : nullptr;
}
inline const Token* Next(const std::vector<Token>& toks, size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

bool PrevIsMemberAccess(const std::vector<Token>& toks, size_t i);

// C++ keywords that may legitimately precede a call expression (so `return
// rand()` is still a call, while `Type name(` is a declaration).
const std::set<std::string>& CallPrefixKeywords();

// Keywords that can never be function names in a call graph (control flow,
// cast-ish constructs).
const std::set<std::string>& NonCallKeywords();

// True when toks[i] looks like a call of a *free* function: followed by "(",
// not a member access, and not a declaration "Type name(".
bool LooksLikeCall(const std::vector<Token>& toks, size_t i);

// True when toks[*i] is the '#' of an `#include <...>` directive: `*name`
// gets the joined header name ("sys/time.h") and `*i` moves to the closing
// '>'.
bool AngleInclude(const std::vector<Token>& toks, size_t* i, std::string* name);

// --- Project walk ------------------------------------------------------------

// Walks `roots` (files or directories, relative to `root_dir`) collecting
// .h/.hpp/.cc/.cpp sources in sorted order. Skips build*/, CMakeFiles/,
// .git/, third_party/, and the lint_fixtures/ + analyzer_fixtures/ test-seed
// directories.
std::vector<std::string> CollectFiles(const std::string& root_dir,
                                      const std::vector<std::string>& roots);

// Reads `relative_paths` under `root_dir` into (path, content) pairs.
std::vector<SourceFile> ReadFiles(const std::string& root_dir,
                                  const std::vector<std::string>& relative_paths);

}  // namespace frontend
}  // namespace coyote

#endif  // TOOLS_COYOTE_ANALYZE_FRONTEND_H_
