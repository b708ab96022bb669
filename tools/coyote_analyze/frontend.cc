#include "tools/coyote_analyze/frontend.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace coyote {
namespace frontend {
namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Fills lexed->stmt_start: every line that carries tokens maps to the line of
// the first token of its enclosing statement. Statement breakers are `;` at
// parenthesis depth 0 (so a multi-line `for (...;...;...)` header stays one
// statement), `{`, `}`, and the end of a preprocessor directive (a `#`
// statement ends with its line).
void ComputeStatementStarts(LexedFile* lexed) {
  uint32_t stmt_begin = 0;
  bool in_directive = false;
  int paren_depth = 0;
  uint32_t prev_line = 0;
  for (const Token& t : lexed->tokens) {
    if (in_directive && t.line != prev_line) {
      in_directive = false;
      stmt_begin = 0;
    }
    if (stmt_begin == 0) {
      stmt_begin = t.line;
      paren_depth = 0;
    }
    lexed->stmt_start.emplace(t.line, stmt_begin);
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") {
        ++paren_depth;
      } else if (t.text == ")") {
        paren_depth = std::max(0, paren_depth - 1);
      } else if (t.text == "#") {
        in_directive = true;
        stmt_begin = t.line;
        lexed->stmt_start[t.line] = stmt_begin;
      } else if ((t.text == ";" && paren_depth == 0) || t.text == "{" || t.text == "}") {
        stmt_begin = 0;  // next token opens a new statement
      }
    }
    prev_line = t.line;
  }
}

}  // namespace

LexedFile Lex(const std::string& src) {
  LexedFile out;
  uint32_t line = 1;
  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t start = i;
      while (i < n && src[i] != '\n') {
        ++i;
      }
      out.comments[line] += src.substr(start, i - start);
      continue;
    }
    // Block comment (text attributed to every line it spans).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      std::string text;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          out.comments[line] += text;
          text.clear();
          ++line;
        } else {
          text += src[i];
        }
        ++i;
      }
      out.comments[line] += text;
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') {
        delim += src[j++];
      }
      const std::string close = ")" + delim + "\"";
      const size_t end = src.find(close, j);
      const size_t stop = (end == std::string::npos) ? n : end + close.size();
      const size_t body = j + 1;
      const std::string content =
          (end == std::string::npos || end < body) ? "" : src.substr(body, end - body);
      for (size_t k = i; k < stop; ++k) {
        if (src[k] == '\n') {
          ++line;
        }
      }
      out.tokens.push_back({TokKind::kString, content, line});
      i = stop;
      continue;
    }
    // String / char literal. String content is retained (the analyzer checks
    // AccessGuard registration names); char literals carry no text.
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) {
          ++j;
        }
        if (src[j] == '\n') {
          ++line;
        }
        ++j;
      }
      out.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                            quote == '"' ? src.substr(i + 1, j - i - 1) : std::string(), line});
      i = j + 1;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) {
        ++j;
      }
      out.tokens.push_back({TokKind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.' || src[j] == '\'')) {
        ++j;
      }
      out.tokens.push_back({TokKind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; combine "::" and "->".
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  ComputeStatementStarts(&out);
  return out;
}

namespace {

// The candidate lines a suppression for a finding at `line` may sit on: the
// line itself, the line above, and — when the finding sits on a continuation
// line of a multi-line statement — the statement's first line and the line
// above that.
std::vector<uint32_t> SuppressionLines(const LexedFile& lexed, uint32_t line) {
  std::vector<uint32_t> lines = {line};
  if (line > 1) {
    lines.push_back(line - 1);
  }
  auto it = lexed.stmt_start.find(line);
  if (it != lexed.stmt_start.end() && it->second != line) {
    lines.push_back(it->second);
    if (it->second > 1) {
      lines.push_back(it->second - 1);
    }
  }
  return lines;
}

bool CommentHasTag(const std::string& comment, const std::string& tag) {
  return comment.find("lint:") != std::string::npos && comment.find(tag) != std::string::npos;
}

}  // namespace

bool Suppressed(const LexedFile& lexed, uint32_t line, const std::string& tag) {
  for (uint32_t l : SuppressionLines(lexed, line)) {
    auto it = lexed.comments.find(l);
    if (it != lexed.comments.end() && CommentHasTag(it->second, tag)) {
      return true;
    }
  }
  return false;
}

bool SuppressedWithReason(const LexedFile& lexed, uint32_t line, const std::string& tag,
                          std::string* reason) {
  for (uint32_t l : SuppressionLines(lexed, line)) {
    auto it = lexed.comments.find(l);
    if (it == lexed.comments.end() || !CommentHasTag(it->second, tag)) {
      continue;
    }
    std::string text = it->second.substr(it->second.find(tag) + tag.size());
    // Trim separators and whitespace off both ends.
    const auto is_sep = [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) || c == ':' || c == '-' || c == ',' ||
             static_cast<unsigned char>(c) >= 0x80;  // em-dash bytes
    };
    size_t b = 0;
    while (b < text.size() && is_sep(text[b])) {
      ++b;
    }
    size_t e = text.size();
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
      --e;
    }
    *reason = text.substr(b, e - b);
    return true;
  }
  return false;
}

bool HasFileAnnotation(const LexedFile& lexed, const std::string& tag) {
  // File-level annotations live in the leading comment block, before the
  // first code token — a tag mentioned in prose deeper in the file (rule
  // documentation, a fixture describing the syntax) must not annotate it.
  const uint32_t first_code_line = lexed.tokens.empty() ? ~0u : lexed.tokens.front().line;
  for (const auto& [line, comment] : lexed.comments) {
    if (line > first_code_line) {
      break;
    }
    if (CommentHasTag(comment, tag)) {
      return true;
    }
  }
  return false;
}

bool IsHeaderPath(const std::string& path) {
  return path.size() > 2 &&
         (path.rfind(".h") == path.size() - 2 || path.rfind(".hpp") == path.size() - 4);
}

bool PrevIsMemberAccess(const std::vector<Token>& toks, size_t i) {
  const Token* p = Prev(toks, i);
  return p != nullptr && p->kind == TokKind::kPunct && (p->text == "." || p->text == "->");
}

const std::set<std::string>& CallPrefixKeywords() {
  static const std::set<std::string> kw = {"return",   "if",    "while", "for",     "do",
                                           "else",     "case",  "co_return", "switch",
                                           "not",      "and",   "or",    "co_await"};
  return kw;
}

const std::set<std::string>& NonCallKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",    "switch",  "catch",     "return", "sizeof",
      "alignof", "alignas", "decltype", "static_assert",        "new",    "delete",
      "typeid", "noexcept", "assert",   "defined", "co_await",  "co_return", "co_yield",
      "static_cast", "dynamic_cast",    "const_cast",           "reinterpret_cast"};
  return kw;
}

bool LooksLikeCall(const std::vector<Token>& toks, size_t i) {
  const Token* nx = Next(toks, i);
  if (nx == nullptr || nx->text != "(") {
    return false;
  }
  if (PrevIsMemberAccess(toks, i)) {
    return false;
  }
  const Token* p = Prev(toks, i);
  if (p != nullptr && p->kind == TokKind::kIdent && CallPrefixKeywords().count(p->text) == 0) {
    return false;  // "Type name(...)" declaration, not a call
  }
  return true;
}

bool AngleInclude(const std::vector<Token>& toks, size_t* i, std::string* name) {
  if (toks[*i].kind != TokKind::kPunct || toks[*i].text != "#" || *i + 2 >= toks.size() ||
      toks[*i + 1].text != "include" || toks[*i + 2].text != "<") {
    return false;
  }
  name->clear();
  size_t j = *i + 3;
  while (j < toks.size() && toks[j].text != ">") {
    *name += toks[j].text;
    ++j;
  }
  *i = j;
  return true;
}

std::vector<std::string> CollectFiles(const std::string& root_dir,
                                      const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cc", ".cpp"};
  const auto skip_dir = [](const std::string& name) {
    return name.rfind("build", 0) == 0 || name == "CMakeFiles" || name == "lint_fixtures" ||
           name == "analyzer_fixtures" || name == "third_party" ||
           (!name.empty() && name[0] == '.');
  };

  std::vector<std::string> out;
  const fs::path base(root_dir);
  for (const std::string& root : roots) {
    const fs::path p = base / root;
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      out.push_back(root);
      continue;
    }
    if (!fs::is_directory(p, ec)) {
      continue;
    }
    fs::recursive_directory_iterator it(p, fs::directory_options::skip_permission_denied, ec);
    for (; it != fs::recursive_directory_iterator(); it.increment(ec)) {
      const fs::path& entry = it->path();
      if (it->is_directory(ec)) {
        if (skip_dir(entry.filename().string())) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (kExtensions.count(entry.extension().string()) != 0) {
        out.push_back(fs::relative(entry, base, ec).generic_string());
      }
    }
  }
  // Directory iteration order is unspecified; sort for deterministic reports.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<SourceFile> ReadFiles(const std::string& root_dir,
                                  const std::vector<std::string>& relative_paths) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  files.reserve(relative_paths.size());
  for (const std::string& rel : relative_paths) {
    std::ifstream in(fs::path(root_dir) / rel, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    files.emplace_back(rel, content.str());
  }
  return files;
}

}  // namespace frontend
}  // namespace coyote
