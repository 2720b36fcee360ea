/**
 * @file
 * dolos_lint — static checker for the persist-domain crash-state
 * model and repository-wide allocation/threading/determinism hygiene.
 *
 * Self-contained (no compiler front end): a small C++ tokenizer plus
 * purpose-built scanners. Checks:
 *
 *  manifest      stateManifest() is the one declaration of a
 *                field's crash kind. A class that defines it is a
 *                state class: every data member is registered
 *                (DOLOS_MF_* or raw add()) exactly once, every
 *                registered name is a real data member, and the
 *                crash-relevant core classes all define one.
 *  raw-alloc     No raw new/malloc/calloc/realloc outside approved
 *                files (arena types own allocation; everything else
 *                uses std:: containers and smart pointers).
 *  thread-shared Every mutable namespace-scope or function-local
 *                static variable is thread_local or carries a
 *                DOLOS_THREAD_SHARED(lock) / DOLOS_THREAD_LOCAL_OK
 *                annotation (sim/thread_annotations.hh) — the audit
 *                the parallel sweep lanes (--jobs N) rest on.
 *  crash-cover   The enum class Step taxonomy (sim/crash_points.hh)
 *                and the DOLOS_CRASH_POINT hook sites cover each
 *                other: every registered step has >= 1 hook (the
 *                build already rejects a hook naming an unknown
 *                step), and persistent-state mutations inside
 *                drain/flush functions sit within one statement of a
 *                hook (keeps the microstep sweep exhaustive as new
 *                levers land).
 *  determinism   No rand()/srand()/time()/std random engines (the
 *                seeded sim/random.hh streams are the only sanctioned
 *                RNG) and no range-for over unordered containers
 *                (iteration order must never feed sim state).
 *
 * Suppress one finding with a trailing comment on the same line:
 *   // dolos-lint: allow(raw-alloc)
 *
 * Usage: dolos_lint [--list-checks] [--only A,B] [--skip A,B] PATH...
 * (files, or directories searched recursively for .hh/.cc/.cpp).
 * Exit 0 clean, 1 violations found, 2 usage/IO error. Diagnostics
 * are file:line: [check] message. The check registry printed by
 * --list-checks must match docs/static_analysis.md's table — the
 * lint_checks_doc ctest enforces it.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/thread_annotations.hh"

namespace
{

namespace fs = std::filesystem;

// --- check registry -------------------------------------------------
//
// One row per check family. --list-checks prints this table; the
// lint_checks_doc ctest asserts it matches docs/static_analysis.md's
// check table, so a new check cannot land undocumented.

struct CheckDef
{
    const char *name;
    const char *summary;
};

constexpr CheckDef g_checkTable[] = {
    {"manifest",
     "stateManifest() registers every data member of its class "
     "exactly once and nothing else; the crash-relevant classes all "
     "define one"},
    {"raw-alloc",
     "no raw new/malloc/calloc/realloc outside approved files"},
    {"thread-shared",
     "mutable namespace-scope / static-local state is thread_local "
     "or carries DOLOS_THREAD_SHARED / DOLOS_THREAD_LOCAL_OK"},
    {"crash-cover",
     "every Step has a DOLOS_CRASH_POINT hook, drain/flush persist "
     "mutations sit within one statement of a hook"},
    {"determinism",
     "no rand()/time()/std random engines and no range-for over "
     "unordered containers (sim/random.hh streams only)"},
};

bool
isKnownCheck(const std::string &name)
{
    for (const auto &c : g_checkTable)
        if (name == c.name)
            return true;
    return false;
}

/** Checks selected by --only/--skip; empty = all enabled. */
DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::set<std::string> g_enabledChecks;

bool
checkEnabled(const std::string &name)
{
    return g_enabledChecks.empty() || g_enabledChecks.count(name) != 0;
}

// --- diagnostics ----------------------------------------------------

struct Violation
{
    std::string file;
    int line = 0;
    std::string check;
    std::string msg;

    bool
    operator<(const Violation &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        return msg < o.msg;
    }
};

DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::vector<Violation> g_violations;

/** Per-file, per-line suppressions from `dolos-lint: allow(...)`. */
DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::map<std::string, std::map<int, std::set<std::string>>> g_allows;

void
report(const std::string &file, int line, const std::string &check,
       const std::string &msg)
{
    if (!checkEnabled(check))
        return;
    const auto fit = g_allows.find(file);
    if (fit != g_allows.end()) {
        const auto lit = fit->second.find(line);
        if (lit != fit->second.end() &&
            (lit->second.count(check) || lit->second.count("all")))
            return;
    }
    g_violations.push_back({file, line, check, msg});
}

// --- tokenizer ------------------------------------------------------

struct Token
{
    enum Type { Ident, Number, Str, CharLit, Punct };
    Type type = Punct;
    std::string text;
    int line = 0;
};

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Record `dolos-lint: allow(a,b)` suppressions found in a comment. */
void
scanComment(const std::string &file, int line, const std::string &text)
{
    const auto pos = text.find("dolos-lint:");
    if (pos == std::string::npos)
        return;
    const auto open = text.find('(', pos);
    const auto close = text.find(')', pos);
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        return;
    std::string list = text.substr(open + 1, close - open - 1);
    std::istringstream is(list);
    std::string item;
    while (std::getline(is, item, ',')) {
        item.erase(std::remove_if(item.begin(), item.end(),
                                  [](unsigned char c) {
                                      return std::isspace(c);
                                  }),
                   item.end());
        if (!item.empty())
            g_allows[file][line].insert(item);
    }
}

/**
 * Tokenize one translation unit. Comments are consumed (mining them
 * for suppressions); preprocessor directives are skipped whole,
 * including backslash continuations, so macro *definitions* are
 * never mistaken for uses.
 */
std::vector<Token>
tokenize(const std::string &file, const std::string &src)
{
    std::vector<Token> out;
    const std::size_t n = src.size();
    std::size_t i = 0;
    int line = 1;
    bool atLineStart = true;

    auto advance = [&](std::size_t to) {
        for (; i < to && i < n; ++i)
            if (src[i] == '\n') {
                ++line;
                atLineStart = true;
            }
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            atLineStart = true;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor directive: skip to an uncontinued newline.
        if (c == '#' && atLineStart) {
            while (i < n) {
                if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
                    advance(i + 2);
                    continue;
                }
                if (src[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        atLineStart = false;
        // Comments.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const auto end = src.find('\n', i);
            const auto stop = end == std::string::npos ? n : end;
            scanComment(file, line, src.substr(i, stop - i));
            i = stop;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const auto end = src.find("*/", i + 2);
            const auto stop = end == std::string::npos ? n : end + 2;
            scanComment(file, line, src.substr(i, stop - i));
            advance(stop);
            continue;
        }
        // Identifiers (and literal prefixes).
        if (isIdentStart(c)) {
            std::size_t j = i;
            while (j < n && isIdentChar(src[j]))
                ++j;
            std::string word = src.substr(i, j - i);
            // String/char literal prefix glued to a quote: u8"..",
            // L'x', R"(..)" and friends.
            if (j < n && (src[j] == '"' || src[j] == '\'') &&
                (word == "u8" || word == "u" || word == "U" ||
                 word == "L" || word == "R" || word == "u8R" ||
                 word == "uR" || word == "UR" || word == "LR")) {
                i = j; // fall through to the literal scanners below
                if (word.back() == 'R' && src[j] == '"') {
                    // Raw string: R"delim( ... )delim"
                    std::size_t k = j + 1;
                    std::string delim;
                    while (k < n && src[k] != '(')
                        delim += src[k++];
                    const std::string close = ")" + delim + "\"";
                    const auto end = src.find(close, k);
                    const auto stop =
                        end == std::string::npos ? n : end + close.size();
                    const int at = line;
                    std::string text = src.substr(j, stop - j);
                    advance(stop);
                    out.push_back({Token::Str, std::move(text), at});
                    continue;
                }
                // Cooked literal with prefix: let the quote scanner
                // below emit it (prefix itself carries no meaning for
                // any check).
                continue;
            }
            out.push_back({Token::Ident, std::move(word), line});
            i = j;
            continue;
        }
        // Numbers (enough to step over hex/float/suffixes).
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
            std::size_t j = i;
            while (j < n && (isIdentChar(src[j]) || src[j] == '.' ||
                             ((src[j] == '+' || src[j] == '-') && j > i &&
                              (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                               src[j - 1] == 'p' || src[j - 1] == 'P'))))
                ++j;
            out.push_back({Token::Number, src.substr(i, j - i), line});
            i = j;
            continue;
        }
        // String / char literals.
        if (c == '"' || c == '\'') {
            std::size_t j = i + 1;
            while (j < n && src[j] != c) {
                if (src[j] == '\\' && j + 1 < n)
                    ++j;
                ++j;
            }
            const std::size_t stop = j < n ? j + 1 : n;
            const int at = line;
            std::string text = src.substr(i, stop - i);
            advance(stop);
            out.push_back({c == '"' ? Token::Str : Token::CharLit,
                           std::move(text), at});
            continue;
        }
        // Punctuation: longest match first (only the operators any
        // check inspects need to stay glued).
        static const char *multi[] = {"::", "->", "...", "<<=", ">>=",
                                      "<<", ">>", "<=", ">=", "==",
                                      "!=", "&&", "||", "+=", "-=",
                                      "*=", "/=", "++", "--"};
        std::string tok(1, c);
        for (const char *m : multi) {
            const std::size_t len = std::strlen(m);
            if (src.compare(i, len, m) == 0 && len > tok.size())
                tok = m;
        }
        out.push_back({Token::Punct, tok, line});
        i += tok.size();
    }
    return out;
}

// --- token-stream helpers -------------------------------------------

bool
isPunct(const Token &t, const char *s)
{
    return t.type == Token::Punct && t.text == s;
}

bool
isIdent(const Token &t, const char *s)
{
    return t.type == Token::Ident && t.text == s;
}

/** Index of the bracket matching toks[open] ('(' '[' '{'). */
std::size_t
matchBracket(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].type != Token::Punct)
            continue;
        const std::string &t = toks[i].text;
        if (t == "(" || t == "[" || t == "{")
            ++depth;
        else if (t == ")" || t == "]" || t == "}") {
            --depth;
            if (depth == 0)
                return i;
        }
    }
    return toks.size();
}

/** Split the argument list of the call whose '(' is at @p open. */
std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const std::vector<Token> &toks, std::size_t open,
          std::size_t close)
{
    std::vector<std::pair<std::size_t, std::size_t>> args;
    if (close <= open + 1)
        return args;
    int depth = 0;
    std::size_t start = open + 1;
    for (std::size_t i = open + 1; i < close; ++i) {
        if (toks[i].type == Token::Punct) {
            const std::string &t = toks[i].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            else if (t == "," && depth == 0) {
                args.emplace_back(start, i);
                start = i + 1;
            }
        }
    }
    args.emplace_back(start, close);
    return args;
}

std::string
joinTokens(const std::vector<Token> &toks, std::size_t b, std::size_t e)
{
    std::string s;
    for (std::size_t i = b; i < e && i < toks.size(); ++i)
        s += toks[i].text;
    return s;
}

// --- check: state manifests ----------------------------------------
//
// stateManifest() is the one declaration of a field's crash kind; the
// power-loss differential proves the kinds. This check proves the
// coverage: a manifest registers exactly the data members its class
// body declares.

struct ClassInfo
{
    std::string file;
    int line = 0; ///< of the class-name token
    std::map<std::string, int> members; ///< data member -> line
};

struct ManifestInfo
{
    std::string file;
    int line = 0;
    std::map<std::string, int> fields; ///< registered name -> line
};

DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::map<std::string, ClassInfo> g_classes;
DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::map<std::string, std::vector<ManifestInfo>> g_manifests;

/**
 * The crash-relevant core classes: each must define stateManifest()
 * wherever its class definition is found.
 */
const std::set<std::string> g_requiredStateClasses = {
    "MiSu",          "SecureMemController", "RedoLogBuffer",
    "SecurityEngine", "CounterStore",       "MerkleTree",
    "TagArray",      "AnubisShadow",        "NvmDevice",
    "BackingStore",  "SimpleCore",          "Cache",
    "CacheHierarchy", "System",
};

bool
containsIdent(const std::vector<Token> &stmt, const char *word)
{
    for (const auto &t : stmt)
        if (isIdent(t, word))
            return true;
    return false;
}

bool
containsPunct(const std::vector<Token> &stmt, const char *p)
{
    for (const auto &t : stmt)
        if (isPunct(t, p))
            return true;
    return false;
}

void
processMemberStatement(ClassInfo &info, const std::vector<Token> &stmt)
{
    // Not a data member: type aliases, nested types, functions,
    // compile-time and per-class (non-instance) state.
    for (const char *kw : {"static", "constexpr", "friend", "using",
                           "typedef", "template", "operator", "enum",
                           "class", "struct", "union", "virtual",
                           "explicit"})
        if (containsIdent(stmt, kw))
            return;
    if (containsPunct(stmt, "(") || containsPunct(stmt, "~"))
        return; // function / constructor / destructor declaration

    // Member name: last identifier before the initializer (= or {})
    // or the end of the declaration.
    std::size_t end = stmt.size();
    for (std::size_t i = 0; i < stmt.size(); ++i)
        if (isPunct(stmt[i], "=") || isPunct(stmt[i], "{}") ||
            isPunct(stmt[i], "[")) {
            end = i;
            break;
        }
    for (std::size_t i = end; i-- > 0;) {
        if (stmt[i].type == Token::Ident) {
            info.members.emplace(stmt[i].text, stmt[i].line);
            return;
        }
    }
}

std::size_t parseClassBody(const std::string &file,
                           const std::vector<Token> &toks,
                           std::size_t openBrace,
                           const std::string &className, int nameLine);

/**
 * If toks[i] starts a class/struct *definition*, parse it (and any
 * nested definitions) and return the index one past its closing
 * brace; otherwise return i.
 */
std::size_t
maybeParseClass(const std::string &file, const std::vector<Token> &toks,
                std::size_t i)
{
    if (!(isIdent(toks[i], "class") || isIdent(toks[i], "struct")))
        return i;
    // Exclude `enum class` and `friend class X;`.
    if (i > 0 && (isIdent(toks[i - 1], "enum") ||
                  isIdent(toks[i - 1], "friend")))
        return i;
    if (i + 1 >= toks.size() || toks[i + 1].type != Token::Ident)
        return i;
    const std::string name = toks[i + 1].text;
    const int nameLine = toks[i + 1].line;
    // Scan to '{' (definition) or ';'/'('/')' (declaration or use).
    std::size_t j = i + 2;
    while (j < toks.size()) {
        if (isPunct(toks[j], "{"))
            return parseClassBody(file, toks, j, name, nameLine) + 1;
        if (isPunct(toks[j], ";") || isPunct(toks[j], "(") ||
            isPunct(toks[j], ")") || isPunct(toks[j], ">"))
            return i;
        ++j;
    }
    return i;
}

/** Parse one class body; returns the index of its closing '}'. */
std::size_t
parseClassBody(const std::string &file, const std::vector<Token> &toks,
               std::size_t openBrace, const std::string &className,
               int nameLine)
{
    const std::size_t close = matchBracket(toks, openBrace);
    ClassInfo info;
    info.file = file;
    info.line = nameLine;

    std::vector<Token> stmt;
    std::size_t i = openBrace + 1;
    while (i < close) {
        const Token &t = toks[i];
        if (isPunct(t, "{")) {
            // Nested definition, inline method body, or brace init.
            if (!stmt.empty() && (isIdent(stmt.front(), "class") ||
                                  isIdent(stmt.front(), "struct") ||
                                  isIdent(stmt.front(), "union"))) {
                // Recurse so nested state classes are seen too.
                std::size_t k = 0;
                while (k < stmt.size() &&
                       !(isIdent(stmt[k], "class") ||
                         isIdent(stmt[k], "struct") ||
                         isIdent(stmt[k], "union")))
                    ++k;
                std::string nested = "?";
                int nline = t.line;
                if (k + 1 < stmt.size() &&
                    stmt[k + 1].type == Token::Ident) {
                    nested = stmt[k + 1].text;
                    nline = stmt[k + 1].line;
                }
                i = parseClassBody(file, toks, i, nested, nline) + 1;
                // keep accumulating: `struct X {...} member;` declares
                // a member named after the brace block.
                stmt.push_back({Token::Punct, "{}", t.line});
                continue;
            }
            const std::size_t blockEnd = matchBracket(toks, i);
            if (containsPunct(stmt, "(") ||
                containsIdent(stmt, "enum")) {
                // Function definition body (no trailing ';' required)
                // or enum body: consume and reset.
                const bool fn = containsPunct(stmt, "(");
                i = blockEnd + 1;
                if (fn) {
                    stmt.clear();
                } else {
                    stmt.push_back({Token::Punct, "{}", t.line});
                }
                continue;
            }
            // Brace initializer on a data member.
            stmt.push_back({Token::Punct, "{}", t.line});
            i = blockEnd + 1;
            continue;
        }
        if (isPunct(t, ";")) {
            processMemberStatement(info, stmt);
            stmt.clear();
            ++i;
            continue;
        }
        if (isPunct(t, ":") && stmt.size() == 1 &&
            (isIdent(stmt[0], "public") || isIdent(stmt[0], "private") ||
             isIdent(stmt[0], "protected"))) {
            stmt.clear();
            ++i;
            continue;
        }
        stmt.push_back(t);
        ++i;
    }
    processMemberStatement(info, stmt);

    g_classes.emplace(className, std::move(info));
    return close;
}

/** Strip quotes from a cooked string-literal token. */
std::string
literalContent(const std::string &text)
{
    const auto first = text.find('"');
    const auto last = text.rfind('"');
    if (first == std::string::npos || last <= first)
        return "";
    return text.substr(first + 1, last - first - 1);
}

/** Parse X::stateManifest() definitions and their registrations. */
void
scanManifests(const std::string &file, const std::vector<Token> &toks)
{
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!(toks[i].type == Token::Ident && isPunct(toks[i + 1], "::") &&
              isIdent(toks[i + 2], "stateManifest") &&
              isPunct(toks[i + 3], "(")))
            continue;
        const std::string cls = toks[i].text;
        const std::size_t paramsClose = matchBracket(toks, i + 3);
        // Definition only: a '{' before the next ';'.
        std::size_t j = paramsClose + 1;
        while (j < toks.size() && !isPunct(toks[j], "{") &&
               !isPunct(toks[j], ";"))
            ++j;
        if (j >= toks.size() || !isPunct(toks[j], "{"))
            continue;
        const std::size_t bodyEnd = matchBracket(toks, j);

        ManifestInfo mi;
        mi.file = file;
        mi.line = toks[i].line;

        auto addField = [&](const std::string &name, int line) {
            const auto [it, fresh] = mi.fields.emplace(name, line);
            if (!fresh)
                report(file, line, "manifest",
                       cls + "::stateManifest registers '" + name +
                           "' twice (previous at line " +
                           std::to_string(it->second) + ")");
        };

        for (std::size_t k = j + 1; k < bodyEnd; ++k) {
            const Token &t = toks[k];
            if (t.type != Token::Ident || k + 1 >= bodyEnd ||
                !isPunct(toks[k + 1], "("))
                continue;
            const std::size_t cp = matchBracket(toks, k + 1);
            const auto args = splitArgs(toks, k + 1, cp);
            // DOLOS_MF_*(m, field, ...)
            if (t.text.rfind("DOLOS_MF_", 0) == 0) {
                if (args.size() < 2)
                    report(file, t.line, "manifest",
                           t.text + ": expected (manifest, field, ...)");
                else
                    addField(joinTokens(toks, args[1].first,
                                        args[1].second),
                             t.line);
                k = cp;
                continue;
            }
            // Raw registration: m.add("name", Kind::..., ...)
            if ((t.text == "add" || t.text == "addChecked" ||
                 t.text == "addDelegated") &&
                (isPunct(toks[k - 1], ".") ||
                 isPunct(toks[k - 1], "->")) &&
                !args.empty() && toks[args[0].first].type == Token::Str) {
                addField(literalContent(toks[args[0].first].text),
                         t.line);
                k = cp;
            }
        }
        g_manifests[cls].push_back(std::move(mi));
        i = bodyEnd;
    }
}

/**
 * After all files are scanned: each manifest registers exactly the
 * data members of its class, and every crash-relevant class found
 * defines a manifest.
 */
void
crossCheckManifests()
{
    for (const auto &cls : g_requiredStateClasses) {
        const auto cit = g_classes.find(cls);
        if (cit != g_classes.end() && !g_manifests.count(cls))
            report(cit->second.file, cit->second.line, "manifest",
                   "crash-relevant class '" + cls +
                       "' has no stateManifest() definition");
    }
    for (const auto &[cls, manifests] : g_manifests) {
        const auto cit = g_classes.find(cls);
        for (const auto &mi : manifests) {
            // A manifest without any class definition likely means a
            // typo in the class name.
            if (cit == g_classes.end()) {
                report(mi.file, mi.line, "manifest",
                       "stateManifest defined for unknown class '" +
                           cls + "'");
                continue;
            }
            const ClassInfo &info = cit->second;
            for (const auto &[member, line] : info.members)
                if (!mi.fields.count(member))
                    report(info.file, line, "manifest",
                           "data member '" + member + "' of state class '" +
                               cls + "' is not registered by "
                               "stateManifest() (" + mi.file + ":" +
                               std::to_string(mi.line) + ")");
            for (const auto &[field, line] : mi.fields)
                if (!info.members.count(field))
                    report(mi.file, line, "manifest",
                           cls + "::stateManifest registers '" + field +
                               "', which is not a data member of '" +
                               cls + "'");
        }
    }
}

// --- check: raw allocations -----------------------------------------

/** Files allowed to use raw allocation (none today). */
const std::set<std::string> g_rawAllocFiles = {};

void
scanRawAllocs(const std::string &file, const std::vector<Token> &toks)
{
    const std::string base = fs::path(file).filename().string();
    if (g_rawAllocFiles.count(base))
        return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.type != Token::Ident)
            continue;
        if (t.text == "new") {
            // `operator new` overloads would be declarations, not use.
            if (i > 0 && isIdent(toks[i - 1], "operator"))
                continue;
            report(file, t.line, "raw-alloc",
                   "raw 'new' (use std:: containers or "
                   "std::make_unique; suppress with "
                   "// dolos-lint: allow(raw-alloc))");
        } else if ((t.text == "malloc" || t.text == "calloc" ||
                    t.text == "realloc") &&
                   i + 1 < toks.size() && isPunct(toks[i + 1], "(")) {
            report(file, t.line, "raw-alloc",
                   "raw '" + t.text + "' (use std:: containers; "
                   "suppress with // dolos-lint: allow(raw-alloc))");
        }
    }
}

// --- check: shared-mutable-state audit ------------------------------
//
// Parallel sweep workers (--jobs N) each run a fully self-contained
// System; the only state that can leak between them is mutable state
// outside a System: namespace-scope variables and function-local
// statics. Every such variable must be thread_local, immutable, or
// carry a DOLOS_THREAD_SHARED(lock) / DOLOS_THREAD_LOCAL_OK
// annotation (sim/thread_annotations.hh) on the line or the two
// lines above it.

/** Last Ident in stmt before an initializer, for the diagnostic. */
std::string
declaredName(const std::vector<Token> &stmt)
{
    std::size_t end = stmt.size();
    for (std::size_t i = 0; i < stmt.size(); ++i)
        if (isPunct(stmt[i], "=") || isPunct(stmt[i], "{}") ||
            isPunct(stmt[i], "[]")) {
            end = i;
            break;
        }
    for (std::size_t i = end; i-- > 0;)
        if (stmt[i].type == Token::Ident)
            return stmt[i].text;
    return "?";
}

void
scanThreadShared(const std::string &file, const std::vector<Token> &toks)
{
    enum class Scope { Namespace, Type, Function };
    std::vector<Scope> scopes;
    std::vector<Token> stmt;
    // Line of the newest un-consumed annotation statement; a
    // declaration within two lines of it passes.
    int pendingAnnotation = -1000;

    const auto atNamespaceScope = [&scopes] {
        for (const Scope s : scopes)
            if (s != Scope::Namespace)
                return false;
        return true;
    };

    const auto evaluate = [&](const std::vector<Token> &st) {
        if (st.empty())
            return;
        const Token &head = st.front();
        if (isIdent(head, "DOLOS_THREAD_SHARED") ||
            isIdent(head, "DOLOS_THREAD_LOCAL_OK")) {
            pendingAnnotation = st.back().line;
            return;
        }
        const bool inFunction =
            !scopes.empty() && scopes.back() == Scope::Function;
        bool flaggable = false;
        const char *what = "";
        if (atNamespaceScope()) {
            for (const char *kw :
                 {"const", "constexpr", "constinit", "thread_local",
                  "using", "typedef", "extern", "friend", "template",
                  "namespace", "operator", "static_assert", "class",
                  "struct", "union", "enum", "concept", "requires"})
                if (containsIdent(st, kw)) {
                    pendingAnnotation = -1000;
                    return;
                }
            const bool hasInit =
                containsPunct(st, "=") || containsPunct(st, "{}");
            if (!hasInit && containsPunct(st, "()")) {
                pendingAnnotation = -1000;
                return; // function declaration
            }
            std::size_t idents = 0;
            for (const auto &t : st)
                idents += t.type == Token::Ident;
            if (!hasInit && idents < 2) {
                pendingAnnotation = -1000;
                return; // not a declaration we can classify
            }
            flaggable = true;
            what = "namespace-scope mutable variable";
        } else if (inFunction) {
            if (!containsIdent(st, "static")) {
                pendingAnnotation = -1000;
                return;
            }
            for (const char *kw : {"const", "constexpr", "constinit",
                                   "thread_local", "static_assert"})
                if (containsIdent(st, kw)) {
                    pendingAnnotation = -1000;
                    return;
                }
            flaggable = true;
            what = "function-local static mutable variable";
        } else {
            pendingAnnotation = -1000;
            return; // class scope: members are per-instance state
        }
        if (flaggable) {
            if (head.line - pendingAnnotation <= 2) {
                pendingAnnotation = -1000; // consumed
                return;
            }
            report(file, head.line, "thread-shared",
                   std::string(what) + " '" + declaredName(st) +
                       "' lacks a DOLOS_THREAD_SHARED(lock) / "
                       "DOLOS_THREAD_LOCAL_OK annotation (or "
                       "thread_local); see "
                       "src/sim/thread_annotations.hh");
        }
    };

    std::size_t i = 0;
    while (i < toks.size()) {
        const Token &t = toks[i];
        if (isPunct(t, "(") || isPunct(t, "[")) {
            const std::size_t close = matchBracket(toks, i);
            stmt.push_back({Token::Punct,
                            t.text == "(" ? "()" : "[]", t.line});
            i = close + 1;
            continue;
        }
        if (isPunct(t, "{")) {
            Scope s;
            if (containsIdent(stmt, "namespace") ||
                containsIdent(stmt, "extern")) {
                s = Scope::Namespace;
            } else if (containsIdent(stmt, "class") ||
                       containsIdent(stmt, "struct") ||
                       containsIdent(stmt, "union") ||
                       containsIdent(stmt, "enum")) {
                s = Scope::Type;
            } else if (containsIdent(stmt, "concept") ||
                       containsIdent(stmt, "requires")) {
                // requires-expression body: part of the enclosing
                // declaration, not a scope.
                const std::size_t close = matchBracket(toks, i);
                stmt.push_back({Token::Punct, "{}", t.line});
                i = close + 1;
                continue;
            } else if (stmt.empty() || containsPunct(stmt, "()") ||
                       containsIdent(stmt, "else") ||
                       containsIdent(stmt, "do") ||
                       containsIdent(stmt, "try")) {
                s = Scope::Function;
            } else {
                // Brace initializer on a declaration: consume the
                // braces, keep accumulating the statement.
                const std::size_t close = matchBracket(toks, i);
                stmt.push_back({Token::Punct, "{}", t.line});
                i = close + 1;
                continue;
            }
            scopes.push_back(s);
            stmt.clear();
            ++i;
            continue;
        }
        if (isPunct(t, "}")) {
            if (!scopes.empty())
                scopes.pop_back();
            stmt.clear();
            ++i;
            continue;
        }
        if (isPunct(t, ";")) {
            evaluate(stmt);
            stmt.clear();
            ++i;
            continue;
        }
        stmt.push_back(t);
        ++i;
    }
}

// --- check: crash-point coverage ------------------------------------
//
// The microstep sweep is exhaustive only while the Step taxonomy and
// the DOLOS_CRASH_POINT hook sites cover each other. Collected per
// file, cross-checked once all files are scanned.

struct StepEnumInfo
{
    std::string file;
    int line = 0;
    std::map<std::string, int> steps; ///< enumerator -> line
};

DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::vector<StepEnumInfo> g_stepEnums;

/** Steps named by some DOLOS_CRASH_POINT(step) hook site. */
DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::set<std::string> g_hookedSteps;

void
scanCrashPoints(const std::string &file, const std::vector<Token> &toks)
{
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isIdent(toks[i], "enum")) {
            std::size_t k = i + 1;
            if (isIdent(toks[k], "class") || isIdent(toks[k], "struct"))
                ++k;
            if (k >= toks.size() || !isIdent(toks[k], "Step"))
                continue;
            std::size_t j = k + 1;
            while (j < toks.size() && !isPunct(toks[j], "{") &&
                   !isPunct(toks[j], ";"))
                ++j;
            if (j >= toks.size() || !isPunct(toks[j], "{"))
                continue; // forward declaration
            const std::size_t close = matchBracket(toks, j);
            StepEnumInfo info;
            info.file = file;
            info.line = toks[k].line;
            bool expectName = true;
            for (std::size_t m = j + 1; m < close; ++m) {
                if (expectName && toks[m].type == Token::Ident) {
                    if (toks[m].text != "NumSteps")
                        info.steps.emplace(toks[m].text, toks[m].line);
                    expectName = false;
                } else if (isPunct(toks[m], ",")) {
                    expectName = true;
                }
            }
            g_stepEnums.push_back(std::move(info));
            i = close;
            continue;
        }
        if (isIdent(toks[i], "DOLOS_CRASH_POINT") &&
            isPunct(toks[i + 1], "(")) {
            const std::size_t cp = matchBracket(toks, i + 1);
            for (std::size_t m = i + 2; m < cp; ++m)
                if (toks[m].type == Token::Ident)
                    g_hookedSteps.insert(toks[m].text);
            i = cp;
        }
    }
}

/**
 * Hook adjacency: inside a function whose name contains drain/flush,
 * every persistent-state mutation (engine secureWrite /
 * writeCiphertext, NVM writeFunctional, redoLog fill/clear) must sit
 * within one statement of a DOLOS_CRASH_POINT hook, so the microstep
 * sweep can land a power failure on either side of it.
 */
void
scanHookAdjacency(const std::string &file,
                  const std::vector<Token> &toks)
{
    const auto nameMatches = [](const std::string &name) {
        std::string lower;
        for (const char c : name)
            lower += char(std::tolower(static_cast<unsigned char>(c)));
        return lower.find("drain") != std::string::npos ||
               lower.find("flush") != std::string::npos;
    };

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].type != Token::Ident || !isPunct(toks[i + 1], "(") ||
            !nameMatches(toks[i].text))
            continue;
        const std::size_t params = matchBracket(toks, i + 1);
        // A definition header runs from the parameter list to '{'
        // without hitting statement punctuation (calls end in ';' or
        // sit inside a larger expression).
        std::size_t j = params + 1;
        while (j < toks.size() && !isPunct(toks[j], "{") &&
               !isPunct(toks[j], ";") && !isPunct(toks[j], ")") &&
               !isPunct(toks[j], ",") && !isPunct(toks[j], "="))
            ++j;
        if (j >= toks.size() || !isPunct(toks[j], "{"))
            continue;
        const std::size_t body = matchBracket(toks, j);

        // Flatten the body into a linear statement list; braces are
        // statement boundaries too, so "one statement away" crosses
        // into and out of blocks.
        struct Stmt
        {
            bool hook = false;
            bool mutation = false;
            int line = 0;
            std::string what;
        };
        std::vector<Stmt> stmts;
        Stmt cur;
        const auto flush_stmt = [&] {
            if (cur.line)
                stmts.push_back(cur);
            cur = Stmt{};
        };
        std::size_t m = j + 1;
        while (m < body) {
            const Token &t = toks[m];
            if (isPunct(t, "(")) {
                m = matchBracket(toks, m) + 1;
                continue;
            }
            if (isPunct(t, ";") || isPunct(t, "{") || isPunct(t, "}")) {
                flush_stmt();
                ++m;
                continue;
            }
            if (!cur.line)
                cur.line = t.line;
            if (isIdent(t, "DOLOS_CRASH_POINT"))
                cur.hook = true;
            if (t.type == Token::Ident && m > 0 &&
                (isPunct(toks[m - 1], ".") ||
                 isPunct(toks[m - 1], "->")) &&
                (t.text == "secureWrite" ||
                 t.text == "writeCiphertext" ||
                 t.text == "writeFunctional")) {
                cur.mutation = true;
                cur.what = t.text;
            }
            if (isIdent(t, "redoLog") && m + 2 < body &&
                isPunct(toks[m + 1], ".") &&
                (isIdent(toks[m + 2], "fill") ||
                 isIdent(toks[m + 2], "clear"))) {
                cur.mutation = true;
                cur.what = "redoLog." + toks[m + 2].text;
            }
            ++m;
        }
        flush_stmt();

        for (std::size_t s = 0; s < stmts.size(); ++s) {
            if (!stmts[s].mutation)
                continue;
            const bool near_hook =
                stmts[s].hook || (s > 0 && stmts[s - 1].hook) ||
                (s + 1 < stmts.size() && stmts[s + 1].hook);
            if (!near_hook)
                report(file, stmts[s].line, "crash-cover",
                       "persistent-state mutation '" + stmts[s].what +
                           "' in drain/flush function '" +
                           toks[i].text +
                           "' has no DOLOS_CRASH_POINT hook within "
                           "one statement");
        }
        i = body;
    }
}

/**
 * After all files: every registered step has a hook site. The
 * converse needs no lint: DOLOS_CRASH_POINT(step) names
 * Step::step, so the build rejects a hook on an unknown step.
 */
void
crossCheckCrashPoints()
{
    for (const auto &e : g_stepEnums)
        for (const auto &[name, line] : e.steps)
            if (!g_hookedSteps.count(name))
                report(e.file, line, "crash-cover",
                       "registered step '" + name +
                           "' has no DOLOS_CRASH_POINT hook site");
}

// --- check: determinism ---------------------------------------------
//
// Reproducibility is the sweep/torture contract: the same seed must
// replay the same machine, single-threaded or per worker. Two ways
// code silently breaks that: host entropy (rand/time/std engines
// instead of the seeded sim/random.hh streams), and iteration over
// unordered containers feeding sim state (iteration order is
// host-dependent).

/**
 * Names declared with an unordered type, keyed by the declaring
 * file's stem (path minus extension). Resolution is per stem so the
 * header/impl pair share declarations (a member declared in
 * golden_model.hh is visible to loops in golden_model.cc) without
 * common names like 'blocks' colliding across unrelated modules.
 */
DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::map<std::string, std::set<std::string>> g_unorderedNames;

/** file path -> stem key shared by its header/impl siblings. */
std::string
stemKey(const std::string &file)
{
    fs::path p(file);
    return (p.parent_path() / p.stem()).string();
}

struct RangeForSite
{
    std::string file;
    int line = 0;
    std::string name;
};

DOLOS_THREAD_LOCAL_OK; // single-threaded tool
std::vector<RangeForSite> g_rangeForSites;

void
scanDeterminism(const std::string &file, const std::vector<Token> &toks)
{
    static const std::set<std::string> engines = {
        "random_device", "mt19937",      "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "knuth_b",       "ranlux24",     "ranlux48"};
    static const std::set<std::string> calls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"};
    static const std::set<std::string> unordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.type != Token::Ident)
            continue;
        const bool member_access =
            i > 0 &&
            (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"));
        if (engines.count(t.text) && !member_access) {
            report(file, t.line, "determinism",
                   "'" + t.text +
                       "' bypasses the seeded dolos::Random streams "
                       "(use sim/random.hh)");
            continue;
        }
        bool call = i + 1 < toks.size() && isPunct(toks[i + 1], "(");
        if (call) {
            // A definition/declaration of a same-named member is not
            // a call: its parameter list is followed by a body.
            const std::size_t close = matchBracket(toks, i + 1);
            if (close + 1 < toks.size() &&
                isPunct(toks[close + 1], "{"))
                call = false;
        }
        if (call && !member_access &&
            (calls.count(t.text) || t.text == "time")) {
            report(file, t.line, "determinism",
                   "call to '" + t.text +
                       "()' is not seed-reproducible; use "
                       "dolos::Random (sim/random.hh)");
            continue;
        }
        // Unordered-container declaration: remember the variable name
        // so range-for sites over it can be flagged, cross-file.
        if (unordered.count(t.text) && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "<")) {
            int depth = 0;
            std::size_t k = i + 1;
            for (; k < toks.size(); ++k) {
                if (isPunct(toks[k], "<"))
                    depth += 1;
                else if (isPunct(toks[k], "<<"))
                    depth += 2;
                else if (isPunct(toks[k], ">"))
                    depth -= 1;
                else if (isPunct(toks[k], ">>"))
                    depth -= 2;
                if (depth <= 0)
                    break;
            }
            ++k;
            while (k < toks.size() &&
                   (isPunct(toks[k], "&") || isPunct(toks[k], "*") ||
                    isIdent(toks[k], "const")))
                ++k;
            if (k + 1 < toks.size() && toks[k].type == Token::Ident &&
                !isPunct(toks[k + 1], "("))
                g_unorderedNames[stemKey(file)].insert(toks[k].text);
            continue;
        }
        // Range-for: record the last identifier of the range
        // expression; resolved against g_unorderedNames at the end.
        if (isIdent(t, "for") && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "(")) {
            const std::size_t cp = matchBracket(toks, i + 1);
            int depth = 0;
            std::size_t colon = 0;
            for (std::size_t m = i + 2; m < cp; ++m) {
                if (toks[m].type != Token::Punct)
                    continue;
                const std::string &p = toks[m].text;
                if (p == "(" || p == "[" || p == "{")
                    ++depth;
                else if (p == ")" || p == "]" || p == "}")
                    --depth;
                else if (p == ":" && depth == 0) {
                    colon = m;
                    break;
                }
            }
            if (!colon)
                continue;
            std::string name;
            for (std::size_t m = colon + 1; m < cp; ++m)
                if (toks[m].type == Token::Ident)
                    name = toks[m].text;
            if (!name.empty())
                g_rangeForSites.push_back({file, t.line, name});
        }
    }
}

/** After all files: flag range-fors over known-unordered names. */
void
crossCheckDeterminism()
{
    for (const auto &site : g_rangeForSites) {
        const auto it = g_unorderedNames.find(stemKey(site.file));
        if (it != g_unorderedNames.end() && it->second.count(site.name))
            report(site.file, site.line, "determinism",
                   "range-for over unordered container '" + site.name +
                       "': iteration order is host-dependent and must "
                       "not feed sim state (sort into a vector, or "
                       "annotate // dolos-lint: allow(determinism))");
    }
}

// --- driver ---------------------------------------------------------

void
lintFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "dolos_lint: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string src = ss.str();
    const auto toks = tokenize(path, src);

    for (std::size_t i = 0; i < toks.size();) {
        const std::size_t next = maybeParseClass(path, toks, i);
        i = next == i ? i + 1 : next;
    }
    scanManifests(path, toks);
    scanRawAllocs(path, toks);
    scanThreadShared(path, toks);
    scanCrashPoints(path, toks);
    scanHookAdjacency(path, toks);
    scanDeterminism(path, toks);
}

bool
isSourceFile(const fs::path &p)
{
    const auto ext = p.extension().string();
    return ext == ".hh" || ext == ".cc" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    const auto parseCheckList = [](const std::string &csv,
                                   const char *flag) {
        std::vector<std::string> names;
        std::string cur;
        for (const char c : csv + ",") {
            if (c == ',') {
                if (!cur.empty())
                    names.push_back(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
        for (const auto &n : names)
            if (!isKnownCheck(n)) {
                std::fprintf(stderr,
                             "dolos_lint: %s: unknown check '%s' "
                             "(see --list-checks)\n",
                             flag, n.c_str());
                std::exit(2);
            }
        return names;
    };
    std::vector<std::string> skipChecks;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::printf(
                "usage: dolos_lint [options] PATH...\n"
                "  --list-checks     print the check registry and "
                "exit\n"
                "  --only A,B        run only the named checks\n"
                "  --skip A,B        run all but the named checks\n"
                "  exit: 0 clean, 1 violations, 2 usage\n");
            return 0;
        }
        if (a == "--list-checks") {
            for (const auto &c : g_checkTable)
                std::printf("%-14s %s\n", c.name, c.summary);
            return 0;
        }
        if (a == "--only" || a == "--skip") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "dolos_lint: %s needs a comma-separated "
                             "check list\n",
                             a.c_str());
                return 2;
            }
            const auto names = parseCheckList(argv[++i], a.c_str());
            if (a == "--only")
                g_enabledChecks.insert(names.begin(), names.end());
            else
                skipChecks.insert(skipChecks.end(), names.begin(),
                                  names.end());
            continue;
        }
        std::error_code ec;
        if (fs::is_directory(a, ec)) {
            for (const auto &e :
                 fs::recursive_directory_iterator(a, ec))
                if (e.is_regular_file() && isSourceFile(e.path()))
                    files.push_back(e.path().string());
        } else if (fs::is_regular_file(a, ec)) {
            files.push_back(a);
        } else {
            std::fprintf(stderr, "dolos_lint: no such path: %s\n",
                         a.c_str());
            return 2;
        }
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "usage: dolos_lint PATH...  (see --help)\n");
        return 2;
    }
    std::sort(files.begin(), files.end());

    if (!skipChecks.empty()) {
        if (g_enabledChecks.empty())
            for (const auto &c : g_checkTable)
                g_enabledChecks.insert(c.name);
        for (const auto &n : skipChecks)
            g_enabledChecks.erase(n);
    }

    for (const auto &f : files)
        lintFile(f);
    crossCheckManifests();
    crossCheckCrashPoints();
    crossCheckDeterminism();

    std::sort(g_violations.begin(), g_violations.end());
    for (const auto &v : g_violations)
        std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                    v.check.c_str(), v.msg.c_str());
    std::printf("dolos_lint: %zu file(s), %zu violation(s)\n",
                files.size(), g_violations.size());
    return g_violations.empty() ? 0 : 1;
}
