// Achilles reproduction -- command-line number parsing.
//
// The checked parsers behind every numeric flag of achilles_cli and the
// bench harnesses. A value is all digits (a number of seconds may also
// carry a fraction) or it is rejected: no sign, no leading blanks, no
// trailing junk, no overflow. A caller reports a rejected value with
// BadNumber, a value-taking flag given last with MissingValue, and an
// argument it does not know with UnknownArgument: a usage error with
// exit status 2, before any analysis runs.

#ifndef ACHILLES_TOOLS_FLAGS_H_
#define ACHILLES_TOOLS_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace achilles {
namespace flags {

/** Largest worker count accepted. Each worker is a thread with its own
 *  expression context and solver, so a larger count is a typo, and
 *  one near SIZE_MAX would otherwise abort the scheduler's set-up. */
constexpr size_t kMaxWorkers = 256;

/** Parse all of `text` as a decimal integer >= `min` (no overflow). */
inline bool
ParseCount(const char *text, size_t *out, size_t min = 1)
{
    // strtoull accepts (and negates) a leading sign and skips leading
    // blanks, so insist on a digit up front.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || value < min)
        return false;
    *out = static_cast<size_t>(value);
    return true;
}

/** Parse all of `text` as a finite decimal number >= 0. */
inline bool
ParseSeconds(const char *text, double *out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])) &&
        text[0] != '.') {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (errno == ERANGE || *end != '\0' || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

/** Report a malformed numeric value of `flag`, then print the usage;
 *  returns the exit status. */
inline int
BadNumber(const char *argv0, void (*usage)(const char *argv0),
          const char *flag, const std::string &want, const char *text)
{
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", argv0, flag,
                 want.c_str(), text);
    usage(argv0);
    return 2;
}

/** True if `arg` is one of `value_flags`, the flags that take the next
 *  argument as their value. */
inline bool
TakesValue(const char *arg, std::initializer_list<const char *> value_flags)
{
    for (const char *flag : value_flags) {
        if (std::strcmp(arg, flag) == 0)
            return true;
    }
    return false;
}

/** Report a value-taking `flag` given last, then print the usage;
 *  returns the exit status. */
inline int
MissingValue(const char *argv0, void (*usage)(const char *argv0),
             const char *flag)
{
    std::fprintf(stderr, "%s: %s needs a value\n", argv0, flag);
    usage(argv0);
    return 2;
}

/** Report an argument the program does not know, then print the usage;
 *  returns the exit status. */
inline int
UnknownArgument(const char *argv0, void (*usage)(const char *argv0),
                const char *arg)
{
    std::fprintf(stderr, "%s: unknown argument %s\n", argv0, arg);
    usage(argv0);
    return 2;
}

/** Parse all of `text` as a worker count in [1, kMaxWorkers]; on
 *  failure `*want` says what the value must be. */
inline bool
ParseWorkers(const char *text, size_t *out, std::string *want)
{
    if (!ParseCount(text, out)) {
        *want = "an integer >= 1";
        return false;
    }
    if (*out > kMaxWorkers) {
        *want = "an integer <= " + std::to_string(kMaxWorkers);
        return false;
    }
    return true;
}

}  // namespace flags
}  // namespace achilles

#endif  // ACHILLES_TOOLS_FLAGS_H_
