// Achilles reproduction -- support library.
//
// Error reporting in the spirit of gem5's logging.hh: Panic() reports
// an internal invariant violated (a bug in this library) and aborts,
// behind the ACHILLES_CHECK and ACHILLES_UNREACHABLE macros. It prints
// its whole line in one write, because an invariant can trip on a
// worker thread while its siblings are still printing.

#ifndef ACHILLES_SUPPORT_LOGGING_H_
#define ACHILLES_SUPPORT_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace achilles {

/** Terminate with a message indicating an internal bug. */
[[noreturn]] inline void
Panic(const std::string &msg, const char *file, int line)
{
    std::string out = "panic: ";
    out += msg;
    out += " (";
    out += file;
    out += ":";
    out += std::to_string(line);
    out += ")\n";
    std::fwrite(out.data(), 1, out.size(), stderr);
    std::abort();
}

namespace detail {

/** Build a message from stream-style parts. */
template <typename... Args>
std::string
Concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

}  // namespace detail

}  // namespace achilles

/** Assert an internal invariant; active in all build types. */
#define ACHILLES_CHECK(cond, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::achilles::Panic(                                             \
                ::achilles::detail::Concat("check failed: " #cond " ",     \
                                           ##__VA_ARGS__),                 \
                __FILE__, __LINE__);                                       \
        }                                                                  \
    } while (0)

/** Report an unreachable code path. */
#define ACHILLES_UNREACHABLE(...)                                          \
    ::achilles::Panic(                                                     \
        ::achilles::detail::Concat("unreachable ", ##__VA_ARGS__),         \
        __FILE__, __LINE__)

#endif  // ACHILLES_SUPPORT_LOGGING_H_
