/**
 * @file
 * Minimal status/error reporting helpers, following the gem5 convention:
 * panic() for internal invariant violations (library bugs), fatal() for
 * unrecoverable user errors (bad parameters), warn() for non-fatal
 * diagnostics.
 */

#pragma once

#include <cstdarg>
#include <string>

namespace fideslib
{

/** Suspicious-but-survivable condition. */
[[gnu::format(printf, 1, 2)]]
void warn(const char *fmt, ...);

/** Unrecoverable user error (bad configuration, invalid arguments). */
[[noreturn, gnu::format(printf, 1, 2)]]
void fatal(const char *fmt, ...);

/** Internal invariant violation: a library bug. Aborts. */
[[noreturn, gnu::format(printf, 1, 2)]]
void panic(const char *fmt, ...);

/** panic() unless @p cond holds. */
#define FIDES_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::fideslib::panic("assertion failed (%s:%d): %s",               \
                              __FILE__, __LINE__, #cond);                   \
    } while (0)

} // namespace fideslib
