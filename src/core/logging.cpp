#include "core/logging.hpp"

#include <cstdio>
#include <cstdlib>

namespace fideslib
{

namespace
{

enum class LogLevel { Warn, Fatal, Panic };

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

/** Formats and emits one message to stderr. Fatal exits with code 1,
 *  Panic aborts. */
void
emitMessage(LogLevel level, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "[fideslib:%s] ", levelTag(level));
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    if (level == LogLevel::Fatal)
        std::exit(1);
    if (level == LogLevel::Panic)
        std::abort();
}

} // namespace

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emitMessage(LogLevel::Warn, fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emitMessage(LogLevel::Fatal, fmt, ap);
    va_end(ap);
    std::abort(); // unreachable; silences [[noreturn]] warnings
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emitMessage(LogLevel::Panic, fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace fideslib
