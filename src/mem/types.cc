#include "mem/types.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace npf::mem {

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::abort();
}

} // namespace npf::mem
