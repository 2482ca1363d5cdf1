// Heap-allocation counter for micro_perf (configure with
// -DHLTS_COUNT_ALLOCS=ON).
//
// alloc_counter.cpp replaces the global operator new/delete family with
// counting wrappers over malloc/free.  The replacements live in their own
// translation unit: where the compiler sees a replaced operator new and
// the matching delete side by side, it inlines both into the benchmark
// code and then reports every new/delete pair as mismatched
// (-Wmismatched-new-delete: malloc'd memory reaching operator delete).
#pragma once

#include <cstdint>

namespace hlts::bench {

/// Global operator new calls so far (every overload).
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace hlts::bench
