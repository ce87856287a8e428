// End-to-end build: the standard allocator, uncounted.
#include "perfbench.hpp"

namespace perfbench {

bool alloc_counting() { return false; }
std::uint64_t allocations() { return 0; }

}  // namespace perfbench
