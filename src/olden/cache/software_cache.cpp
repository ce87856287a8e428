#include "olden/cache/software_cache.hpp"

#include <atomic>
#include <bit>

#include "olden/support/require.hpp"

namespace olden {

namespace {
// Atomic so host-parallel cell pools (bench_cell --jobs) can
// construct Machines on several threads while a test elsewhere holds the
// process-wide default steady. Relaxed is enough: the value is a pure
// configuration knob, never used to publish other data.
std::atomic<SoftwareCache::Tuning> g_default_tuning{
    SoftwareCache::Tuning::kOptimized};
}  // namespace

void SoftwareCache::set_default_tuning(Tuning t) {
  g_default_tuning.store(t, std::memory_order_relaxed);
}
SoftwareCache::Tuning SoftwareCache::default_tuning() {
  return g_default_tuning.load(std::memory_order_relaxed);
}

SoftwareCache::SoftwareCache() : tuning_(default_tuning()) {}

std::byte* SoftwareCache::alloc_frame() {
  if (!free_frames_.empty()) {
    std::byte* f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  if (slab_used_ == kFramesPerSlab) {
    slabs_.push_back(std::make_unique<std::byte[]>(
        static_cast<std::size_t>(kFramesPerSlab) * kPageBytes));
    slab_used_ = 0;
  }
  return slabs_.back().get() +
         static_cast<std::size_t>(slab_used_++) * kPageBytes;
}

void SoftwareCache::release_frame(PageEntry& e) {
  // Reference tuning mimics the pre-overhaul cache, which never let a
  // frame go; recycling is a host-memory optimization only (frame bytes
  // of invalid lines are never read, so the contents cannot matter).
  if (tuning_ == Tuning::kReference || e.frame == nullptr) return;
  free_frames_.push_back(e.frame);
  e.frame = nullptr;
}

SoftwareCache::PageEntry& SoftwareCache::create_page(std::uint32_t page_id) {
  const std::uint32_t b = bucket_of(page_id);
  PageEntry& e = pool_.emplace_back();
  e.page_id = page_id;
  e.frame = alloc_frame();
  e.rank = counts_[b]++;
  e.next = buckets_[b];
  buckets_[b] = &e;
  if (tuning_ == Tuning::kOptimized) mru_ = &e;
  ++pages_created_;
  ++pages_live_;
  return e;
}

SoftwareCache::PageEntry& SoftwareCache::ensure_page(std::uint32_t page_id,
                                                     bool& created) {
  const LookupResult r = lookup(page_id);
  if (r.entry != nullptr) {
    created = false;
    // Callers that go on to fill lines expect a frame to write into.
    ensure_frame(*r.entry);
    return *r.entry;
  }
  created = true;
  return create_page(page_id);
}

// Bulk invalidation (the acquire paths) deliberately keeps each page's
// frame: acquires are frequent and most invalidated pages refill within a
// few accesses, so recycling here would be pure free-list churn. Frames go
// back to the free list only on the targeted push-invalidation path below,
// where a page losing its last line is a real eviction signal.
std::uint64_t SoftwareCache::invalidate_all() {
  std::uint64_t lines = 0;
  for (PageEntry& e : pool_) {
    lines += static_cast<std::uint64_t>(std::popcount(e.valid));
    e.valid = 0;
  }
  return lines;
}

std::uint64_t SoftwareCache::invalidate_from_procs(ProcSet procs) {
  std::uint64_t lines = 0;
  for (PageEntry& e : pool_) {
    if (procs.contains(page_home(e.page_id))) {
      lines += static_cast<std::uint64_t>(std::popcount(e.valid));
      e.valid = 0;
    }
  }
  return lines;
}

SoftwareCache::InvalidateResult SoftwareCache::invalidate_lines(
    std::uint32_t page_id, std::uint32_t mask) {
  const LookupResult r = lookup(page_id);
  if (r.entry == nullptr) return {};
  InvalidateResult res;
  const std::uint32_t hit = r.entry->valid & mask;
  r.entry->valid &= ~mask;
  res.dropped = static_cast<std::uint64_t>(std::popcount(hit));
  res.remaining =
      static_cast<std::uint32_t>(std::popcount(r.entry->valid));
  if (res.remaining == 0) release_frame(*r.entry);
  return res;
}

void SoftwareCache::mark_all_suspect() {
  for (PageEntry& e : pool_) e.suspect = true;
}

std::vector<std::uint32_t> SoftwareCache::chain_lengths() const {
  std::vector<std::uint32_t> lengths;
  lengths.reserve(kCacheBuckets);
  for (const std::uint32_t n : counts_) {
    if (n > 0) lengths.push_back(n);
  }
  return lengths;
}

}  // namespace olden
