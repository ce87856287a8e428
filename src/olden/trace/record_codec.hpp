// The binary trace's fixed-width little-endian fields and its 68-byte
// event record, shared by the writer (StreamingTraceSink) and the reader
// (analyze::TraceStream). One record is encoded into, or decoded from, a
// contiguous 68-byte span with straight-line stores and loads.
//
// trace::binary_trace_bytes() (export.cpp) deliberately keeps its own
// byte-at-a-time encoder: it is the independent reference the sink is
// tested against, so a wrong offset here cannot hide behind a round trip.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "olden/trace/trace.hpp"

namespace olden::trace {

// The file format is little-endian and every supported host is too, so a
// field is one memcpy of its native representation.
static_assert(std::endian::native == std::endian::little,
              "the binary trace codec assumes a little-endian host");

inline void store_u32le(char* out, std::uint32_t v) { std::memcpy(out, &v, 4); }
inline void store_u64le(char* out, std::uint64_t v) { std::memcpy(out, &v, 8); }

inline std::uint32_t load_u32le(const char* in) {
  std::uint32_t v;
  std::memcpy(&v, in, 4);
  return v;
}

inline std::uint64_t load_u64le(const char* in) {
  std::uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
}

/// Byte offsets of the record fields; kind is one byte followed by three
/// zero pad bytes.
namespace record_off {
inline constexpr int kTime = 0;
inline constexpr int kProc = 8;
inline constexpr int kThread = 12;
inline constexpr int kKind = 20;
inline constexpr int kSite = 24;
inline constexpr int kArg0 = 28;
inline constexpr int kArg1 = 36;
inline constexpr int kId = 44;
inline constexpr int kChain = 52;
inline constexpr int kParent = 60;
static_assert(kParent + 8 == static_cast<int>(kBinaryRecordBytes));
}  // namespace record_off

/// Encode `e` into out[0, kBinaryRecordBytes).
inline void encode_record(char* out, const TraceEvent& e) {
  using namespace record_off;
  store_u64le(out + kTime, e.time);
  store_u32le(out + kProc, e.proc);
  store_u64le(out + kThread, e.thread);
  // Kind byte and its three pad bytes as one store.
  store_u32le(out + kKind, static_cast<std::uint8_t>(e.kind));
  store_u32le(out + kSite, e.site);
  store_u64le(out + kArg0, e.arg0);
  store_u64le(out + kArg1, e.arg1);
  store_u64le(out + kId, e.id);
  store_u64le(out + kChain, e.chain);
  store_u64le(out + kParent, e.parent);
}

/// Decode in[0, kBinaryRecordBytes) into `e`, every field but the kind,
/// whose raw byte is returned for the caller to range-check before it is
/// trusted as an EventKind.
inline std::uint8_t decode_record(const char* in, TraceEvent* e) {
  using namespace record_off;
  e->time = load_u64le(in + kTime);
  e->proc = load_u32le(in + kProc);
  e->thread = load_u64le(in + kThread);
  e->site = load_u32le(in + kSite);
  e->arg0 = load_u64le(in + kArg0);
  e->arg1 = load_u64le(in + kArg1);
  e->id = load_u64le(in + kId);
  e->chain = load_u64le(in + kChain);
  e->parent = load_u64le(in + kParent);
  return static_cast<std::uint8_t>(in[kKind]);
}

}  // namespace olden::trace
