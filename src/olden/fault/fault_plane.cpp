#include "olden/fault/fault_plane.hpp"

#include <algorithm>

namespace olden::fault {

using trace::CycleBucket;
using trace::EventKind;

namespace {

std::string describe(const WatchdogDiagnostic& d) {
  std::string s = "watchdog: " + d.reason + " at t=" +
                  std::to_string(d.sim_time) + ": " + d.payload + " msg #" +
                  std::to_string(d.msg_id) + " proc " +
                  std::to_string(d.src) + " -> " + std::to_string(d.dst) +
                  " (channel seq " + std::to_string(d.chan_seq) + ", " +
                  std::to_string(d.retries) + " retransmissions), " +
                  std::to_string(d.pending_messages) +
                  " message(s) still unacknowledged";
  if (d.msg_class[0] != '\0') {
    s += "; class ";
    s += d.msg_class;
  }
  if (!d.channels.empty()) {
    s += "; unacked per channel:";
    for (const auto& c : d.channels) {
      s += " " + std::to_string(c.src) + "->" + std::to_string(c.dst) + ":" +
           std::to_string(c.unacked);
    }
  }
  return s;
}

}  // namespace

WatchdogError::WatchdogError(WatchdogDiagnostic diag)
    : std::runtime_error(describe(diag)), diag_(std::move(diag)) {}

FaultPlane::FaultPlane(const FaultSpec& spec, std::uint64_t seed,
                       ProcId nprocs)
    : spec_(spec),
      rng_(seed),
      nprocs_(nprocs),
      chan_next_seq_(static_cast<std::size_t>(nprocs) * nprocs, 0),
      accepted_(1, false) {}  // ids start at 1

const char* FaultPlane::payload_name(Machine::MsgKind k) {
  switch (k) {
    case Machine::MsgKind::kMigrationArrive: return "migration";
    case Machine::MsgKind::kReturnArrive: return "return_stub";
    case Machine::MsgKind::kResolveFuture: return "future_resolve";
    case Machine::MsgKind::kFillRequest: return "fill_request";
    case Machine::MsgKind::kFillReply: return "fill_reply";
    case Machine::MsgKind::kInvalidatePush: return "invalidate_push";
    case Machine::MsgKind::kTsCheckRequest: return "ts_check_request";
    case Machine::MsgKind::kTsCheckReply: return "ts_check_reply";
    default: return "?";
  }
}

MsgClass FaultPlane::class_of(Machine::MsgKind k) {
  switch (k) {
    case Machine::MsgKind::kReturnArrive: return MsgClass::kReturnStub;
    case Machine::MsgKind::kResolveFuture: return MsgClass::kFutureResolve;
    case Machine::MsgKind::kFillRequest:
    case Machine::MsgKind::kFillReply: return MsgClass::kFill;
    case Machine::MsgKind::kInvalidatePush: return MsgClass::kInvalidate;
    case Machine::MsgKind::kTsCheckRequest:
    case Machine::MsgKind::kTsCheckReply: return MsgClass::kTsCheck;
    case Machine::MsgKind::kMigrationArrive:
    default: return MsgClass::kMigration;
  }
}

FaultPlane::Role FaultPlane::role_of(Machine::MsgKind k) {
  switch (k) {
    case Machine::MsgKind::kFillRequest:
    case Machine::MsgKind::kTsCheckRequest: return Role::kRequest;
    case Machine::MsgKind::kFillReply:
    case Machine::MsgKind::kTsCheckReply: return Role::kReply;
    default: return Role::kAcked;
  }
}

double FaultPlane::drop_probability(Cycles now) const {
  double p = spec_.drop;
  if (spec_.burst_period > 0 && now % spec_.burst_period < spec_.burst_len) {
    p *= spec_.burst_factor;
  }
  return std::min(p, 1.0);
}

void FaultPlane::note(Machine& m, EventKind k, Cycles time, ProcId proc,
                      const Pending* p, std::uint64_t a0, std::uint64_t a1) {
  if (m.obs_ == nullptr) return;
  m.obs_->event(k, time, proc, p != nullptr ? p->thread_id : trace::kNoThread,
                trace::kNoSite, a0, a1,
                p != nullptr ? p->chain : trace::kNoChain,
                p != nullptr ? p->parent : trace::kNoEvent);
}

std::uint64_t FaultPlane::new_id() {
  accepted_.push_back(false);
  return ++next_msg_id_;
}

void FaultPlane::open(Pending& p, ProcId src, Cycles wire,
                      const Machine::Event& payload) {
  p.payload = payload;
  p.src = src;
  p.dst = payload.target;
  p.wire = wire;
  p.chan_seq = ++chan_next_seq_[static_cast<std::size_t>(src) * nprocs_ +
                                payload.target];
  p.backoff = spec_.ack_timeout;
  if (payload.thread != nullptr) {
    p.thread_id = payload.thread->id;
    p.chain = payload.thread->obs_chain;
  }
}

const FaultPlane::Pending* FaultPlane::find_in_flight(std::uint64_t id) const {
  auto it = in_flight_.find(id);
  return it != in_flight_.end() ? &it->second : nullptr;
}

void FaultPlane::dec_reply_copies(Table::iterator it) {
  if (it->second.copies_in_flight <= 1) {
    in_flight_.erase(it);
  } else {
    --it->second.copies_in_flight;
  }
}

std::vector<WatchdogDiagnostic::ChannelLoad> FaultPlane::channel_loads()
    const {
  std::vector<std::uint64_t> counts(chan_next_seq_.size(), 0);
  for (const auto& [id, p] : in_flight_) {
    ++counts[static_cast<std::size_t>(p.src) * nprocs_ + p.dst];
  }
  std::vector<WatchdogDiagnostic::ChannelLoad> out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    out.push_back({static_cast<ProcId>(i / nprocs_),
                   static_cast<ProcId>(i % nprocs_), counts[i]});
  }
  return out;
}

void FaultPlane::throw_watchdog(std::string reason, Cycles now,
                                std::uint64_t id, const Pending& p) const {
  WatchdogDiagnostic d;
  d.reason = std::move(reason);
  d.sim_time = now;
  d.msg_id = id;
  d.src = p.src;
  d.dst = p.dst;
  d.chan_seq = p.chan_seq;
  d.retries = p.retries;
  d.payload = payload_name(p.payload.kind);
  d.msg_class = to_string(class_of(p.payload.kind));
  d.pending_messages = pending_messages();
  d.channels = channel_loads();
  throw WatchdogError(std::move(d));
}

void FaultPlane::check_progress(const Machine& m, std::uint64_t applied) const {
  if (applied <= kProgressBudget) return;
  // Name the most-retried in-flight message — the likeliest culprit —
  // among the retransmitting roles (replies never retry and cannot wedge
  // on their own). Ties go to the lowest message id, so the pick does not
  // depend on the table's iteration order.
  const Pending* worst = nullptr;
  std::uint64_t worst_id = 0;
  Cycles now = 0;
  for (ProcId p = 0; p < m.nprocs(); ++p) now = std::max(now, m.proc_clock(p));
  for (const auto& [id, p] : in_flight_) {
    if (role_of(p.payload.kind) == Role::kReply) continue;
    if (worst == nullptr || p.retries > worst->retries ||
        (p.retries == worst->retries && id < worst_id)) {
      worst = &p;
      worst_id = id;
    }
  }
  if (worst != nullptr) {
    throw_watchdog("no-thread-progress", now, worst_id, *worst);
  }
  WatchdogDiagnostic d;
  d.reason = "no-thread-progress";
  d.sim_time = now;
  d.payload = "?";
  d.pending_messages = 0;
  throw WatchdogError(std::move(d));
}

void FaultPlane::send(Machine& m, ProcId src, Cycles wire,
                      const Machine::Event& payload) {
  const std::uint64_t id = new_id();
  Pending& p = in_flight_[id];
  open(p, src, wire, payload);
  if (payload.thread != nullptr) {
    p.parent = payload.thread->obs_depart_event;
  } else if (payload.cell != nullptr) {
    p.parent = payload.cell->obs_resolve_event;
  }
  // A payload carrying its own send-side event (invalidation pushes) gets
  // that as the causal parent instead of the thread's departure.
  if (payload.obs_parent != trace::kNoEvent) p.parent = payload.obs_parent;
  ++m.stats_.fault_messages;
  ++m.stats_.class_sent[static_cast<std::size_t>(class_of(payload.kind))];
  const Cycles send_time = payload.time - wire;
  transmit(m, id, p, send_time);
  m.schedule(Machine::Event{.time = send_time + p.backoff,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kRetryTimer,
                            .target = src,
                            .src = src,
                            .msg_id = id});
}

void FaultPlane::send_request(Machine& m, ProcId src, Cycles wire,
                              const Machine::Event& payload) {
  const std::uint64_t id = new_id();
  Pending& p = in_flight_[id];
  open(p, src, wire, payload);
  p.parent = payload.obs_parent;
  ++m.stats_.fault_messages;
  ++m.stats_.coherence_requests;
  ++m.stats_.class_sent[static_cast<std::size_t>(class_of(payload.kind))];
  const Cycles send_time = payload.time - wire;
  transmit(m, id, p, send_time);
  // Ack-free: the reply retires the request (consume_reply). Until then
  // the request retransmits on the same timer machinery as PR 3 payloads.
  m.schedule(Machine::Event{.time = send_time + p.backoff,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kRetryTimer,
                            .target = src,
                            .src = src,
                            .msg_id = id});
}

void FaultPlane::send_reply(Machine& m, ProcId src, Cycles wire,
                            const Machine::Event& payload) {
  const std::uint64_t id = new_id();
  Pending p;
  open(p, src, wire, payload);
  p.parent = payload.obs_parent;
  ++m.stats_.fault_messages;
  ++m.stats_.class_sent[static_cast<std::size_t>(class_of(payload.kind))];
  // Reply marshalling is ack-sized work on the home processor.
  m.charge_to(src, m.cfg_.costs.ack_send, CycleBucket::kRetry);
  const Cycles send_time = payload.time - wire;
  const int copies = transmit(m, id, p, send_time);
  if (copies > 0) {
    // No retry timer: a lost reply is regenerated when the requester's
    // retransmitted request is re-serviced. Track only the copies still
    // on the wire so delivery can find the payload.
    p.copies_in_flight = static_cast<std::uint32_t>(copies);
    in_flight_.emplace(id, std::move(p));
  }
}

bool FaultPlane::consume_reply(std::uint64_t request_id) {
  return in_flight_.erase(request_id) > 0;
}

Cycles FaultPlane::draw_delay(Machine& m, const Pending& p, Cycles now) {
  if (spec_.delay <= 0.0 || rng_.next_double() >= spec_.delay) return 0;
  const MsgClass cls = class_of(p.payload.kind);
  const Cycles extra = 1 + rng_.next_below(spec_.delay_cycles);
  ++m.stats_.fault_delays;
  ++m.stats_.class_delays[static_cast<std::size_t>(cls)];
  note(m, EventKind::kFaultDelay, now, p.src, &p, class_arg(cls, p.dst),
       extra);
  return extra;
}

int FaultPlane::transmit(Machine& m, std::uint64_t id, Pending& p,
                         Cycles now) {
  const MsgClass cls = class_of(p.payload.kind);
  if (!spec_.class_enabled(cls)) {
    // Excluded class: a perfect wire, and no randomness consumed, so the
    // fault schedule of the enabled classes is independent of this one.
    m.schedule(Machine::Event{.time = now + p.wire,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kWireDeliver,
                              .target = p.dst,
                              .src = p.src,
                              .msg_id = id,
                              .chan_seq = p.chan_seq,
                              .payload_kind = p.payload.kind});
    return 1;
  }
  int copies = 0;
  const double pd = drop_probability(now);
  if (pd > 0.0 && rng_.next_double() < pd) {
    ++m.stats_.fault_drops;
    ++m.stats_.class_drops[static_cast<std::size_t>(cls)];
    note(m, EventKind::kFaultDrop, now, p.src, &p, class_arg(cls, p.dst),
         p.chan_seq);
  } else {
    const Cycles extra = draw_delay(m, p, now);
    m.schedule(Machine::Event{.time = now + p.wire + extra,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kWireDeliver,
                              .target = p.dst,
                              .src = p.src,
                              .msg_id = id,
                              .chan_seq = p.chan_seq,
                              .payload_kind = p.payload.kind});
    ++copies;
  }
  if (spec_.dup > 0.0 && rng_.next_double() < spec_.dup) {
    ++m.stats_.fault_duplicates;
    ++m.stats_.class_dups[static_cast<std::size_t>(cls)];
    note(m, EventKind::kFaultDuplicate, now, p.src, &p, class_arg(cls, p.dst),
         p.chan_seq);
    const Cycles extra = draw_delay(m, p, now);
    m.schedule(Machine::Event{.time = now + p.wire + extra,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kWireDeliver,
                              .target = p.dst,
                              .src = p.src,
                              .msg_id = id,
                              .chan_seq = p.chan_seq,
                              .payload_kind = p.payload.kind});
    ++copies;
  }
  return copies;
}

void FaultPlane::send_ack(Machine& m, MsgClass cls, ProcId data_src,
                          ProcId data_dst, std::uint64_t msg_id,
                          std::uint64_t chan_seq, Cycles now) {
  ++m.stats_.acks_sent;
  m.charge_to(data_dst, m.cfg_.costs.ack_send, CycleBucket::kRetry);
  if (!spec_.class_enabled(cls)) {
    m.schedule(Machine::Event{.time = now + m.cfg_.costs.ack_wire,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kAckDeliver,
                              .target = data_src,
                              .src = data_dst,
                              .msg_id = msg_id,
                              .chan_seq = chan_seq});
    return;
  }
  const double pd = drop_probability(now);
  if (pd > 0.0 && rng_.next_double() < pd) {
    ++m.stats_.fault_drops;
    ++m.stats_.class_drops[static_cast<std::size_t>(cls)];
    if (m.obs_ != nullptr) {
      note(m, EventKind::kFaultDrop, now, data_dst, find_in_flight(msg_id),
           class_arg(cls, data_src), chan_seq);
    }
    return;
  }
  Cycles extra = 0;
  if (spec_.delay > 0.0 && rng_.next_double() < spec_.delay) {
    extra = 1 + rng_.next_below(spec_.delay_cycles);
    ++m.stats_.fault_delays;
    ++m.stats_.class_delays[static_cast<std::size_t>(cls)];
  }
  m.schedule(Machine::Event{.time = now + m.cfg_.costs.ack_wire + extra,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kAckDeliver,
                            .target = data_src,
                            .src = data_dst,
                            .msg_id = msg_id,
                            .chan_seq = chan_seq});
}

void FaultPlane::on_wire_deliver(Machine& m, const Machine::Event& e) {
  const MsgClass cls = class_of(e.payload_kind);
  const Role role = role_of(e.payload_kind);
  // The message's record, or null once it is retired.
  const auto it = in_flight_.find(e.msg_id);
  Pending* const p = it != in_flight_.end() ? &it->second : nullptr;
  // A transient receiver slowdown can hit on any arrival, duplicate or not.
  if (spec_.class_enabled(cls) && spec_.hiccup > 0.0 &&
      rng_.next_double() < spec_.hiccup) {
    ++m.stats_.hiccups_injected;
    m.stats_.hiccup_cycles += spec_.hiccup_cycles;
    m.charge_to(e.target, spec_.hiccup_cycles, CycleBucket::kIdle);
    note(m, EventKind::kHiccup, e.time, e.target, p, spec_.hiccup_cycles, 0);
  }
  if (accepted_[e.msg_id]) {
    // Replay: an injected duplicate, a retransmit racing its own ack, or a
    // retransmitted request whose reply got lost.
    ++m.stats_.duplicates_suppressed;
    note(m, EventKind::kDupSuppressed, e.time, e.target, p,
         class_arg(cls, e.src), e.chan_seq);
    switch (role) {
      case Role::kRequest:
        // Still unanswered at the requester (the reply was dropped, or is
        // still in flight): re-service it. The coherence handlers are
        // stateless at the home, so a surplus reply is harmless — the
        // requester discards it via the consume_reply tombstone.
        if (p != nullptr) {
          Machine::Event payload = p->payload;
          payload.time = e.time;
          payload.seq = e.seq;
          payload.msg_id = e.msg_id;
          m.apply(payload);
        }
        break;
      case Role::kReply:
        if (p != nullptr) dec_reply_copies(it);
        break;
      case Role::kAcked:
        // Re-ack so the sender can stop retransmitting.
        send_ack(m, cls, e.src, e.target, e.msg_id, e.chan_seq, e.time);
        break;
    }
    return;
  }
  accepted_[e.msg_id] = true;
  // First acceptance: the record must still exist. A request cannot have
  // been answered yet (replies only exist once a copy has been serviced),
  // a reply keeps its record while a copy is on the wire, and an acked
  // payload is retired only by an ack, which only an arrival sends.
  OLDEN_REQUIRE(p != nullptr, "accepted a message with no sender state");
  Machine::Event payload = p->payload;
  payload.time = e.time;  // the payload lands when the surviving copy does
  payload.seq = e.seq;
  switch (role) {
    case Role::kRequest:
      payload.msg_id = e.msg_id;  // the reply answers this id
      break;
    case Role::kReply:
      dec_reply_copies(it);
      break;
    case Role::kAcked:
      send_ack(m, cls, e.src, e.target, e.msg_id, e.chan_seq, e.time);
      break;
  }
  m.apply(payload);
}

void FaultPlane::on_ack_deliver(Machine& m, const Machine::Event& e) {
  m.charge_to(e.target, m.cfg_.costs.ack_recv, CycleBucket::kRetry);
  auto it = in_flight_.find(e.msg_id);
  if (it == in_flight_.end()) return;  // duplicate acks are no-ops
  const Pending& p = it->second;
  if (p.payload.kind == Machine::MsgKind::kInvalidatePush) {
    // The sharer's ack closes the line-invalidation push; record it so
    // invalidation storms are attributable push by push.
    note(m, EventKind::kInvalidateAck, e.time, p.src, &p, p.payload.parg0,
         p.dst);
  }
  in_flight_.erase(it);
}

void FaultPlane::on_retry_timer(Machine& m, const Machine::Event& e) {
  auto it = in_flight_.find(e.msg_id);
  if (it == in_flight_.end()) return;  // acked/answered: a tombstone
  Pending& p = it->second;
  const MsgClass cls = class_of(p.payload.kind);
  if (p.retries >= spec_.max_retries) {
    throw_watchdog("retry-cap-exceeded", e.time, e.msg_id, p);
  }
  ++p.retries;
  ++m.stats_.retransmissions;
  ++m.stats_.class_retries[static_cast<std::size_t>(cls)];
  m.charge_to(p.src, m.cfg_.costs.retransmit_send, CycleBucket::kRetry);
  note(m, EventKind::kRetransmit, e.time, p.src, &p, class_arg(cls, p.dst),
       p.retries);
  transmit(m, e.msg_id, p, e.time);
  p.backoff = std::min<Cycles>(p.backoff * 2, spec_.ack_timeout * 32);
  m.schedule(Machine::Event{.time = e.time + p.backoff,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kRetryTimer,
                            .target = p.src,
                            .src = p.src,
                            .msg_id = e.msg_id});
}

}  // namespace olden::fault
