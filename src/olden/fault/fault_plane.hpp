// FaultPlane: deterministic fault injection plus the reliable-delivery
// protocol that lets the Olden runtime run correctly through it.
//
// The plane sits between the runtime's message producers (migrations,
// return stubs, remote future resolutions) and the discrete-event queue.
// Every payload message gets a machine-wide message id, a per-(src,dst)
// sequence number and an entry in the in-flight table; each transmission
// attempt is then subjected to the configured drop/duplicate/delay faults.
// Receivers acknowledge every accepted or duplicate arrival and suppress
// replays by message id; senders retransmit on an ack timeout with capped
// exponential backoff. Protocol overhead (acks, retransmit marshalling) is
// charged to the kRetry cycle bucket so the exhaustive per-processor
// accounting stays exhaustive.
//
// Determinism: all fault randomness comes from one olden::Rng seeded with
// RunConfig::fault_seed, drawn at simulation-deterministic points (each
// transmission attempt, each arrival); burst windows are a pure function
// of virtual send time. The same (spec, seed) therefore reproduces the
// same faults — and the same binary trace — on every run. Because the
// benchmarks' data values never depend on timing, checksums under any
// fault schedule equal the fault-free checksums (the soak test enforces
// this).
//
// Liveness: if a message exhausts its retransmit budget, or the event
// horizon keeps advancing with no thread making progress, the watchdog
// throws WatchdogError with a structured diagnostic naming the stuck
// message instead of spinning forever.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "olden/fault/fault_spec.hpp"
#include "olden/runtime/machine.hpp"
#include "olden/support/rng.hpp"
#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden::fault {

/// What the watchdog saw when it declared the machine stuck.
struct WatchdogDiagnostic {
  std::string reason;            ///< "retry-cap-exceeded" | "no-thread-progress"
  Cycles sim_time = 0;           ///< virtual time of the detection
  std::uint64_t msg_id = 0;      ///< the stuck message
  ProcId src = 0;                ///< its sender
  ProcId dst = 0;                ///< its destination
  std::uint64_t chan_seq = 0;    ///< its per-channel sequence number
  std::uint32_t retries = 0;     ///< retransmissions already attempted
  /// Payload kind name, e.g. "migration" or "fill_request".
  const char* payload = "";
  /// Message class of the stuck payload: "migration" | "return_stub" |
  /// "future_resolve" | "fill" | "invalidate" | "ts_check".
  const char* msg_class = "";
  std::size_t pending_messages = 0;  ///< unacked messages machine-wide
  /// Per-(src,dst) unacknowledged message counts at detection time, in
  /// deterministic (src,dst) order — which channels the storm saturates.
  struct ChannelLoad {
    ProcId src = 0;
    ProcId dst = 0;
    std::uint64_t unacked = 0;
  };
  std::vector<ChannelLoad> channels;
};

/// Thrown (never OLDEN_REQUIRE-aborted) so harnesses and tests can catch
/// non-quiescence and inspect the diagnostic.
class WatchdogError : public std::runtime_error {
 public:
  explicit WatchdogError(WatchdogDiagnostic diag);
  [[nodiscard]] const WatchdogDiagnostic& diagnostic() const { return diag_; }

 private:
  WatchdogDiagnostic diag_;
};

class FaultPlane {
 public:
  FaultPlane(const FaultSpec& spec, std::uint64_t seed, ProcId nprocs);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Sender side: enter `payload` (arrival time already stamped at
  /// send_time + wire) into the protocol and put the first transmission
  /// attempt on the wire.
  void send(Machine& m, ProcId src, Cycles wire, const Machine::Event& payload);

  /// Coherence request (kFillRequest / kTsCheckRequest): like send(), but
  /// ack-free — the reply is the implicit acknowledgement. The request
  /// retransmits on timeout until consume_reply() tombstones it.
  void send_request(Machine& m, ProcId src, Cycles wire,
                    const Machine::Event& payload);

  /// Coherence reply (kFillReply / kTsCheckReply): fire-and-forget on the
  /// lossy wire — no retry timer; a lost reply is regenerated when the
  /// requester's retransmitted request gets re-serviced.
  void send_reply(Machine& m, ProcId src, Cycles wire,
                  const Machine::Event& payload);

  /// Requester side, called by the reply appliers BEFORE touching the
  /// op pointer: retire request `request_id`. Returns false if it was
  /// already retired — the reply is surplus and must be discarded (its op
  /// pointer may reference a recycled CoherenceOp).
  bool consume_reply(std::uint64_t request_id);

  // Event-queue handlers, dispatched from Machine::apply().
  void on_wire_deliver(Machine& m, const Machine::Event& e);
  void on_ack_deliver(Machine& m, const Machine::Event& e);
  void on_retry_timer(Machine& m, const Machine::Event& e);

  /// Watchdog backstop driven by drain(): `applied` events have been
  /// processed since a thread last ran. Throws WatchdogError past the
  /// budget.
  void check_progress(const Machine& m, std::uint64_t applied) const;

  [[nodiscard]] std::size_t pending_messages() const {
    return in_flight_.size();
  }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// Events drain() may apply without any thread progressing before the
  /// no-progress watchdog trips. Generous: the retry-cap watchdog fires
  /// first on any realistic schedule; this catches protocol bugs.
  static constexpr std::uint64_t kProgressBudget = 200000;

 private:
  /// Which protocol a message rides; a pure function of its payload kind
  /// (role_of), so in-flight records need not store it.
  enum class Role : std::uint8_t {
    kAcked,    ///< ack/retransmit: migrations, stubs, resolves, pushes
    kRequest,  ///< coherence request, retired by its reply
    kReply,    ///< coherence reply, fire-and-forget
  };

  struct Pending {
    Machine::Event payload;        ///< original message (kind, target, h, ...)
    ProcId src = 0;
    ProcId dst = 0;
    Cycles wire = 0;               ///< fault-free transit latency
    std::uint64_t chan_seq = 0;
    std::uint32_t retries = 0;     ///< timeout-driven retransmissions so far
    Cycles backoff = 0;            ///< next timeout interval
    /// Replies only: wire copies still scheduled for delivery; the entry
    /// is erased when the count hits zero (so a fully-dropped reply does
    /// not leak into the diagnostics forever).
    std::uint32_t copies_in_flight = 0;
    // Causal attribution for trace events about this message.
    ThreadId thread_id = trace::kNoThread;
    std::uint64_t chain = trace::kNoChain;
    std::uint64_t parent = trace::kNoEvent;
  };
  using Table = std::unordered_map<std::uint64_t, Pending>;

  static const char* payload_name(Machine::MsgKind k);
  /// Message class of a payload kind (wrapper kinds never reach this).
  static MsgClass class_of(Machine::MsgKind k);
  static Role role_of(Machine::MsgKind k);
  /// Fault trace events encode the message class in arg0's upper bits —
  /// `(class + 1) << 32 | low` — so analyzers can split retry storms by
  /// class; 0 up top means "unknown" (traces from before the encoding).
  static std::uint64_t class_arg(MsgClass cls, std::uint64_t low) {
    return ((static_cast<std::uint64_t>(cls) + 1) << 32) |
           (low & 0xffffffffu);
  }

  /// Current drop probability: base rate times the burst multiplier when
  /// `now` falls inside a burst window (pure function of virtual time).
  [[nodiscard]] double drop_probability(Cycles now) const;

  /// One transmission attempt for `p` at virtual time `now`: draw drop /
  /// delay / duplicate fates and schedule the surviving copies. Returns
  /// how many copies went on the wire (0 when everything dropped).
  /// Messages of a class outside spec_.class_mask skip every draw (and
  /// consume no randomness): a perfect wire for excluded classes.
  int transmit(Machine& m, std::uint64_t id, Pending& p, Cycles now);
  /// Draw the optional injected delay for one wire copy.
  Cycles draw_delay(Machine& m, const Pending& p, Cycles now);
  void send_ack(Machine& m, MsgClass cls, ProcId data_src, ProcId data_dst,
                std::uint64_t msg_id, std::uint64_t chan_seq, Cycles now);
  void note(Machine& m, trace::EventKind k, Cycles time, ProcId proc,
            const Pending* p, std::uint64_t a0, std::uint64_t a1);
  /// Allocate the next message id, with its dedup bit.
  std::uint64_t new_id();
  /// Fill `p` for `payload` from `src`, taking the channel's next seq.
  void open(Pending& p, ProcId src, Cycles wire,
            const Machine::Event& payload);
  /// In-flight record for `id`, or null once it is retired (attribution).
  [[nodiscard]] const Pending* find_in_flight(std::uint64_t id) const;
  /// One reply copy left the wire (delivered or suppressed); erase the
  /// record once none remain.
  void dec_reply_copies(Table::iterator it);
  [[noreturn]] void throw_watchdog(std::string reason, Cycles now,
                                   std::uint64_t id, const Pending& p) const;
  /// Current per-channel counts of in-flight messages, by (src, dst).
  [[nodiscard]] std::vector<WatchdogDiagnostic::ChannelLoad> channel_loads()
      const;

  FaultSpec spec_;
  Rng rng_;
  ProcId nprocs_;
  std::uint64_t next_msg_id_ = 0;
  /// Sender-side sequence counters, indexed src * nprocs + dst.
  std::vector<std::uint64_t> chan_next_seq_;
  /// Every message not yet retired, keyed by id: acked payloads until
  /// their ack, requests until their reply, replies while a copy is on the
  /// wire. One counter numbers all three roles, so ids never collide.
  Table in_flight_;
  /// Receiver-side dedup: bit `id` is set once a copy of message `id` has
  /// been accepted. Each id has exactly one (src, dst, chan_seq), so this
  /// answers "was this channel seq already accepted" at one bit per
  /// message sent, whatever the loss or reordering pattern.
  std::vector<bool> accepted_;
};

}  // namespace olden::fault
