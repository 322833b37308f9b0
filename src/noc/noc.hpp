// Fault-contained multi-accelerator interconnect.
//
// HERMES qualifies the NG-ULTRA as an SoC where hypervisor partitions and
// many concurrently-programmed eFPGA accelerators share one fabric. This
// module models that fabric as a deterministic cycle-stepped crossbar:
// source ports (one per partition-facing initiator) carry batched command
// beats to accelerator endpoints, responses flow back, and the transport
// itself is a mitigation layer in the FDIR sense — faults on the fabric are
// detected, attributed to a containment domain, isolated, and recovered
// without disturbing other domains' traffic.
//
// Transport mechanics:
//   * bounded per-port virtual-channel queues, one VC per destination
//     endpoint, so one congested/broken endpoint cannot head-of-line-block a
//     port's traffic to healthy endpoints at the arbitration stage;
//   * credit-based flow control, source-authoritative: a beat may only be
//     granted while the source holds a credit for the (port, endpoint) pair;
//     credits return with the response (or are reclaimed on timeout), and a
//     per-cycle credit audit restores leaked credits — a leak is detected
//     and counted, never a silent livelock;
//   * deterministic QoS arbitration: strict priority classes, weighted
//     round-robin inside a class, and a starvation watchdog that promotes a
//     head beat stuck beyond the threshold so low-priority ports always make
//     progress;
//   * every bounded wait is a deadline: outstanding beats carry a timeout
//     (kDeadlineExceeded), retried up to a budget with the shared
//     exponential-backoff ladder (common/backoff.hpp), mirroring the AXI
//     master's ladder one layer down.
//
// Containment domains: every endpoint belongs to a domain. An endpoint fault
// (wedge, dropped or corrupted beat, credit leak) is detected by CRC checks,
// timeouts, the credit audit, or the per-endpoint progress watchdog, and
// published as a typed FdirEvent on Layer::kNoc with the domain in `detail`.
// Quarantining a domain drains its queues (every affected beat fails with a
// clean Status and its credit returns), rejects new traffic, and leaves all
// other domains' per-pair result digests untouched — the containment
// property the tests enforce. Re-admission (after FDIR rollback) resets the
// domain's endpoints and credits.
//
// Determinism contract: a run is a pure function of (fabric config, bound
// workloads, fault plan + seed). All per-cycle iteration is in fixed index
// order and injector opportunities are presented at fixed points, so a
// replayed seed is bit-identical — the chaos soak fingerprints whole runs.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "fault/injector.hpp"
#include "fdir/event.hpp"
#include "hv/types.hpp"

namespace hermes::noc {

/// Fabric-wide knobs. Every wait is bounded; every bound is observable.
struct FabricConfig {
  /// Source-side deadline for an outstanding beat (grant -> response).
  std::uint64_t beat_timeout_cycles = 512;
  /// Re-injections allowed per beat after a timeout or NAK.
  unsigned max_retries = 3;
  /// Base of the shared exponential backoff ladder between re-injections.
  std::uint64_t retry_backoff_cycles = 8;
  /// Head-beat age at which the arbiter promotes a starved candidate past
  /// the priority classes (starvation watchdog).
  std::uint64_t starvation_watchdog_cycles = 128;
  /// Endpoint no-progress bound (input pending, nothing consumed) before the
  /// deadlock watchdog declares the endpoint wedged.
  std::uint64_t progress_watchdog_cycles = 192;
  /// Whole-run deadline: run() returns kDeadlineExceeded instead of hanging.
  std::uint64_t run_deadline_cycles = 4'000'000;
  /// Quarantine the domain locally when the progress watchdog trips. Turn
  /// off to let the FDIR policy engine drive quarantine from the events.
  bool quarantine_on_watchdog = true;
  /// When >= 0, injector opportunities are only presented for endpoints (and
  /// beats to endpoints) of this domain — the knob the containment property
  /// test uses to confine a fault to one domain.
  int fault_domain_filter = -1;
};

/// One partition-facing initiator port.
struct PortConfig {
  std::string name;
  unsigned priority = 1;  ///< arbitration class; lower value wins
  unsigned weight = 1;    ///< weighted-round-robin share within the class
  std::size_t vc_depth = 8;  ///< bounded per-endpoint VC queue depth
  /// Partition this port belongs to; a suspended partition's ports are
  /// masked by the FDIR supervisor (hv/ partition-mapped ports).
  hv::PartitionId owner = hv::kNoPartition;
};

/// One accelerator endpoint.
struct EndpointConfig {
  std::string name;
  unsigned domain = 0;             ///< containment domain
  std::uint64_t service_cycles = 4;  ///< per command beat (min 1)
  std::size_t input_depth = 4;     ///< bounded input queue
  unsigned credits = 4;            ///< per-port credits toward this endpoint
};

/// One command beat a workload wants carried. Port binding is implicit in
/// bind_workload(); seq numbers are assigned per (port, endpoint) stream.
struct BeatRequest {
  std::uint64_t release_cycle = 0;
  std::uint32_t endpoint = 0;
  std::uint64_t payload = 0;
};

struct PortStats {
  std::uint64_t injected = 0;    ///< requests accepted into a VC queue
  std::uint64_t granted = 0;     ///< beats the arbiter moved onto the fabric
  std::uint64_t completed = 0;   ///< responses verified end-to-end
  std::uint64_t retries = 0;     ///< re-injections (timeout or NAK)
  std::uint64_t failed = 0;      ///< retry budget exhausted or drained
  std::uint64_t timeouts = 0;    ///< outstanding-beat deadline expiries
  std::uint64_t naks = 0;        ///< endpoint CRC rejections received
  std::uint64_t stale_responses = 0;  ///< responses for abandoned beats
  std::uint64_t starvation_promotions = 0;
  std::uint64_t rejected_masked = 0;       ///< port masked (partition suspended)
  std::uint64_t rejected_quarantined = 0;  ///< target domain quarantined
  std::uint64_t latency_sum = 0;  ///< release -> completion, completed beats
};

struct EndpointStats {
  std::uint64_t consumed = 0;      ///< beats popped from the input queue
  std::uint64_t responses = 0;
  std::uint64_t crc_rejected = 0;  ///< corrupt beats caught at the endpoint
  std::uint64_t wedges = 0;
  std::uint64_t watchdog_trips = 0;
};

struct DomainStats {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;            ///< dropped/withheld beats detected
  std::uint64_t corrupt_detected = 0;    ///< CRC catches (never silent)
  std::uint64_t credit_leaks_recovered = 0;
  std::uint64_t arb_stalls = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t drained = 0;  ///< beats failed by a quarantine drain
};

/// Outcome of one run: the status, the canonical per-domain digests (value
/// content in per-stream seq order — independent of completion timing, so
/// cross-domain contention shifts never move them), and the full counters.
struct FabricResult {
  Status status;  ///< kDeadlineExceeded when the run bound was hit
  std::uint64_t cycles = 0;
  /// Responses whose payload did not match the expected endpoint transform
  /// yet carried a valid CRC. Must stay zero: the robustness contract is
  /// detected-or-clean, never silent corruption.
  std::uint64_t silent = 0;
  std::vector<std::uint64_t> domain_digest;
  std::vector<DomainStats> domains;
  std::vector<PortStats> ports;
  std::vector<EndpointStats> endpoints;

  /// Fnv64 word fold over status, digests and every counter — the run-twice
  /// witness.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// The deterministic accelerator transform commands are verified against:
/// the source computes the expected response at request time, so any silent
/// payload corruption surfaces as a mismatch at completion.
constexpr std::uint64_t respond(std::uint32_t endpoint, std::uint64_t payload) {
  return mix64(payload ^ (kGoldenGamma * (endpoint + 1)));
}

/// The noc.* injection points this fabric registers (subset of
/// fault::default_point_catalog()).
std::span<const std::string_view> noc_point_catalog();

class Crossbar {
 public:
  Crossbar(FabricConfig config, std::vector<PortConfig> ports,
           std::vector<EndpointConfig> endpoints);

  /// Registers the noc.* points ("noc.arb.stall", "noc.beat.drop",
  /// "noc.beat.corrupt", "noc.credit.leak", "noc.endpoint.wedge").
  void attach_injector(fault::FaultInjector* injector);

  /// Publishes detections on Layer::kNoc: retries as kRetried, recovered
  /// credit leaks as kCorrected, starvation promotions as kInfo, exhausted
  /// beat budgets as kExhausted, progress-watchdog trips as kUncorrectable —
  /// all stamped with the fabric cycle and carrying the containment domain
  /// in `detail`, so the policy engine can quarantine by domain.
  void attach_fdir(fdir::FdirBus* bus) { fdir_ = bus; }

  /// Appends a command stream to `port`. Requests must be sorted by
  /// release_cycle (workload generators emit them that way).
  void bind_workload(std::uint32_t port, std::vector<BeatRequest> beats);

  /// Drives the fabric until every bound request resolved (completed or
  /// cleanly failed) or the run deadline expired. Consumes the bound
  /// workloads; quarantine/wedge/mask state persists across runs (it is
  /// hardware lifecycle state, managed by the FDIR layer).
  FabricResult run();

  // ---- containment controls (driven locally by the progress watchdog or
  // ---- externally by the FDIR supervisor) ----
  void quarantine_domain(unsigned domain);
  void quarantine_all();
  /// Resets the domain's endpoints (wedge cleared, queues empty, credits
  /// restored) and re-admits its traffic. Returns true if it was quarantined.
  bool readmit_domain(unsigned domain);
  /// Re-admits every quarantined domain; returns how many were re-admitted.
  unsigned readmit_all();
  [[nodiscard]] bool domain_quarantined(unsigned domain) const;

  /// Masks every port owned by `partition`: pending and future requests on
  /// those ports fail cleanly (the FDIR supervisor calls this when it
  /// suspends a partition). unmask_partition reverses it.
  void mask_partition(hv::PartitionId partition);
  void unmask_partition(hv::PartitionId partition);

  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] std::size_t num_endpoints() const { return endpoints_.size(); }
  [[nodiscard]] unsigned num_domains() const { return num_domains_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

 private:
  struct VcEntry {
    std::uint32_t seq = 0;
    unsigned attempt = 0;
    std::uint64_t payload = 0;
    std::uint32_t crc = 0;
    std::uint64_t release_cycle = 0;  ///< workload release (latency base)
    std::uint64_t enqueued_at = 0;    ///< VC arrival (starvation base)
    std::uint64_t eligible_at = 0;    ///< backoff gate for retries
  };
  struct Outstanding {
    std::uint32_t seq = 0;
    unsigned attempt = 0;
    std::uint64_t payload = 0;
    std::uint64_t release_cycle = 0;
    std::uint64_t sent_at = 0;
  };
  struct DeliveredBeat {
    std::uint32_t port = 0;
    std::uint32_t seq = 0;
    unsigned attempt = 0;
    std::uint64_t payload = 0;
    std::uint32_t crc = 0;
  };
  struct PortState {
    PortConfig config;
    bool masked = false;
    std::vector<BeatRequest> work;
    std::size_t next_request = 0;
    std::vector<std::deque<VcEntry>> vc;           ///< one VC per endpoint
    std::vector<std::deque<Outstanding>> outstanding;  ///< per endpoint
    std::vector<std::uint32_t> next_seq;           ///< per endpoint stream
    std::vector<Fnv64> pair_digest;                ///< per endpoint stream
    PortStats stats;
  };
  struct EndpointState {
    EndpointConfig config;
    bool quarantined = false;
    bool wedged = false;
    bool watchdog_tripped = false;
    std::deque<DeliveredBeat> input;
    bool busy = false;
    DeliveredBeat current;
    std::uint64_t busy_until = 0;
    std::uint64_t last_progress = 0;
    std::size_t wrr_pos = 0;       ///< round-robin pointer (port index)
    unsigned wrr_left = 0;         ///< grants left for wrr_pos in this turn
    EndpointStats stats;
  };

  [[nodiscard]] bool domain_faultable(unsigned domain) const {
    return config_.fault_domain_filter < 0 ||
           static_cast<unsigned>(config_.fault_domain_filter) == domain;
  }
  void publish(fdir::Severity severity, ErrorCode code, unsigned domain);
  /// Fails one source-side beat record (clean Status, counters, resolve).
  void fail_beat(PortState& port, std::size_t endpoint, unsigned attempt);
  /// Timeout/NAK ladder: re-enqueue with backoff or fail on budget.
  void retry_or_fail(PortState& port, std::size_t endpoint, Outstanding beat,
                     ErrorCode code);
  void return_credit(std::size_t port, std::size_t endpoint);
  void step_inject();
  void step_credit_audit();
  void step_timeouts();
  void step_arbitrate();
  void step_endpoints();
  void step_watchdogs();
  void deliver_response(std::size_t endpoint, const DeliveredBeat& beat,
                        bool nak);

  FabricConfig config_;
  std::vector<PortState> ports_;
  std::vector<EndpointState> endpoints_;
  std::vector<unsigned> credits_;  ///< [port * num_endpoints + endpoint]
  unsigned num_domains_ = 1;
  std::vector<DomainStats> domains_;
  std::uint64_t now_ = 0;
  std::uint64_t silent_ = 0;
  std::uint64_t resolved_ = 0;
  std::uint64_t total_requests_ = 0;

  fault::FaultInjector* injector_ = nullptr;
  fdir::FdirBus* fdir_ = nullptr;
  fault::PointId pt_arb_stall_ = fault::kNoFaultPoint;
  fault::PointId pt_beat_drop_ = fault::kNoFaultPoint;
  fault::PointId pt_beat_corrupt_ = fault::kNoFaultPoint;
  fault::PointId pt_credit_leak_ = fault::kNoFaultPoint;
  fault::PointId pt_endpoint_wedge_ = fault::kNoFaultPoint;
};

}  // namespace hermes::noc
