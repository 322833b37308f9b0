#include "noc/noc.hpp"

#include <algorithm>
#include <cassert>

#include "common/backoff.hpp"
#include "common/strings.hpp"

namespace hermes::noc {
namespace {

/// Per-beat CRC carried across the fabric: covers the routing tuple and the
/// payload, so an in-flight payload flip is always detected at the endpoint.
std::uint32_t beat_crc(std::uint32_t port, std::uint32_t endpoint,
                       std::uint32_t seq, std::uint64_t payload) {
  const std::uint64_t hash =
      Fnv64().word(port).word(endpoint).word(seq).word(payload).digest();
  return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

constexpr std::string_view kNocPoints[] = {
    "noc.arb.stall",       // arbiter withholds every grant to one endpoint
    "noc.beat.drop",       // granted beat vanishes between port and endpoint
    "noc.beat.corrupt",    // granted beat's payload flipped in flight
    "noc.credit.leak",     // a returning credit is lost on the fabric
    "noc.endpoint.wedge",  // endpoint stops consuming until re-admitted
};

}  // namespace

std::span<const std::string_view> noc_point_catalog() { return kNocPoints; }

std::uint64_t FabricResult::fingerprint() const {
  Fnv64 hash;
  hash.word(static_cast<std::uint64_t>(status.code()));
  hash.word(cycles);
  hash.word(silent);
  for (const std::uint64_t digest : domain_digest) hash.word(digest);
  for (const DomainStats& d : domains) {
    hash.word(d.completed);
    hash.word(d.failed);
    hash.word(d.retries);
    hash.word(d.timeouts);
    hash.word(d.corrupt_detected);
    hash.word(d.credit_leaks_recovered);
    hash.word(d.arb_stalls);
    hash.word(d.quarantines);
    hash.word(d.readmissions);
    hash.word(d.drained);
  }
  for (const PortStats& p : ports) {
    hash.word(p.injected);
    hash.word(p.granted);
    hash.word(p.completed);
    hash.word(p.retries);
    hash.word(p.failed);
    hash.word(p.timeouts);
    hash.word(p.naks);
    hash.word(p.stale_responses);
    hash.word(p.starvation_promotions);
    hash.word(p.rejected_masked);
    hash.word(p.rejected_quarantined);
    hash.word(p.latency_sum);
  }
  for (const EndpointStats& e : endpoints) {
    hash.word(e.consumed);
    hash.word(e.responses);
    hash.word(e.crc_rejected);
    hash.word(e.wedges);
    hash.word(e.watchdog_trips);
  }
  return hash.digest();
}

Crossbar::Crossbar(FabricConfig config, std::vector<PortConfig> ports,
                   std::vector<EndpointConfig> endpoints)
    : config_(config) {
  assert(!ports.empty() && !endpoints.empty());
  endpoints_.reserve(endpoints.size());
  for (EndpointConfig& endpoint : endpoints) {
    if (endpoint.service_cycles == 0) endpoint.service_cycles = 1;
    if (endpoint.credits == 0) endpoint.credits = 1;
    if (endpoint.input_depth == 0) endpoint.input_depth = 1;
    num_domains_ = std::max(num_domains_, endpoint.domain + 1);
    EndpointState state;
    state.config = std::move(endpoint);
    endpoints_.push_back(std::move(state));
  }
  ports_.reserve(ports.size());
  for (PortConfig& port : ports) {
    if (port.weight == 0) port.weight = 1;
    if (port.vc_depth == 0) port.vc_depth = 1;
    PortState state;
    state.config = std::move(port);
    state.vc.resize(endpoints_.size());
    state.outstanding.resize(endpoints_.size());
    state.next_seq.assign(endpoints_.size(), 0);
    state.pair_digest.assign(endpoints_.size(), Fnv64());
    ports_.push_back(std::move(state));
  }
  credits_.resize(ports_.size() * endpoints_.size());
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      credits_[p * endpoints_.size() + e] = endpoints_[e].config.credits;
    }
  }
  domains_.resize(num_domains_);
}

void Crossbar::attach_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (!injector_) return;
  pt_arb_stall_ = injector_->register_point("noc.arb.stall");
  pt_beat_drop_ = injector_->register_point("noc.beat.drop");
  pt_beat_corrupt_ = injector_->register_point("noc.beat.corrupt");
  pt_credit_leak_ = injector_->register_point("noc.credit.leak");
  pt_endpoint_wedge_ = injector_->register_point("noc.endpoint.wedge");
}

void Crossbar::bind_workload(std::uint32_t port,
                             std::vector<BeatRequest> beats) {
  assert(port < ports_.size());
  PortState& state = ports_[port];
  total_requests_ += beats.size();
  if (state.work.empty()) {
    state.work = std::move(beats);
  } else {
    state.work.insert(state.work.end(), beats.begin(), beats.end());
    std::stable_sort(state.work.begin() + static_cast<std::ptrdiff_t>(
                                              state.next_request),
                     state.work.end(),
                     [](const BeatRequest& a, const BeatRequest& b) {
                       return a.release_cycle < b.release_cycle;
                     });
  }
}

void Crossbar::publish(fdir::Severity severity, ErrorCode code,
                       unsigned domain) {
  if (fdir_) {
    fdir_->publish({fdir::Layer::kNoc, severity, code, domain, now_});
  }
}

void Crossbar::fail_beat(PortState& port, std::size_t endpoint,
                         unsigned attempt) {
  (void)attempt;
  ++port.stats.failed;
  ++domains_[endpoints_[endpoint].config.domain].failed;
  ++resolved_;
}

void Crossbar::return_credit(std::size_t port, std::size_t endpoint) {
  const unsigned domain = endpoints_[endpoint].config.domain;
  // The returning credit is itself fabric traffic: the leak point gets one
  // opportunity to lose it. The per-cycle credit audit detects and restores
  // the loss (kCorrected) — a leak is a counted detection, never a livelock.
  if (injector_ && domain_faultable(domain) &&
      injector_->should_fire(pt_credit_leak_)) {
    return;
  }
  unsigned& credits = credits_[port * endpoints_.size() + endpoint];
  if (credits < endpoints_[endpoint].config.credits) ++credits;
}

void Crossbar::retry_or_fail(PortState& port, std::size_t endpoint,
                             Outstanding beat, ErrorCode code) {
  const unsigned domain = endpoints_[endpoint].config.domain;
  if (beat.attempt < config_.max_retries) {
    ++port.stats.retries;
    ++domains_[domain].retries;
    publish(fdir::Severity::kRetried, code, domain);
    // Re-injection goes to the *front* of the pair's VC so per-stream seq
    // order is preserved end to end (the canonical-digest argument relies on
    // it); the backoff gate keeps the head ineligible until the ladder says
    // retry, mirroring the AXI master one layer down.
    VcEntry entry;
    entry.seq = beat.seq;
    entry.attempt = beat.attempt + 1;
    entry.payload = beat.payload;
    entry.crc = beat_crc(static_cast<std::uint32_t>(&port - ports_.data()),
                         static_cast<std::uint32_t>(endpoint), beat.seq,
                         beat.payload);
    entry.release_cycle = beat.release_cycle;
    entry.enqueued_at = now_;
    entry.eligible_at =
        now_ + backoff_cycles(config_.retry_backoff_cycles, beat.attempt);
    port.vc[endpoint].push_front(std::move(entry));
    return;
  }
  publish(fdir::Severity::kExhausted, code, domain);
  fail_beat(port, endpoint, beat.attempt);
}

void Crossbar::step_inject() {
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    PortState& port = ports_[p];
    while (port.next_request < port.work.size() &&
           port.work[port.next_request].release_cycle <= now_) {
      const BeatRequest& request = port.work[port.next_request];
      if (request.endpoint >= endpoints_.size()) {
        ++port.stats.failed;
        ++resolved_;
        ++port.next_request;
        continue;
      }
      const std::size_t e = request.endpoint;
      if (port.masked) {
        ++port.stats.rejected_masked;
        fail_beat(port, e, 0);
        ++port.next_request;
        continue;
      }
      if (endpoints_[e].quarantined) {
        ++port.stats.rejected_quarantined;
        fail_beat(port, e, 0);
        ++port.next_request;
        continue;
      }
      if (port.vc[e].size() >= port.config.vc_depth) {
        // Ingress stall: the bounded VC is full. Later releases on this port
        // wait too (ingress is in order), but *arbitration* head-of-line
        // blocking across endpoints cannot happen — each endpoint has its
        // own VC.
        break;
      }
      VcEntry entry;
      entry.seq = port.next_seq[e]++;
      entry.attempt = 0;
      entry.payload = request.payload;
      entry.crc = beat_crc(static_cast<std::uint32_t>(p),
                           static_cast<std::uint32_t>(e), entry.seq,
                           request.payload);
      entry.release_cycle = request.release_cycle;
      entry.enqueued_at = now_;
      entry.eligible_at = now_;
      port.vc[e].push_back(std::move(entry));
      ++port.stats.injected;
      ++port.next_request;
    }
  }
}

void Crossbar::step_credit_audit() {
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      if (endpoints_[e].quarantined) continue;
      const unsigned expected = endpoints_[e].config.credits;
      unsigned& credits = credits_[p * endpoints_.size() + e];
      const unsigned held =
          credits + static_cast<unsigned>(ports_[p].outstanding[e].size());
      if (held < expected) {
        const unsigned missing = expected - held;
        credits += missing;
        const unsigned domain = endpoints_[e].config.domain;
        domains_[domain].credit_leaks_recovered += missing;
        publish(fdir::Severity::kCorrected, ErrorCode::kInternal, domain);
      }
    }
  }
}

void Crossbar::step_timeouts() {
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    PortState& port = ports_[p];
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      std::deque<Outstanding>& outstanding = port.outstanding[e];
      std::vector<Outstanding> expired;
      while (!outstanding.empty() &&
             outstanding.front().sent_at + config_.beat_timeout_cycles <=
                 now_) {
        expired.push_back(outstanding.front());
        outstanding.pop_front();
      }
      if (expired.empty()) continue;
      const unsigned domain = endpoints_[e].config.domain;
      for (const Outstanding& beat : expired) {
        (void)beat;
        // Source-side reclaim: the beat is abandoned, its credit comes home.
        unsigned& credits = credits_[p * endpoints_.size() + e];
        if (credits < endpoints_[e].config.credits) ++credits;
        ++port.stats.timeouts;
        ++domains_[domain].timeouts;
      }
      // Walk newest-first so the front-insertions leave the oldest beat at
      // the head — per-pair order stays seq order.
      for (auto it = expired.rbegin(); it != expired.rend(); ++it) {
        retry_or_fail(port, e, *it, ErrorCode::kDeadlineExceeded);
      }
    }
  }
}

void Crossbar::step_arbitrate() {
  const std::size_t num_ports = ports_.size();
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointState& endpoint = endpoints_[e];
    if (endpoint.quarantined) continue;
    if (endpoint.input.size() >= endpoint.config.input_depth) continue;

    // Candidate ports: head beat for this endpoint, past its backoff gate,
    // with a credit in hand.
    std::vector<std::size_t> candidates;
    for (std::size_t p = 0; p < num_ports; ++p) {
      const std::deque<VcEntry>& vc = ports_[p].vc[e];
      if (vc.empty() || vc.front().eligible_at > now_) continue;
      if (credits_[p * endpoints_.size() + e] == 0) continue;
      candidates.push_back(p);
    }
    if (candidates.empty()) continue;

    const unsigned domain = endpoint.config.domain;
    if (injector_ && domain_faultable(domain) &&
        injector_->should_fire(pt_arb_stall_)) {
      ++domains_[domain].arb_stalls;
      continue;
    }

    // Starvation watchdog: a head beat older than the threshold outranks
    // every priority class — bounded starvation by construction.
    std::size_t pick = SIZE_MAX;
    std::uint64_t oldest_age = 0;
    for (const std::size_t p : candidates) {
      const std::uint64_t age = now_ - ports_[p].vc[e].front().enqueued_at;
      if (age >= config_.starvation_watchdog_cycles && age > oldest_age) {
        oldest_age = age;
        pick = p;
      }
    }
    if (pick != SIZE_MAX) {
      ++ports_[pick].stats.starvation_promotions;
      publish(fdir::Severity::kInfo, ErrorCode::kDeadlineExceeded, domain);
    } else {
      unsigned best = ~0u;
      for (const std::size_t p : candidates) {
        best = std::min(best, ports_[p].config.priority);
      }
      // Weighted round-robin within the winning class: the current WRR
      // holder keeps the grant while it has weight tokens left, then the
      // pointer advances circularly to the next candidate of the class.
      const auto is_pick = [&](std::size_t p) {
        return std::find(candidates.begin(), candidates.end(), p) !=
                   candidates.end() &&
               ports_[p].config.priority == best;
      };
      if (endpoint.wrr_left > 0 && is_pick(endpoint.wrr_pos)) {
        pick = endpoint.wrr_pos;
        --endpoint.wrr_left;
      } else {
        for (std::size_t i = 1; i <= num_ports; ++i) {
          const std::size_t p = (endpoint.wrr_pos + i) % num_ports;
          if (is_pick(p)) {
            pick = p;
            endpoint.wrr_pos = p;
            endpoint.wrr_left = ports_[p].config.weight - 1;
            break;
          }
        }
      }
      if (pick == SIZE_MAX) continue;
    }

    PortState& port = ports_[pick];
    VcEntry entry = port.vc[e].front();
    port.vc[e].pop_front();
    --credits_[pick * endpoints_.size() + e];
    ++port.stats.granted;
    Outstanding outstanding;
    outstanding.seq = entry.seq;
    outstanding.attempt = entry.attempt;
    outstanding.payload = entry.payload;
    outstanding.release_cycle = entry.release_cycle;
    outstanding.sent_at = now_;
    port.outstanding[e].push_back(outstanding);

    // In-flight fault opportunities, in fixed order: drop, then corrupt.
    if (injector_ && domain_faultable(domain) &&
        injector_->should_fire(pt_beat_drop_)) {
      continue;  // the beat vanishes; the source timeout will notice
    }
    DeliveredBeat beat;
    beat.port = static_cast<std::uint32_t>(pick);
    beat.seq = entry.seq;
    beat.attempt = entry.attempt;
    beat.payload = entry.payload;
    beat.crc = entry.crc;
    if (injector_ && domain_faultable(domain) &&
        injector_->should_fire(pt_beat_corrupt_)) {
      beat.payload = injector_->mutate_word(pt_beat_corrupt_, beat.payload);
    }
    endpoint.input.push_back(std::move(beat));
  }
}

void Crossbar::deliver_response(std::size_t endpoint,
                                const DeliveredBeat& beat, bool nak) {
  PortState& port = ports_[beat.port];
  std::deque<Outstanding>& outstanding = port.outstanding[endpoint];
  auto it = std::find_if(outstanding.begin(), outstanding.end(),
                         [&](const Outstanding& o) {
                           return o.seq == beat.seq;
                         });
  if (it == outstanding.end() || it->attempt != beat.attempt) {
    // The source abandoned this beat (timeout) — the response is stale and
    // its credit already came home with the reclaim.
    ++port.stats.stale_responses;
    return;
  }
  const Outstanding record = *it;
  outstanding.erase(it);
  return_credit(beat.port, endpoint);
  const unsigned domain = endpoints_[endpoint].config.domain;
  if (nak) {
    ++port.stats.naks;
    ++domains_[domain].corrupt_detected;
    retry_or_fail(port, endpoint, record, ErrorCode::kIntegrityError);
    return;
  }
  const std::uint64_t expected =
      respond(static_cast<std::uint32_t>(endpoint), record.payload);
  if (beat.payload != expected) {
    // A response that passed every check yet carries the wrong value would
    // be silent corruption — the contract is that this never happens.
    ++silent_;
    fail_beat(port, endpoint, record.attempt);
    return;
  }
  ++port.stats.completed;
  ++domains_[domain].completed;
  port.stats.latency_sum += now_ - record.release_cycle;
  port.pair_digest[endpoint].word(record.seq).word(beat.payload);
  ++resolved_;
}

void Crossbar::step_endpoints() {
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointState& endpoint = endpoints_[e];
    if (endpoint.quarantined) continue;
    const unsigned domain = endpoint.config.domain;

    // Service completion: the response (with the credit) heads home.
    if (endpoint.busy && now_ >= endpoint.busy_until) {
      endpoint.busy = false;
      ++endpoint.stats.responses;
      DeliveredBeat response = endpoint.current;
      response.payload = respond(static_cast<std::uint32_t>(e),
                                 endpoint.current.payload);
      deliver_response(e, response, /*nak=*/false);
    }

    // Consume the next command beat.
    if (!endpoint.busy && !endpoint.input.empty()) {
      if (!endpoint.wedged && injector_ && domain_faultable(domain) &&
          injector_->should_fire(pt_endpoint_wedge_)) {
        endpoint.wedged = true;
        ++endpoint.stats.wedges;
      }
      if (!endpoint.wedged) {
        DeliveredBeat beat = endpoint.input.front();
        endpoint.input.pop_front();
        ++endpoint.stats.consumed;
        endpoint.last_progress = now_;
        const std::uint32_t crc =
            beat_crc(beat.port, static_cast<std::uint32_t>(e), beat.seq,
                     beat.payload);
        if (crc != beat.crc) {
          // Corruption caught at the boundary: NAK immediately, never
          // compute on a bad beat.
          ++endpoint.stats.crc_rejected;
          deliver_response(e, beat, /*nak=*/true);
        } else {
          endpoint.busy = true;
          endpoint.current = beat;
          endpoint.busy_until = now_ + endpoint.config.service_cycles;
        }
      }
    }
    if (endpoint.input.empty() && !endpoint.busy) {
      endpoint.last_progress = now_;  // idle is progress, not a wedge
    }
  }
}

void Crossbar::step_watchdogs() {
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointState& endpoint = endpoints_[e];
    if (endpoint.quarantined || endpoint.watchdog_tripped) continue;
    if (endpoint.input.empty()) continue;
    if (now_ - endpoint.last_progress < config_.progress_watchdog_cycles) {
      continue;
    }
    // Deadlock/wedge detected: beats are waiting and nothing has moved for
    // the whole watchdog window. One trip per episode (re-armed at readmit).
    endpoint.watchdog_tripped = true;
    ++endpoint.stats.watchdog_trips;
    const unsigned domain = endpoint.config.domain;
    publish(fdir::Severity::kUncorrectable, ErrorCode::kDeadlineExceeded,
            domain);
    if (config_.quarantine_on_watchdog) quarantine_domain(domain);
  }
}

void Crossbar::quarantine_domain(unsigned domain) {
  if (domain >= num_domains_ || domain_quarantined(domain)) return;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointState& endpoint = endpoints_[e];
    if (endpoint.config.domain != domain) continue;
    endpoint.quarantined = true;
    endpoint.busy = false;
    endpoint.input.clear();
    // Drain: every beat bound to this endpoint fails cleanly at the source
    // and its credit pool resets — other domains' traffic never waits on a
    // quarantined domain's queues.
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      PortState& port = ports_[p];
      const std::size_t pending =
          port.vc[e].size() + port.outstanding[e].size();
      for (std::size_t i = 0; i < pending; ++i) {
        ++domains_[domain].drained;
        fail_beat(port, e, 0);
      }
      port.vc[e].clear();
      port.outstanding[e].clear();
      credits_[p * endpoints_.size() + e] = endpoint.config.credits;
    }
  }
  ++domains_[domain].quarantines;
}

void Crossbar::quarantine_all() {
  for (unsigned d = 0; d < num_domains_; ++d) quarantine_domain(d);
}

bool Crossbar::readmit_domain(unsigned domain) {
  if (domain >= num_domains_ || !domain_quarantined(domain)) return false;
  for (EndpointState& endpoint : endpoints_) {
    if (endpoint.config.domain != domain) continue;
    endpoint.quarantined = false;
    endpoint.wedged = false;
    endpoint.watchdog_tripped = false;
    endpoint.busy = false;
    endpoint.input.clear();
    endpoint.last_progress = now_;
  }
  ++domains_[domain].readmissions;
  return true;
}

unsigned Crossbar::readmit_all() {
  unsigned readmitted = 0;
  for (unsigned d = 0; d < num_domains_; ++d) {
    if (readmit_domain(d)) ++readmitted;
  }
  return readmitted;
}

bool Crossbar::domain_quarantined(unsigned domain) const {
  for (const EndpointState& endpoint : endpoints_) {
    if (endpoint.config.domain == domain && endpoint.quarantined) return true;
  }
  return false;
}

void Crossbar::mask_partition(hv::PartitionId partition) {
  for (PortState& port : ports_) {
    if (port.config.owner == partition) port.masked = true;
  }
}

void Crossbar::unmask_partition(hv::PartitionId partition) {
  for (PortState& port : ports_) {
    if (port.config.owner == partition) port.masked = false;
  }
}

FabricResult Crossbar::run() {
  const std::uint64_t deadline = now_ + config_.run_deadline_cycles;
  while (resolved_ < total_requests_ && now_ < deadline) {
    step_inject();
    step_credit_audit();
    step_timeouts();
    step_arbitrate();
    step_endpoints();
    step_watchdogs();
    ++now_;
  }

  FabricResult result;
  if (resolved_ < total_requests_) {
    // The run bound expired: convert the hang into an error and fail every
    // unresolved beat cleanly so the fabric is quiescent for the next run.
    result.status = Status::Error(
        ErrorCode::kDeadlineExceeded,
        format("NoC run exceeded %llu cycles with %llu beats unresolved",
               static_cast<unsigned long long>(config_.run_deadline_cycles),
               static_cast<unsigned long long>(total_requests_ - resolved_)));
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      PortState& port = ports_[p];
      while (port.next_request < port.work.size()) {
        const BeatRequest& request = port.work[port.next_request];
        if (request.endpoint < endpoints_.size()) {
          fail_beat(port, request.endpoint, 0);
        } else {
          ++port.stats.failed;
          ++resolved_;
        }
        ++port.next_request;
      }
      for (std::size_t e = 0; e < endpoints_.size(); ++e) {
        const std::size_t pending =
            port.vc[e].size() + port.outstanding[e].size();
        for (std::size_t i = 0; i < pending; ++i) fail_beat(port, e, 0);
        port.vc[e].clear();
        port.outstanding[e].clear();
        credits_[p * endpoints_.size() + e] = endpoints_[e].config.credits;
      }
    }
  }
  // Workloads are consumed; counters and digests accumulate for the life of
  // the fabric (run-twice families construct a fresh fabric per run).
  for (PortState& port : ports_) {
    port.work.clear();
    port.next_request = 0;
  }

  result.cycles = now_;
  result.silent = silent_;
  result.domain_digest.assign(num_domains_, Fnv64::kBasis);
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      std::uint64_t& digest = result.domain_digest[endpoints_[e].config.domain];
      digest = Fnv64(digest).word(ports_[p].pair_digest[e].digest()).digest();
    }
  }
  result.domains = domains_;
  result.ports.reserve(ports_.size());
  for (const PortState& port : ports_) result.ports.push_back(port.stats);
  result.endpoints.reserve(endpoints_.size());
  for (const EndpointState& endpoint : endpoints_) {
    result.endpoints.push_back(endpoint.stats);
  }
  return result;
}

}  // namespace hermes::noc
