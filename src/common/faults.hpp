// Deterministic fault injection for the runtime and the serving tier.
//
// A FaultPlan is parsed from a compact spec string and replayed from one
// seed: every decision a rule makes at a given injection-site trigger index
// is a pure function of (seed, rule index, trigger index), so the fault
// sequence a single-threaded driver observes is bit-reproducible, and even
// under multi-threaded serving each site's n-th trigger always draws the
// same verdict regardless of how other sites interleave.
//
// Spec grammar (';'-separated rules, each `site:kind[:param]...`):
//
//   site  := copy_in | copy_out | dma | launch | replay | staging | any
//            (dma = copy_in + copy_out; any = every site)
//   kind  := transient | sticky | corrupt | stall=<N>us | stall=<N>ms
//   param := p=<float>      per-trigger probability (transient/corrupt/stall;
//                           default 1.0)
//            after=<N>      rule is dormant for the site's first N triggers
//            limit=<N>      rule disarms after firing N times (0 = never)
//
// Examples: "copy_in:transient:p=0.01;launch:sticky:after=200;dma:stall=50us"
//
// Kinds: `transient` throws TransientFault (recoverable -- the serving tier
// retries and degrades the device); `sticky` throws StickyFault on EVERY
// trigger once past `after` (until `limit`), modeling a hard device fault;
// `corrupt` flips one deterministic bit of the payload moving through the
// site (caught by the bit-identity differentials and serving-tier output
// verification); `stall` sleeps the executing thread for the given modeled
// duration (caught by the cluster watchdog's deadlines).
//
// Injection sites are threaded through the runtime behind a null check on
// DeviceDescriptor::faults: when no plan is attached (the default), every
// hook compiles down to one untaken branch on the hot path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace simt::faults {

/// Where in the runtime a fault can be injected.
enum class FaultSite : unsigned {
  CopyIn,   ///< eager / replayed host->device copies (Stream, GraphExec)
  CopyOut,  ///< eager / replayed device->host copies
  Launch,   ///< Device::execute_plan (eager and replayed launches)
  Replay,   ///< GraphExec: once per replay, before its updates apply
  Staging,  ///< MultiCoreBackend: once per dispatched core per round
};
inline constexpr std::size_t kSiteCount = 5;

const char* to_string(FaultSite site);

enum class FaultKind : unsigned { Transient, Sticky, Corrupt, Stall };

const char* to_string(FaultKind kind);

/// A recoverable injected fault: the device survives, the work does not.
/// The serving tier retries the request and degrades (not quarantines) the
/// device.
class TransientFault : public Error {
 public:
  using Error::Error;
};

/// A hard injected fault: the device is considered broken until it heals
/// (a rule with `limit`) -- the serving tier quarantines it.
class StickyFault : public Error {
 public:
  using Error::Error;
};

/// One parsed rule of a fault plan.
struct FaultRule {
  FaultSite site = FaultSite::CopyIn;
  FaultKind kind = FaultKind::Transient;
  double p = 1.0;               ///< per-trigger probability (not Sticky)
  std::uint64_t after = 0;      ///< dormant for the site's first N triggers
  std::uint64_t limit = 0;      ///< max fires; 0 = unlimited
  std::uint64_t stall_us = 0;   ///< Stall only: sleep duration
};

/// A parsed spec: the rule list, expanded so each rule names exactly one
/// site (`dma` and `any` become several rules).
struct FaultPlan {
  std::vector<FaultRule> rules;

  /// Parse the spec grammar above; throws simt::Error with the offending
  /// token on anything malformed. An empty spec parses to an empty plan.
  static FaultPlan parse(std::string_view spec);

  bool empty() const { return rules.empty(); }
  /// Canonical re-rendering of the plan (one rule per line, for docs/CLI).
  std::string describe() const;
};

/// One fired fault, in firing order.
struct FaultRecord {
  FaultSite site = FaultSite::CopyIn;
  FaultKind kind = FaultKind::Transient;
  std::uint64_t trigger = 0;  ///< the site's trigger index when it fired
  std::size_t rule = 0;       ///< index into the plan's rule list
};

/// What a fired Corrupt rule asks the caller to do when the payload is not
/// directly available to the injector (e.g. graph-replay copy-ins, whose
/// captured storage must not be corrupted in place).
struct SiteOutcome {
  bool corrupt = false;
  std::uint64_t corrupt_word = 0;   ///< caller takes modulo its span size
  std::uint32_t corrupt_mask = 0;   ///< single bit to XOR in
};

/// The armed fault plan a Device carries. Thread-safe: trigger counters are
/// atomic and the trace is mutex-guarded; decisions are counter-derived so
/// they do not depend on cross-site interleaving. Constructed armed;
/// disarm() turns every site into a counter-free no-op (setup phases like
/// plan registration run disarmed so warmups never consume trigger
/// indices).
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Parse + construct in one step (shared_ptr: DeviceDescriptor carries
  /// it). Returns nullptr for an empty/blank spec so the no-plan hot path
  /// stays a null check.
  static std::shared_ptr<FaultInjector> from_spec(std::string_view spec,
                                                  std::uint64_t seed);

  void arm() { armed_.store(true, std::memory_order_release); }
  void disarm() { armed_.store(false, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// One site trigger: consumes the site's next trigger index and evaluates
  /// every matching rule in plan order. Stall rules sleep here; Corrupt
  /// rules flip one bit of `payload` in place (or report the flip in the
  /// returned outcome when `payload` is empty); Transient/Sticky rules
  /// throw after recording the trace entry. Disarmed: no-op, no counter.
  SiteOutcome at(FaultSite site, std::span<std::uint32_t> payload = {});

  /// Triggers consumed per site so far (armed calls only).
  std::uint64_t triggers(FaultSite site) const;
  /// Total rule firings so far.
  std::uint64_t fired() const;
  /// The firing history, in order.
  std::vector<FaultRecord> trace() const;
  /// One line per firing: "launch:sticky@204" -- the determinism tests
  /// compare these strings across runs.
  std::string trace_string() const;

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t seed() const { return seed_; }

 private:
  /// The deterministic per-(rule, trigger) uniform draw in [0, 1).
  double draw(std::size_t rule, std::uint64_t trigger,
              std::uint64_t salt) const;

  FaultPlan plan_;
  std::uint64_t seed_;
  std::atomic<bool> armed_{true};
  std::array<std::atomic<std::uint64_t>, kSiteCount> counters_{};
  std::vector<std::atomic<std::uint64_t>> fires_;  ///< per rule
  mutable std::mutex trace_mu_;
  std::vector<FaultRecord> trace_;
};

}  // namespace simt::faults
