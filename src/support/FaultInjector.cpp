//===- support/FaultInjector.cpp - Deterministic fault injection ---------===//

#include "support/FaultInjector.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace specpre;

namespace {

/// Armed configuration for one site.
struct SiteConfig {
  bool Armed = false;
  /// Probability scaled to 2^32 (rate 1.0 => every probe fires).
  uint64_t Threshold = 0;
  uint64_t Seed = 0;
};

struct InjectorConfig {
  std::array<SiteConfig, NumFaultSites> Sites;
};

/// Published configuration; null when disarmed. Never freed on
/// reconfigure so concurrent probes never read freed memory (specs are
/// set a handful of times per process, from main or a test); retired
/// configs are parked in `Retired`, which also keeps them reachable so
/// leak checkers stay quiet about the deliberate lifetime.
std::atomic<const InjectorConfig *> Active{nullptr};

std::mutex RetiredMu;
std::vector<std::unique_ptr<const InjectorConfig>> &retiredConfigs() {
  static std::vector<std::unique_ptr<const InjectorConfig>> Retired;
  return Retired;
}

/// Per-site deterministic hit counters (shared across threads), used
/// by every site outside a FaultHitScope.
std::array<std::atomic<uint64_t>, NumFaultSites> HitCounters{};

/// The innermost FaultHitScope of this thread; null outside any.
thread_local FaultHitScope *CurrentHitScope = nullptr;

std::atomic<uint64_t> InjectedTotal{0};

/// splitmix64 — small, well-mixed, and reproducible across platforms.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

bool parseRate(std::string_view Text, uint64_t &ThresholdOut) {
  // Accept "0", "1", and decimals like "0.01"; anything else is an error.
  double Rate = 0;
  size_t Consumed = 0;
  try {
    Rate = std::stod(std::string(Text), &Consumed);
  } catch (...) {
    return false;
  }
  if (Consumed != Text.size() || Rate < 0.0 || Rate > 1.0)
    return false;
  ThresholdOut = static_cast<uint64_t>(Rate * 4294967296.0);
  return true;
}

bool parseSeed(std::string_view Text, uint64_t &SeedOut) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char Ch : Text) {
    if (Ch < '0' || Ch > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(Ch - '0');
  }
  SeedOut = V;
  return true;
}

bool siteFromName(std::string_view Name, FaultSite &Out) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    if (Name == faultSiteName(static_cast<FaultSite>(I))) {
      Out = static_cast<FaultSite>(I);
      return true;
    }
  }
  return false;
}

void publish(std::unique_ptr<InjectorConfig> Config) {
  for (auto &C : HitCounters)
    C.store(0, std::memory_order_relaxed);
  InjectedTotal.store(0, std::memory_order_relaxed);
  const InjectorConfig *Old =
      Active.exchange(Config.release(), std::memory_order_acq_rel);
  if (Old) {
    std::lock_guard<std::mutex> Lock(RetiredMu);
    retiredConfigs().emplace_back(Old);
  }
}

} // namespace

const char *specpre::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::PhiInsertion:
    return "phi-insertion";
  case FaultSite::Rename:
    return "rename";
  case FaultSite::DataFlow:
    return "data-flow";
  case FaultSite::Reduction:
    return "reduction";
  case FaultSite::MinCut:
    return "min-cut";
  case FaultSite::SafePlacement:
    return "safe-placement";
  case FaultSite::Speculation:
    return "speculation";
  case FaultSite::Finalize:
    return "finalize";
  case FaultSite::CodeMotion:
    return "code-motion";
  case FaultSite::Verify:
    return "verify";
  case FaultSite::Alloc:
    return "alloc";
  case FaultSite::Budget:
    return "budget";
  case FaultSite::TornFrame:
    return "torn-frame";
  case FaultSite::PartialWrite:
    return "partial-write";
  case FaultSite::DelayedWrite:
    return "delayed-write";
  case FaultSite::DroppedConnection:
    return "dropped-connection";
  case FaultSite::WorkerKill:
    return "worker-kill";
  case FaultSite::WorkerCrash:
    return "worker-crash";
  case FaultSite::DiskShortWrite:
    return "disk-short-write";
  case FaultSite::DiskEnospc:
    return "disk-enospc";
  case FaultSite::DiskEio:
    return "disk-eio";
  case FaultSite::DiskCorruptByte:
    return "disk-corrupt-byte";
  case FaultSite::DiskRenameFail:
    return "disk-rename-fail";
  }
  return "unknown";
}

Status specpre::configureFaultInjection(std::string_view Spec) {
  if (Spec.empty()) {
    publish(nullptr);
    return Status::ok();
  }
  auto Config = std::make_unique<InjectorConfig>();
  std::string_view Rest = Spec;
  while (!Rest.empty()) {
    size_t Comma = Rest.find(',');
    std::string_view Entry = Rest.substr(0, Comma);
    Rest = Comma == std::string_view::npos ? std::string_view()
                                          : Rest.substr(Comma + 1);

    size_t C1 = Entry.find(':');
    if (C1 == std::string_view::npos)
      return Status::error(ErrorCode::InvalidInput,
                           "fault spec entry '" + std::string(Entry) +
                               "' missing ':rate' (want site:rate[:seed])");
    std::string_view SiteName = Entry.substr(0, C1);
    std::string_view Tail = Entry.substr(C1 + 1);
    size_t C2 = Tail.find(':');
    std::string_view RateText = Tail.substr(0, C2);
    std::string_view SeedText =
        C2 == std::string_view::npos ? std::string_view() : Tail.substr(C2 + 1);

    uint64_t Threshold = 0;
    if (!parseRate(RateText, Threshold))
      return Status::error(ErrorCode::InvalidInput,
                           "fault spec entry '" + std::string(Entry) +
                               "' has bad rate '" + std::string(RateText) +
                               "' (want a number in [0,1])");
    uint64_t Seed = 0;
    if (!SeedText.empty() && !parseSeed(SeedText, Seed))
      return Status::error(ErrorCode::InvalidInput,
                           "fault spec entry '" + std::string(Entry) +
                               "' has bad seed '" + std::string(SeedText) +
                               "' (want a non-negative integer)");

    auto Arm = [&](FaultSite S) {
      SiteConfig &SC = Config->Sites[static_cast<unsigned>(S)];
      SC.Armed = true;
      SC.Threshold = Threshold;
      SC.Seed = Seed;
    };
    if (SiteName == "all") {
      for (unsigned I = 0; I != NumFaultSites; ++I)
        Arm(static_cast<FaultSite>(I));
    } else {
      FaultSite S;
      if (!siteFromName(SiteName, S))
        return Status::error(ErrorCode::InvalidInput,
                             "fault spec entry '" + std::string(Entry) +
                                 "' names unknown site '" +
                                 std::string(SiteName) + "'");
      Arm(S);
    }
  }
  publish(std::move(Config));
  return Status::ok();
}

void specpre::disableFaultInjection() { publish(nullptr); }

bool specpre::faultInjectionEnabled() {
  return Active.load(std::memory_order_acquire) != nullptr;
}

bool specpre::pipelineFaultInjectionEnabled() {
  const InjectorConfig *Config = Active.load(std::memory_order_acquire);
  if (!Config)
    return false;
  for (unsigned I = 0; I != NumPipelineFaultSites; ++I)
    if (Config->Sites[I].Armed)
      return true;
  return false;
}

namespace {

/// Shared coin flip of maybeInject/shouldInjectFault: bumps the site's
/// hit counter (the thread's FaultHitScope for a pipeline site, else the
/// process-wide one) and, on a firing coin, the injected total. Returns
/// the hit index through \p HitOut when the coin fires.
bool coinFires(FaultSite S, uint64_t &HitOut) {
  const InjectorConfig *Config = Active.load(std::memory_order_acquire);
  if (!Config)
    return false;
  const SiteConfig &SC = Config->Sites[static_cast<unsigned>(S)];
  if (!SC.Armed || SC.Threshold == 0)
    return false;
  uint64_t Hit =
      CurrentHitScope && static_cast<unsigned>(S) < NumPipelineFaultSites
          ? CurrentHitScope->nextHit(S)
          : HitCounters[static_cast<unsigned>(S)].fetch_add(
                1, std::memory_order_relaxed);
  uint64_t Coin =
      mix64(SC.Seed * 0x100000001b3ULL + static_cast<unsigned>(S) * 131 + Hit);
  if ((Coin & 0xffffffffULL) >= SC.Threshold)
    return false;
  InjectedTotal.fetch_add(1, std::memory_order_relaxed);
  HitOut = Hit;
  return true;
}

} // namespace

void specpre::maybeInject(FaultSite S, const char *Detail) {
  uint64_t Hit = 0;
  if (!coinFires(S, Hit))
    return;
  std::string Msg = std::string("injected fault at site '") +
                    faultSiteName(S) + "' (hit " + std::to_string(Hit) + ")";
  if (Detail && *Detail)
    Msg += std::string(", ") + Detail;
  throw StatusException(ErrorCode::FaultInjected, std::move(Msg));
}

bool specpre::shouldInjectFault(FaultSite S) {
  uint64_t Hit = 0;
  return coinFires(S, Hit);
}

uint64_t specpre::faultsInjectedCount() {
  return InjectedTotal.load(std::memory_order_relaxed);
}

FaultHitScope::FaultHitScope() : Outer(CurrentHitScope) {
  CurrentHitScope = this;
}

FaultHitScope::~FaultHitScope() { CurrentHitScope = Outer; }
