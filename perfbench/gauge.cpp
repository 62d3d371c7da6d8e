//===- perfbench/gauge.cpp - Machine-speed gauge for the timed runs -----===//
//
// The benchmark's machine is a few cores of a shared host, and its speed
// per instruction moves with the host's other load: by 10-30% within a
// run, and by more between runs. Ten runs of the same compiles then
// spread by 40% of their median, wider than any bound a regression check
// could use. The
// gauge times a fixed kernel of the benchmark's own (hash-map inserts
// and lookups, an ordered map of strings, a sort, a pointer chase, a
// multiply-and-branch loop: the kinds of work a compile does) between or
// beside the measured calls, and the timed runs scale each measured time
// by ReferenceMs over the kernel's time around it. A slow stretch of the
// host slows the kernel alike, so the scaled time stays put; a faster or
// slower library moves it in full, because the kernel never calls into
// the library (hence its own random generator). It allocates from an
// arena of its own, so the library's heap does not change its speed.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory_resource>
#include <unordered_map>

using namespace perfbench;

namespace {

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// The pointer-chase table: a random permutation of 2^14 slots (64 KiB).
const std::vector<uint32_t> &chaseTable() {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> Perm(1u << 14);
    for (uint32_t I = 0; I != Perm.size(); ++I)
      Perm[I] = I;
    uint64_t State = 1;
    for (size_t I = Perm.size(); I > 1; --I)
      std::swap(Perm[I - 1], Perm[splitmix(State) % I]);
    return Perm;
  }();
  return Table;
}

/// One run of the kernel, about 3 ms of the same work every time, from
/// the arena \p Arena. Its data stays within the per-core caches, so
/// where the process's pages happen to lie does not change its speed.
/// Returns a checksum so that none of it is optimized away.
uint64_t kernel(std::byte *Arena) {
  std::pmr::monotonic_buffer_resource Mem(Arena, SpeedGauge::ArenaBytes);
  uint64_t State = 0x5eed, Sum = 0;
  for (int Rep = 0; Rep != 4; ++Rep) {
    {
      std::pmr::unordered_map<uint32_t, uint32_t> Map(&Mem);
      Map.reserve(4096);
      for (int I = 0; I != 3000; ++I)
        Map[splitmix(State) % 6000] += I;
      for (int I = 0; I != 6000; ++I) {
        auto It = Map.find(splitmix(State) % 6000);
        Sum += It == Map.end() ? 1 : It->second;
      }
    }
    {
      std::pmr::vector<std::pmr::string> Strs(&Mem);
      for (int I = 0; I != 800; ++I) {
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "v%llu_t",
                      static_cast<unsigned long long>(splitmix(State) %
                                                      1000000));
        Strs.emplace_back(Buf);
      }
      std::pmr::map<std::pmr::string, int> Tree(&Mem);
      for (const std::pmr::string &S : Strs)
        Tree[S]++;
      std::sort(Strs.begin(), Strs.end());
      Sum += Tree.size() + Strs.front().size();
    }
    Mem.release();
  }
  const std::vector<uint32_t> &Table = chaseTable();
  uint32_t P = 0;
  for (int I = 0; I != 60000; ++I)
    P = Table[P];
  uint64_t H = 1469598103934665603ull;
  for (int I = 0; I != 300000; ++I) {
    H ^= (H >> 7) + I;
    H *= 1099511628211ull;
    Sum += H & 1 ? H : 0;
  }
  return Sum + P + H;
}

} // namespace

SpeedGauge::SpeedGauge() : Arena(new std::byte[ArenaBytes]) {
  Sink += chaseTable().size() + kernel(Arena.get()); // warm-up, not recorded
}

SpeedGauge::~SpeedGauge() { stop(); }

double SpeedGauge::sample() {
  Clock::time_point T0 = Clock::now();
  Sink += kernel(Arena.get());
  Clock::time_point T1 = Clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Samples.push_back({T0 + (T1 - T0) / 2, msBetween(T0, T1)});
  return Samples.back().Ms;
}

void SpeedGauge::after(double WorkMs) {
  double Spent = 0;
  do
    Spent += sample();
  while (Spent < WorkMs / 20);
}

void SpeedGauge::start() {
  Stop = false;
  Thread = std::thread([this] {
    while (!Stop) {
      Clock::time_point T0 = Clock::now();
      sample();
      // A tenth of one core: the gauge stays small beside the work.
      std::this_thread::sleep_for((Clock::now() - T0) * 9);
    }
  });
}

void SpeedGauge::stop() {
  Stop = true;
  if (Thread.joinable())
    Thread.join();
}

double SpeedGauge::scale(Clock::time_point T0, Clock::time_point T1) const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Samples.empty())
    return 1;
  // The samples within a second of [T0, T1], and at least the
  // MinSamples nearest to it.
  const auto Window = std::chrono::seconds(1);
  const size_t MinSamples = 15;
  std::vector<std::pair<Clock::duration, double>> ByDistance;
  for (const Sample &S : Samples) {
    Clock::duration D = S.At < T0   ? T0 - S.At
                        : S.At > T1 ? S.At - T1
                                    : Clock::duration::zero();
    ByDistance.push_back({D, S.Ms});
  }
  std::sort(ByDistance.begin(), ByDistance.end());
  std::vector<double> Near;
  for (const auto &[D, Ms] : ByDistance)
    if (D <= Window || Near.size() < MinSamples)
      Near.push_back(Ms);
  return ReferenceMs / median(Near);
}

double SpeedGauge::medianMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Ms;
  for (const Sample &S : Samples)
    Ms.push_back(S.Ms);
  return median(Ms);
}

size_t SpeedGauge::samples() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Samples.size();
}
