//===- support/ThreadPool.cpp - Shared-index thread pool ----------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace specpre;

unsigned ThreadPool::hardwareWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned Workers)
    : NumWorkers(std::max(1u, Workers)) {
  Threads.reserve(NumWorkers - 1);
  for (unsigned I = 1; I < NumWorkers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(QueueM);
    Stopping = true;
    ++QueueVersion;
  }
  QueueCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

bool ThreadPool::participate(Job &J) {
  size_t Ran = 0;
  for (;;) {
    size_t Index = J.Next.fetch_add(1);
    if (Index >= J.N)
      break;
    try {
      (*J.Body)(Index);
    } catch (...) {
      // Contain the exception: the batch keeps running, and parallelFor
      // rethrows the smallest failing index's error after completion.
      std::lock_guard<std::mutex> L(J.DoneM);
      if (!J.FirstError || Index < J.FirstErrorIndex) {
        J.FirstError = std::current_exception();
        J.FirstErrorIndex = Index;
      }
    }
    ++Ran;
  }
  if (Ran) {
    bool Complete;
    {
      std::lock_guard<std::mutex> L(J.DoneM);
      J.ItemsDone += Ran;
      Complete = J.ItemsDone == J.N;
    }
    if (Complete)
      J.DoneCv.notify_all();
  }
  return Ran != 0;
}

void ThreadPool::workerLoop() {
  uint64_t SeenVersion = 0;
  for (;;) {
    std::vector<std::shared_ptr<Job>> Jobs;
    {
      std::unique_lock<std::mutex> L(QueueM);
      QueueCv.wait(L, [&] {
        return Stopping || QueueVersion != SeenVersion;
      });
      if (Stopping)
        return;
      SeenVersion = QueueVersion;
      Jobs = ActiveJobs;
    }
    // Help every active job until none of them has claimable work, then
    // go back to sleep until the queue changes.
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (const std::shared_ptr<Job> &J : Jobs)
        Progress |= participate(*J);
    }
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  if (NumWorkers <= 1 || N == 1) {
    // Inline path, matching the pool path's exception contract: run every
    // index, then rethrow the first failure.
    std::exception_ptr FirstError;
    for (size_t I = 0; I != N; ++I) {
      try {
        Body(I);
      } catch (...) {
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
    if (FirstError)
      std::rethrow_exception(FirstError);
    return;
  }

  auto J = std::make_shared<Job>();
  J->Body = &Body;
  J->N = N;

  {
    std::lock_guard<std::mutex> L(QueueM);
    ActiveJobs.push_back(J);
    ++QueueVersion;
  }
  QueueCv.notify_all();

  participate(*J);
  std::exception_ptr FirstError;
  {
    std::unique_lock<std::mutex> L(J->DoneM);
    J->DoneCv.wait(L, [&] { return J->ItemsDone == J->N; });
    FirstError = J->FirstError;
  }

  {
    std::lock_guard<std::mutex> L(QueueM);
    ActiveJobs.erase(std::find(ActiveJobs.begin(), ActiveJobs.end(), J));
    ++QueueVersion;
  }
  QueueCv.notify_all();

  if (FirstError)
    std::rethrow_exception(FirstError);
}
