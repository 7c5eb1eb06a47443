// Exclusive list-based range lock — the paper's core contribution (§4.1, Listing 1).
//
// One ListingOneList (listing_one.h): insertion by CAS, release by mark bit, unlink by
// helping and the bounded conflict wait. This class adds the acquisition flavours, the
// admission gate and two features the README's "The Listing 1 kernel" section
// discusses with the other departures from the pseudo-code:
//   * the fast path (§4.5), behind Options::enable_fast_path;
//   * LockBounded(), the failure counting that the fairness layer (§4.3) needs.
#ifndef SRL_CORE_LIST_RANGE_LOCK_H_
#define SRL_CORE_LIST_RANGE_LOCK_H_

#include <cassert>
#include <chrono>

#include "src/core/listing_one.h"
#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"

namespace srl {

class ListRangeLock {
 public:
  struct Options {
    // §4.5: constant-step acquire/release when the list is empty.
    bool enable_fast_path = false;
  };

  // Opaque handle to an acquired range; returned by Lock, consumed by Unlock.
  using Handle = LNode*;

  ListRangeLock() = default;
  explicit ListRangeLock(Options options) : options_(options) {}
  ListRangeLock(const ListRangeLock&) = delete;
  ListRangeLock& operator=(const ListRangeLock&) = delete;

  // Blocks until [range.start, range.end) is held exclusively. The returned handle must
  // be passed to Unlock() by the same logical owner (any thread may release it).
  Handle Lock(const Range& range) {
    Handle h = nullptr;
    AcquireImpl(range, /*max_failures=*/-1, Deadline::Infinite(), &h);
    return h;
  }

  // Non-blocking acquisition (down_write_trylock semantics): fails the moment the range
  // would have to wait for an overlapping holder. Lost insertion CASes are retried —
  // they signal contention on the list structure, not a held conflicting range — so a
  // TryLock of a range that conflicts with nothing held always succeeds.
  bool TryLock(const Range& range, Handle* out) {
    return AcquireImpl(range, /*max_failures=*/-1, Deadline::Immediate(), out);
  }

  // Timed acquisition: blocks like Lock() but gives up (returns false, no range held)
  // once `timeout` has elapsed. The waiter aborts before ever entering the list, so an
  // abandoned acquisition leaves no trace for other threads to clean up.
  bool LockFor(const Range& range, std::chrono::nanoseconds timeout, Handle* out) {
    return AcquireImpl(range, /*max_failures=*/-1, Deadline::After(timeout), out);
  }

  // Bounded-patience variant for the fairness layer: gives up (returns false, no range
  // held) once the acquisition suffered more than `max_failures` lock-induced failures
  // (lost insertion CASes or forced traversal restarts). Waiting for an overlapping
  // holder does not count — that is ordinary blocking, not starvation.
  bool LockBounded(const Range& range, int max_failures, Handle* out) {
    return AcquireImpl(range, max_failures, Deadline::Infinite(), out);
  }

  // Releases an acquired range. Wait-free: one atomic fetch_add (plus a CAS attempt on
  // the fast path).
  void Unlock(Handle node) { list_.Release(node, options_.enable_fast_path); }

  // RAII guard.
  class Guard {
   public:
    Guard(ListRangeLock& lock, const Range& range) : lock_(lock), h_(lock.Lock(range)) {}
    ~Guard() { lock_.Unlock(h_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    ListRangeLock& lock_;
    Handle h_;
  };

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes currently in the list.
  int DebugHeldCount() const { return list_.DebugHeldCount(); }

  // Checks Invariant 1: consecutive held ranges satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const { return list_.DebugInvariantHolds(); }

 private:
  bool AcquireImpl(const Range& range, int max_failures, const Deadline& deadline,
                   Handle* out) {
    assert(range.Valid() && "range locks require start < end");
    LNode* node = ListingOneList::NewNode(range, /*reader=*/false);
    if (options_.enable_fast_path && list_.TryFastAcquire(node)) {
      *out = node;
      return true;
    }

    EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
    // Concurrency restriction for the slow path: once yielding between watch rounds,
    // the spinner caps how many contenders actively re-traverse at ~#cores and parks
    // the surplus (outside the epoch critical section — Pause runs between
    // Exit/Enter, so a parked thread never pins reclamation). Timed and immediate
    // deadlines make it inert. The slot, if held, releases when this frame returns.
    AdmissionSpinner gate_spinner(&gate_, deadline);
    int failures = 0;
    EpochDomain::Enter(rec);
    const bool ok =
        list_.Insert(node, rec, deadline, gate_spinner, max_failures, &failures);
    EpochDomain::Exit(rec);
    if (ok) {
      *out = node;
      return true;
    }
    NodePool<LNode>::Local().Recycle(node);  // never entered the list
    return false;
  }

  ListingOneList list_;
  Options options_;
  // Caps active contenders on the slow path (see AcquireImpl).
  AdmissionGate gate_;
};

}  // namespace srl

#endif  // SRL_CORE_LIST_RANGE_LOCK_H_
