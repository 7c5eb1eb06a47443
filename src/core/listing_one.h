// The paper's Listing 1 over one head word: the kernel the list-based range locks are
// built from.
//
// Acquired ranges live in a singly-linked list of LNodes sorted by start address.
// Inserting a node with a single CAS *is* acquiring its range: overlapping requests
// compete for the same insertion point, so at most one can be in the list at a time.
// Releasing marks the node's next pointer (one fetch_add — wait-free); marked nodes are
// physically unlinked by later traversals (Harris-style helping) and retired through the
// epoch scheme of src/epoch/.
//
//   * ListRangeLock (list-ex) is one list;
//   * ListRwRangeLock (list-rw) is one list whose insertions are followed by Listing 3's
//     validation pass; the compare below is Listing 2's, which is Listing 1's for
//     exclusive nodes;
//   * ListLockFreeRangeLock (list-lf) is one list per hash bucket;
//   * SkiplistRangeLock runs its own index and uses only the conflict wait.
//
// Departures from the pseudo-code:
//   * the conflict wait watches the conflicting node for a bounded number of spins and
//     then briefly leaves its epoch critical section and restarts from the head. This
//     matches the behaviour the paper describes for the kernel variant ("threads block
//     for a small period of time ... and recheck the range", §7.2) and keeps epoch
//     barriers from stalling behind application-length critical sections;
//   * the §4.5 fast path: an acquisition that finds the list empty installs its node
//     marked-at-head with one CAS and never enters the epoch critical section; the
//     first slow-path traversal to see the marked head strips the mark, converting the
//     node into a regular list node;
//   * an optional failure budget (lost CASes and forced restarts) for the fairness
//     layer (§4.3).
#ifndef SRL_CORE_LISTING_ONE_H_
#define SRL_CORE_LISTING_ONE_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/core/lnode.h"
#include "src/core/range.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"
#include "src/sync/admission.h"
#include "src/sync/deadline.h"
#include "src/sync/spin_wait.h"

namespace srl {

class ListingOneList {
 public:
  // Outcome of one watch of a conflicting node.
  enum class WaitResult {
    kReleased,  // the conflicting node became marked; proceed
    kRestart,   // cycled the epoch critical section; re-traverse from the head
    kTimedOut,  // the deadline expired (or was immediate) with the conflict still held
  };

  ListingOneList() = default;
  ListingOneList(const ListingOneList&) = delete;
  ListingOneList& operator=(const ListingOneList&) = delete;

  // All ranges must have been released; residual marked nodes (released but never
  // unlinked because no later traversal passed by) are freed here. A marked head is a
  // live fast-path holder: once released, its head is either CASed back to zero or (if
  // stripped first) left unmarked with a marked node.
  ~ListingOneList() {
    const uintptr_t word = head_.load(std::memory_order_acquire);
    assert(!IsMarked(word) && "range still held on the fast path at destruction");
    LNode* cur = ToNode(word);
    while (cur != nullptr) {
      const uintptr_t next = cur->next.load(std::memory_order_acquire);
      assert(IsMarked(next) && "range still held at destruction");
      LNode* succ = ToNode(next);
      delete cur;
      cur = succ;
    }
  }

  std::atomic<uintptr_t>& head() { return head_; }

  // A fresh pool node for `range`, not yet in any list.
  static LNode* NewNode(const Range& range, bool reader) {
    LNode* node = NodePool<LNode>::Local().Alloc();
    node->start = range.start;
    node->end = range.end;
    node->reader = reader;
    node->sibling = nullptr;
    node->next.store(0, std::memory_order_relaxed);
    return node;
  }

  // §4.5 fast-path acquire: succeeds only if the list is empty, installing `node`
  // marked-at-head. Ordering: acq_rel on success. The acquire half pairs with the
  // releasing CAS (head -> 0) of the previous fast-path holder, so its critical section
  // happens-before ours; the release half publishes node->{start,end,reader,sibling,
  // next} (written by NewNode, `next` relaxed) to the strip CAS in Insert that may later
  // convert this node into a regular list node — the stores are sequenced before this
  // CAS, so any thread that observes MarkedWord(node) in the head with an acquire load
  // sees them. Failure order relaxed: a failed fast path learns nothing and goes slow.
  bool TryFastAcquire(LNode* node) {
    uintptr_t expected = 0;
    return head_.load(std::memory_order_relaxed) == 0 &&
           head_.compare_exchange_strong(expected, MarkedWord(node),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  // Releases `node`: one fetch_add of the mark bit (wait-free). With `try_fast`, first
  // attempts the §4.5 fast-path release: if the head still holds `node` marked, one CAS
  // empties the list and the node recycles with no grace period — nobody else can
  // still reference it, because converting it into a regular node requires winning a
  // strip CAS against exactly this release. The caller must not touch `node` after
  // this returns: once marked, a concurrent traversal may unlink, retire and reuse it.
  void Release(LNode* node, bool try_fast) {
    if (try_fast) {
      uintptr_t expected = MarkedWord(node);
      // Ordering: the relaxed probe is only an optimization — the CAS repeats the
      // comparison with full strength. Its release success order pairs with the acquire
      // side of whichever CAS next observes head == 0, ordering this holder's
      // critical-section writes before the next holder's reads; failure needs no
      // ordering because a failed probe just falls through to the marked release.
      if (head_.load(std::memory_order_relaxed) == expected &&
          head_.compare_exchange_strong(expected, 0, std::memory_order_release,
                                        std::memory_order_relaxed)) {
        NodePool<LNode>::Local().Recycle(node);
        return;
      }
    }
    node->next.fetch_add(kMarkBit, std::memory_order_release);
  }

  // Listing 1's insertion loop; must run inside `rec`'s epoch critical section. Returns
  // true once `node` is linked (unmarked) into the list. Returns false — with `node`
  // guaranteed not in the list, so an abandoned acquisition leaves nothing behind —
  // when the deadline expired while an overlapping range was held, or, if
  // `max_failures` >= 0, once `*failures` exceeds it. Each lost insertion CAS and each
  // forced restart counts as a failure; waiting for an overlapping holder does not.
  bool Insert(LNode* node, EpochDomain::ThreadRec* rec, const Deadline& deadline,
              AdmissionSpinner& gate_spinner, int max_failures = -1,
              int* failures = nullptr) {
    for (;;) {
      std::atomic<uintptr_t>* prev = &head_;
      uintptr_t cur_word = prev->load(std::memory_order_acquire);
      bool at_head = true;
      for (;;) {
        if (IsMarked(cur_word)) {
          if (!at_head) {
            // prev's owner was logically deleted under us: the pointer into the list is
            // lost, restart from the head (Listing 1 line 32).
            if (max_failures >= 0 && ++*failures > max_failures) {
              return false;
            }
            break;
          }
          // Marked head == a fast-path holder. Strip the mark to convert its node into a
          // regular list node, then continue with the unmarked value. The node is not
          // dereferenced before the strip CAS succeeds — if its owner's releasing CAS
          // wins instead, the node may already be recycled.
          if (head_.compare_exchange_weak(cur_word, Unmark(cur_word),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            cur_word = Unmark(cur_word);
          }
          continue;
        }
        LNode* cur = ToNode(cur_word);
        if (cur != nullptr) {
          const uintptr_t cur_next = cur->next.load(std::memory_order_acquire);
          if (IsMarked(cur_next)) {
            // cur was released: help unlink it (Listing 1 lines 34–37).
            const uintptr_t succ = Unmark(cur_next);
            if (prev->compare_exchange_strong(cur_word, succ, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
              NodePool<LNode>::Local().Retire(cur);
              cur_word = succ;
            }
            continue;  // on CAS failure cur_word holds the fresh *prev
          }
          const int rel = Compare(cur, node);
          if (rel < 0) {
            prev = &cur->next;
            cur_word = cur_next;
            at_head = false;
            continue;
          }
          if (rel == 0) {
            const WaitResult w = WaitForRelease(cur->next, rec, deadline, gate_spinner);
            if (w == WaitResult::kTimedOut) {
              return false;
            }
            if (w == WaitResult::kRestart) {
              break;  // left the epoch CS while waiting; restart from head
            }
            continue;  // cur is now marked; the unlink branch above collects it
          }
          // rel > 0: insert before cur.
        }
        // Publication: the relaxed store of node->next is safe because no other thread
        // can reach `node` until the CAS below publishes it, and the CAS's release half
        // (seq_cst ⊇ release) orders the store — plus node->{start,end,reader} — before
        // any acquire load that observes NodeWord(node) in *prev. Exclusion between
        // overlapping exclusive acquirers needs no more: they compete for the SAME
        // insertion point, so it is decided by CAS success on one location. seq_cst on
        // success is there for list-rw, whose overlapping readers and writers may insert
        // at different points and must not both miss each other (a store-buffering
        // shape closed by this CAS plus the SeqCstFence each side runs after it); on
        // x86 and ARM LL/SC it costs nothing over acq_rel.
        node->next.store(cur_word, std::memory_order_relaxed);
        if (prev->compare_exchange_strong(cur_word, NodeWord(node),
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire)) {
          return true;
        }
        if (max_failures >= 0 && ++*failures > max_failures) {
          return false;
        }
        // Lost the race for this insertion point; cur_word holds the fresh *prev.
      }
    }
  }

  // Watches `mark_word` — a conflicting node's next word — until its owner releases the
  // node (marks the word) or the deadline expires. Once the bounded watch is exhausted
  // (SpinWait switches to yielding), briefly exits the epoch critical section so
  // reclamation barriers are never blocked behind an application critical section,
  // yields there through gate_spinner.Pause() — which also rotates the admission slot,
  // capping how many watchers burn scheduler quanta under oversubscription — and
  // reports kRestart: the caller must re-traverse, since the watched node may have
  // been reclaimed. An immediate deadline never watches at all: the trylock contract
  // is to fail as soon as a wait would begin.
  static WaitResult WaitForRelease(const std::atomic<uintptr_t>& mark_word,
                                   EpochDomain::ThreadRec* rec, const Deadline& deadline,
                                   AdmissionSpinner& gate_spinner) {
    if (deadline.IsImmediate()) {
      return IsMarked(mark_word.load(std::memory_order_acquire)) ? WaitResult::kReleased
                                                                 : WaitResult::kTimedOut;
    }
    SpinWait spin;
    for (int i = 0; !spin.Yielding(); ++i) {
      if (IsMarked(mark_word.load(std::memory_order_acquire))) {
        return WaitResult::kReleased;
      }
      if ((i + 1) % Deadline::kSpinsPerClockCheck == 0 && deadline.Expired()) {
        return WaitResult::kTimedOut;
      }
      spin.Spin();
    }
    EpochDomain::Exit(rec);
    // Outside the critical section, cede the CPU: on an oversubscribed host the holder
    // may be preempted — or parked at the gate — and re-traversing in a tight loop
    // would just burn our quantum.
    gate_spinner.Pause();
    EpochDomain::Enter(rec);
    return deadline.Expired() ? WaitResult::kTimedOut : WaitResult::kRestart;
  }

  // --- Test-only introspection (callers must guarantee quiescence) ---

  // Number of unmarked (held) nodes in the list, a fast-path holder included.
  int DebugHeldCount() const {
    int n = 0;
    for (const LNode* cur = ToNode(head_.load(std::memory_order_acquire)); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (!IsMarked(cur->next.load(std::memory_order_acquire))) {
        ++n;
      }
    }
    return n;
  }

  // Invariant 2: held ranges are sorted by start, and a held writer overlaps no held
  // successor. With only exclusive nodes this is Invariant 1: consecutive held ranges
  // satisfy r1.end <= r2.start.
  bool DebugInvariantHolds() const {
    const LNode* prev = nullptr;
    for (const LNode* cur = ToNode(head_.load(std::memory_order_acquire)); cur != nullptr;
         cur = ToNode(cur->next.load(std::memory_order_acquire))) {
      if (IsMarked(cur->next.load(std::memory_order_acquire))) {
        continue;  // released, logically absent
      }
      if (prev != nullptr) {
        if (prev->start > cur->start) {
          return false;
        }
        if ((!prev->reader || !cur->reader) && prev->end > cur->start) {
          return false;
        }
      }
      prev = cur;
    }
    return true;
  }

 private:
  // Listing 2's compare(): relationship of `cur` (in-list) to `node` (to insert).
  //  -1: keep traversing (cur precedes node, or reader-reader ordered by start).
  //   0: conflict — wait for cur's release before inserting.
  //  +1: insertion point found (node goes before cur).
  // For an exclusive `node` this is Listing 1's compare(): the two non-overlap tests
  // cannot both hold for valid ranges, so their order does not matter. `node->reader`
  // is tested first so exclusive locks never load cur->reader.
  static int Compare(const LNode* cur, const LNode* node) {
    const bool both_readers = node->reader && cur->reader;
    if (node->start >= cur->end) {
      return -1;
    }
    if (both_readers && node->start >= cur->start) {
      return -1;
    }
    if (cur->start >= node->end) {
      return 1;
    }
    if (both_readers && cur->start >= node->start) {
      return 1;
    }
    return 0;
  }

  std::atomic<uintptr_t> head_{0};
};

}  // namespace srl

#endif  // SRL_CORE_LISTING_ONE_H_
