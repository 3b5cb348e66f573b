#ifndef GRAPHBENCH_TINKERPOP_GREMLIN_SERVER_H_
#define GRAPHBENCH_TINKERPOP_GREMLIN_SERVER_H_

#include <atomic>
#include <memory>

#include "lang/plan_cache.h"
#include "tinkerpop/structure.h"
#include "tinkerpop/traversal.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace graphbench {

struct GremlinServerOptions {
  /// Worker threads executing traversals (gremlinPool in the real server).
  size_t workers = 4;
  /// Bounded request queue; submissions beyond it are rejected. The real
  /// Gremlin Server hangs and eventually crashes under floods of complex
  /// queries (§4.4) — we degrade to Busy errors, which the driver counts.
  size_t max_queue = 256;
  /// Server-side cache of decoded bytecode→traversal templates, keyed by
  /// the bytecode string; 0 disables it (the paper-faithful default:
  /// every request re-decodes). Because parameters are still inlined in
  /// the bytecode, only byte-identical submissions hit (see ROADMAP:
  /// parameterized Gremlin bytecode).
  size_t plan_cache_capacity = 0;
};

/// In-process Gremlin Server analog. Clients submit traversals which are
/// (1) serialized to bytecode, (2) queued to a worker pool, (3) decoded
/// and executed against the provider graph, (4) results serialized back
/// and decoded client-side. Steps 1-4 are real work on every request —
/// the platform-agnostic-access tax of Figure 2.
///
/// The two thread hand-offs are not modelled work, so they poll before
/// they sleep: a worker that has just served a request polls the shared
/// queue, and the client polls its request's reply slot, each for
/// ThreadPool::kPollRounds yields before parking (a condition variable and
/// an atomic wait). Back-to-back requests thus pay no futex wake-up, while
/// an idle server still parks within ~50 µs.
class GremlinServer {
 public:
  GremlinServer(GremlinGraph* graph, GremlinServerOptions options = {});
  ~GremlinServer();

  GremlinServer(const GremlinServer&) = delete;
  GremlinServer& operator=(const GremlinServer&) = delete;

  /// Synchronous round trip. Busy when the request queue is full.
  ///
  /// Under the caller's active QueryProfile (obs::ProfileScope) one call
  /// records the rows `serialize`, `dispatchRequest`, `queue`,
  /// `decodeRequest`, the traversal's step rows, `encodeResults`,
  /// `awaitResponse` and `deserialize`: the Figure 2 tax, stage by stage.
  /// With no profile installed it reads no clock.
  Result<std::vector<Value>> Submit(const Traversal& traversal);

  /// Bypass the server layer: execute directly against the provider
  /// (TinkerPop "embedded" mode). Used by the ablation benchmark.
  Result<std::vector<Value>> SubmitEmbedded(const Traversal& traversal);

  uint64_t requests_served() const { return served_; }
  uint64_t requests_rejected() const { return rejected_; }

  GremlinGraph* graph() { return graph_; }

  bool plan_cache_enabled() const { return plan_cache_ != nullptr; }
  lang::PlanCacheStats plan_cache_stats() const {
    return plan_cache_ == nullptr ? lang::PlanCacheStats{}
                                  : plan_cache_->Stats();
  }

 private:
  GremlinGraph* graph_;
  /// Decoded-traversal cache shared by the workers; null when disabled.
  std::unique_ptr<lang::PlanCache<Traversal>> plan_cache_;
  ThreadPool pool_;
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace graphbench

#endif  // GRAPHBENCH_TINKERPOP_GREMLIN_SERVER_H_
