#include "tinkerpop/gremlin_server.h"

#include <thread>

#include "obs/profiler.h"
#include "tinkerpop/bytecode.h"
#include "util/stopwatch.h"

namespace graphbench {

namespace {

// One request's state, shared by the submitting client and the worker, so
// the worker's notify after publishing never touches a freed slot. The two
// stamps are read only under a profile. The pool's queue mutex orders
// `enqueued_at` before the worker reads it; the store of `ready` orders
// `frame` and `finished_at` before the client reads them.
//
// `ready` is stored and waited on seq_cst, not release/acquire.
// libstdc++'s notify_one skips the futex wake when its count of waiters
// reads zero, and a waiter counts itself in before it reads `ready`. With
// a release store the worker may read that count before its store is
// visible, while the client counts itself in and still reads 0: the client
// then sleeps on a published reply that no wake reaches. That happened in
// a 20-s short_reads run, which hung with the client parked on
// `ready` == 1 and every worker idle.
struct Request {
  std::string bytecode;
  Result<std::string> frame{std::string()};
  std::atomic<uint32_t> ready{0};
  uint64_t enqueued_at = 0;
  uint64_t finished_at = 0;
};

// Server side: decode the bytecode, execute it, encode the response frame.
// A byte-identical request reuses the cached traversal template, so the
// decodeRequest row shrinks to the cache probe on hits. decodeRequest
// starts at `dequeued_at`, where the queue row ended.
Result<std::string> Serve(GremlinGraph* graph,
                          lang::PlanCache<Traversal>* plan_cache,
                          const std::string& bytecode, uint64_t dequeued_at) {
  obs::OpTimer decode_op("decodeRequest", dequeued_at);
  std::shared_ptr<const Traversal> traversal;
  if (plan_cache != nullptr) traversal = plan_cache->Lookup(bytecode);
  if (traversal == nullptr) {
    GB_ASSIGN_OR_RETURN(Traversal decoded,
                        gremlinio::DecodeTraversal(bytecode));
    traversal = std::make_shared<const Traversal>(std::move(decoded));
    if (plan_cache != nullptr) plan_cache->Insert(bytecode, traversal);
  }
  decode_op.Stop();
  GB_ASSIGN_OR_RETURN(std::vector<Value> results,
                      ExecuteTraversal(graph, *traversal));
  obs::OpTimer encode_op("encodeResults");
  std::string frame = gremlinio::EncodeResults(results);
  encode_op.AddRows(results.size());
  return frame;
}

}  // namespace

GremlinServer::GremlinServer(GremlinGraph* graph,
                             GremlinServerOptions options)
    : graph_(graph), pool_(options.workers, options.max_queue) {
  if (options.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<lang::PlanCache<Traversal>>(
        "gremlin", options.plan_cache_capacity);
  }
}

GremlinServer::~GremlinServer() { pool_.Shutdown(); }

Result<std::vector<Value>> GremlinServer::Submit(const Traversal& traversal) {
  obs::OpTimer serialize_op("serialize");
  // The submitting thread's active profile, handed to the worker so the
  // traversal's per-step OpTimers land in the client's QueryProfile. Safe:
  // the client awaits the reply while the worker runs, so only one thread
  // records at a time.
  obs::QueryProfile* profile = obs::ActiveProfile();
  // Client side: encode the traversal to bytecode.
  std::string bytecode = gremlinio::EncodeTraversal(traversal);
  // Each client-side stage starts where the one before it stopped.
  const uint64_t serialized_at = serialize_op.Stop();

  // Client-side dispatch: the request state and the task closure. Stops
  // before the pool hand-off: once the worker can run it may record into
  // the same profile, so this timer must not overlap it (the hand-off
  // itself lands in the worker's "queue" wait).
  obs::OpTimer dispatch_op("dispatchRequest", serialized_at);
  auto request = std::make_shared<Request>();
  request->bytecode = std::move(bytecode);
  std::function<void()> task = [graph = graph_,
                                plan_cache = plan_cache_.get(), profile,
                                request] {
    obs::ProfileScope profile_scope(profile);
    uint64_t dequeued_at = 0;
    if (profile != nullptr) {
      dequeued_at = NowMicros();
      uint64_t waited = dequeued_at - request->enqueued_at;
      profile->Record("queue", 1, 0, waited, waited);
    }
    request->frame =
        Serve(graph, plan_cache, request->bytecode, dequeued_at);
    // Stamped right before the reply is published, so the client's
    // awaitResponse row holds the delay until it sees the reply (real
    // Gremlin clients see the same scheduling gap on the response path).
    if (profile != nullptr) request->finished_at = NowMicros();
    request->ready.store(1, std::memory_order_seq_cst);
    request->ready.notify_one();
  };
  request->enqueued_at = dispatch_op.Stop();
  if (!pool_.Submit(std::move(task))) {
    ++rejected_;
    return Status::Busy("gremlin server request queue full");
  }

  // Poll for the reply as the pool's workers poll for tasks, then park.
  for (int i = 0; i < ThreadPool::kPollRounds &&
                  request->ready.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::yield();
  }
  request->ready.wait(0, std::memory_order_seq_cst);
  uint64_t replied_at = 0;
  if (profile != nullptr) {
    replied_at = NowMicros();
    uint64_t wake = replied_at - request->finished_at;
    profile->Record("awaitResponse", 1, 0, wake, wake);
  }
  const Result<std::string>& frame = request->frame;
  if (!frame.ok()) return frame.status();
  ++served_;
  // Client side: decode the response frame, then free the request (the
  // worker has usually dropped its share by now), so the row holds both.
  obs::OpTimer deserialize_op("deserialize", replied_at);
  Result<std::vector<Value>> decoded = gremlinio::DecodeResults(*frame);
  if (decoded.ok()) deserialize_op.AddRows(decoded->size());
  request.reset();
  return decoded;
}

Result<std::vector<Value>> GremlinServer::SubmitEmbedded(
    const Traversal& traversal) {
  return ExecuteTraversal(graph_, traversal);
}

}  // namespace graphbench
