#include "tinkerpop/gremlin_server.h"

#include <future>

#include "obs/profiler.h"
#include "tinkerpop/bytecode.h"
#include "util/stopwatch.h"

namespace graphbench {

namespace {

// One request's state, shared by the submitting client and the worker.
// The two stamps are written only under a profile. The pool's queue mutex
// orders `enqueued_at` before the worker reads it, and the reply hand-off
// orders `finished_at` before the client reads it.
struct Request {
  std::string bytecode;
  std::promise<Result<std::string>> reply;
  uint64_t enqueued_at = 0;
  uint64_t finished_at = 0;
};

// Server side: decode the bytecode, execute it, encode the response frame.
// A byte-identical request reuses the cached traversal template, so the
// decodeRequest row shrinks to the cache probe on hits.
Result<std::string> Serve(GremlinGraph* graph,
                          lang::PlanCache<Traversal>* plan_cache,
                          const std::string& bytecode) {
  obs::OpTimer decode_op("decodeRequest");
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
  // the client blocks on reply.get() while the worker runs, so only one
  // thread records at a time.
  obs::QueryProfile* profile = obs::ActiveProfile();
  // Client side: encode the traversal to bytecode.
  std::string bytecode = gremlinio::EncodeTraversal(traversal);
  serialize_op.Stop();

  // Client-side dispatch: the request state and the task closure. Stops
  // before the pool hand-off: once the worker can run it may record into
  // the same profile, so this timer must not overlap it (the hand-off
  // itself lands in the worker's "queue" wait).
  obs::OpTimer dispatch_op("dispatchRequest");
  auto request = std::make_shared<Request>();
  request->bytecode = std::move(bytecode);
  std::future<Result<std::string>> reply = request->reply.get_future();
  std::function<void()> task = [graph = graph_,
                                plan_cache = plan_cache_.get(), profile,
                                request] {
    obs::ProfileScope profile_scope(profile);
    if (profile != nullptr) {
      uint64_t waited = NowMicros() - request->enqueued_at;
      profile->Record("queue", 1, 0, waited, waited);
    }
    Result<std::string> frame = Serve(graph, plan_cache, request->bytecode);
    // Stamped right before set_value wakes the client, so the client's
    // awaitResponse row holds the wake-up delay of reply.get() (real
    // Gremlin clients see the same scheduling gap on the response path).
    if (profile != nullptr) request->finished_at = NowMicros();
    request->reply.set_value(std::move(frame));
  };
  dispatch_op.Stop();
  if (profile != nullptr) request->enqueued_at = NowMicros();
  if (!pool_.Submit(std::move(task))) {
    ++rejected_;
    return Status::Busy("gremlin server request queue full");
  }

  Result<std::string> frame = reply.get();
  if (profile != nullptr) {
    uint64_t wake = NowMicros() - request->finished_at;
    profile->Record("awaitResponse", 1, 0, wake, wake);
  }
  if (!frame.ok()) return frame.status();
  ++served_;
  // Client side: decode the response frame.
  obs::OpTimer deserialize_op("deserialize");
  Result<std::vector<Value>> decoded = gremlinio::DecodeResults(*frame);
  if (decoded.ok()) deserialize_op.AddRows(decoded->size());
  return decoded;
}

Result<std::vector<Value>> GremlinServer::SubmitEmbedded(
    const Traversal& traversal) {
  return ExecuteTraversal(graph_, traversal);
}

}  // namespace graphbench
