#include "sut/sut.h"

#include <cstdio>
#include <optional>

#include "concurrency/epoch.h"
#include "sut/cypher_sut.h"
#include "sut/gremlin_sut.h"
#include "sut/matrix_sut.h"
#include "sut/relational_sut.h"
#include "sut/sparql_sut.h"
#include "util/string_util.h"

namespace graphbench {

Sut::Sut(SutKind kind, Facade facade)
    : kind_(kind), facade_(facade), probe_(SutKindId(kind)) {}

Status Sut::Load(const snb::Dataset& data) {
  if (facade_ == Facade::kForward) return DoLoad(data);
  concurrency::WriteBatch batch;
  return DoLoad(data);
}

template <typename Body>
auto Sut::Read(Body&& body) -> decltype(body()) {
  if (facade_ == Facade::kForward) return body();
  concurrency::EpochGuard guard;
  decltype(body()) result = body();
  probe_.EndRead(result.ok());
  return result;
}

Result<QueryResult> Sut::PointLookup(int64_t person_id) {
  return Read([&] { return DoPointLookup(person_id); });
}

Result<QueryResult> Sut::OneHop(int64_t person_id) {
  return Read([&] { return DoOneHop(person_id); });
}

Result<QueryResult> Sut::TwoHop(int64_t person_id) {
  return Read([&] { return DoTwoHop(person_id); });
}

Result<int> Sut::ShortestPathLen(int64_t from_person, int64_t to_person) {
  return Read([&] { return DoShortestPathLen(from_person, to_person); });
}

Result<QueryResult> Sut::RecentPosts(int64_t person_id, int64_t limit) {
  return Read([&] { return DoRecentPosts(person_id, limit); });
}

Result<QueryResult> Sut::FriendsWithName(int64_t person_id,
                                         const std::string& first_name) {
  return Read([&] { return DoFriendsWithName(person_id, first_name); });
}

Result<QueryResult> Sut::RepliesOfPost(int64_t post_id) {
  return Read([&] { return DoRepliesOfPost(post_id); });
}

Result<QueryResult> Sut::TopPosters(int64_t limit) {
  return Read([&] { return DoTopPosters(limit); });
}

Status Sut::Apply(const snb::UpdateOp& op) {
  std::optional<concurrency::WriteBatch> batch;
  if (facade_ == Facade::kFull) batch.emplace();
  Status st = DoApply(op);
  if (facade_ != Facade::kForward) probe_.EndWrite(st.ok());
  return st;
}

std::unique_ptr<Sut> MakeSut(SutKind kind) {
  switch (kind) {
    case SutKind::kNeo4jCypher:
      return std::make_unique<CypherSut>();
    case SutKind::kNeo4jGremlin:
      return MakeNeo4jGremlinSut();
    case SutKind::kTitanC:
      return MakeTitanCSut();
    case SutKind::kTitanB:
      return MakeTitanBSut();
    case SutKind::kSqlg:
      return MakeSqlgSut();
    case SutKind::kPostgresSql:
      return std::make_unique<RelationalSut>(StorageMode::kRow);
    case SutKind::kVirtuosoSql:
      return std::make_unique<RelationalSut>(StorageMode::kColumnar);
    case SutKind::kVirtuosoSparql:
      return std::make_unique<SparqlSut>();
    case SutKind::kMatrix:
      return std::make_unique<MatrixSut>();
  }
  return nullptr;
}

namespace {

// Durable variants for the configurations that have a paged analog; the
// rest fall back to the in-memory factory (documented in DESIGN.md §12).
std::unique_ptr<Sut> MakeDurableSut(SutKind kind,
                                    const storage::DurabilityOptions& dur) {
  switch (kind) {
    case SutKind::kTitanB: {
      Result<std::unique_ptr<GremlinSut>> sut = MakeTitanBSut(dur);
      if (!sut.ok()) {
        std::fprintf(stderr, "titan-b: durable open failed: %s\n",
                     sut.status().message().c_str());
        return nullptr;
      }
      return std::move(sut).value();
    }
    case SutKind::kPostgresSql:
      return std::make_unique<RelationalSut>(StorageMode::kRow, dur);
    case SutKind::kVirtuosoSql:
      return std::make_unique<RelationalSut>(StorageMode::kColumnar, dur);
    case SutKind::kNeo4jCypher: {
      NativeGraphOptions graph_options;
      graph_options.durability = dur;
      return std::make_unique<CypherSut>(graph_options);
    }
    default:
      return MakeSut(kind);
  }
}

}  // namespace

std::unique_ptr<Sut> MakeSut(SutKind kind, const SutOptions& options) {
  std::unique_ptr<Sut> sut = options.durability.enabled
                                 ? MakeDurableSut(kind, options.durability)
                                 : MakeSut(kind);
  if (sut == nullptr) return sut;
  if (options.plan_cache) sut->EnablePlanCache();
  return sut;
}

std::vector<SutKind> AllSutKinds() {
  return {SutKind::kNeo4jCypher, SutKind::kNeo4jGremlin,
          SutKind::kTitanC,      SutKind::kTitanB,
          SutKind::kSqlg,        SutKind::kPostgresSql,
          SutKind::kVirtuosoSql, SutKind::kVirtuosoSparql,
          SutKind::kMatrix};
}

const char* SutKindName(SutKind kind) {
  switch (kind) {
    case SutKind::kNeo4jCypher: return "Neo4j (Cypher)";
    case SutKind::kNeo4jGremlin: return "Neo4j (Gremlin)";
    case SutKind::kTitanC: return "Titan-C (Gremlin)";
    case SutKind::kTitanB: return "Titan-B (Gremlin)";
    case SutKind::kSqlg: return "Sqlg (Gremlin)";
    case SutKind::kPostgresSql: return "Postgres (SQL)";
    case SutKind::kVirtuosoSql: return "Virtuoso (SQL)";
    case SutKind::kVirtuosoSparql: return "Virtuoso (SPARQL)";
    case SutKind::kMatrix: return "Matrix (GraphBLAS)";
  }
  return "unknown";
}

const char* SutKindId(SutKind kind) {
  switch (kind) {
    case SutKind::kNeo4jCypher: return "neo4j";
    case SutKind::kNeo4jGremlin: return "neo4j-gremlin";
    case SutKind::kTitanC: return "titan-c";
    case SutKind::kTitanB: return "titan-b";
    case SutKind::kSqlg: return "sqlg";
    case SutKind::kPostgresSql: return "postgres";
    case SutKind::kVirtuosoSql: return "virtuoso";
    case SutKind::kVirtuosoSparql: return "sparql";
    case SutKind::kMatrix: return "matrix";
  }
  return "unknown";
}

Result<SutKind> ParseSutKind(std::string_view name) {
  for (SutKind kind : AllSutKinds()) {
    if (EqualsIgnoreCase(name, SutKindId(kind)) ||
        EqualsIgnoreCase(name, SutKindName(kind))) {
      return kind;
    }
  }
  // Aliases kept for older command lines and docs.
  if (EqualsIgnoreCase(name, "neo4j-cypher")) return SutKind::kNeo4jCypher;
  if (EqualsIgnoreCase(name, "virtuoso-sql")) return SutKind::kVirtuosoSql;
  if (EqualsIgnoreCase(name, "virtuoso-sparql")) {
    return SutKind::kVirtuosoSparql;
  }
  if (EqualsIgnoreCase(name, "titan")) return SutKind::kTitanC;
  if (EqualsIgnoreCase(name, "graphblas") || EqualsIgnoreCase(name, "linalg")) {
    return SutKind::kMatrix;
  }
  std::string known;
  for (SutKind kind : AllSutKinds()) {
    if (!known.empty()) known += "|";
    known += SutKindId(kind);
  }
  return Status::InvalidArgument("unknown SUT \"" + std::string(name) +
                                 "\" (expected one of " + known + ")");
}

Result<std::unique_ptr<Sut>> MakeSut(std::string_view name) {
  GB_ASSIGN_OR_RETURN(SutKind kind, ParseSutKind(name));
  return MakeSut(kind);
}

}  // namespace graphbench
