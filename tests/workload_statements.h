// The statement texts the declarative SUTs send, copied verbatim from
// sut/relational_sut.cc, sut/cypher_sut.cc and sut/sparql_sut.cc: the
// eight reads of each language plus the SQL and Cypher update statements.
// Front-end tests lex, parse and mutate these; tests that hold a SUT check
// the copies against Sut::StatementText so they cannot drift.

#ifndef GRAPHBENCH_TESTS_WORKLOAD_STATEMENTS_H_
#define GRAPHBENCH_TESTS_WORKLOAD_STATEMENTS_H_

namespace graphbench {
namespace workload_statements {

struct Statement {
  const char* name;  // the read's StatementText kind, or the update's name
  const char* text;
};

inline constexpr Statement kSql[] = {
    {"point_lookup",
     "SELECT firstName, lastName, gender, birthday, browserUsed, "
     "locationIP FROM person WHERE id = ?"},
    {"one_hop",
     "SELECT p.id, p.firstName, p.lastName FROM knows k "
     "JOIN person p ON k.person2Id = p.id WHERE k.person1Id = ?"},
    {"two_hop",
     "SELECT DISTINCT p.id FROM knows k1 "
     "JOIN knows k2 ON k1.person2Id = k2.person1Id "
     "JOIN person p ON k2.person2Id = p.id "
     "WHERE k1.person1Id = ? AND p.id <> ?"},
    {"shortest_path",
     "SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)"},
    {"recent_posts",
     "SELECT p.id, p.content, p.creationDate FROM post p "
     "WHERE p.creatorId = ? ORDER BY p.creationDate DESC LIMIT ?"},
    {"friends_with_name",
     "SELECT p.id, p.lastName FROM knows k "
     "JOIN person p ON k.person2Id = p.id "
     "WHERE k.person1Id = ? AND p.firstName = ? ORDER BY p.id"},
    {"replies_of_post",
     "SELECT c.id, c.content, c.creatorId FROM comment c "
     "WHERE c.replyOfPost = ? ORDER BY c.creationDate DESC"},
    {"top_posters",
     "SELECT p.creatorId, COUNT(*) AS n FROM post p "
     "GROUP BY p.creatorId ORDER BY n DESC, creatorId LIMIT ?"},
    {"insert_person",
     "INSERT INTO person (id, firstName, lastName, gender, "
     "birthday, creationDate, browserUsed, locationIP, cityId) "
     "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"},
    {"insert_knows",
     "INSERT INTO knows (person1Id, person2Id, creationDate) "
     "VALUES (?, ?, ?)"},
    {"delete_knows",
     "DELETE FROM knows WHERE person1Id = ? AND person2Id = ?"},
    {"insert_forum",
     "INSERT INTO forum (id, title, creationDate, moderatorId) "
     "VALUES (?, ?, ?, ?)"},
    {"insert_forum_member",
     "INSERT INTO forum_member (forumId, personId, joinDate) "
     "VALUES (?, ?, ?)"},
    {"insert_post",
     "INSERT INTO post (id, content, creationDate, creatorId, forumId, "
     "browserUsed) VALUES (?, ?, ?, ?, ?, ?)"},
    {"insert_comment",
     "INSERT INTO comment (id, content, creationDate, creatorId, "
     "replyOfPost, replyOfComment) VALUES (?, ?, ?, ?, ?, ?)"},
    {"insert_like_post",
     "INSERT INTO likes_post (personId, postId, creationDate) "
     "VALUES (?, ?, ?)"},
    {"insert_like_comment",
     "INSERT INTO likes_comment (personId, commentId, creationDate) "
     "VALUES (?, ?, ?)"},
};

inline constexpr Statement kCypher[] = {
    {"point_lookup",
     "MATCH (p:Person {id: $id}) RETURN p.firstName, p.lastName, "
     "p.gender, p.birthday, p.browserUsed, p.locationIP"},
    {"one_hop",
     "MATCH (p:Person {id: $id})-[:knows]-(f) "
     "RETURN f.id, f.firstName, f.lastName"},
    {"two_hop",
     "MATCH (p:Person {id: $id})-[:knows]-(f)-[:knows]-(ff) "
     "WHERE ff.id <> $id RETURN DISTINCT ff.id"},
    {"shortest_path",
     "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
     "RETURN length(shortestPath((a)-[:knows*]-(b))) AS len"},
    {"recent_posts",
     "MATCH (p:Person {id: $id})<-[:postHasCreator]-(post) "
     "RETURN post.id, post.content, post.creationDate "
     "ORDER BY post.creationDate DESC LIMIT $limit"},
    {"friends_with_name",
     "MATCH (p:Person {id: $id})-[:knows]-(f) WHERE f.firstName = $name "
     "RETURN f.id, f.lastName ORDER BY f.id"},
    {"replies_of_post",
     "MATCH (post:Post {id: $id})<-[:replyOfPost]-(c)"
     "-[:commentHasCreator]->(cr) "
     "RETURN c.id, c.content, cr.id "
     "ORDER BY c.creationDate DESC"},
    {"top_posters",
     "MATCH (post:Post)-[:postHasCreator]->(p) "
     "RETURN p.id, count(*) AS n "
     "ORDER BY count(*) DESC, p.id LIMIT $limit"},
    {"create_person",
     "CREATE (p:Person {id: $id, firstName: $fn, "
     "lastName: $ln, gender: $g, birthday: $b, "
     "creationDate: $cd, browserUsed: $br, "
     "locationIP: $ip})"},
    {"create_knows",
     "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
     "CREATE (a)-[:knows {creationDate: $cd}]->(b)"},
    {"create_forum",
     "CREATE (f:Forum {id: $id, title: $t, "
     "creationDate: $cd})"},
    {"create_has_moderator",
     "MATCH (f:Forum {id: $f}), (p:Person {id: $p}) "
     "CREATE (f)-[:hasModerator]->(p)"},
    {"create_has_member",
     "MATCH (f:Forum {id: $f}), (p:Person {id: $p}) "
     "CREATE (f)-[:hasMember {joinDate: $jd}]->(p)"},
    {"create_post",
     "CREATE (post:Post {id: $id, content: $c, "
     "creationDate: $cd, browserUsed: $br})"},
    {"create_post_has_creator",
     "MATCH (post:Post {id: $post}), "
     "(p:Person {id: $p}) "
     "CREATE (post)-[:postHasCreator]->(p)"},
    {"create_container_of",
     "MATCH (f:Forum {id: $f}), (post:Post {id: $post}) "
     "CREATE (f)-[:containerOf]->(post)"},
    {"create_comment",
     "CREATE (c:Comment {id: $id, content: $c, "
     "creationDate: $cd})"},
    {"create_comment_has_creator",
     "MATCH (c:Comment {id: $c}), (p:Person {id: $p}) "
     "CREATE (c)-[:commentHasCreator]->(p)"},
    {"create_reply_of_post",
     "MATCH (c:Comment {id: $c}), (post:Post {id: $p}) "
     "CREATE (c)-[:replyOfPost]->(post)"},
    {"create_reply_of_comment",
     "MATCH (c:Comment {id: $c}), (pc:Comment {id: $p}) "
     "CREATE (c)-[:replyOfComment]->(pc)"},
    {"create_likes_post",
     "MATCH (p:Person {id: $p}), (post:Post {id: $t}) "
     "CREATE (p)-[:likesPost {creationDate: $cd}]->(post)"},
    {"create_likes_comment",
     "MATCH (p:Person {id: $p}), (c:Comment {id: $t}) "
     "CREATE (p)-[:likesComment {creationDate: $cd}]->(c)"},
};

inline constexpr Statement kSparql[] = {
    {"point_lookup",
     "SELECT ?fn ?ln ?g ?b ?br ?ip WHERE { "
     "?p snb:id $person_id ; rdf:type snb:Person ; snb:firstName ?fn ; "
     "snb:lastName ?ln ; snb:gender ?g ; snb:birthday ?b ; "
     "snb:browserUsed ?br ; snb:locationIP ?ip }"},
    {"one_hop",
     "SELECT ?fid ?fn ?ln WHERE { "
     "?p snb:id $person_id ; rdf:type snb:Person . ?p snb:knows ?f . "
     "?f snb:id ?fid ; snb:firstName ?fn ; snb:lastName ?ln }"},
    {"two_hop",
     "SELECT DISTINCT ?ffid WHERE { "
     "?p snb:id $person_id ; rdf:type snb:Person . ?p snb:knows ?f . "
     "?f snb:knows ?ff . FILTER(?ff != ?p) . ?ff snb:id ?ffid }"},
    {"shortest_path",
     "SELECT (shortestPath(?a, ?b, snb:knows) AS ?len) WHERE { "
     "?a snb:id $from_id ; rdf:type snb:Person . "
     "?b snb:id $to_id ; rdf:type snb:Person }"},
    {"recent_posts",
     "SELECT ?pid ?content ?date WHERE { "
     "?p snb:id $person_id ; rdf:type snb:Person . "
     "?post snb:hasCreator ?p ; rdf:type snb:Post ; snb:id ?pid ; "
     "snb:content ?content ; snb:creationDate ?date } "
     "ORDER BY DESC(?date) LIMIT $limit"},
    {"friends_with_name",
     "SELECT ?fid ?ln WHERE { ?p snb:id $person_id ; rdf:type snb:Person . "
     "?p snb:knows ?f . ?f snb:firstName $first_name ; snb:id ?fid ; "
     "snb:lastName ?ln } ORDER BY ?fid"},
    {"replies_of_post",
     "SELECT ?cid ?content ?crid WHERE { "
     "?post snb:id $post_id ; rdf:type snb:Post . ?c snb:replyOf ?post . "
     "?c snb:id ?cid ; snb:content ?content ; snb:creationDate ?date . "
     "?c snb:hasCreator ?cr . ?cr snb:id ?crid } ORDER BY DESC(?date)"},
    {"top_posters",
     "SELECT ?pid (COUNT(?post) AS ?n) WHERE { "
     "?post rdf:type snb:Post . ?post snb:hasCreator ?cr . "
     "?cr snb:id ?pid } GROUP BY ?pid ORDER BY DESC(?n) ?pid LIMIT $limit"},
};

}  // namespace workload_statements
}  // namespace graphbench

#endif  // GRAPHBENCH_TESTS_WORKLOAD_STATEMENTS_H_
